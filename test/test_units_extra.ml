(* Focused unit tests for modules and edge paths not covered by the
   larger scenario suites: SIDs, cost-model specs, histograms, the
   cache module in isolation, row helpers, formatting, configuration
   predicates, Zen's store, TPC-C key packing, and assorted substrate
   edges. *)

module Stats = Nv_nvmm.Stats
module Memspec = Nv_nvmm.Memspec
module Pmem = Nv_nvmm.Pmem
module Layout = Nv_nvmm.Layout
module TP = Nv_storage.Transient_pool
open Nvcaracal

let stats () = Stats.create Memspec.default

(* --- Sid --- *)

let test_sid_roundtrip () =
  let s = Sid.make ~epoch:7 ~seq:123 in
  Alcotest.(check int) "epoch" 7 (Sid.epoch_of s);
  Alcotest.(check int) "seq" 123 (Sid.seq_of s);
  Alcotest.(check bool) "none" true (Sid.is_none Sid.none);
  Alcotest.(check bool) "not none" false (Sid.is_none s)

let prop_sid_order =
  QCheck.Test.make ~name:"sid order is (epoch, seq) lexicographic" ~count:500
    QCheck.(quad (int_range 1 1000) (int_range 0 100000) (int_range 1 1000) (int_range 0 100000))
    (fun (e1, s1, e2, s2) ->
      let a = Sid.make ~epoch:e1 ~seq:s1 and b = Sid.make ~epoch:e2 ~seq:s2 in
      compare (Sid.compare a b) 0 = compare (compare (e1, s1) (e2, s2)) 0)

(* --- Memspec --- *)

let test_memspec_ratios () =
  let d = Memspec.default in
  Alcotest.(check (float 0.01)) "write ratio" 11.9 (d.Memspec.nvmm_write_block_ns /. 93.0);
  Alcotest.(check (float 0.01)) "read ratio" 3.2 (d.Memspec.nvmm_read_block_ns /. 93.0);
  let dram = Memspec.dram_only in
  Alcotest.(check (float 0.001)) "dram-only fence free" 0.0 dram.Memspec.fence_ns;
  Alcotest.(check bool) "dram-only cheaper" true
    (dram.Memspec.nvmm_write_block_ns < d.Memspec.nvmm_write_block_ns)

let test_lines_touched () =
  let d = Memspec.default in
  Alcotest.(check int) "one line" 1 (Memspec.lines_touched d ~off:0 ~len:64);
  Alcotest.(check int) "straddle" 2 (Memspec.lines_touched d ~off:60 ~len:8);
  Alcotest.(check int) "empty" 0 (Memspec.lines_touched d ~off:0 ~len:0)

(* --- Stats --- *)

let test_stats_counters_merge () =
  let a = stats () and b = stats () in
  Stats.dram_read a ();
  Stats.nvmm_write b ~off:0 ~len:256;
  Stats.fence b;
  let m = Stats.merge_counters (Stats.counters a) (Stats.counters b) in
  Alcotest.(check int) "dram reads" 1 m.Stats.dram_reads;
  Alcotest.(check int) "nvmm writes" 1 m.Stats.nvmm_block_writes;
  Alcotest.(check int) "fences" 1 m.Stats.fences;
  Stats.reset a;
  Alcotest.(check (float 0.0)) "reset clock" 0.0 (Stats.now a);
  Alcotest.(check int) "reset counters" 0 (Stats.counters a).Stats.dram_reads

let test_stats_line_charges () =
  let s = stats () in
  Stats.nvmm_write_lines s 4;
  (* Four lines = one 256 B block worth of time and count. *)
  Alcotest.(check int) "blocks counted" 1 (Stats.counters s).Stats.nvmm_block_writes;
  Alcotest.(check (float 0.5)) "time equals one block"
    Memspec.default.Memspec.nvmm_write_block_ns (Stats.now s)

(* --- Histogram edge cases --- *)

let test_histogram_empty () =
  let h = Nv_util.Histogram.create () in
  Alcotest.(check bool) "empty mean is nan" true (Float.is_nan (Nv_util.Histogram.mean h));
  Alcotest.(check bool) "empty percentile is nan" true
    (Float.is_nan (Nv_util.Histogram.percentile h 50.0))

let prop_histogram_percentile_bounded =
  QCheck.Test.make ~name:"histogram percentiles stay within range" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 100) (float_bound_inclusive 1e6))
    (fun samples ->
      let h = Nv_util.Histogram.create () in
      List.iter (Nv_util.Histogram.add h) samples;
      let p50 = Nv_util.Histogram.percentile h 50.0 in
      let mx = Nv_util.Histogram.max_value h in
      p50 <= mx +. 1e-6 && p50 >= 0.0)

(* --- Version arrays in isolation --- *)

module VA = Nvcaracal.Version_array

let new_va ?batch_append ?(nvmm_resident = false) () =
  let st = VA.create_store ~nvmm_resident ?batch_append () in
  (st, VA.create st)

let test_version_array_basics () =
  let s = stats () in
  let st, va = new_va () in
  Alcotest.(check int) "empty" 0 (VA.length st va);
  Alcotest.(check bool) "max of empty" true (Sid.is_none (VA.max_sid st va));
  let sid i = Sid.make ~epoch:3 ~seq:i in
  (* Out-of-order appends stay sorted. *)
  List.iter (fun i -> VA.append st va s (sid i)) [ 5; 1; 9; 3 ];
  Alcotest.(check int) "length" 4 (VA.length st va);
  Alcotest.(check bool) "max sid" true (Sid.compare (VA.max_sid st va) (sid 9) = 0);
  let order = ref [] in
  VA.iter st va (fun slot -> order := Sid.seq_of (VA.sid st slot) :: !order);
  Alcotest.(check (list int)) "sorted" [ 1; 3; 5; 9 ] (List.rev !order);
  Alcotest.check_raises "duplicate sid"
    (Invalid_argument "Version_array.append: duplicate SID") (fun () -> VA.append st va s (sid 5));
  (* Arrays interleave in one store and survive each other's growth;
     the store empties on reset. *)
  let other = VA.create st in
  for i = 0 to 20 do
    VA.append st other s (sid (100 + i))
  done;
  Alcotest.(check (list int)) "first array intact" [ 1; 3; 5; 9 ]
    (let l = ref [] in
     VA.iter st va (fun slot -> l := Sid.seq_of (VA.sid st slot) :: !l);
     List.rev !l);
  Alcotest.(check int) "second array" 21 (VA.length st other);
  VA.reset st;
  Alcotest.(check int) "fresh after reset" 0 (VA.length st (VA.create st))

let test_version_array_visibility () =
  let s = stats () in
  let tp = TP.create ~initial_capacity:256 in
  let st, va = new_va () in
  let sid i = Sid.make ~epoch:3 ~seq:i in
  List.iter (fun i -> VA.append st va s (sid i)) [ 0; 2; 4 ];
  let fill i tag state =
    let slot = VA.find st va s (sid i) in
    VA.set_value st slot
      (match state with
      | `W -> TP.write tp s (Bytes.make 4 tag)
      | `I -> VA.ignored
      | `T -> VA.tombstone)
  in
  fill 0 'a' `W;
  fill 2 'b' `I;
  fill 4 'c' `W;
  let seq_at slot = Sid.seq_of (VA.sid st slot) in
  (* Reader at seq 3 skips the IGNORE at 2 and sees 0's write. *)
  (match VA.latest_visible st va s ~before:(sid 3) with
  | -1 -> Alcotest.fail "expected a visible version"
  | slot -> Alcotest.(check int) "visible is sid 0" 0 (seq_at slot));
  (* Reader at seq 1 also sees 0. *)
  (match VA.latest_visible st va s ~before:(sid 1) with
  | -1 -> Alcotest.fail "expected a visible version"
  | slot -> Alcotest.(check int) "sid 0 again" 0 (seq_at slot));
  (* Reader below everything sees nothing. *)
  Alcotest.(check int) "nothing below" (-1) (VA.latest_visible st va s ~before:(sid 0));
  (* latest_resolved skips the trailing... 4 is written, so it wins. *)
  (match VA.latest_resolved st va s with
  | -1 -> Alcotest.fail "expected resolved"
  | slot -> Alcotest.(check int) "resolved is 4" 4 (seq_at slot));
  (* The written value reads back from the transient pool. *)
  (match VA.latest_visible st va s ~before:(sid 3) with
  | -1 -> Alcotest.fail "expected a visible version"
  | slot ->
      Alcotest.(check string) "value bytes" "aaaa" (Bytes.to_string (TP.read tp s (VA.value st slot))));
  (* Tombstone counts as resolved. *)
  fill 4 '_' `T;
  match VA.latest_resolved st va s with
  | -1 -> Alcotest.fail "expected tombstone"
  | slot -> Alcotest.(check int) "tombstone" VA.tombstone (VA.value st slot)

let test_version_array_pending_violation () =
  let s = stats () in
  let st, va = new_va () in
  VA.append st va s (Sid.make ~epoch:3 ~seq:0);
  Alcotest.check_raises "pending predecessor"
    (Invalid_argument "Version_array.latest_visible: PENDING predecessor (serial order violated)")
    (fun () -> ignore (VA.latest_visible st va s ~before:(Sid.make ~epoch:3 ~seq:5)))

let test_version_array_charging_modes () =
  (* Batch append is O(1); sorted insert grows with array length.
     NVMM-resident arrays charge NVMM instead of DRAM. *)
  let grow_cost ~batch =
    let s = stats () in
    let st, va = new_va ~batch_append:batch () in
    for i = 0 to 199 do
      VA.append st va s (Sid.make ~epoch:2 ~seq:i)
    done;
    Stats.now s
  in
  Alcotest.(check bool) "batch append cheaper" true (grow_cost ~batch:true < grow_cost ~batch:false);
  let s = stats () in
  let st, va = new_va ~nvmm_resident:true () in
  VA.append st va s (Sid.make ~epoch:2 ~seq:0);
  Alcotest.(check bool) "nvmm-resident charges nvmm" true
    ((Stats.counters s).Stats.nvmm_block_writes > 0)

(* --- Cache module in isolation --- *)

let mk_row key =
  Row.make ~key ~table:0 ~home_core:0 ~prow_base:0 ~created_epoch:0

let test_cache_capacity_and_eviction () =
  let s = stats () in
  let c = Cache.create ~max_entries:2 in
  let r1 = mk_row 1L and r2 = mk_row 2L and r3 = mk_row 3L in
  Cache.insert c s r1 ~data:(Bytes.make 8 'a') ~epoch:1;
  Cache.insert c s r2 ~data:(Bytes.make 8 'b') ~epoch:1;
  (* Full: a third insert is refused. *)
  Cache.insert c s r3 ~data:(Bytes.make 8 'c') ~epoch:1;
  Alcotest.(check int) "capped" 2 (Cache.entries c);
  Alcotest.(check bool) "r3 uncached" true (r3.Row.cached = None);
  (* r1 stays hot; r2 goes cold; K=1 eviction at epoch 3 drops r2. *)
  Cache.touch c r1 ~epoch:2;
  Alcotest.(check int) "hits" 1 (Cache.hits c);
  let evicted = Cache.evict c s ~current_epoch:3 ~k:1 in
  Alcotest.(check int) "one evicted" 1 evicted;
  Alcotest.(check bool) "r2 gone" true (r2.Row.cached = None);
  Alcotest.(check bool) "r1 kept" true (r1.Row.cached <> None);
  (* Now room for r3. *)
  Cache.insert c s r3 ~data:(Bytes.make 8 'c') ~epoch:3;
  Alcotest.(check int) "refilled" 2 (Cache.entries c);
  Cache.drop c s r1;
  Cache.drop c s r1 (* idempotent *);
  Alcotest.(check int) "dropped" 1 (Cache.entries c);
  Alcotest.(check bool) "bytes tracked" true (Cache.data_bytes c = 8)

let test_cache_refresh_updates_bytes () =
  let s = stats () in
  let c = Cache.create ~max_entries:4 in
  let r = mk_row 1L in
  Cache.insert c s r ~data:(Bytes.make 8 'a') ~epoch:1;
  Cache.insert c s r ~data:(Bytes.make 100 'b') ~epoch:2;
  Alcotest.(check int) "one entry" 1 (Cache.entries c);
  Alcotest.(check int) "bytes follow refresh" 100 (Cache.data_bytes c)

(* --- Row helpers --- *)

let test_row_halves () =
  let row_size = 256 in
  let cap = Nv_storage.Prow.half_capacity ~row_size in
  Alcotest.(check int) "half capacity" 84 cap;
  let v0 =
    { Row.psid = 1; pptr = Nv_storage.Vptr.inline ~heap_off:0 ~len:8; fresh = false }
  in
  let v1 =
    { Row.psid = 2; pptr = Nv_storage.Vptr.inline ~heap_off:cap ~len:8; fresh = false }
  in
  Alcotest.(check int) "free half vs half0" 1 (Row.free_half ~row_size v0);
  Alcotest.(check int) "free half vs half1" 0 (Row.free_half ~row_size v1);
  Alcotest.(check int) "free half vs null" 0 (Row.free_half ~row_size Row.no_version)

let test_table4_row_sizes_inline () =
  (* The "optimal" Table 4 row sizes inline the benchmark values. *)
  Alcotest.(check bool) "2304 rows inline 1000B" true
    (Nv_storage.Prow.half_capacity ~row_size:2304 >= 1000);
  Alcotest.(check bool) "128 rows inline 8B" true
    (Nv_storage.Prow.half_capacity ~row_size:128 >= 8);
  Alcotest.(check int) "paper heap at 256" 168 (Nv_storage.Prow.inline_heap_bytes ~row_size:256)

(* --- Config predicates --- *)

let test_config_predicates () =
  let open Config in
  let mk variant = make ~variant () in
  Alcotest.(check bool) "nvcaracal logs" true (logging_enabled (mk Nvcaracal));
  List.iter
    (fun v -> Alcotest.(check bool) (variant_name v ^ " no log") false (logging_enabled (mk v)))
    [ All_nvmm; Hybrid; No_logging; All_dram; Wal ];
  Alcotest.(check bool) "all-nvmm no cache" false (caching_enabled (mk All_nvmm));
  Alcotest.(check bool) "hybrid caches" true (caching_enabled (mk Hybrid));
  Alcotest.(check bool) "wal redo-logs" true (redo_logs_updates (mk Wal));
  Alcotest.(check bool) "nvcaracal no redo" false (redo_logs_updates (mk Nvcaracal));
  List.iter
    (fun v ->
      Alcotest.(check bool)
        (variant_name v ^ " persists updates")
        true
        (writes_all_updates_to_nvmm (mk v)))
    [ All_nvmm; Hybrid ]

(* --- Report --- *)

let test_report_helpers () =
  let m =
    {
      Report.nvmm_rows = 100;
      nvmm_values = 50;
      nvmm_log = 10;
      nvmm_freelists = 40;
      dram_index = 30;
      dram_transient = 20;
      dram_cache = 10;
    }
  in
  Alcotest.(check int) "nvmm total" 200 (Report.total_nvmm m);
  Alcotest.(check int) "dram total" 60 (Report.total_dram m)

(* --- Tablefmt --- *)

let test_tablefmt () =
  Alcotest.(check string) "mtps" "1.500 Mtxn/s" (Nv_harness.Tablefmt.mtps 1_500_000.0);
  Alcotest.(check string) "pct" "12.5%" (Nv_harness.Tablefmt.pct 0.125);
  Alcotest.(check string) "bytes small" "512 B" (Nv_harness.Tablefmt.bytes 512);
  Alcotest.(check string) "bytes mib" "2.00 MiB" (Nv_harness.Tablefmt.bytes (2 * 1024 * 1024));
  Alcotest.(check string) "ms" "1.50 ms" (Nv_harness.Tablefmt.ms 1_500_000.0);
  let buf = Buffer.create 64 in
  let ppf = Format.formatter_of_buffer buf in
  Nv_harness.Tablefmt.print ppf ~title:"t" ~header:[ "a"; "bb" ] [ [ "1"; "2" ] ];
  Format.pp_print_flush ppf ();
  Alcotest.(check bool) "renders" true (Buffer.length buf > 10)

(* --- Zen store --- *)

let test_zen_store_lifecycle () =
  let s = stats () in
  let b = Layout.builder () in
  let per_core, _ = Nv_zen.Zen_store.reserve b ~cores:1 ~slots_per_core:4 ~record_size:64 in
  let p = Pmem.create ~size:(Layout.total_size b) () in
  let st = Nv_zen.Zen_store.attach p ~per_core ~record_size:64 in
  let r1 = Nv_zen.Zen_store.alloc st s ~core:0 in
  Nv_zen.Zen_store.write_record st s ~off:r1 ~key:42L ~table:1 ~version:7L
    ~data:(Bytes.of_string "hello");
  let key, table, version, len = Nv_zen.Zen_store.peek st ~off:r1 in
  Alcotest.(check int64) "key" 42L key;
  Alcotest.(check int) "table" 1 table;
  Alcotest.(check int64) "version" 7L version;
  Alcotest.(check int) "len" 5 len;
  Alcotest.(check string) "value" "hello"
    (Bytes.to_string (Nv_zen.Zen_store.read_value st s ~off:r1));
  Nv_zen.Zen_store.free st ~core:0 r1;
  Alcotest.(check int) "freelist" 1 (Nv_zen.Zen_store.free_list_slots st);
  Alcotest.(check int) "reused" r1 (Nv_zen.Zen_store.alloc st s ~core:0);
  Nv_zen.Zen_store.invalidate st s ~off:r1;
  let _, _, version, _ = Nv_zen.Zen_store.peek st ~off:r1 in
  Alcotest.(check int64) "invalidated" 0L version

let test_zen_store_exhaustion () =
  let s = stats () in
  let b = Layout.builder () in
  let per_core, _ = Nv_zen.Zen_store.reserve b ~cores:1 ~slots_per_core:2 ~record_size:64 in
  let p = Pmem.create ~size:(Layout.total_size b) () in
  let st = Nv_zen.Zen_store.attach p ~per_core ~record_size:64 in
  ignore (Nv_zen.Zen_store.alloc st s ~core:0);
  ignore (Nv_zen.Zen_store.alloc st s ~core:0);
  Alcotest.check_raises "full" (Failure "Zen_store.alloc: arena full") (fun () ->
      ignore (Nv_zen.Zen_store.alloc st s ~core:0))

(* --- TPC-C key packing --- *)

let prop_tpcc_keys_injective =
  QCheck.Test.make ~name:"tpcc order-line keys are injective" ~count:300
    QCheck.(
      pair
        (quad (int_range 0 7) (int_range 0 9) (int_range 0 10000) (int_range 0 14))
        (quad (int_range 0 7) (int_range 0 9) (int_range 0 10000) (int_range 0 14)))
    (fun ((w1, d1, o1, l1), (w2, d2, o2, l2)) ->
      let k1 = Nv_workloads.Tpcc.order_line_key ~w:w1 ~d:d1 ~o:o1 ~line:l1 in
      let k2 = Nv_workloads.Tpcc.order_line_key ~w:w2 ~d:d2 ~o:o2 ~line:l2 in
      (k1 = k2) = ((w1, d1, o1, l1) = (w2, d2, o2, l2)))

let test_tpcc_key_spaces_disjoint_per_district () =
  (* Order keys sort by district code then order id, which is what the
     Delivery min_above scan relies on. *)
  let k_low = Nv_workloads.Tpcc.order_key ~w:0 ~d:1 ~o:999999 in
  let k_high = Nv_workloads.Tpcc.order_key ~w:0 ~d:2 ~o:0 in
  Alcotest.(check bool) "district ordering" true (Int64.compare k_low k_high < 0)

(* --- Workload metadata --- *)

let test_workload_total_rows () =
  let w = Nv_workloads.Ycsb.make { Nv_workloads.Ycsb.default with Nv_workloads.Ycsb.rows = 77 } in
  Alcotest.(check int) "ycsb rows" 77 (Nv_workloads.Workload.total_rows w);
  let sb =
    Nv_workloads.Smallbank.make
      { Nv_workloads.Smallbank.default with Nv_workloads.Smallbank.customers = 10 }
  in
  Alcotest.(check int) "smallbank rows (2 tables)" 20 (Nv_workloads.Workload.total_rows sb)

(* --- Substrate edges --- *)

let test_pmem_fill_and_ranges () =
  let s = stats () in
  let p = Pmem.create ~size:1024 () in
  Pmem.fill p ~off:100 ~len:50 'x';
  Alcotest.(check string) "fill" (String.make 50 'x')
    (Bytes.to_string (Pmem.read_bytes p ~off:100 ~len:50));
  Alcotest.(check bool) "dirty" true (Pmem.dirty_line_count p > 0);
  Alcotest.(check bool) "ranges listed" true (List.length (Pmem.unpersisted_ranges p) > 0);
  Pmem.persist p s ~off:100 ~len:50;
  Alcotest.(check int) "clean" 0 (Pmem.dirty_line_count p)

let test_layout_not_found () =
  let b = Layout.builder () in
  ignore (Layout.reserve b ~name:"x" ~len:8 ());
  Alcotest.check_raises "unknown region" Not_found (fun () -> ignore (Layout.find b "y"))

let test_bump_fresh_recover () =
  let p = Pmem.create ~size:64 () in
  let b = Nv_storage.Bump.create p ~meta_off:0 ~capacity:10 in
  ignore (Nv_storage.Bump.alloc b);
  ignore (Nv_storage.Bump.recover b ~last_checkpointed_epoch:0);
  Alcotest.(check int) "never-checkpointed reverts to zero" 0 (Nv_storage.Bump.offset b)

let test_log_overflow () =
  let s = stats () in
  let b = Layout.builder () in
  let r = Nv_storage.Log_region.reserve b ~capacity_bytes:64 in
  let p = Pmem.create ~size:(Layout.total_size b) () in
  let log = Nv_storage.Log_region.attach p r in
  Nv_storage.Log_region.begin_epoch log s ~epoch:2;
  Nv_storage.Log_region.append log s (Bytes.make 40 'a');
  Alcotest.check_raises "overflow" (Failure "Log_region.append: log region full") (fun () ->
      Nv_storage.Log_region.append log s (Bytes.make 40 'b'))

let test_rng_copy_independent () =
  let a = Nv_util.Rng.create 5 in
  let b = Nv_util.Rng.copy a in
  Alcotest.(check int64) "copies agree" (Nv_util.Rng.next_int64 a) (Nv_util.Rng.next_int64 b)

let test_zipf_single_element () =
  let z = Nv_util.Zipf.create ~n:1 ~theta:0.99 in
  let rng = Nv_util.Rng.create 1 in
  for _ = 1 to 100 do
    Alcotest.(check int) "only rank" 0 (Nv_util.Zipf.sample z rng)
  done;
  Alcotest.(check int) "n" 1 (Nv_util.Zipf.n z)

let suites =
  [
    ( "units",
      [
        Alcotest.test_case "sid roundtrip" `Quick test_sid_roundtrip;
        QCheck_alcotest.to_alcotest prop_sid_order;
        Alcotest.test_case "memspec ratios" `Quick test_memspec_ratios;
        Alcotest.test_case "lines touched" `Quick test_lines_touched;
        Alcotest.test_case "stats merge/reset" `Quick test_stats_counters_merge;
        Alcotest.test_case "stats line charges" `Quick test_stats_line_charges;
        Alcotest.test_case "histogram empty" `Quick test_histogram_empty;
        QCheck_alcotest.to_alcotest prop_histogram_percentile_bounded;
        Alcotest.test_case "version array basics" `Quick test_version_array_basics;
        Alcotest.test_case "version array visibility" `Quick test_version_array_visibility;
        Alcotest.test_case "version array pending" `Quick test_version_array_pending_violation;
        Alcotest.test_case "version array charging" `Quick test_version_array_charging_modes;
        Alcotest.test_case "cache capacity/eviction" `Quick test_cache_capacity_and_eviction;
        Alcotest.test_case "cache refresh" `Quick test_cache_refresh_updates_bytes;
        Alcotest.test_case "row halves" `Quick test_row_halves;
        Alcotest.test_case "table4 inlining" `Quick test_table4_row_sizes_inline;
        Alcotest.test_case "config predicates" `Quick test_config_predicates;
        Alcotest.test_case "report helpers" `Quick test_report_helpers;
        Alcotest.test_case "tablefmt" `Quick test_tablefmt;
        Alcotest.test_case "zen store lifecycle" `Quick test_zen_store_lifecycle;
        Alcotest.test_case "zen store exhaustion" `Quick test_zen_store_exhaustion;
        QCheck_alcotest.to_alcotest prop_tpcc_keys_injective;
        Alcotest.test_case "tpcc key ordering" `Quick test_tpcc_key_spaces_disjoint_per_district;
        Alcotest.test_case "workload total rows" `Quick test_workload_total_rows;
        Alcotest.test_case "pmem fill/ranges" `Quick test_pmem_fill_and_ranges;
        Alcotest.test_case "layout not found" `Quick test_layout_not_found;
        Alcotest.test_case "bump fresh recover" `Quick test_bump_fresh_recover;
        Alcotest.test_case "log overflow" `Quick test_log_overflow;
        Alcotest.test_case "rng copy" `Quick test_rng_copy_independent;
        Alcotest.test_case "zipf single" `Quick test_zipf_single_element;
      ] );
  ]
