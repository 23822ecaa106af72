(* Engine-level tests: epoch processing, visibility, aborts, deletes,
   GC behaviour, caching, design variants, and the sessions clients
   reach an engine through. *)

open Nvcaracal

let bytes_of_string = Bytes.of_string

let small_config ?(variant = Config.Nvcaracal) ?(crash_safe = false) ?(cores = 4)
    ?(minor_gc = true) ?(cached_versions = true) ?(row_size = 256) () =
  Config.make ~variant ~cores ~row_size ~cache_k:3 ~minor_gc ~cached_versions ~crash_safe
    ~rows_per_core:4096 ~values_per_core:4096 ~freelist_capacity:4096
    ~log_capacity:(1 lsl 20) ()

let one_table = [ Table.make ~id:0 ~name:"t" () ]

let mk_db ?variant ?crash_safe ?cores ?minor_gc ?cached_versions ?row_size () =
  let config = small_config ?variant ?crash_safe ?cores ?minor_gc ?cached_versions ?row_size () in
  let db = Db.create ~config ~tables:one_table () in
  db

let load_n db n =
  Db.bulk_load db
    (Seq.init n (fun i -> (0, Int64.of_int i, bytes_of_string (Printf.sprintf "v0-%d" i))))

let update_txn key data =
  Txn.make ~input:Bytes.empty ~write_set:[ Txn.Update { table = 0; key } ] (fun ctx ->
      ctx.Txn.Ctx.write ~table:0 ~key data)

let rmw_txn key f =
  Txn.make ~input:Bytes.empty ~write_set:[ Txn.Update { table = 0; key } ] (fun ctx ->
      match ctx.Txn.Ctx.read ~table:0 ~key with
      | None -> failwith "rmw: missing row"
      | Some v -> ctx.Txn.Ctx.write ~table:0 ~key (f v))

let check_committed db key expected =
  match Db.read_committed db ~table:0 ~key with
  | None -> Alcotest.failf "key %Ld missing" key
  | Some v -> Alcotest.(check string) (Printf.sprintf "key %Ld" key) expected (Bytes.to_string v)

let test_basic_update () =
  let db = mk_db () in
  load_n db 16;
  check_committed db 3L "v0-3";
  let stats = Db.run_epoch db [| update_txn 3L (bytes_of_string "new3") |] in
  Alcotest.(check int) "txns" 1 stats.Report.txns;
  Alcotest.(check int) "persistent writes" 1 stats.Report.persistent_writes;
  check_committed db 3L "new3";
  check_committed db 4L "v0-4"

let test_last_writer_wins () =
  let db = mk_db () in
  load_n db 4;
  let txns = Array.init 10 (fun i -> update_txn 1L (bytes_of_string (Printf.sprintf "w%d" i))) in
  let stats = Db.run_epoch db txns in
  check_committed db 1L "w9";
  (* Ten writes to one row: only the last goes to NVMM. *)
  Alcotest.(check int) "version writes" 10 stats.Report.version_writes;
  Alcotest.(check int) "persistent writes" 1 stats.Report.persistent_writes;
  Alcotest.(check int) "transient" 9 stats.Report.transient_only_writes

let test_serial_visibility () =
  let db = mk_db () in
  load_n db 4;
  (* A chain of read-modify-writes within one epoch must observe each
     predecessor's write (early write visibility). *)
  let txns =
    Array.init 8 (fun _ -> rmw_txn 2L (fun v -> bytes_of_string (Bytes.to_string v ^ "+")))
  in
  ignore (Db.run_epoch db txns);
  check_committed db 2L "v0-2++++++++"

let test_read_before_write_sees_old () =
  let db = mk_db () in
  load_n db 4;
  let observed = ref None in
  let reader =
    Txn.make ~input:Bytes.empty ~write_set:[] (fun ctx ->
        observed := ctx.Txn.Ctx.read ~table:0 ~key:1L)
  in
  (* Reader has SID 0, writer SID 1: the reader must see the pre-epoch
     value even though the writer also runs in this epoch. *)
  let txns = [| reader; update_txn 1L (bytes_of_string "later") |] in
  ignore (Db.run_epoch db txns);
  Alcotest.(check (option string))
    "reader saw old value" (Some "v0-1")
    (Option.map Bytes.to_string !observed);
  check_committed db 1L "later"

let test_insert_then_read_next_epoch () =
  let db = mk_db () in
  load_n db 4;
  let ins =
    Txn.make ~input:Bytes.empty
      ~write_set:[ Txn.Insert { table = 0; key = 100L; data = Some (bytes_of_string "fresh") } ]
      (fun _ -> ())
  in
  ignore (Db.run_epoch db [| ins |]);
  check_committed db 100L "fresh";
  (* And visible within the inserting epoch to later SIDs. *)
  let seen = ref None in
  let reader =
    Txn.make ~input:Bytes.empty ~write_set:[] (fun ctx ->
        seen := ctx.Txn.Ctx.read ~table:0 ~key:200L)
  in
  let ins2 =
    Txn.make ~input:Bytes.empty
      ~write_set:[ Txn.Insert { table = 0; key = 200L; data = Some (bytes_of_string "f2") } ]
      (fun _ -> ())
  in
  ignore (Db.run_epoch db [| ins2; reader |]);
  Alcotest.(check (option string)) "in-epoch insert visible" (Some "f2")
    (Option.map Bytes.to_string !seen)

let test_insert_invisible_to_earlier_sid () =
  let db = mk_db () in
  load_n db 4;
  let seen = ref (Some (bytes_of_string "sentinel")) in
  let reader =
    Txn.make ~input:Bytes.empty ~write_set:[] (fun ctx ->
        seen := ctx.Txn.Ctx.read ~table:0 ~key:300L)
  in
  let ins =
    Txn.make ~input:Bytes.empty
      ~write_set:[ Txn.Insert { table = 0; key = 300L; data = Some (bytes_of_string "f3") } ]
      (fun _ -> ())
  in
  ignore (Db.run_epoch db [| reader; ins |]);
  Alcotest.(check (option string)) "earlier reader sees nothing" None
    (Option.map Bytes.to_string !seen)

let test_abort_restores_previous () =
  let db = mk_db () in
  load_n db 4;
  let aborter =
    Txn.make ~input:Bytes.empty ~write_set:[ Txn.Update { table = 0; key = 1L } ] (fun ctx ->
        ctx.Txn.Ctx.abort ())
  in
  let stats = Db.run_epoch db [| aborter |] in
  Alcotest.(check int) "aborted" 1 stats.Report.aborted;
  Alcotest.(check int) "no persistent writes" 0 stats.Report.persistent_writes;
  check_committed db 1L "v0-1"

let test_abort_final_falls_back () =
  let db = mk_db () in
  load_n db 4;
  (* Writer w1 commits, w2 (the final writer) aborts: w1's value must be
     the epoch's persistent version (section 4.6). *)
  let w1 = update_txn 1L (bytes_of_string "keep-me") in
  let w2 =
    Txn.make ~input:Bytes.empty ~write_set:[ Txn.Update { table = 0; key = 1L } ] (fun ctx ->
        ctx.Txn.Ctx.abort ())
  in
  let stats = Db.run_epoch db [| w1; w2 |] in
  Alcotest.(check int) "one persistent write" 1 stats.Report.persistent_writes;
  check_committed db 1L "keep-me"

let test_abort_reader_skips_ignored () =
  let db = mk_db () in
  load_n db 4;
  let w1 =
    Txn.make ~input:Bytes.empty ~write_set:[ Txn.Update { table = 0; key = 1L } ] (fun ctx ->
        ctx.Txn.Ctx.abort ())
  in
  let seen = ref None in
  let reader =
    Txn.make ~input:Bytes.empty ~write_set:[] (fun ctx ->
        seen := ctx.Txn.Ctx.read ~table:0 ~key:1L)
  in
  ignore (Db.run_epoch db [| w1; reader |]);
  Alcotest.(check (option string))
    "reader skipped IGNORE" (Some "v0-1")
    (Option.map Bytes.to_string !seen)

let test_delete () =
  let db = mk_db () in
  load_n db 4;
  let del =
    Txn.make ~input:Bytes.empty ~write_set:[ Txn.Delete { table = 0; key = 2L } ] (fun ctx ->
        ctx.Txn.Ctx.delete ~table:0 ~key:2L)
  in
  ignore (Db.run_epoch db [| del |]);
  Alcotest.(check (option string)) "deleted" None
    (Option.map Bytes.to_string (Db.read_committed db ~table:0 ~key:2L));
  (* Deleted keys can be re-inserted in a later epoch. *)
  let ins =
    Txn.make ~input:Bytes.empty
      ~write_set:[ Txn.Insert { table = 0; key = 2L; data = Some (bytes_of_string "back") } ]
      (fun _ -> ())
  in
  ignore (Db.run_epoch db [| ins |]);
  check_committed db 2L "back"

let test_tombstone_visible_in_epoch () =
  let db = mk_db () in
  load_n db 4;
  let del =
    Txn.make ~input:Bytes.empty ~write_set:[ Txn.Delete { table = 0; key = 2L } ] (fun ctx ->
        ctx.Txn.Ctx.delete ~table:0 ~key:2L)
  in
  let seen = ref (Some (bytes_of_string "sentinel")) in
  let reader =
    Txn.make ~input:Bytes.empty ~write_set:[] (fun ctx ->
        seen := ctx.Txn.Ctx.read ~table:0 ~key:2L)
  in
  ignore (Db.run_epoch db [| del; reader |]);
  Alcotest.(check (option string)) "tombstone read as absent" None
    (Option.map Bytes.to_string !seen)

let test_minor_gc_counts () =
  let db = mk_db () in
  load_n db 4;
  (* Small values inline; consecutive-epoch updates to the same row
     trigger the minor collector from the third update on (the first
     creates v2, the second rotates a null v1, the third must displace a
     stale inline v1). *)
  ignore (Db.run_epoch db [| update_txn 1L (bytes_of_string "a") |]);
  ignore (Db.run_epoch db [| update_txn 1L (bytes_of_string "b") |]);
  let s3 = Db.run_epoch db [| update_txn 1L (bytes_of_string "c") |] in
  Alcotest.(check int) "minor gc ran" 1 s3.Report.minor_gc;
  Alcotest.(check int) "no major gc" 0 s3.Report.major_gc;
  check_committed db 1L "c"

let test_major_gc_for_pool_values () =
  let db = mk_db () in
  let big s = Bytes.make 400 s in
  Db.bulk_load db (Seq.init 4 (fun i -> (0, Int64.of_int i, big 'x')));
  ignore (Db.run_epoch db [| update_txn 1L (big 'a') |]);
  ignore (Db.run_epoch db [| update_txn 1L (big 'b') |]);
  (* The epoch after an update of a pool-valued row must major-GC it. *)
  let s3 = Db.run_epoch db [| update_txn 2L (big 'z') |] in
  Alcotest.(check bool) "major gc ran" true (s3.Report.major_gc >= 1);
  Alcotest.(check string) "value" (Bytes.to_string (big 'b'))
    (Bytes.to_string (Option.get (Db.read_committed db ~table:0 ~key:1L)))

let test_cache_hits () =
  let db = mk_db () in
  load_n db 8;
  let read_only key =
    Txn.make ~input:Bytes.empty ~write_set:[] (fun ctx ->
        ignore (ctx.Txn.Ctx.read ~table:0 ~key))
  in
  let s1 = Db.run_epoch db [| read_only 5L |] in
  Alcotest.(check int) "first read misses" 1 s1.Report.cache_misses;
  let s2 = Db.run_epoch db [| read_only 5L |] in
  Alcotest.(check int) "second read hits" 1 s2.Report.cache_hits

let test_cache_eviction () =
  let db = mk_db () in
  load_n db 8;
  let read_only key =
    Txn.make ~input:Bytes.empty ~write_set:[] (fun ctx ->
        ignore (ctx.Txn.Ctx.read ~table:0 ~key))
  in
  ignore (Db.run_epoch db [| read_only 5L |]);
  (* K = 3 in the test config: after 5 idle epochs the entry is gone. *)
  let evicted = ref 0 in
  for _ = 1 to 6 do
    let s = Db.run_epoch db [| read_only 7L |] in
    evicted := !evicted + s.Report.evicted
  done;
  Alcotest.(check bool) "eviction happened" true (!evicted >= 1);
  let s = Db.run_epoch db [| read_only 5L |] in
  Alcotest.(check int) "read misses again after eviction" 1 s.Report.cache_misses

let test_counters_persist () =
  let config =
    Config.make ~cores:2 ~n_counters:2 ~rows_per_core:1024 ~values_per_core:1024
      ~freelist_capacity:1024 ()
  in
  let db = Db.create ~config ~tables:one_table () in
  load_n db 2;
  let t =
    Txn.make ~input:Bytes.empty ~write_set:[] (fun ctx ->
        ignore (ctx.Txn.Ctx.counter_next ~idx:0);
        ignore (ctx.Txn.Ctx.counter_next ~idx:0);
        ignore (ctx.Txn.Ctx.counter_next ~idx:1))
  in
  ignore (Db.run_epoch db [| t |]);
  Alcotest.(check int64) "counter 0" 2L (Db.counter_value db 0);
  Alcotest.(check int64) "counter 1" 1L (Db.counter_value db 1)

let test_variants_agree_on_state () =
  (* All design variants must produce identical database contents; they
     only differ in cost accounting. *)
  let run variant =
    let db = mk_db ~variant () in
    load_n db 16;
    let rng = Nv_util.Rng.create 7 in
    for _ = 1 to 5 do
      let txns =
        Array.init 20 (fun _ ->
            let key = Int64.of_int (Nv_util.Rng.int rng 16) in
            rmw_txn key (fun v -> bytes_of_string (Bytes.to_string v ^ "x")))
      in
      ignore (Db.run_epoch db txns)
    done;
    let out = ref [] in
    Db.iter_committed db ~table:0 (fun k v -> out := (k, Bytes.to_string v) :: !out);
    List.sort compare !out
  in
  let reference = run Config.Nvcaracal in
  List.iter
    (fun v ->
      Alcotest.(check bool)
        (Printf.sprintf "%s matches nvcaracal" (Config.variant_name v))
        true
        (run v = reference))
    [ Config.All_nvmm; Config.Hybrid; Config.No_logging; Config.All_dram; Config.Wal ]

let test_toggles_agree_on_state () =
  (* Cost-model toggles never change the committed state. *)
  let run ~batch_append ~selective_caching ~minor_gc =
    let config =
      Config.make ~cores:4 ~rows_per_core:4096 ~values_per_core:4096 ~freelist_capacity:4096
        ~batch_append ~selective_caching ~minor_gc ()
    in
    let db = Db.create ~config ~tables:one_table () in
    load_n db 16;
    let rng = Nv_util.Rng.create 9 in
    for _ = 1 to 4 do
      let txns =
        Array.init 20 (fun _ ->
            let key = Int64.of_int (Nv_util.Rng.int rng 16) in
            rmw_txn key (fun v -> bytes_of_string (Bytes.to_string v ^ "t")))
      in
      ignore (Db.run_epoch db txns)
    done;
    let out = ref [] in
    Db.iter_committed db ~table:0 (fun k v -> out := (k, Bytes.to_string v) :: !out);
    List.sort compare !out
  in
  let reference = run ~batch_append:false ~selective_caching:false ~minor_gc:true in
  List.iter
    (fun (ba, sc, mg) ->
      Alcotest.(check bool) "toggle-equal" true
        (run ~batch_append:ba ~selective_caching:sc ~minor_gc:mg = reference))
    [ (true, false, true); (false, true, true); (false, false, false); (true, true, false) ]

let test_all_nvmm_slower () =
  let throughput variant =
    let db = mk_db ~variant ~cached_versions:(variant <> Config.All_nvmm) () in
    load_n db 64;
    let rng = Nv_util.Rng.create 3 in
    for _ = 1 to 5 do
      let txns =
        Array.init 64 (fun _ ->
            (* Contended: half the writes hit 4 hot keys. *)
            let key =
              if Nv_util.Rng.bool rng then Int64.of_int (Nv_util.Rng.int rng 4)
              else Int64.of_int (Nv_util.Rng.int rng 64)
            in
            update_txn key (Bytes.make 100 'q'))
      in
      ignore (Db.run_epoch db txns)
    done;
    float_of_int (Db.committed_txns db) /. Db.total_time_ns db
  in
  let nv = throughput Config.Nvcaracal in
  let all_nvmm = throughput Config.All_nvmm in
  let all_dram = throughput Config.All_dram in
  Alcotest.(check bool) "all-NVMM slower than NVCaracal" true (all_nvmm < nv);
  Alcotest.(check bool) "NVCaracal slower than all-DRAM" true (nv < all_dram)

let test_mem_report () =
  let db = mk_db () in
  load_n db 32;
  ignore (Db.run_epoch db [| update_txn 1L (bytes_of_string "x") |]);
  let m = Db.mem_report db in
  Alcotest.(check bool) "rows accounted" true (m.Report.nvmm_rows >= 32 * 256);
  Alcotest.(check bool) "index accounted" true (m.Report.dram_index > 0);
  Alcotest.(check bool) "transient accounted" true (m.Report.dram_transient > 0)

let test_write_outside_write_set_rejected () =
  let db = mk_db () in
  load_n db 4;
  let bad =
    Txn.make ~input:Bytes.empty ~write_set:[ Txn.Update { table = 0; key = 1L } ] (fun ctx ->
        ctx.Txn.Ctx.write ~table:0 ~key:2L (bytes_of_string "sneak"))
  in
  Alcotest.check_raises "undeclared write rejected"
    (Invalid_argument "Txn.Ctx.write: key (0, 2) is not in the write set") (fun () ->
      ignore (Db.run_epoch db [| bad |]))

let test_abort_after_write_rejected () =
  let db = mk_db () in
  load_n db 4;
  let bad =
    Txn.make ~input:Bytes.empty ~write_set:[ Txn.Update { table = 0; key = 1L } ] (fun ctx ->
        ctx.Txn.Ctx.write ~table:0 ~key:1L (bytes_of_string "w");
        ctx.Txn.Ctx.abort ())
  in
  (match Db.run_epoch db [| bad |] with
  | _ -> Alcotest.fail "expected failure"
  | exception Failure _ -> ());
  ()

let test_ordered_table_ranges () =
  let tables = [ Table.make ~id:0 ~name:"ord" ~index:Table.Ordered () ] in
  let config = small_config () in
  let db = Db.create ~config ~tables () in
  Db.bulk_load db
    (Seq.init 10 (fun i -> (0, Int64.of_int (i * 10), bytes_of_string (string_of_int i))));
  let seen = ref [] in
  let reader =
    Txn.make ~input:Bytes.empty ~write_set:[] (fun ctx ->
        seen := ctx.Txn.Ctx.range_read ~table:0 ~lo:15L ~hi:45L;
        Alcotest.(check (option (pair int64 string)))
          "min_above" (Some (50L, "5"))
          (Option.map (fun (k, v) -> (k, Bytes.to_string v)) (ctx.Txn.Ctx.min_above ~table:0 46L));
        Alcotest.(check (option (pair int64 string)))
          "max_below" (Some (40L, "4"))
          (Option.map (fun (k, v) -> (k, Bytes.to_string v)) (ctx.Txn.Ctx.max_below ~table:0 45L)))
  in
  ignore (Db.run_epoch db [| reader |]);
  Alcotest.(check (list (pair int64 string)))
    "range" [ (20L, "2"); (30L, "3"); (40L, "4") ]
    (List.map (fun (k, v) -> (k, Bytes.to_string v)) !seen)

(* Reconnaissance transactions (paper section 3.1.1): key 0 holds a
   pointer naming the row to update; the recon pass reads it to build
   the write set and execution validates the read. *)
let recon_txn data =
  let target ctx =
    match ctx.Txn.Ctx.read ~table:0 ~key:0L with
    | Some v -> Int64.of_string (Bytes.to_string v)
    | None -> failwith "missing pointer row"
  in
  Txn.make ~input:Bytes.empty ~write_set:[]
    ~recon:(fun ctx -> [ Txn.Update { table = 0; key = target ctx } ])
    (fun ctx -> ctx.Txn.Ctx.write ~table:0 ~key:(target ctx) data)

let test_recon_write_set () =
  let db = mk_db () in
  Db.bulk_load db
    (Seq.cons (0, 0L, bytes_of_string "3")
       (Seq.init 8 (fun i -> (0, Int64.of_int (i + 1), bytes_of_string "old"))));
  let stats = Db.run_epoch db [| recon_txn (bytes_of_string "via-recon") |] in
  Alcotest.(check int) "committed" 0 stats.Report.aborted;
  check_committed db 3L "via-recon";
  check_committed db 4L "old"

let test_recon_validation_aborts () =
  let db = mk_db () in
  Db.bulk_load db
    (Seq.cons (0, 0L, bytes_of_string "3")
       (Seq.init 8 (fun i -> (0, Int64.of_int (i + 1), bytes_of_string "old"))));
  (* An earlier transaction redirects the pointer row, invalidating the
     recon read: the recon transaction must abort deterministically. *)
  let redirect = update_txn 0L (bytes_of_string "5") in
  let stats = Db.run_epoch db [| redirect; recon_txn (bytes_of_string "stale") |] in
  Alcotest.(check int) "recon txn aborted" 1 stats.Report.aborted;
  check_committed db 3L "old";
  check_committed db 5L "old";
  (* Resubmitted next epoch, it sees the new pointer and succeeds. *)
  let stats2 = Db.run_epoch db [| recon_txn (bytes_of_string "retried") |] in
  Alcotest.(check int) "retry committed" 0 stats2.Report.aborted;
  check_committed db 5L "retried"

let test_recon_untouched_read_commits () =
  let db = mk_db () in
  Db.bulk_load db
    (Seq.cons (0, 0L, bytes_of_string "3")
       (Seq.init 8 (fun i -> (0, Int64.of_int (i + 1), bytes_of_string "old"))));
  (* A concurrent writer touching an unrelated key does not invalidate
     the recon. *)
  let unrelated = update_txn 7L (bytes_of_string "x") in
  let stats = Db.run_epoch db [| unrelated; recon_txn (bytes_of_string "fine") |] in
  Alcotest.(check int) "no aborts" 0 stats.Report.aborted;
  check_committed db 3L "fine"

let test_btree_and_avl_engines_agree () =
  let run ordered_index =
    let config =
      Config.make ~cores:4 ~rows_per_core:4096 ~values_per_core:4096 ~freelist_capacity:4096
        ~ordered_index ()
    in
    let tables = [ Table.make ~id:0 ~name:"ord" ~index:Table.Ordered () ] in
    let db = Db.create ~config ~tables () in
    Db.bulk_load db
      (Seq.init 64 (fun i -> (0, Int64.of_int (i * 3), bytes_of_string (string_of_int i))));
    let rng = Nv_util.Rng.create 17 in
    for _ = 1 to 4 do
      let txns =
        Array.init 30 (fun _ ->
            let key = Int64.of_int (Nv_util.Rng.int rng 64 * 3) in
            rmw_txn key (fun v -> bytes_of_string (Bytes.to_string v ^ "y")))
      in
      ignore (Db.run_epoch db txns)
    done;
    let out = ref [] in
    Db.iter_committed db ~table:0 (fun k v -> out := (k, Bytes.to_string v) :: !out);
    List.sort compare !out
  in
  Alcotest.(check bool) "identical state" true (run Config.Avl = run Config.Btree)

let test_size_classed_value_pools () =
  (* Mixed value sizes across three classes, including growth across
     epochs and crash recovery. *)
  let config =
    Config.make ~cores:2 ~crash_safe:true ~rows_per_core:1024 ~values_per_core:256
      ~freelist_capacity:1024
      ~value_size_classes:[ 256; 1024; 4096 ]
      ()
  in
  let db = Db.create ~config ~tables:one_table () in
  let size_of i = match i mod 3 with 0 -> 100 | 1 -> 900 | _ -> 3000 in
  Db.bulk_load db (Seq.init 12 (fun i -> (0, Int64.of_int i, Bytes.make (size_of i) 'i')));
  let batch tag =
    Array.init 12 (fun i -> update_txn (Int64.of_int i) (Bytes.make (size_of (i + 1)) tag))
  in
  ignore (Db.run_epoch db (batch 'a'));
  ignore (Db.run_epoch db (batch 'b'));
  for i = 0 to 11 do
    let v = Option.get (Db.read_committed db ~table:0 ~key:(Int64.of_int i)) in
    Alcotest.(check int) (Printf.sprintf "len of %d" i) (size_of (i + 1)) (Bytes.length v);
    Alcotest.(check char) "tag" 'b' (Bytes.get v 0)
  done;
  (* Crash and recover with multiple classes in play. *)
  let pmem = Db.crash db ~rng:(Nv_util.Rng.create 3) in
  let db2, _ =
    Db.recover ~config ~tables:one_table ~pmem ~rebuild:(fun _ -> failwith "no log") ()
  in
  for i = 0 to 11 do
    let v = Option.get (Db.read_committed db2 ~table:0 ~key:(Int64.of_int i)) in
    Alcotest.(check int) (Printf.sprintf "recovered len of %d" i) (size_of (i + 1))
      (Bytes.length v)
  done

(* --- Sessions: checkpoint-gated results and size-closed batches --- *)

(* An engine's clients reach it through the batcher's sessions: a call's
   outcome is shown only once its epoch has run, and a batch closes at
   the size target. *)

module F_batcher = Nv_frontend.Batcher

let session_outcomes (cl : Test_frontend.sim_client) =
  List.rev_map
    (function
      | Nv_frontend.Wire.Result { outcome; _ } -> outcome | _ -> Alcotest.fail "not a Result")
    !(cl.Test_frontend.results)

let test_session_visibility () =
  (* Every abortable SmallBank call aborts, the rest commit. *)
  let w =
    Nv_workloads.Smallbank.make
      {
        Nv_workloads.Smallbank.default with
        Nv_workloads.Smallbank.customers = 400;
        hot_customers = 40;
        abort_probability = 1.0;
      }
  in
  let cfg = F_batcher.config ~batch_target:100 ~deadline_ticks:100 () in
  let b = Test_frontend.mk_batcher ~cfg Test_frontend.spec_serial w in
  let a = Test_frontend.mk_client ~seed:5 b in
  let before = F_batcher.state_digest b in
  for req = 0 to 11 do
    assert (Test_frontend.submit_one b w a ~req = `Admitted)
  done;
  F_batcher.tick b;
  (* Nothing visible before the epoch runs. *)
  Alcotest.(check int) "no replies" 0 (List.length (session_outcomes a));
  Alcotest.(check int) "queued" 12 (F_batcher.pending b);
  Alcotest.(check int64) "state untouched" before (F_batcher.state_digest b);
  F_batcher.flush b;
  Alcotest.(check int) "epoch ran all" 12 (F_batcher.committed b + F_batcher.aborted b);
  let outcomes = session_outcomes a in
  Alcotest.(check int) "all answered" 12 (List.length outcomes);
  Alcotest.(check int) "aborts answered as such" (F_batcher.aborted b)
    (List.length (List.filter (( = ) `Aborted) outcomes));
  Alcotest.(check bool) "some committed" true (List.mem `Committed outcomes);
  Alcotest.(check bool) "some aborted" true (List.mem `Aborted outcomes);
  Alcotest.(check bool) "commits visible" true (F_batcher.state_digest b <> before);
  F_batcher.flush b;
  Alcotest.(check int) "empty flush runs nothing" 1 (F_batcher.epochs_run b)

let test_session_auto_flush () =
  let w = Test_frontend.small_ycsb () in
  let cfg = F_batcher.config ~batch_target:5 ~deadline_ticks:100 () in
  let b = Test_frontend.mk_batcher ~cfg Test_frontend.spec_serial w in
  let a = Test_frontend.mk_client ~seed:6 b in
  for req = 0 to 11 do
    assert (Test_frontend.submit_one b w a ~req = `Admitted);
    F_batcher.tick b
  done;
  (* Two batches closed at the target (after submissions 5 and 10). *)
  Alcotest.(check int) "two epochs ran" 2 (F_batcher.epochs_run b);
  let answered () =
    List.rev_map
      (function Nv_frontend.Wire.Result { req; _ } -> req | _ -> Alcotest.fail "not a Result")
      !(a.Test_frontend.results)
  in
  Alcotest.(check (list int)) "first ten answered" (List.init 10 Fun.id) (answered ());
  Alcotest.(check int) "late calls pending" 2 (F_batcher.pending b);
  F_batcher.flush b;
  Alcotest.(check (list int)) "late calls answered" (List.init 12 Fun.id) (answered ());
  Alcotest.(check int) "nothing outstanding" 0 (F_batcher.outstanding a.Test_frontend.c)

(* Steady-state epochs keep their bookkeeping off the major heap: the
   served ycsb-large shape at a fifth of the scale (crash-safe, 1000-B
   values, a cache holding 31% of the rows, 256-transaction epochs)
   promotes few words per transaction once warm. Version arrays,
   version slots, row mirrors, effect-journal records, eviction lists
   and cache cells are reused in place; what a transaction still
   promotes is its own state caught by a minor collection mid-epoch.
   Storing a boxed value per version again shows up here at once (the
   engine promoted about 2,200 words per transaction before). *)
let test_promoted_words_bounded () =
  let module E = Nv_harness.Engine in
  let module W = Nv_workloads.Workload in
  let w = Nv_workloads.Ycsb.(make { default with rows = 10_000 }) in
  let sp = E.spec ~crash_safe:true (E.Caracal Config.Nvcaracal) in
  let s = E.setup ~epochs:60 ~epoch_txns:256 ~cache_entries:3_125 () in
  let (Engine_intf.Packed ((module M), db)) = E.instantiate sp s w in
  M.bulk_load db (w.W.load ());
  let rng = Nv_util.Rng.create 7 in
  let warm = 30 and measured = 20 in
  let batches = Array.init (warm + measured) (fun _ -> w.W.gen_batch rng 256) in
  for i = 0 to warm - 1 do
    ignore (M.run_batch db batches.(i))
  done;
  let g0 = Stdlib.Gc.quick_stat () in
  for i = warm to warm + measured - 1 do
    ignore (M.run_batch db batches.(i))
  done;
  let g1 = Stdlib.Gc.quick_stat () in
  let per_txn =
    (g1.Stdlib.Gc.promoted_words -. g0.Stdlib.Gc.promoted_words) /. float_of_int (measured * 256)
  in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f promoted words per txn <= 300" per_txn)
    true (per_txn <= 300.0)

let suites =
  [
    ( "core.engine",
      [
        Alcotest.test_case "basic update" `Quick test_basic_update;
        Alcotest.test_case "steady-state epochs promote few words" `Quick
          test_promoted_words_bounded;
        Alcotest.test_case "last writer wins" `Quick test_last_writer_wins;
        Alcotest.test_case "serial visibility" `Quick test_serial_visibility;
        Alcotest.test_case "read before write" `Quick test_read_before_write_sees_old;
        Alcotest.test_case "insert visibility" `Quick test_insert_then_read_next_epoch;
        Alcotest.test_case "insert invisible earlier" `Quick test_insert_invisible_to_earlier_sid;
        Alcotest.test_case "abort restores" `Quick test_abort_restores_previous;
        Alcotest.test_case "abort final fallback" `Quick test_abort_final_falls_back;
        Alcotest.test_case "abort reader skips" `Quick test_abort_reader_skips_ignored;
        Alcotest.test_case "delete" `Quick test_delete;
        Alcotest.test_case "tombstone visible" `Quick test_tombstone_visible_in_epoch;
        Alcotest.test_case "minor gc" `Quick test_minor_gc_counts;
        Alcotest.test_case "major gc" `Quick test_major_gc_for_pool_values;
        Alcotest.test_case "cache hits" `Quick test_cache_hits;
        Alcotest.test_case "cache eviction" `Quick test_cache_eviction;
        Alcotest.test_case "counters" `Quick test_counters_persist;
        Alcotest.test_case "variants agree" `Quick test_variants_agree_on_state;
        Alcotest.test_case "toggles agree" `Quick test_toggles_agree_on_state;
        Alcotest.test_case "variant ordering" `Quick test_all_nvmm_slower;
        Alcotest.test_case "mem report" `Quick test_mem_report;
        Alcotest.test_case "session visibility" `Quick test_session_visibility;
        Alcotest.test_case "session auto-flush" `Quick test_session_auto_flush;
        Alcotest.test_case "undeclared write" `Quick test_write_outside_write_set_rejected;
        Alcotest.test_case "abort after write" `Quick test_abort_after_write_rejected;
        Alcotest.test_case "ordered ranges" `Quick test_ordered_table_ranges;
        Alcotest.test_case "recon write set" `Quick test_recon_write_set;
        Alcotest.test_case "recon validation aborts" `Quick test_recon_validation_aborts;
        Alcotest.test_case "recon unrelated ok" `Quick test_recon_untouched_read_commits;
        Alcotest.test_case "avl/btree engines agree" `Quick test_btree_and_avl_engines_agree;
        Alcotest.test_case "size-classed value pools" `Quick test_size_classed_value_pools;
      ] );
  ]
