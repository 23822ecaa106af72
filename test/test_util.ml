(* Utility-layer tests: RNG determinism, Zipf shape, histogram
   percentiles, priority-queue ordering, hash properties, and the
   CRC-32C kernel against known vectors and a bitwise reference. *)

let test_rng_determinism () =
  let a = Nv_util.Rng.create 42 and b = Nv_util.Rng.create 42 in
  for _ = 1 to 1000 do
    Alcotest.(check int64) "same stream" (Nv_util.Rng.next_int64 a) (Nv_util.Rng.next_int64 b)
  done

let test_rng_split_independent () =
  let a = Nv_util.Rng.create 42 in
  let c = Nv_util.Rng.split a in
  let x = Nv_util.Rng.next_int64 a and y = Nv_util.Rng.next_int64 c in
  Alcotest.(check bool) "split streams differ" true (x <> y)

let test_rng_bounds () =
  let rng = Nv_util.Rng.create 1 in
  for _ = 1 to 10000 do
    let v = Nv_util.Rng.int rng 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17);
    let w = Nv_util.Rng.int_in rng 5 9 in
    Alcotest.(check bool) "in closed range" true (w >= 5 && w <= 9);
    let f = Nv_util.Rng.float rng in
    Alcotest.(check bool) "unit float" true (f >= 0.0 && f < 1.0)
  done

let test_rng_uniformity () =
  let rng = Nv_util.Rng.create 9 in
  let buckets = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let i = Nv_util.Rng.int rng 10 in
    buckets.(i) <- buckets.(i) + 1
  done;
  Array.iter
    (fun c ->
      let expected = n / 10 in
      Alcotest.(check bool) "within 5% of uniform" true (abs (c - expected) < expected / 20))
    buckets

let test_shuffle_permutes () =
  let rng = Nv_util.Rng.create 5 in
  let a = Array.init 100 Fun.id in
  Nv_util.Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 100 Fun.id) sorted

let test_zipf_skew () =
  let z = Nv_util.Zipf.create ~n:10_000 ~theta:0.99 in
  let rng = Nv_util.Rng.create 77 in
  let top10 = ref 0 and n = 50_000 in
  for _ = 1 to n do
    let r = Nv_util.Zipf.sample z rng in
    Alcotest.(check bool) "rank in range" true (r >= 0 && r < 10_000);
    if r < 10 then incr top10
  done;
  (* With theta = 0.99 over 10k items, the top-10 ranks draw roughly a
     quarter of the mass; uniform would give 0.1%. *)
  Alcotest.(check bool) "skewed towards head" true (float_of_int !top10 /. float_of_int n > 0.15)

let test_zipf_uniform_degenerate () =
  let z = Nv_util.Zipf.create ~n:100 ~theta:0.0 in
  let rng = Nv_util.Rng.create 3 in
  let buckets = Array.make 100 0 in
  for _ = 1 to 100_000 do
    buckets.(Nv_util.Zipf.sample z rng) <- buckets.(Nv_util.Zipf.sample z rng) + 1
  done;
  let max_b = Array.fold_left max 0 buckets and min_b = Array.fold_left min max_int buckets in
  Alcotest.(check bool) "roughly uniform" true (float_of_int max_b /. float_of_int min_b < 2.0)

let test_histogram_basic () =
  let h = Nv_util.Histogram.create () in
  for i = 1 to 1000 do
    Nv_util.Histogram.add h (float_of_int i)
  done;
  Alcotest.(check int) "count" 1000 (Nv_util.Histogram.count h);
  Alcotest.(check bool) "mean near 500" true (abs_float (Nv_util.Histogram.mean h -. 500.5) < 1.0);
  let p50 = Nv_util.Histogram.percentile h 50.0 in
  Alcotest.(check bool) "p50 within bucket error" true (p50 > 400.0 && p50 < 620.0);
  let p99 = Nv_util.Histogram.percentile h 99.0 in
  Alcotest.(check bool) "p99 near max" true (p99 > 900.0 && p99 <= 1000.0)

let test_histogram_merge () =
  let a = Nv_util.Histogram.create () and b = Nv_util.Histogram.create () in
  Nv_util.Histogram.add a 10.0;
  Nv_util.Histogram.add b 20.0;
  let m = Nv_util.Histogram.merge a b in
  Alcotest.(check int) "merged count" 2 (Nv_util.Histogram.count m);
  Alcotest.(check (float 0.01)) "merged mean" 15.0 (Nv_util.Histogram.mean m)

let test_pqueue_ordering () =
  let q = Nv_util.Pqueue.create () in
  let rng = Nv_util.Rng.create 11 in
  let items = List.init 500 (fun i -> (Nv_util.Rng.float rng, i)) in
  List.iter (fun (p, v) -> Nv_util.Pqueue.push q ~prio:p v) items;
  Alcotest.(check int) "size" 500 (Nv_util.Pqueue.size q);
  let rec drain last acc =
    match Nv_util.Pqueue.peek_prio q with
    | None -> acc
    | Some p ->
        Alcotest.(check bool) "non-decreasing" true (p >= last);
        ignore (Nv_util.Pqueue.pop q);
        drain p (acc + 1)
  in
  Alcotest.(check int) "drained all" 500 (drain neg_infinity 0)

let test_pqueue_fifo_ties () =
  let q = Nv_util.Pqueue.create () in
  List.iter (fun v -> Nv_util.Pqueue.push q ~prio:1.0 v) [ 1; 2; 3; 4 ];
  let order = List.init 4 (fun _ -> Option.get (Nv_util.Pqueue.pop q)) in
  Alcotest.(check (list int)) "ties pop in insertion order" [ 1; 2; 3; 4 ] order

(* ------------------------------------------------------------------ *)
(* Domain-pool telemetry and spin/sleep backoff configuration.         *)

let test_dpool_telemetry () =
  let module D = Nv_util.Dpool in
  D.reset_telemetry ();
  List.iter
    (fun (s : D.Telemetry.stat) ->
      Alcotest.(check int) "reset zeroes tasks" 0 s.D.Telemetry.tasks;
      Alcotest.(check (float 0.0)) "reset zeroes busy" 0.0 s.D.Telemetry.busy_ns)
    (Array.to_list (D.telemetry ()));
  let pool = D.shared ~width:4 in
  let n = 8 in
  let out =
    D.run pool ~n (fun i ->
        (* Enough work per index to register on the wall clock. *)
        let acc = ref 0 in
        for k = 0 to 50_000 do
          acc := !acc + ((k * (i + 1)) land 0xff)
        done;
        !acc)
  in
  Alcotest.(check int) "all indices evaluated" n (Array.length out);
  let tele = D.telemetry () in
  let tasks = Array.fold_left (fun acc s -> acc + s.D.Telemetry.tasks) 0 tele in
  let busy = Array.fold_left (fun acc s -> acc +. s.D.Telemetry.busy_ns) 0.0 tele in
  Alcotest.(check int) "every task metered exactly once" n tasks;
  Alcotest.(check bool) "busy wall time accrued" true (busy > 0.0);
  Array.iter
    (fun (s : D.Telemetry.stat) ->
      Alcotest.(check bool) "meters are non-negative" true
        (s.D.Telemetry.busy_ns >= 0.0 && s.D.Telemetry.spin_ns >= 0.0
        && s.D.Telemetry.sleep_ns >= 0.0 && s.D.Telemetry.escalations >= 0))
    tele;
  D.reset_telemetry ()

let test_dpool_spin_config () =
  let module D = Nv_util.Dpool in
  let saved_threshold, saved_sleep = D.spin_config () in
  Fun.protect
    ~finally:(fun () ->
      D.set_spin ~threshold:saved_threshold ~sleep_us:(saved_sleep *. 1e6) ())
  @@ fun () ->
  (* NVC_SPIN value parsing: "SPINS" or "SPINS:SLEEP_US". *)
  (match D.parse_spin "2048" with
  | Some (t, s) ->
      Alcotest.(check int) "threshold alone" 2048 t;
      Alcotest.(check (float 1e-12)) "sleep keeps default" 5e-5 s
  | None -> Alcotest.fail "\"2048\" should parse");
  (match D.parse_spin "256:20" with
  | Some (t, s) ->
      Alcotest.(check int) "threshold with sleep" 256 t;
      Alcotest.(check (float 1e-12)) "sleep_us converts to seconds" 20e-6 s
  | None -> Alcotest.fail "\"256:20\" should parse");
  List.iter
    (fun bad ->
      match D.parse_spin bad with
      | None -> ()
      | Some _ -> Alcotest.failf "%S should not parse" bad)
    [ ""; "abc"; "-5"; "12:"; ":9"; "1:2:3"; "64:-1"; "64:zz" ];
  (* set_spin installs, spin_config reads back (sleep in seconds). *)
  D.set_spin ~threshold:128 ~sleep_us:10.0 ();
  let t, s = D.spin_config () in
  Alcotest.(check int) "installed threshold" 128 t;
  Alcotest.(check (float 1e-12)) "installed sleep" 10e-6 s;
  (* Backoff past the threshold still terminates and meters the wait. *)
  Nv_util.Dpool.reset_telemetry ();
  for spins = 0 to 200 do
    D.backoff spins
  done;
  let tele = D.telemetry () in
  let spin_ns = Array.fold_left (fun acc st -> acc +. st.D.Telemetry.spin_ns) 0.0 tele in
  let sleep_ns = Array.fold_left (fun acc st -> acc +. st.D.Telemetry.sleep_ns) 0.0 tele in
  let esc = Array.fold_left (fun acc st -> acc + st.D.Telemetry.escalations) 0 tele in
  Alcotest.(check bool) "spin wall metered" true (spin_ns > 0.0);
  Alcotest.(check bool) "sleep wall metered past threshold" true (sleep_ns > 0.0);
  Alcotest.(check bool) "escalations counted" true (esc >= 1);
  D.reset_telemetry ()

let prop_fnv_nonnegative =
  QCheck.Test.make ~name:"fnv hashes are non-negative" ~count:1000 QCheck.int64 (fun k ->
      Nv_util.Fnv.hash_int64 k >= 0)

let prop_fnv_deterministic =
  QCheck.Test.make ~name:"fnv deterministic" ~count:1000 QCheck.string (fun s ->
      Nv_util.Fnv.hash_string s = Nv_util.Fnv.hash_string s)

let prop_pqueue_sorted =
  QCheck.Test.make ~name:"pqueue pops sorted" ~count:100
    QCheck.(list (float_bound_exclusive 1.0))
    (fun prios ->
      let q = Nv_util.Pqueue.create () in
      List.iteri (fun i p -> Nv_util.Pqueue.push q ~prio:p i) prios;
      let rec drain acc =
        match Nv_util.Pqueue.peek_prio q with
        | None -> List.rev acc
        | Some p ->
            ignore (Nv_util.Pqueue.pop q);
            drain (p :: acc)
      in
      let out = drain [] in
      out = List.sort compare prios)

(* ------------------------------------------------------------------ *)
(* CRC-32C                                                             *)

module Crc = Nv_util.Crc32c

(* Bit-at-a-time reference straight from the definition (reflected
   polynomial 0x82F63B78, pre- and post-inverted), sharing nothing with
   the table-driven kernel. *)
let ref_crc b off len =
  let c = ref 0xFFFFFFFF in
  for i = off to off + len - 1 do
    c := !c lxor Char.code (Bytes.get b i);
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then (!c lsr 1) lxor 0x82F63B78 else !c lsr 1
    done
  done;
  Int32.of_int (!c lxor 0xFFFFFFFF)

let check_crc msg expected got = Alcotest.(check int32) msg expected got

(* RFC 3720 (iSCSI) appendix B.4 vectors, plus the customary check
   value. *)
let test_crc32c_vectors () =
  let all n f = Bytes.init n (fun i -> Char.chr (f i)) in
  let v msg expected b = check_crc msg expected (Crc.bytes b 0 (Bytes.length b)) in
  v "32 x 00" 0x8A9136AAl (Bytes.make 32 '\000');
  v "32 x ff" 0x62A8AB43l (Bytes.make 32 '\255');
  v "bytes 0..31" 0x46DD794El (all 32 (fun i -> i));
  v "bytes 31..0" 0x113FDB5Cl (all 32 (fun i -> 31 - i));
  let pdu =
    [|
      0x01; 0xc0; 0x00; 0x00; 0x00; 0x00; 0x00; 0x00; 0x00; 0x00; 0x00; 0x00; 0x00; 0x00; 0x00; 0x00;
      0x14; 0x00; 0x00; 0x00; 0x00; 0x00; 0x04; 0x00; 0x00; 0x00; 0x00; 0x14; 0x00; 0x00; 0x00; 0x18;
      0x28; 0x00; 0x00; 0x00; 0x00; 0x00; 0x00; 0x00; 0x02; 0x00; 0x00; 0x00; 0x00; 0x00; 0x00; 0x00;
    |]
  in
  v "iscsi read pdu" 0xD9963A56l (all (Array.length pdu) (Array.get pdu));
  check_crc "123456789" 0xE3069283l (Crc.string "123456789");
  check_crc "empty" 0l (Crc.string "")

(* Random unaligned offsets and every tail length 0..7 past a multiple
   of the 8-byte stride, against the bitwise reference. *)
let prop_crc32c_reference =
  QCheck.Test.make ~name:"crc32c = bitwise reference (unaligned, all tails)" ~count:500
    QCheck.(triple (int_bound 1_000_000) (int_bound 15) (int_bound 64))
    (fun (seed, off, words) ->
      let rng = Nv_util.Rng.create seed in
      let b = Bytes.init (16 + (8 * words) + 8) (fun _ -> Char.chr (Nv_util.Rng.int rng 256)) in
      List.for_all
        (fun tail ->
          let len = (8 * words) + tail in
          Crc.bytes b off len = ref_crc b off len)
        [ 0; 1; 2; 3; 4; 5; 6; 7 ])

let test_crc32c_composition () =
  let rng = Nv_util.Rng.create 11 in
  let b = Bytes.init 4099 (fun _ -> Char.chr (Nv_util.Rng.int rng 256)) in
  let n = Bytes.length b in
  (* Chained [update] over any split equals the one-shot checksum. *)
  List.iter
    (fun cut ->
      let c = Crc.update (Crc.init ()) b 0 cut in
      let c = Crc.update c b cut (n - cut) in
      check_crc (Printf.sprintf "split at %d" cut) (Crc.bytes b 0 n) (Crc.finish c))
    [ 0; 1; 7; 8; 9; 1000; 4096; n ];
  (* The word forms fold their little-endian bytes. *)
  for _ = 1 to 200 do
    let v = Nv_util.Rng.next_int64 rng and w = Int64.to_int32 (Nv_util.Rng.next_int64 rng) in
    let start = Crc.update (Crc.init ()) b 0 (Nv_util.Rng.int rng 64) in
    let le8 = Bytes.create 8 and le4 = Bytes.create 4 in
    Bytes.set_int64_le le8 0 v;
    Bytes.set_int32_le le4 0 w;
    check_crc "int64 = update over le bytes" (Crc.update start le8 0 8) (Crc.int64 start v);
    check_crc "int32 = update over le bytes" (Crc.update start le4 0 4) (Crc.int32 start w);
    check_crc "int64_crc = bytes" (Crc.bytes le8 0 8) (Crc.int64_crc v)
  done;
  (* In-place range checksums over a region equal checksumming a copy. *)
  let pm = Nv_nvmm.Pmem.create ~size:8192 () in
  Nv_nvmm.Pmem.write_bytes pm ~off:0 (Bytes.sub b 0 4096);
  for _ = 1 to 200 do
    let off = Nv_util.Rng.int rng 8192 in
    let len = Nv_util.Rng.int rng (8192 - off + 1) in
    check_crc "Pmem.crc32c = bytes of read_bytes"
      (Crc.bytes (Nv_nvmm.Pmem.read_bytes pm ~off ~len) 0 len)
      (Nv_nvmm.Pmem.crc32c pm ~off ~len)
  done

(* An out-of-range call used to checksum whatever memory followed the
   buffer; now it is rejected once per call, before any byte is read. *)
let test_crc32c_range_checked () =
  let b = Bytes.make 16 'x' in
  let rejects msg f =
    match f () with
    | _ -> Alcotest.failf "%s: accepted an out-of-range call" msg
    | exception Invalid_argument _ -> ()
  in
  rejects "past the end" (fun () -> Crc.update (Crc.init ()) b 8 9);
  rejects "negative offset" (fun () -> Crc.update (Crc.init ()) b (-1) 4);
  rejects "negative length" (fun () -> Crc.bytes b 4 (-1));
  rejects "offset past the end" (fun () -> Crc.bytes b 17 0);
  rejects "huge length" (fun () -> Crc.bytes b 1 max_int);
  check_crc "empty range at the end" 0l (Crc.bytes b 16 0);
  check_crc "full range" (ref_crc b 0 16) (Crc.bytes b 0 16)

(* Allocation guard: the kernel must not box per byte or per word. A
   64 KiB checksum returns one boxed int32 (3 words); the byte-at-a-time
   Int32 loop it replaced allocated ~400 K words here. *)
let test_crc32c_allocation_free () =
  let b = Bytes.make 65536 'z' in
  ignore (Sys.opaque_identity (Crc.bytes b 0 65536));
  let before = Gc.minor_words () in
  let c = Crc.bytes b 0 65536 in
  let words = Gc.minor_words () -. before in
  ignore (Sys.opaque_identity c);
  Alcotest.(check bool)
    (Printf.sprintf "64 KiB checksum allocated %.0f minor words (< 16)" words)
    true (words < 16.)

let suites =
  [
    ( "util",
      [
        Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
        Alcotest.test_case "rng split" `Quick test_rng_split_independent;
        Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
        Alcotest.test_case "rng uniformity" `Quick test_rng_uniformity;
        Alcotest.test_case "shuffle permutes" `Quick test_shuffle_permutes;
        Alcotest.test_case "zipf skew" `Quick test_zipf_skew;
        Alcotest.test_case "zipf uniform" `Quick test_zipf_uniform_degenerate;
        Alcotest.test_case "histogram basic" `Quick test_histogram_basic;
        Alcotest.test_case "histogram merge" `Quick test_histogram_merge;
        Alcotest.test_case "pqueue ordering" `Quick test_pqueue_ordering;
        Alcotest.test_case "pqueue fifo ties" `Quick test_pqueue_fifo_ties;
        Alcotest.test_case "dpool telemetry meters tasks" `Quick test_dpool_telemetry;
        Alcotest.test_case "dpool spin config and backoff" `Quick test_dpool_spin_config;
        QCheck_alcotest.to_alcotest prop_fnv_nonnegative;
        QCheck_alcotest.to_alcotest prop_fnv_deterministic;
        QCheck_alcotest.to_alcotest prop_pqueue_sorted;
      ] );
    ( "crc32c",
      [
        Alcotest.test_case "rfc 3720 vectors" `Quick test_crc32c_vectors;
        QCheck_alcotest.to_alcotest prop_crc32c_reference;
        Alcotest.test_case "chained, word and in-place forms agree" `Quick
          test_crc32c_composition;
        Alcotest.test_case "out-of-range calls rejected" `Quick test_crc32c_range_checked;
        Alcotest.test_case "64 KiB checksum allocation-free" `Quick test_crc32c_allocation_free;
      ] );
  ]
