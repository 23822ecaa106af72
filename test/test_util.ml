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

let prop_fnv_nonnegative =
  QCheck.Test.make ~name:"fnv hashes are non-negative" ~count:1000 QCheck.int64 (fun k ->
      Nv_util.Fnv.hash_int64 k >= 0)

let prop_fnv_deterministic =
  QCheck.Test.make ~name:"fnv deterministic" ~count:1000 QCheck.string (fun s ->
      Nv_util.Fnv.hash_string s = Nv_util.Fnv.hash_string s)

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
  (* Through the kernel in use and through the software reference, so
     the vectors hold for both whatever the host CPU offers. *)
  let v msg expected b =
    check_crc msg expected (Crc.bytes b 0 (Bytes.length b));
    check_crc (msg ^ " (software)") expected (Crc.bytes_reference b 0 (Bytes.length b))
  in
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

(* The kernel in use (the SSE4.2 stub on x86-64 hosts that have it)
   against the software slicing-by-8 reference: random buffers of 0 to
   4096 bytes at any offset. *)
let prop_crc32c_hardware =
  QCheck.Test.make ~name:"crc32c kernel = software reference (0..4096 B, any offset)" ~count:500
    QCheck.(triple (int_bound 1_000_000) (int_bound 4096) (int_bound 63))
    (fun (seed, len, off) ->
      let rng = Nv_util.Rng.create seed in
      let b = Bytes.init (off + len) (fun _ -> Char.chr (Nv_util.Rng.int rng 256)) in
      Crc.bytes b off len = Crc.bytes_reference b off len
      && Crc.bytes_native b off len = Int32.to_int (Crc.bytes_reference b off len) land 0xFFFFFFFF)

(* The unboxed forms the engine's hot paths use agree with the boxed
   ones. *)
let test_crc32c_native_forms () =
  let rng = Nv_util.Rng.create 5 in
  let u32 c = Int32.to_int c land 0xFFFFFFFF in
  for _ = 1 to 500 do
    let a = Int64.to_int (Nv_util.Rng.next_int64 rng) land max_int in
    let b = Int64.to_int (Nv_util.Rng.next_int64 rng) land 0xFFFFFFFF in
    let boxed = Crc.(finish (int32 (int64 (init ()) (Int64.of_int a)) (Int32.of_int b))) in
    Alcotest.(check int) "update_int/update_u32 = int64/int32" (u32 boxed)
      Crc.(finish_native (update_u32 (update_int init_native a) b));
    let v = Int64.of_int (Nv_util.Rng.int rng 1_000_000) and salt = Nv_util.Rng.int rng 64 in
    let w = Crc.pack ~salt v in
    let lo = Int64.to_int (Int64.logand w 0xFFFFFFFFL)
    and hi = Int64.to_int (Int64.shift_right_logical w 32) in
    Alcotest.(check int) "unpack_halves = unpack" (Int64.to_int v) (Crc.unpack_halves ~salt ~lo ~hi);
    Alcotest.(check int) "corrupt half detected" (-1)
      (Crc.unpack_halves ~salt ~lo:(lo lxor 1) ~hi)
  done

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
        QCheck_alcotest.to_alcotest prop_fnv_nonnegative;
        QCheck_alcotest.to_alcotest prop_fnv_deterministic;
      ] );
    ( "crc32c",
      [
        Alcotest.test_case "rfc 3720 vectors" `Quick test_crc32c_vectors;
        QCheck_alcotest.to_alcotest prop_crc32c_reference;
        Alcotest.test_case "chained, word and in-place forms agree" `Quick
          test_crc32c_composition;
        Alcotest.test_case "out-of-range calls rejected" `Quick test_crc32c_range_checked;
        Alcotest.test_case "64 KiB checksum allocation-free" `Quick test_crc32c_allocation_free;
        QCheck_alcotest.to_alcotest prop_crc32c_hardware;
        Alcotest.test_case "unboxed forms agree" `Quick test_crc32c_native_forms;
      ] );
  ]
