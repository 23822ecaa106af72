(* The merge algebra a run's epoch reports are totalled with, and the
   histogram merge loadgen combines its clients' latencies with: both
   must be associative with an identity, so any grouping folds to one
   result. *)

open Nvcaracal
module Histogram = Nv_util.Histogram

let mk_stats ~epoch ~txns ~vw ~dur ~phases =
  {
    Report.zero_epoch_stats with
    Report.epoch;
    txns;
    aborted = epoch;
    version_writes = vw;
    persistent_writes = vw / 2;
    minor_gc = epoch * 2;
    cache_hits = vw + 1;
    log_bytes = vw * 64;
    duration_ns = dur;
    phases;
  }

let test_epoch_stats_merge () =
  let a = mk_stats ~epoch:3 ~txns:100 ~vw:10 ~dur:50.0 ~phases:[ ("log", 1.0); ("execute", 4.0) ] in
  let b = mk_stats ~epoch:3 ~txns:100 ~vw:7 ~dur:75.0 ~phases:[ ("execute", 2.0); ("gc", 1.5) ] in
  let c = mk_stats ~epoch:3 ~txns:100 ~vw:1 ~dur:60.0 ~phases:[ ("log", 0.5) ] in
  let m = Report.merge_epoch_stats in
  let ab = m a b in
  Alcotest.(check int) "counters add" 17 ab.Report.version_writes;
  Alcotest.(check int) "epoch maxes" 3 ab.Report.epoch;
  Alcotest.(check (float 0.0)) "duration maxes" 75.0 ab.Report.duration_ns;
  Alcotest.(check (list (pair string (float 0.0))))
    "phases sum by name, first-appearance order"
    [ ("log", 1.0); ("execute", 6.0); ("gc", 1.5) ]
    ab.Report.phases;
  (* Identity. *)
  Alcotest.(check bool) "left identity" true (m Report.zero_epoch_stats a = a);
  Alcotest.(check bool) "right identity" true (m a Report.zero_epoch_stats = a);
  (* Associativity — the property that lets a run's epochs fold in any
     grouping. *)
  Alcotest.(check bool) "associative" true (m (m a b) c = m a (m b c));
  Alcotest.(check bool) "associative (rotated)" true (m (m b c) a = m b (m c a))

let test_histogram_merge () =
  let of_samples l =
    let h = Histogram.create () in
    List.iter (Histogram.add h) l;
    h
  in
  let a = of_samples [ 1.0; 10.0; 100.0 ] in
  let b = of_samples [ 5.0; 50.0 ] in
  let c = of_samples [ 0.5; 2000.0; 7.0 ] in
  let m = Histogram.merge in
  let ab = m a b in
  Alcotest.(check int) "counts add" 5 (Histogram.count ab);
  Alcotest.(check (float 1e-9)) "mean combines" 33.2 (Histogram.mean ab);
  Alcotest.(check (float 0.0)) "min combines" 1.0 (Histogram.min_value ab);
  Alcotest.(check (float 0.0)) "max combines" 100.0 (Histogram.max_value ab);
  let fp h =
    ( Histogram.count h,
      Histogram.mean h,
      Histogram.min_value h,
      Histogram.max_value h,
      Histogram.buckets h )
  in
  (* Identity and associativity, up to the bucketed representation. *)
  Alcotest.(check bool) "left identity" true (fp (m (Histogram.create ()) a) = fp a);
  Alcotest.(check bool) "right identity" true (fp (m a (Histogram.create ())) = fp a);
  Alcotest.(check bool) "associative" true (fp (m (m a b) c) = fp (m a (m b c)));
  (* Merging must not alias or mutate its inputs. *)
  ignore (m a b);
  Alcotest.(check int) "left input untouched" 3 (Histogram.count a);
  Alcotest.(check int) "right input untouched" 2 (Histogram.count b)

let suites =
  [
    ( "merge",
      [
        Alcotest.test_case "epoch-stats merge algebra" `Quick test_epoch_stats_merge;
        Alcotest.test_case "histogram merge algebra" `Quick test_histogram_merge;
      ] );
  ]
