(* Observability tests: the span tracer records well-nested per-core
   phase spans over simulated time, the metrics registry's per-epoch
   snapshots reconcile exactly with the engine's epoch reports, the
   Chrome-trace export round-trips through the JSON codec, and
   crash/recovery produces the four recovery-phase spans. *)

open Nvcaracal
module Tracer = Nv_obs.Tracer
module Metrics = Nv_obs.Metrics
module Trace_export = Nv_obs.Trace_export
module Jsonx = Nv_obs.Jsonx
module Histogram = Nv_util.Histogram

let bytes_of_string = Bytes.of_string

let config () =
  Config.make ~cores:4 ~cache_k:3 ~rows_per_core:2048 ~values_per_core:2048
    ~freelist_capacity:2048 ~log_capacity:(1 lsl 20) ()

let tables = [ Table.make ~id:0 ~name:"t" () ]

let mk_db () = Db.create ~config:(config ()) ~tables ()

let load_n db n =
  Db.bulk_load db
    (Seq.init n (fun i -> (0, Int64.of_int i, bytes_of_string (Printf.sprintf "v0-%d" i))))

(* A logged read-modify-write: the input encodes (key, payload) so
   recovery can rebuild the transaction from the log. *)
let enc key data =
  let b = Bytes.create (8 + Bytes.length data) in
  Bytes.set_int64_le b 0 key;
  Bytes.blit data 0 b 8 (Bytes.length data);
  b

let logged_update key data =
  Txn.make ~input:(enc key data) ~write_set:[ Txn.Update { table = 0; key } ] (fun ctx ->
      ctx.Txn.Ctx.write ~table:0 ~key data)

let rebuild input =
  let key = Bytes.get_int64_le input 0 in
  let data = Bytes.sub input 8 (Bytes.length input - 8) in
  logged_update key data

let batch ~epoch n =
  Array.init n (fun i ->
      logged_update
        (Int64.of_int (i mod 24))
        (bytes_of_string (Printf.sprintf "e%d-i%d" epoch i)))

let phase_names =
  [ "input-log"; "insert"; "major-gc"; "evict"; "append"; "execute"; "fence"; "epoch-persist" ]

let complete_spans tr =
  List.filter (fun (e : Tracer.event) -> e.Tracer.ph = Tracer.Complete) (Tracer.events tr)

let by_track spans =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (e : Tracer.event) ->
      let key = (e.Tracer.pid, e.Tracer.track) in
      Hashtbl.replace tbl key (e :: (try Hashtbl.find tbl key with Not_found -> [])))
    spans;
  Hashtbl.fold (fun k es acc -> (k, List.rev es) :: acc) tbl []

(* ------------------------------------------------------------------ *)

let test_span_nesting () =
  let db = mk_db () in
  let tr = Tracer.create ~txn_sample:1 () in
  Db.set_observability ~tracer:tr ~name:"nesting-test" db;
  load_n db 32;
  for e = 1 to 3 do
    ignore (Db.run_epoch db (batch ~epoch:e 40))
  done;
  let spans = complete_spans tr in
  Alcotest.(check bool) "spans recorded" true (spans <> []);
  (* Every Algorithm-1 phase appears, on every core's track. *)
  List.iter
    (fun name ->
      let on_tracks =
        List.filter (fun (e : Tracer.event) -> e.Tracer.name = name && e.Tracer.cat = "epoch")
          spans
        |> List.map (fun (e : Tracer.event) -> e.Tracer.track)
        |> List.sort_uniq compare
      in
      Alcotest.(check (list int)) (name ^ " on all cores") [ 0; 1; 2; 3 ] on_tracks)
    phase_names;
  let eps = 1e-6 in
  List.iter
    (fun ((pid, track), es) ->
      let label = Printf.sprintf "pid %d track %d" pid track in
      (* Durations are non-negative and end-times never go backwards in
         emission order (simulated time is monotone per core). *)
      let last_end = ref neg_infinity in
      List.iter
        (fun (e : Tracer.event) ->
          if e.Tracer.dur < 0.0 then Alcotest.failf "%s: negative duration %s" label e.Tracer.name;
          let e_end = e.Tracer.ts +. e.Tracer.dur in
          if e_end < !last_end -. eps then
            Alcotest.failf "%s: end-time regressed at %s" label e.Tracer.name;
          last_end := e_end)
        es;
      (* Spans on one track are strictly nested: any two either do not
         overlap or one contains the other. *)
      let arr = Array.of_list es in
      Array.iteri
        (fun i a ->
          Array.iteri
            (fun j b ->
              if i < j then begin
                (* Order as (outer, inner): earlier start first; on a
                   shared start the longer span is the outer one. *)
                let a, b =
                  if
                    a.Tracer.ts < b.Tracer.ts -. eps
                    || (Float.abs (a.Tracer.ts -. b.Tracer.ts) <= eps
                       && a.Tracer.dur >= b.Tracer.dur)
                  then (a, b)
                  else (b, a)
                in
                let a_end = a.Tracer.ts +. a.Tracer.dur
                and b_end = b.Tracer.ts +. b.Tracer.dur in
                let disjoint = b.Tracer.ts >= a_end -. eps in
                let nested = b_end <= a_end +. eps in
                if not (disjoint || nested) then
                  Alcotest.failf "%s: %s and %s partially overlap" label a.Tracer.name
                    b.Tracer.name
              end)
            arr)
        arr)
    (by_track spans)

let test_metrics_reconcile () =
  let db = mk_db () in
  let m = Metrics.create () in
  Db.set_observability ~metrics:m ~name:"metrics-test" db;
  load_n db 32;
  let reports = List.init 3 (fun e -> Db.run_epoch db (batch ~epoch:(e + 1) 50)) in
  let records = List.map (fun j -> j) (Metrics.records m) in
  Alcotest.(check int) "one record per epoch" (List.length reports) (List.length records);
  let field r name =
    match Jsonx.member name r with
    | Some v -> v
    | None -> Alcotest.failf "record missing field %S" name
  in
  let geti r name = Jsonx.to_int (field r name) in
  List.iter2
    (fun (s : Report.epoch_stats) r ->
      let check name expected = Alcotest.(check int) name expected (geti r name) in
      check "epoch" s.Report.epoch;
      check "txns" s.Report.txns;
      check "committed" (s.Report.txns - s.Report.aborted);
      check "aborted" s.Report.aborted;
      check "version_writes" s.Report.version_writes;
      check "persistent_writes" s.Report.persistent_writes;
      check "transient_only_writes" s.Report.transient_only_writes;
      check "minor_gc" s.Report.minor_gc;
      check "major_gc" s.Report.major_gc;
      check "evicted" s.Report.evicted;
      check "cache_hits" s.Report.cache_hits;
      check "cache_misses" s.Report.cache_misses;
      check "log_bytes" s.Report.log_bytes;
      Alcotest.(check (float 1e-6)) "duration_ns" s.Report.duration_ns
        (Jsonx.to_float (field r "duration_ns")))
    reports records;
  (* The JSONL rendering parses back line by line. *)
  let lines =
    String.split_on_char '\n' (Metrics.to_jsonl m) |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check int) "jsonl lines" (List.length records) (List.length lines);
  List.iter (fun l -> ignore (Jsonx.of_string l)) lines

let test_trace_export_roundtrip () =
  let db = mk_db () in
  let tr = Tracer.create () in
  Db.set_observability ~tracer:tr ~name:"export-test" db;
  load_n db 32;
  for e = 1 to 2 do
    ignore (Db.run_epoch db (batch ~epoch:e 30))
  done;
  let s = Trace_export.to_string tr in
  let j = Jsonx.of_string s in
  let events =
    match Jsonx.member "traceEvents" j with
    | Some v -> Jsonx.to_list v
    | None -> Alcotest.fail "no traceEvents key"
  in
  Alcotest.(check bool) "has events" true (List.length events > 0);
  let names =
    List.filter_map
      (fun e -> match Jsonx.member "name" e with Some (Jsonx.String n) -> Some n | _ -> None)
      events
  in
  List.iter
    (fun p -> Alcotest.(check bool) ("export contains " ^ p) true (List.mem p names))
    phase_names;
  List.iter
    (fun meta -> Alcotest.(check bool) ("export contains " ^ meta) true (List.mem meta names))
    [ "process_name"; "thread_name" ];
  (* The codec round-trips its own output exactly. *)
  Alcotest.(check string) "parse/print round-trip" s (Jsonx.to_string j);
  (* Exported events = recorded events plus "M" metadata rows. *)
  let data_events =
    List.filter (fun n -> n <> "process_name" && n <> "thread_name") names
  in
  Alcotest.(check int) "event count" (Tracer.event_count tr) (List.length data_events)

let test_recovery_spans () =
  let db = mk_db () in
  load_n db 32;
  ignore (Db.run_epoch db (batch ~epoch:1 40));
  let exception Crash_now in
  Db.set_phase_hook db (fun p -> if p = Db.Exec_txn 5 then raise Crash_now);
  (try ignore (Db.run_epoch db (batch ~epoch:2 40)) with Crash_now -> ());
  let pmem = Db.crash db ~rng:(Nv_util.Rng.create 11) in
  let tr = Tracer.create () in
  let m = Metrics.create () in
  let _db2, report =
    Db.recover ~config:(config ()) ~tables ~pmem ~rebuild ~tracer:tr
      ~metrics:m ()
  in
  Alcotest.(check bool) "replayed" true (report.Report.replayed_txns > 0);
  let spans = complete_spans tr in
  let find name =
    match
      List.find_opt
        (fun (e : Tracer.event) -> e.Tracer.name = name && e.Tracer.cat = "recovery")
        spans
    with
    | Some e -> e
    | None -> Alcotest.failf "missing recovery span %S" name
  in
  let load = find "load-log"
  and scan = find "scan"
  and revert = find "revert"
  and replay = find "replay" in
  Alcotest.(check bool) "durations sane" true
    (load.Tracer.dur >= 0.0 && scan.Tracer.dur >= 0.0 && revert.Tracer.dur >= 0.0
   && replay.Tracer.dur > 0.0);
  (* The replayed epoch's phase spans sit inside the replay span. *)
  let eps = 1e-6 in
  let replay_end = replay.Tracer.ts +. replay.Tracer.dur in
  let epoch_spans =
    List.filter (fun (e : Tracer.event) -> e.Tracer.cat = "epoch") spans
  in
  Alcotest.(check bool) "replay recorded epoch spans" true (epoch_spans <> []);
  List.iter
    (fun (e : Tracer.event) ->
      if e.Tracer.ts < replay.Tracer.ts -. eps || e.Tracer.ts +. e.Tracer.dur > replay_end +. eps
      then Alcotest.failf "epoch span %s escapes the replay span" e.Tracer.name)
    epoch_spans;
  (* The replayed epoch also produced a metrics record. *)
  Alcotest.(check bool) "replay metrics" true (Metrics.records m <> [])

(* ------------------------------------------------------------------ *)
(* Histogram percentile edge cases (satellite).                        *)

let test_histogram_edges () =
  let h = Histogram.create () in
  Alcotest.(check bool) "empty percentile is nan" true (Float.is_nan (Histogram.percentile h 50.0));
  Alcotest.(check (list (pair (float 0.0) int))) "empty buckets" [] (Histogram.buckets h);
  Histogram.add h 42.0;
  Alcotest.(check (float 0.0)) "single p0" 42.0 (Histogram.percentile h 0.0);
  Alcotest.(check (float 0.0)) "single p50" 42.0 (Histogram.percentile h 50.0);
  Alcotest.(check (float 0.0)) "single p100" 42.0 (Histogram.percentile h 100.0);
  let h2 = Histogram.create () in
  List.iter (Histogram.add h2) [ 1.0; 10.0; 100.0; 1000.0 ];
  Alcotest.(check (float 0.0)) "p0 is min" 1.0 (Histogram.percentile h2 0.0);
  Alcotest.(check (float 0.0)) "p100 is max" 1000.0 (Histogram.percentile h2 100.0);
  Alcotest.(check (float 0.0)) "p<0 clamps" 1.0 (Histogram.percentile h2 (-3.0));
  Alcotest.(check (float 0.0)) "p>100 clamps" 1000.0 (Histogram.percentile h2 250.0);
  let p50 = Histogram.percentile h2 50.0 in
  Alcotest.(check bool) "p50 within range" true (p50 >= 1.0 && p50 <= 1000.0);
  Alcotest.(check int) "bucket counts sum" (Histogram.count h2)
    (List.fold_left (fun acc (_, c) -> acc + c) 0 (Histogram.buckets h2));
  let bounds = List.map fst (Histogram.buckets h2) in
  Alcotest.(check bool) "bucket bounds ascending" true
    (List.sort compare bounds = bounds)

(* ------------------------------------------------------------------ *)
(* Domain-safety: counters/gauges/histograms hammered from four
   domains at once lose nothing.                                       *)

let test_metrics_domain_safety () =
  let m = Metrics.create () in
  let c = Metrics.counter m "hammer.count" in
  let g = Metrics.gauge m "hammer.level" in
  let h = Metrics.histogram m "hammer.lat" in
  let pool = Nv_util.Dpool.shared ~width:4 in
  let iters = 25_000 in
  ignore
    (Nv_util.Dpool.run pool ~n:4 (fun i ->
         for k = 1 to iters do
           Metrics.add c 1;
           Metrics.observe h (float_of_int ((k land 7) + i));
           Metrics.set_gauge g (float_of_int k)
         done));
  let fields = Metrics.snapshot m ~epoch:1 in
  (match List.assoc "hammer.count" fields with
  | Jsonx.Int n -> Alcotest.(check int) "no lost counter increments" (4 * iters) n
  | _ -> Alcotest.fail "counter field not an int");
  (match List.assoc "hammer.lat" fields with
  | Jsonx.Assoc kv -> (
      match List.assoc "count" kv with
      | Jsonx.Int n -> Alcotest.(check int) "no lost histogram samples" (4 * iters) n
      | _ -> Alcotest.fail "histogram count not an int")
  | _ -> Alcotest.fail "histogram field not an object");
  (match List.assoc "hammer.level" fields with
  | Jsonx.Float v -> Alcotest.(check bool) "gauge holds one of the written values" true
                       (v >= 1.0 && v <= float_of_int iters)
  | _ -> Alcotest.fail "gauge field not a float");
  (* Counters and histograms reset on snapshot; the gauge persists. *)
  let fields2 = Metrics.snapshot m ~epoch:2 in
  (match List.assoc "hammer.count" fields2 with
  | Jsonx.Int n -> Alcotest.(check int) "counter reset by snapshot" 0 n
  | _ -> Alcotest.fail "counter field not an int");
  match List.assoc "hammer.lat" fields2 with
  | Jsonx.Assoc kv -> (
      match List.assoc "count" kv with
      | Jsonx.Int n -> Alcotest.(check int) "histogram reset by snapshot" 0 n
      | _ -> Alcotest.fail "histogram count not an int")
  | _ -> Alcotest.fail "histogram field not an object"

(* ------------------------------------------------------------------ *)
(* Dual clocks: wall capture is opt-in, mirrored into "(wall time)"
   processes on export, and absent byte-for-byte when not installed.   *)

let test_tracer_dual_clock () =
  let tr = Tracer.create () in
  Alcotest.(check bool) "wall off by default" false (Tracer.wall_enabled tr);
  Alcotest.(check bool) "wall_now is nan when off" true (Float.is_nan (Tracer.wall_now tr));
  Tracer.set_clock tr (fun _ -> 100.0);
  Tracer.open_process tr ~name:"run";
  Tracer.complete tr ~core:0 ~name:"sim-only" ~cat:"t" ~ts:0.0 ~dur:10.0 ();
  let contains_wall s =
    let needle = "(wall time)" in
    let n = String.length needle and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "no wall mirror without a wall clock" false
    (contains_wall (Jsonx.to_string (Trace_export.to_json tr)));
  (* Now with the wall clock installed: spans carry wall readings and
     the export mirrors them at pid + 1000. *)
  Tracer.set_wall_clock tr (Some Nv_util.Clock.now_ns);
  Alcotest.(check bool) "wall enabled" true (Tracer.wall_enabled tr);
  let w0 = Tracer.wall_now tr in
  Alcotest.(check bool) "wall_now reads the clock" true (w0 > 0.0);
  ignore (Tracer.span tr ~core:1 ~name:"dual" ~cat:"t" (fun () -> Sys.opaque_identity 42));
  let ev =
    match List.find_opt (fun (e : Tracer.event) -> e.Tracer.name = "dual") (Tracer.events tr) with
    | Some e -> e
    | None -> Alcotest.fail "dual span not recorded"
  in
  Alcotest.(check bool) "wts captured" true (not (Float.is_nan ev.Tracer.wts));
  Alcotest.(check bool) "wdur captured" true (ev.Tracer.wdur >= 0.0);
  let with_wall = Trace_export.to_json tr in
  Alcotest.(check bool) "wall mirror labeled in export" true
    (contains_wall (Jsonx.to_string with_wall));
  let wall_pids =
    match with_wall with
    | Jsonx.Assoc kv -> (
        match List.assoc "traceEvents" kv with
        | Jsonx.List evs ->
            List.filter_map
              (fun e ->
                match e with
                | Jsonx.Assoc fields -> (
                    match (List.assoc_opt "name" fields, List.assoc_opt "pid" fields) with
                    | Some (Jsonx.String "dual"), Some (Jsonx.Int pid) -> Some pid
                    | _ -> None)
                | _ -> None)
              evs
        | _ -> [])
    | _ -> []
  in
  (match List.sort compare wall_pids with
  | [ p1; p2 ] -> Alcotest.(check int) "wall mirror at pid+1000" (p1 + 1000) p2
  | other -> Alcotest.failf "expected 2 'dual' events, got %d" (List.length other));
  (* The sim-only span recorded before the wall clock was installed is
     not mirrored: its wall fields are nan. *)
  let sim_only_pids =
    match with_wall with
    | Jsonx.Assoc kv -> (
        match List.assoc "traceEvents" kv with
        | Jsonx.List evs ->
            List.length
              (List.filter
                 (fun e ->
                   match e with
                   | Jsonx.Assoc fields -> (
                       match List.assoc_opt "name" fields with
                       | Some (Jsonx.String "sim-only") -> true
                       | _ -> false)
                   | _ -> false)
                 evs)
        | _ -> 0)
    | _ -> 0
  in
  Alcotest.(check int) "nan-wall span not mirrored" 1 sim_only_pids

(* ------------------------------------------------------------------ *)
(* Profiler: phase aggregation, Gc deltas, slow-epoch detection.       *)

let test_profile_phases () =
  let slow = ref [] in
  let p = Nv_obs.Profile.create ~slow_threshold_ns:0.0 ~on_slow:(fun se -> slow := se :: !slow) () in
  Alcotest.(check bool) "enabled" true (Nv_obs.Profile.enabled p);
  for epoch = 1 to 3 do
    Nv_obs.Profile.epoch_begin p ~epoch;
    ignore
      (Nv_obs.Profile.phase p "alloc" (fun () ->
           (* Minor-heap churn: cons cells + tuples. (Major-heap counters
              in Gc.quick_stat lag behind GC slices on OCaml 5, so the
              test pins the minor counter only.) *)
           let acc = ref [] in
           for k = 0 to 9_999 do
             acc := (k, k) :: !acc
           done;
           Sys.opaque_identity !acc));
    Nv_obs.Profile.phase p "spin" (fun () -> ());
    Nv_obs.Profile.epoch_end p
  done;
  Alcotest.(check int) "epochs bracketed" 3 (Nv_obs.Profile.epochs p);
  Alcotest.(check bool) "total wall accumulates" true (Nv_obs.Profile.total_wall_ns p > 0.0);
  let stats = Nv_obs.Profile.stats p in
  Alcotest.(check (list string)) "phases in first-use order" [ "alloc"; "spin" ]
    (List.map fst stats);
  let alloc = List.assoc "alloc" stats in
  Alcotest.(check int) "alloc called thrice" 3 alloc.Nv_obs.Profile.calls;
  Alcotest.(check bool) "alloc wall time > 0" true (alloc.Nv_obs.Profile.wall_ns > 0.0);
  Alcotest.(check bool) "alloc minor words counted" true
    (alloc.Nv_obs.Profile.minor_words +. alloc.Nv_obs.Profile.major_words > 0.0);
  (* Threshold 0 makes every epoch slow; phases are attributed. *)
  Alcotest.(check int) "every epoch slow at threshold 0" 3 (Nv_obs.Profile.slow_epoch_count p);
  Alcotest.(check int) "on_slow fired per epoch" 3 (List.length !slow);
  List.iter
    (fun (se : Nv_obs.Profile.slow_epoch) ->
      Alcotest.(check bool) "slow epoch names its phases" true
        (List.mem_assoc "alloc" se.Nv_obs.Profile.phases))
    !slow;
  (* A phase that raises still charges its time. *)
  (match Nv_obs.Profile.phase p "raiser" (fun () -> failwith "boom") with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "exception swallowed");
  let raiser = List.assoc "raiser" (Nv_obs.Profile.stats p) in
  Alcotest.(check int) "raising phase charged" 1 raiser.Nv_obs.Profile.calls;
  (* JSON snapshot carries the same aggregates. *)
  (match Nv_obs.Profile.to_json p with
  | Jsonx.Assoc kv ->
      (match List.assoc "epochs" kv with
      | Jsonx.Int n -> Alcotest.(check int) "json epochs" 3 n
      | _ -> Alcotest.fail "epochs not an int");
      (match List.assoc "phases" kv with
      | Jsonx.List phs -> Alcotest.(check int) "json phase rows" 3 (List.length phs)
      | _ -> Alcotest.fail "phases not a list")
  | _ -> Alcotest.fail "to_json not an object");
  Nv_obs.Profile.reset p;
  Alcotest.(check int) "reset drops epochs" 0 (Nv_obs.Profile.epochs p);
  Alcotest.(check (list pass)) "reset drops phases" [] (Nv_obs.Profile.stats p);
  (* The null profiler no-ops. *)
  Nv_obs.Profile.epoch_begin Nv_obs.Profile.null ~epoch:1;
  ignore (Nv_obs.Profile.phase Nv_obs.Profile.null "x" (fun () -> 9));
  Nv_obs.Profile.epoch_end Nv_obs.Profile.null;
  Alcotest.(check int) "null profiler records nothing" 0
    (Nv_obs.Profile.epochs Nv_obs.Profile.null)

(* An engine run under a profiler reports the pipeline's phase names. *)
let test_profile_engine_run () =
  let p = Nv_obs.Profile.create () in
  let db = mk_db () in
  Db.set_observability ~profile:p db;
  load_n db 64;
  ignore (Db.run_epoch db (batch ~epoch:1 16));
  ignore (Db.run_epoch db (batch ~epoch:2 16));
  Alcotest.(check int) "two epochs profiled" 2 (Nv_obs.Profile.epochs p);
  let names = List.map fst (Nv_obs.Profile.stats p) in
  List.iter
    (fun required ->
      Alcotest.(check bool) ("profiled phase " ^ required) true (List.mem required names))
    [ "execute"; "append"; "epoch-persist" ]

let test_disabled_sinks () =
  (* The null sinks accept everything and record nothing. *)
  let db = mk_db () in
  Db.set_observability ~tracer:Tracer.null ~metrics:Metrics.null db;
  load_n db 32;
  ignore (Db.run_epoch db (batch ~epoch:1 10));
  Alcotest.(check int) "null tracer empty" 0 (Tracer.event_count Tracer.null);
  Alcotest.(check (list pass)) "null metrics empty" [] (Metrics.records Metrics.null);
  Alcotest.(check (list pass)) "null snapshot empty" [] (Metrics.snapshot Metrics.null ~epoch:3)

let suites =
  [
    ( "obs",
      [
        Alcotest.test_case "span nesting" `Quick test_span_nesting;
        Alcotest.test_case "metrics reconcile" `Quick test_metrics_reconcile;
        Alcotest.test_case "trace export round-trip" `Quick test_trace_export_roundtrip;
        Alcotest.test_case "recovery spans" `Quick test_recovery_spans;
        Alcotest.test_case "histogram edges" `Quick test_histogram_edges;
        Alcotest.test_case "metrics domain-safe under hammer" `Quick test_metrics_domain_safety;
        Alcotest.test_case "tracer dual clocks" `Quick test_tracer_dual_clock;
        Alcotest.test_case "profiler phases and slow epochs" `Quick test_profile_phases;
        Alcotest.test_case "profiler on an engine run" `Quick test_profile_engine_run;
        Alcotest.test_case "disabled sinks" `Quick test_disabled_sinks;
      ] );
  ]
