(* Wide-execution determinism: the same seeded run must be byte-identical
   at any domain-pool width (--jobs), the wide path must actually engage
   where the eligibility gate promises it, and the shard-merge algebra
   the engine folds its per-core meters with must be associative. *)

open Nvcaracal
module Engine = Nv_harness.Engine
module Runner = Nv_harness.Runner
module Ycsb = Nv_workloads.Ycsb
module W = Nv_workloads.Workload
module Histogram = Nv_util.Histogram
module Tracer = Nv_obs.Tracer
module Pmem = Nv_nvmm.Pmem

let jobs_sweep = [ 1; 2; 4 ]

let with_jobs jobs f =
  let saved = !Engine.default_jobs in
  Engine.default_jobs := jobs;
  Fun.protect ~finally:(fun () -> Engine.default_jobs := saved) f

let tiny_ycsb = Ycsb.make { Ycsb.default with Ycsb.rows = 2000; hot_rows = 64 }
let setup = Runner.setup ~epochs:4 ~epoch_txns:240 ()

(* Everything observable about one run, folded to comparable values. *)
type fingerprint = {
  reports : string list;  (** pp_epoch_stats per epoch, oldest first *)
  committed : int;
  time_ns : float;
  table_digest : string;  (** committed keys and values, sorted *)
  pmem_digest : string;  (** every byte of the NVMM arena *)
  trace : Tracer.event list;
  wide : int;
}

let digest_table db ~table =
  let rows = ref [] in
  Db.iter_committed db ~table (fun key data -> rows := (key, Bytes.to_string data) :: !rows);
  let rows = List.sort compare !rows in
  Digest.to_hex
    (Digest.string
       (String.concat ";"
          (List.map (fun (k, v) -> Printf.sprintf "%Ld=%s" k (Digest.string v)) rows)))

let digest_pmem db =
  let pmem = Db.pmem db in
  Digest.to_hex (Digest.bytes (Pmem.read_bytes pmem ~off:0 ~len:(Pmem.size pmem)))

(* One serial-engine run with the committed-value cache and the tracer
   live (the genuinely wide configuration — the golden-output check only
   covers metrics runs, which force the serial path). *)
let run_serial_engine ~jobs =
  with_jobs jobs (fun () ->
      let w = tiny_ycsb in
      let config =
        Engine.caracal_config setup w (Engine.spec (Engine.Caracal Config.Nvcaracal))
      in
      let db = Db.create ~config ~tables:w.W.tables () in
      let tracer = Tracer.create ~txn_sample:4 () in
      Db.set_observability ~tracer ~name:"parallel-test" db;
      Db.bulk_load db (w.W.load ());
      let rng = Nv_util.Rng.create setup.Runner.seed in
      let reports = ref [] in
      for _ = 1 to setup.Runner.epochs do
        let st = Db.run_epoch db (w.W.gen_batch rng setup.Runner.epoch_txns) in
        reports := Format.asprintf "%a" Report.pp_epoch_stats st :: !reports
      done;
      {
        reports = List.rev !reports;
        committed = Db.committed_txns db;
        time_ns = Db.total_time_ns db;
        table_digest = digest_table db ~table:0;
        pmem_digest = digest_pmem db;
        trace = Tracer.events tracer;
        wide = (Db.introspect db).wide_execs;
      })

let run_aria_engine ~jobs =
  with_jobs jobs (fun () ->
      let w = tiny_ycsb in
      (* Caching off: Aria's snapshot phase fills the committed cache on
         reads, which only the serial loop may do. *)
      let config =
        Engine.caracal_config setup w
          (Engine.spec ~cached_versions:false Engine.Caracal_aria)
      in
      let db = Db.create ~config ~tables:w.W.tables () in
      Db.bulk_load db (w.W.load ());
      let rng = Nv_util.Rng.create setup.Runner.seed in
      let reports = ref [] in
      let deferred = ref [||] in
      for _ = 1 to setup.Runner.epochs do
        let batch = Array.append !deferred (w.W.gen_batch rng setup.Runner.epoch_txns) in
        let st, d = Db.run_epoch_aria db batch in
        deferred := d;
        reports := Format.asprintf "%a" Report.pp_epoch_stats st :: !reports
      done;
      {
        reports = List.rev !reports;
        committed = Db.committed_txns db;
        time_ns = Db.total_time_ns db;
        table_digest = digest_table db ~table:0;
        pmem_digest = digest_pmem db;
        trace = [];
        wide = (Db.introspect db).wide_execs;
      })

let check_identical what (base : fingerprint) (fp : fingerprint) ~jobs =
  let tag s = Printf.sprintf "%s jobs=%d: %s" what jobs s in
  Alcotest.(check (list string)) (tag "epoch reports") base.reports fp.reports;
  Alcotest.(check int) (tag "committed") base.committed fp.committed;
  Alcotest.(check (float 0.0)) (tag "simulated time") base.time_ns fp.time_ns;
  Alcotest.(check string) (tag "committed state") base.table_digest fp.table_digest;
  Alcotest.(check string) (tag "pmem bytes") base.pmem_digest fp.pmem_digest;
  Alcotest.(check int) (tag "trace event count") (List.length base.trace)
    (List.length fp.trace);
  (* [compare], not [=]: events carry wall-clock fields that are [nan]
     when no wall clock is installed, and [nan = nan] is false while
     [compare nan nan = 0]. *)
  Alcotest.(check bool) (tag "trace events byte-identical") true (compare base.trace fp.trace = 0)

let test_serial_engine_determinism () =
  let base = run_serial_engine ~jobs:1 in
  Alcotest.(check int) "jobs=1 never wide" 0 base.wide;
  Alcotest.(check bool) "trace recorded" true (base.trace <> []);
  List.iter
    (fun jobs ->
      let fp = run_serial_engine ~jobs in
      check_identical "serial-cc" base fp ~jobs;
      if jobs > 1 then
        Alcotest.(check bool)
          (Printf.sprintf "jobs=%d ran wide" jobs)
          true (fp.wide > 0))
    jobs_sweep

let test_aria_engine_determinism () =
  let base = run_aria_engine ~jobs:1 in
  Alcotest.(check int) "jobs=1 never wide" 0 base.wide;
  List.iter
    (fun jobs ->
      let fp = run_aria_engine ~jobs in
      check_identical "aria-cc" base fp ~jobs;
      if jobs > 1 then
        Alcotest.(check bool)
          (Printf.sprintf "jobs=%d ran wide" jobs)
          true (fp.wide > 0))
    jobs_sweep

let balance_bytes v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 v;
  b

(* --- Routed runs: each in-process member's engine applies its owned
   writes over the pool. --- *)

let run_partitioned ~jobs =
  let config =
    Config.make ~cores:4 ~rows_per_core:4096 ~values_per_core:4096 ~freelist_capacity:4096
      ~parallelism:jobs ()
  in
  let c = Test_routed.mk_cluster ~config () in
  let committed = ref 0 in
  for seed = 1 to 5 do
    committed := !committed + Test_routed.run_with_retry c (Test_routed.gen_batch seed 40)
  done;
  ( Test_routed.balances c,
    !committed,
    Array.fold_left (fun acc db -> acc +. Db.total_time_ns db) 0.0 c.Test_routed.dbs )

let test_partition_determinism () =
  let base = run_partitioned ~jobs:1 in
  List.iter
    (fun jobs ->
      let balances, committed, time_ns = run_partitioned ~jobs in
      let b0, c0, t0 = base in
      Alcotest.(check (list int64)) (Printf.sprintf "jobs=%d balances" jobs) b0 balances;
      Alcotest.(check int) (Printf.sprintf "jobs=%d committed" jobs) c0 committed;
      Alcotest.(check (float 0.0)) (Printf.sprintf "jobs=%d time" jobs) t0 time_ns)
    jobs_sweep

(* --- Crash + recovery under a wide pool: a parallelism setting must
   change nothing. --- *)

let run_recovery ~jobs =
  with_jobs jobs (fun () ->
      let r =
        Runner.run_recovery setup tiny_ycsb ~crash_after_txns:120 ()
      in
      Format.asprintf "%a" Report.pp_recovery_report r.Runner.report)

let test_recovery_determinism () =
  let base = run_recovery ~jobs:1 in
  List.iter
    (fun jobs ->
      Alcotest.(check string)
        (Printf.sprintf "jobs=%d recovery report" jobs)
        base (run_recovery ~jobs))
    jobs_sweep

(* --- Newly-widened shapes: configurations the effect-journal layer
   made wide-eligible (each previously forced the execute phase onto
   one stripe). Every shape must be byte-identical across jobs AND
   actually engage the wide path at jobs >= 2 — including through a
   crash and recovery where the shape supports it. --- *)

exception Crash_now_shape

type shape = {
  sh_name : string;
  sh_tables : Table.t list;
  sh_config : unit -> Config.t;  (** reads [!Engine.default_jobs] *)
  sh_load : unit -> (int * int64 * bytes) Seq.t;
  sh_gen : epoch:int -> Nv_util.Rng.t -> int -> Txn.t array;
  sh_metrics : bool;
  sh_rebuild : (bytes -> Txn.t) option;  (** [Some] adds a crash+recover leg *)
}

type shape_fp = {
  s_reports : string list;
  s_committed : int;
  s_time_ns : float;
  s_table : string;
  s_pmem : string;
  s_trace : Tracer.event list;
  s_metrics : string;
  s_recovery : string;  (** recovery report + recovered digests; "" when n/a *)
  s_wide : int;
}

let shape_epochs = 3
let shape_txns = 160
let shape_setup = Runner.setup ~epochs:shape_epochs ~epoch_txns:shape_txns ()

let run_shape sh ~jobs =
  with_jobs jobs (fun () ->
      let config = sh.sh_config () in
      let db = Db.create ~config ~tables:sh.sh_tables () in
      let tracer = Tracer.create ~txn_sample:8 () in
      let metrics = if sh.sh_metrics then Nv_obs.Metrics.create () else Nv_obs.Metrics.null in
      Db.set_observability ~tracer ~metrics ~name:sh.sh_name db;
      Db.bulk_load db (sh.sh_load ());
      let rng = Nv_util.Rng.create 7 in
      let reports = ref [] in
      for e = 1 to shape_epochs do
        let st = Db.run_epoch db (sh.sh_gen ~epoch:e rng shape_txns) in
        reports := Format.asprintf "%a" Report.pp_epoch_stats st :: !reports
      done;
      let wide = (Db.introspect db).wide_execs in
      let fp =
        {
          s_reports = List.rev !reports;
          s_committed = Db.committed_txns db;
          s_time_ns = Db.total_time_ns db;
          s_table = digest_table db ~table:0;
          s_pmem = digest_pmem db;
          s_trace = Tracer.events tracer;
          s_metrics = (if sh.sh_metrics then Nv_obs.Metrics.to_jsonl metrics else "");
          s_recovery = "";
          s_wide = wide;
        }
      in
      match sh.sh_rebuild with
      | None -> fp
      | Some rebuild ->
          (* Crash mid-epoch and recover with the same parallelism:
             deterministic replay must also be width-independent. *)
          Db.set_phase_hook db (fun p ->
              if p = Db.Exec_txn 40 then raise Crash_now_shape);
          (try
             ignore (Db.run_epoch db (sh.sh_gen ~epoch:(shape_epochs + 1) rng shape_txns))
           with Crash_now_shape -> ());
          let image = Db.crash db ~rng:(Nv_util.Rng.create 11) in
          let db2, report =
            Db.recover ~config ~tables:sh.sh_tables ~pmem:image ~rebuild ()
          in
          {
            fp with
            s_recovery =
              Format.asprintf "%a/%s/%s" Report.pp_recovery_report report
                (digest_table db2 ~table:0) (digest_pmem db2);
          })

let check_shape sh =
  let base = run_shape sh ~jobs:1 in
  Alcotest.(check int) (sh.sh_name ^ " jobs=1 never wide") 0 base.s_wide;
  List.iter
    (fun jobs ->
      let fp = run_shape sh ~jobs in
      let tag s = Printf.sprintf "%s jobs=%d: %s" sh.sh_name jobs s in
      Alcotest.(check (list string)) (tag "epoch reports") base.s_reports fp.s_reports;
      Alcotest.(check int) (tag "committed") base.s_committed fp.s_committed;
      Alcotest.(check (float 0.0)) (tag "simulated time") base.s_time_ns fp.s_time_ns;
      Alcotest.(check string) (tag "committed state") base.s_table fp.s_table;
      Alcotest.(check string) (tag "pmem bytes") base.s_pmem fp.s_pmem;
      Alcotest.(check string) (tag "metrics jsonl") base.s_metrics fp.s_metrics;
      Alcotest.(check string) (tag "recovery") base.s_recovery fp.s_recovery;
      Alcotest.(check int) (tag "trace event count") (List.length base.s_trace)
        (List.length fp.s_trace);
      Alcotest.(check bool) (tag "trace events byte-identical") true
        (compare base.s_trace fp.s_trace = 0);
      Alcotest.(check bool) (tag "ran wide") true (fp.s_wide > 0))
    (List.filter (fun j -> j > 1) jobs_sweep)

let ycsb_shape ?(crash = false) ?(persistent_index = false) ?(metrics = false) name =
  let w = tiny_ycsb in
  {
    sh_name = name;
    sh_tables = w.W.tables;
    sh_config =
      (fun () ->
        Engine.caracal_config shape_setup w
          (Engine.spec ~persistent_index (Engine.Caracal Config.Nvcaracal)));
    sh_load = w.W.load;
    sh_gen = (fun ~epoch:_ rng n -> w.W.gen_batch rng n);
    sh_metrics = metrics;
    sh_rebuild = (if crash then Some w.W.rebuild else None);
  }

(* Counter draws serialize through their predecessors, so a workload
   mixing counter draws with cross-transaction reads is the sharpest
   ordering test the wide path has. *)
let shape_rows = 384

let ctr_txn ~key ~peer ~idx =
  Txn.make ~input:Bytes.empty ~write_set:[ Txn.Update { table = 0; key } ] (fun ctx ->
      let v = ctx.Txn.Ctx.counter_next ~idx in
      let p =
        match ctx.Txn.Ctx.read ~table:0 ~key:peer with
        | Some b -> Bytes.get_int64_le b 0
        | None -> 0L
      in
      ctx.Txn.Ctx.write ~table:0 ~key (balance_bytes (Int64.add v p)))

let counters_shape =
  {
    sh_name = "counters";
    sh_tables = [ Table.make ~id:0 ~name:"rows" () ];
    sh_config =
      (fun () ->
        Config.make ~cores:4 ~rows_per_core:2048 ~values_per_core:2048
          ~freelist_capacity:4096 ~n_counters:4 ~parallelism:!Engine.default_jobs ());
    sh_load =
      (fun () -> Seq.init shape_rows (fun i -> (0, Int64.of_int i, balance_bytes 100L)));
    sh_gen =
      (fun ~epoch:_ rng n ->
        Array.init n (fun _ ->
            let key = Int64.of_int (Nv_util.Rng.int rng shape_rows) in
            let peer = Int64.of_int (Nv_util.Rng.int rng shape_rows) in
            ctr_txn ~key ~peer ~idx:(Nv_util.Rng.int rng 4)));
    sh_metrics = false;
    sh_rebuild = None;
  }

(* Delete-heavy, crash-safe: tombstones are journaled effects, and the
   input encoding makes the batch replayable after a crash. *)
let dd_enc tag key v =
  let b = Bytes.create 17 in
  Bytes.set_uint8 b 0 tag;
  Bytes.set_int64_le b 1 key;
  Bytes.set_int64_le b 9 v;
  b

let dd_del key =
  Txn.make ~input:(dd_enc 0 key 0L) ~write_set:[ Txn.Delete { table = 0; key } ]
    (fun ctx -> ctx.Txn.Ctx.delete ~table:0 ~key)

let dd_ins key v =
  Txn.make ~input:(dd_enc 1 key v)
    ~write_set:[ Txn.Insert { table = 0; key; data = None } ]
    (fun ctx -> ctx.Txn.Ctx.write ~table:0 ~key (balance_bytes v))

let dd_upd key v =
  Txn.make ~input:(dd_enc 2 key v) ~write_set:[ Txn.Update { table = 0; key } ]
    (fun ctx ->
      let cur =
        match ctx.Txn.Ctx.read ~table:0 ~key with
        | Some b -> Bytes.get_int64_le b 0
        | None -> 0L
      in
      ctx.Txn.Ctx.write ~table:0 ~key (balance_bytes (Int64.add cur v)))

let dd_rebuild input =
  let key = Bytes.get_int64_le input 1 and v = Bytes.get_int64_le input 9 in
  match Bytes.get_uint8 input 0 with
  | 0 -> dd_del key
  | 1 -> dd_ins key v
  | _ -> dd_upd key v

let pick_distinct rng ~bound m =
  let seen = Hashtbl.create m in
  let rec go acc k =
    if k = 0 then List.rev acc
    else
      let v = Nv_util.Rng.int rng bound in
      if Hashtbl.mem seen v then go acc k
      else begin
        Hashtbl.add seen v ();
        go (v :: acc) (k - 1)
      end
  in
  go [] m

let deletes_shape =
  {
    sh_name = "delete-heavy";
    sh_tables = [ Table.make ~id:0 ~name:"rows" () ];
    sh_config =
      (fun () ->
        Config.make ~cores:4 ~rows_per_core:2048 ~values_per_core:2048
          ~freelist_capacity:4096 ~parallelism:!Engine.default_jobs ());
    sh_load =
      (fun () -> Seq.init shape_rows (fun i -> (0, Int64.of_int i, balance_bytes 100L)));
    sh_gen =
      (fun ~epoch rng n ->
        (* The insert step precedes execution, so a key deleted this
           epoch can only be re-inserted next epoch: epoch [e] deletes
           the set derived from [e] and re-inserts the set derived from
           [e - 1], with updates on untouched keys filling the batch.
           The sets come from an epoch-seeded rng, keeping the
           generator stateless (the crash leg replays epoch N+1). *)
        let m = n / 4 in
        let dd_set e =
          if e < 1 then []
          else pick_distinct (Nv_util.Rng.create (7000 + e)) ~bound:shape_rows m
        in
        let prev = dd_set (epoch - 1) and cur = dd_set epoch in
        let inss =
          List.map
            (fun k -> dd_ins (Int64.of_int k) (Int64.of_int (Nv_util.Rng.int rng 1000)))
            prev
        in
        let dels = List.map (fun k -> dd_del (Int64.of_int k)) cur in
        let avoid = prev @ cur in
        let fill =
          List.init (n - List.length inss - m) (fun _ ->
              let rec pick () =
                let k = Nv_util.Rng.int rng shape_rows in
                if List.mem k avoid then pick () else k
              in
              dd_upd (Int64.of_int (pick ())) (Int64.of_int (Nv_util.Rng.int rng 1000)))
        in
        Array.of_list (inss @ dels @ fill));
    sh_metrics = false;
    sh_rebuild = Some dd_rebuild;
  }

let test_crash_safe_shape () = check_shape (ycsb_shape ~crash:true "crash-safe")

let test_pindex_shape () =
  check_shape (ycsb_shape ~crash:true ~persistent_index:true "persistent-index")

let test_metrics_shape () = check_shape (ycsb_shape ~metrics:true "metrics-enabled")
let test_counters_shape () = check_shape counters_shape
let test_deletes_shape () = check_shape deletes_shape

(* --- Merge algebra: the folds wide execution relies on. --- *)

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
  (* Associativity — the property that lets per-core shards fold in any
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
    ( "parallel",
      [
        Alcotest.test_case "serial CC determinism across jobs" `Slow
          test_serial_engine_determinism;
        Alcotest.test_case "aria CC determinism across jobs" `Slow
          test_aria_engine_determinism;
        Alcotest.test_case "partitioned determinism across jobs" `Slow
          test_partition_determinism;
        Alcotest.test_case "recovery determinism across jobs" `Slow
          test_recovery_determinism;
        Alcotest.test_case "crash-safe shape runs wide, identically" `Slow
          test_crash_safe_shape;
        Alcotest.test_case "persistent-index shape runs wide, identically" `Slow
          test_pindex_shape;
        Alcotest.test_case "metrics-enabled shape runs wide, identically" `Slow
          test_metrics_shape;
        Alcotest.test_case "counters shape runs wide, identically" `Slow
          test_counters_shape;
        Alcotest.test_case "delete-heavy shape runs wide, identically" `Slow
          test_deletes_shape;
        Alcotest.test_case "epoch-stats merge algebra" `Quick test_epoch_stats_merge;
        Alcotest.test_case "histogram merge algebra" `Quick test_histogram_merge;
      ] );
  ]
