module Config = Nvcaracal.Config
module Db = Nvcaracal.Db
module Engine_intf = Nvcaracal.Engine_intf
module Report = Nvcaracal.Report
module W = Nv_workloads.Workload

type result = {
  label : string;
  txns : int;
  committed : int;
  aborted : int;
  sim_seconds : float;
  throughput : float;
  transient_frac : float;
  minor_gc : int;
  major_gc : int;
  cache_hits : int;
  cache_misses : int;
  log_bytes : int;
  epoch_latency : Nv_util.Histogram.t;
  last_epoch_phases : (string * float) list;
  mem : Report.mem_report;
}

type setup = Engine.setup = {
  epochs : int;
  epoch_txns : int;
  seed : int;
  row_size : int;
  cache_entries : int;
  insert_growth : int;
}

let setup = Engine.setup

(* Observability sinks shared by every run in the process. The bench /
   CLI front-ends point these at real instances when --trace/--metrics
   is given; the defaults are the no-op sinks, so experiment code never
   has to thread them through. *)
let default_tracer : Nv_obs.Tracer.t ref = ref Nv_obs.Tracer.null
let default_metrics : Nv_obs.Metrics.t ref = ref Nv_obs.Metrics.null
let default_profile : Nv_obs.Profile.t ref = ref Nv_obs.Profile.null

let collect ~label ~txns ~committed ~aborted ~sim_ns ~stats_list ~mem =
  let last_epoch_phases =
    match stats_list with [] -> [] | (e : Report.epoch_stats) :: _ -> e.Report.phases
  in
  let latency = Nv_util.Histogram.create () in
  List.iter (fun (e : Report.epoch_stats) -> Nv_util.Histogram.add latency e.Report.duration_ns)
    stats_list;
  (* Counter totals come from the associative epoch-stats merge, not
     from per-field sums. *)
  let total =
    List.fold_left Report.merge_epoch_stats Report.zero_epoch_stats stats_list
  in
  let version_writes = total.Report.version_writes in
  let persistent = total.Report.persistent_writes in
  {
    label;
    txns;
    committed;
    aborted;
    sim_seconds = sim_ns /. 1e9;
    throughput = (if sim_ns > 0.0 then float_of_int committed /. (sim_ns /. 1e9) else 0.0);
    transient_frac =
      (if version_writes > 0 then
         float_of_int (version_writes - persistent) /. float_of_int version_writes
       else 0.0);
    minor_gc = total.Report.minor_gc;
    major_gc = total.Report.major_gc;
    cache_hits = total.Report.cache_hits;
    cache_misses = total.Report.cache_misses;
    log_bytes = total.Report.log_bytes;
    epoch_latency = latency;
    last_epoch_phases;
    mem;
  }

(* The one generic driver: every backend runs the same loop through the
   Engine_intf seam; only the meaning of "aborted" is backend-specific
   (serial CC aborts in place, Aria defers and retries, Zen counts its
   own user aborts). *)
let run ?label ?tracer ?metrics ?profile (sp : Engine.spec) s (w : W.t) =
  let label = match label with Some l -> l | None -> Engine.label sp w in
  let (Engine_intf.Packed ((module E), db)) = Engine.instantiate sp s w in
  let tracer = match tracer with Some t -> t | None -> !default_tracer in
  let metrics = match metrics with Some m -> m | None -> !default_metrics in
  let profile = match profile with Some p -> p | None -> !default_profile in
  E.set_observability ~tracer ~metrics ~profile ~name:label db;
  E.bulk_load db (w.W.load ());
  let rng = Nv_util.Rng.create s.seed in
  let stats_list = ref [] in
  let deferred = ref [||] in
  let total_deferred = ref 0 in
  for _ = 1 to s.epochs do
    let fresh = w.W.gen_batch rng s.epoch_txns in
    let batch =
      if Engine.feeds_deferred sp then Array.append !deferred fresh else fresh
    in
    let st, d = E.run_batch db batch in
    (match st with Some st -> stats_list := st :: !stats_list | None -> ());
    total_deferred := !total_deferred + Array.length d;
    deferred := d
  done;
  let txns = s.epochs * s.epoch_txns in
  let committed = E.committed_txns db in
  let aborted =
    match sp.Engine.backend with
    | Engine.Caracal _ -> txns - committed
    | Engine.Caracal_aria -> !total_deferred
    | Engine.Zen -> E.aborted_txns db
  in
  collect ~label ~txns ~committed ~aborted ~sim_ns:(E.total_time_ns db)
    ~stats_list:!stats_list ~mem:(E.mem_report db)

(* Thin spec-building wrappers keeping the experiment code's call sites
   stable. *)

let nvcaracal_config s w ~variant ?minor_gc ?cached_versions ?batch_append
    ?selective_caching ?ordered_index () =
  Engine.caracal_config s w
    (Engine.spec ?minor_gc ?cached_versions ?batch_append ?selective_caching
       ?ordered_index (Engine.Caracal variant))

let run_nvcaracal s w ~variant ?minor_gc ?cached_versions ?batch_append
    ?selective_caching ?ordered_index ?label ?tracer ?metrics () =
  run ?label ?tracer ?metrics
    (Engine.spec ?minor_gc ?cached_versions ?batch_append ?selective_caching ?ordered_index
       (Engine.Caracal variant))
    s w

let run_zen s w ?record_size ?label () =
  run ?label (Engine.spec ?record_size Engine.Zen) s w

let run_aria s w ?label ?tracer ?metrics () =
  run ?label ?tracer ?metrics (Engine.spec Engine.Caracal_aria) s w

type recovery_result = { r_label : string; report : Report.recovery_report }

exception Crash_now

let run_recovery s (w : W.t) ~crash_after_txns ?(persistent_index = false) ?faults ?label
    ?tracer ?metrics () =
  let config =
    Engine.caracal_config s w
      (Engine.spec ~persistent_index (Engine.Caracal Config.Nvcaracal))
  in
  let db = Db.create ~config ~tables:w.W.tables () in
  Db.bulk_load db (w.W.load ());
  let rng = Nv_util.Rng.create s.seed in
  for _ = 1 to s.epochs - 1 do
    ignore (Db.run_epoch db (w.W.gen_batch rng s.epoch_txns))
  done;
  let crash_at = min crash_after_txns (s.epoch_txns - 1) in
  Db.set_phase_hook db (fun p -> if p = Db.Exec_txn crash_at then raise Crash_now);
  (try ignore (Db.run_epoch db (w.W.gen_batch rng s.epoch_txns)) with Crash_now -> ());
  let pmem = Db.crash ?faults db ~rng:(Nv_util.Rng.create (s.seed + 1)) in
  let tracer = match tracer with Some t -> t | None -> !default_tracer in
  let metrics = match metrics with Some m -> m | None -> !default_metrics in
  let _db2, report =
    Db.recover ~config ~tables:w.W.tables ~pmem ~rebuild:w.W.rebuild ~scrub:(faults <> None)
      ~tracer ~metrics ()
  in
  { r_label = (match label with Some l -> l | None -> w.W.name); report }
