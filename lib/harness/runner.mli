(** Experiment runner: drives a workload against an engine
    configuration and collects the measurements the paper's figures
    report.

    Throughput is committed transactions divided by simulated seconds
    (the cost model's clock, not wall time); epoch latency feeds the
    Figure 12 trade-off. Pool capacities are derived from the
    workload's size plus an insert-growth allowance, so runs never
    trip allocator capacity. *)

type result = {
  label : string;
  txns : int;
  committed : int;
  aborted : int;
  sim_seconds : float;
  throughput : float;  (** committed txns per simulated second *)
  transient_frac : float;  (** fraction of version writes kept in DRAM *)
  minor_gc : int;
  major_gc : int;
  cache_hits : int;
  cache_misses : int;
  log_bytes : int;
  epoch_latency : Nv_util.Histogram.t;  (** per-epoch simulated durations, ns *)
  last_epoch_phases : (string * float) list;  (** phase breakdown, final epoch *)
  mem : Nvcaracal.Report.mem_report;
}

type setup = Engine.setup = {
  epochs : int;
  epoch_txns : int;
  seed : int;
  row_size : int;  (** persistent row size (paper default 256; Table 4 overrides) *)
  cache_entries : int;  (** DRAM cache entry cap; 0 = dataset size *)
  insert_growth : int;  (** upper bound on rows inserted per transaction *)
}

val setup :
  ?epochs:int ->
  ?epoch_txns:int ->
  ?seed:int ->
  ?row_size:int ->
  ?cache_entries:int ->
  ?insert_growth:int ->
  unit ->
  setup
(** Defaults: 12 epochs x 1500 txns, seed 42, 256-byte rows, cache
    capped at the dataset size, no insert growth. *)

val default_tracer : Nv_obs.Tracer.t ref
val default_metrics : Nv_obs.Metrics.t ref
val default_profile : Nv_obs.Profile.t ref
(** Observability sinks used when a run is not given explicit ones.
    Initially the no-op {!Nv_obs.Tracer.null} / {!Nv_obs.Metrics.null}
    / {!Nv_obs.Profile.null}; the bench and CLI front-ends repoint them
    when [--trace] / [--metrics] / [--profile] is requested, so
    existing experiment code picks up instrumentation without
    signature churn. *)

val run :
  ?label:string ->
  ?tracer:Nv_obs.Tracer.t ->
  ?metrics:Nv_obs.Metrics.t ->
  ?profile:Nv_obs.Profile.t ->
  Engine.spec ->
  setup ->
  Nv_workloads.Workload.t ->
  result
(** Drive any backend through the {!Nvcaracal.Engine_intf.S} seam: one
    instantiation from the spec, one batch per epoch (Aria-deferred
    transactions resubmitted with the next batch), measurements
    collected from the shared engine surface. The [run_*] entry points
    below are thin spec-building wrappers over this driver. *)

val nvcaracal_config :
  setup -> Nv_workloads.Workload.t -> variant:Nvcaracal.Config.variant ->
  ?minor_gc:bool -> ?cached_versions:bool -> ?crash_safe:bool -> ?batch_append:bool ->
  ?selective_caching:bool -> ?ordered_index:Nvcaracal.Config.ordered_index -> unit ->
  Nvcaracal.Config.t
(** The derived engine configuration (exposed for the recovery
    experiment, which needs it again for [Db.recover]). *)

val run_nvcaracal :
  setup ->
  Nv_workloads.Workload.t ->
  variant:Nvcaracal.Config.variant ->
  ?minor_gc:bool ->
  ?cached_versions:bool ->
  ?batch_append:bool ->
  ?selective_caching:bool ->
  ?ordered_index:Nvcaracal.Config.ordered_index ->
  ?label:string ->
  ?tracer:Nv_obs.Tracer.t ->
  ?metrics:Nv_obs.Metrics.t ->
  unit ->
  result

val run_zen :
  setup -> Nv_workloads.Workload.t -> ?record_size:int -> ?label:string -> unit -> result
(** Zen gets the same batches; [record_size] defaults to the workload's
    typical value plus the record header (Table 4's optimal sizes). *)

val run_aria :
  setup ->
  Nv_workloads.Workload.t ->
  ?label:string ->
  ?tracer:Nv_obs.Tracer.t ->
  ?metrics:Nv_obs.Metrics.t ->
  unit ->
  result
(** Aria-mode run ({!Nvcaracal.Db.run_epoch_aria}): deferred
    transactions are resubmitted with the next batch; [aborted] reports
    cumulative deferrals. *)

type recovery_result = {
  r_label : string;
  report : Nvcaracal.Report.recovery_report;
}

val run_recovery :
  setup ->
  Nv_workloads.Workload.t ->
  crash_after_txns:int ->
  ?persistent_index:bool ->
  ?faults:Nv_nvmm.Pmem.fault_model ->
  ?label:string ->
  ?tracer:Nv_obs.Tracer.t ->
  ?metrics:Nv_obs.Metrics.t ->
  unit ->
  recovery_result
(** Run the workload, crash the final epoch after [crash_after_txns]
    transactions executed, tear the region, recover, and report the
    breakdown (Figure 11). Observability is attached to the {e
    recovery} ([Db.recover]), so the trace shows the four recovery
    phases plus the replayed epoch.

    With [faults], the crash goes through that media-fault model and
    recovery runs with [~scrub:true], so the report includes what the
    verification scan repaired, salvaged or lost (see docs/FAULTS.md).
    @raise Nv_storage.Meta_region.Corrupt if the faults destroyed the
    epoch commit record — the one unrecoverable corruption. *)
