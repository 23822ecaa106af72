(** Backend selection and configuration derivation for the harness.

    A {!spec} names a backend plus the design toggles the experiments
    sweep; {!instantiate} turns it into a packed
    {!Nvcaracal.Engine_intf.S} instance over a concrete configuration
    derived from the benchmark {!setup} and the workload's shape. All
    engine-specific configuration plumbing (pool sizing, Zen record
    sizing, persistent-index capacity) lives here, so {!Runner}, the
    fuzzer, the bench tables and the CLI stay backend-generic. *)

type backend =
  | Caracal of Nvcaracal.Config.variant
      (** The deterministic engine under a design variant
          (nvcaracal, all-nvmm, hybrid, no-logging, all-dram, wal). *)
  | Caracal_aria
      (** Aria-style CC on the NVCaracal substrate: no pre-declared
          write sets; conflicting transactions are deferred and must be
          resubmitted with the next batch. *)
  | Zen  (** The log-free per-commit-durability comparator. *)

type setup = {
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

val cores : int
(** Simulated cores every derived configuration uses (8, as in the
    paper's evaluation). *)

val default_jobs : int ref
(** Domain-pool width ({!Nvcaracal.Config.t.parallelism}) every derived
    configuration requests. Initialised from the [NVC_JOBS] environment
    variable (default 1 — serial); the CLI front-ends overwrite it once
    at argument-parse time ([--jobs]). Seeded runs produce byte-identical
    results at any value. *)

type spec = {
  backend : backend;
  minor_gc : bool;
  cached_versions : bool;
  crash_safe : bool;
      (** Read by nothing: every region tracks persistence. Kept only
          because the served benchmark's child sets it; delete it at
          the next change to that benchmark. *)
  batch_append : bool;
  selective_caching : bool;
  ordered_index : Nvcaracal.Config.ordered_index;
  persistent_index : bool;
  record_size : int option;  (** Zen record size; [None] = Table 4 optimal *)
}

val spec :
  ?minor_gc:bool ->
  ?cached_versions:bool ->
  ?batch_append:bool ->
  ?selective_caching:bool ->
  ?ordered_index:Nvcaracal.Config.ordered_index ->
  ?persistent_index:bool ->
  ?record_size:int ->
  backend ->
  spec
(** Defaults match the paper's full system: minor GC and version
    caching on, everything else off, B+-tree ordered index. *)

val of_string : string -> spec option
(** Parse a CLI engine name: "zen", "aria", or a design-variant name
    ("nvcaracal", "all-nvmm", "hybrid", "no-logging", "all-dram",
    "wal"). *)

val label : spec -> Nv_workloads.Workload.t -> string
(** Default result label, ["<backend>/<workload>"]. *)

val feeds_deferred : spec -> bool
(** Whether [run_batch]'s deferred transactions must be resubmitted
    with the next batch (Aria mode). *)

val caracal_config :
  setup -> Nv_workloads.Workload.t -> spec -> Nvcaracal.Config.t
(** The derived NVCaracal configuration: pool capacities sized from the
    workload plus an insert-growth allowance so runs never trip
    allocator capacity, persistent-index capacity at 4x the dataset
    when [spec.persistent_index] is set. *)

val zen_config :
  setup -> Nv_workloads.Workload.t -> spec -> Nv_zen.Zen_db.config
(** The derived Zen configuration; record size per
    {!Zen_record_size.optimal} unless [spec.record_size] overrides. *)

val instantiate :
  spec -> setup -> Nv_workloads.Workload.t -> Nvcaracal.Engine_intf.packed
(** Create a fresh engine for the spec over the derived
    configuration. *)

val recover :
  spec ->
  setup ->
  Nv_workloads.Workload.t ->
  pmem:Nv_nvmm.Pmem.t ->
  rebuild:(bytes -> Nvcaracal.Txn.t) ->
  Nvcaracal.Engine_intf.packed
(** Reconstruct an engine of the spec from an existing arena image
    (a crash image or a checkpoint's saved pmem). The derived
    configuration must match the one the arena was created under —
    same spec, setup and workload. *)

val introspect : Nvcaracal.Engine_intf.packed -> Nvcaracal.Engine_intf.introspection
(** The engine's uniform inspection snapshot (wide-execution telemetry
    plus the committed-state digest), unpacked. *)

val state_digest : Nvcaracal.Engine_intf.packed -> int64
(** Deterministic fingerprint of the engine's committed state: FNV over
    each table's sorted (key, value) rows. Engines holding equal
    committed state digest equally — what [Bye_ok] reports to clients
    and what the served-vs-replayed determinism checks compare.
    Shorthand for [(introspect e).state_digest]. *)
