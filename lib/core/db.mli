(** The NVCaracal engine: an epoch-based deterministic database with
    hybrid DRAM–NVMM storage.

    This is the public API of the paper's contribution. A database is
    created with a fixed table schema and a {!Config.t} selecting the
    design variant; clients then [bulk_load] initial data and drive it
    one epoch at a time with batches of one-shot transactions
    ({!Txn.t}). Each epoch runs Algorithm 1: log inputs, insert step,
    major GC, cache eviction, append step, execution phase, fence,
    epoch-number persist — after which the epoch is checkpointed.

    {2 Execution model}

    Transactions execute in serial-ID order on [config.cores] simulated
    cores (SID mod cores); every memory access charges the owning
    core's simulated clock, and a read of a version produced on another
    core advances the reader's clock to the writer's timestamp —
    modelling the cross-core waits of a real run. Epoch duration is the
    slowest core's clock between epoch boundaries; throughput numbers
    divide committed transactions by simulated time.

    {2 Crash and recovery}

    The underlying {!Nv_nvmm.Pmem} region tracks persistence exactly,
    [crash] tears it to a legal crash image, and [recover] rebuilds a
    database from the bytes alone:
    reload allocator checkpoints, scan persistent rows (fixing torn
    version updates), rebuild the DRAM index and GC list, and
    deterministically replay the crashed epoch from the input log.

    {2 Layering}

    This module is a thin façade: the state record and shared substrate
    live in {!Epoch}, the two concurrency-control strategies in
    {!Cc_serial} and {!Cc_aria} (instances of {!Cc_intf.S}), major
    collection in {!Gc} and crash recovery in {!Recovery}. Both CC
    modes are also packaged as {!Engine_intf.S} instances
    ({!Serial_engine}, {!Aria_engine}) for backend-generic harness
    code. *)

type t

val create : config:Config.t -> tables:Table.t list -> unit -> t
(** Fresh database. Table ids must be contiguous from 0. *)

val config : t -> Config.t
val tables : t -> Table.t array
val pmem : t -> Nv_nvmm.Pmem.t
val epoch : t -> int
(** Last committed epoch (0 before any). *)

val bulk_load : t -> (int * int64 * bytes) Seq.t -> unit
(** Populate tables ((table, key, value) triples) before benchmarking;
    commits as epoch 1 and resets all measurement state. Must be called
    at most once, before any [run_epoch]. *)

val run_epoch : t -> Txn.t array -> Report.epoch_stats
(** Process one batch. The batch order defines the serial order. *)

val last_epoch_outcomes : t -> [ `Committed | `Aborted ] array
(** Per-transaction outcome of the last completed [run_epoch], in batch
    order — set only once the epoch has been checkpointed (the
    visibility rule of section 6.2.3). *)

val last_batch_outcomes : t -> [ `Committed | `Aborted | `Deferred ] array
(** Like {!last_epoch_outcomes} but covering both CC modes: Aria marks
    conflict victims [`Deferred] (they were returned for resubmission
    and count neither as committed nor as finally aborted). *)

val run_epoch_aria : t -> Txn.t array -> Report.epoch_stats * Txn.t array
(** Aria-style deterministic execution (the paper's section 7 future
    work, after Lu et al., VLDB 2020): transactions need {e no}
    pre-declared write sets. Every body runs against the epoch-start
    snapshot with its writes buffered; a deterministic reservation pass
    then aborts, in serial order, any transaction that read or wrote a
    key written by an earlier transaction in the batch, and the
    surviving writes are applied through the same dual-version NVMM
    path (one persistent write per row per epoch). Returns the epoch
    stats and the deferred transactions, which the client resubmits in
    a later batch. [write_set], [insert_gen], [dynamic_write_set] and
    [recon] are ignored in this mode; [Txn.Ctx.write] accepts any key,
    and inserts are expressed by writing a missing key. Deletes are
    not supported in this mode. Input logging and crash recovery work
    unchanged — replay reproduces the same commit/abort decisions. *)

(** {1 Inspection} *)

val read_committed : t -> table:int -> key:int64 -> bytes option
(** Committed value of a key as of the last epoch boundary (uncharged;
    tests and validation). *)

val iter_committed : t -> table:int -> (int64 -> bytes -> unit) -> unit
(** Visit all live keys of a table with their committed values,
    in unspecified order (uncharged). *)

val introspect : t -> Engine_intf.introspection
(** One inspection snapshot ({!Engine_intf.type-introspection}):
    [wide_execs] counts epochs whose execute phase ran on more than one
    domain (always 0 under [config.parallelism = 1]); [serial_reasons]
    counts epochs forced onto one stripe, by reason (labels in
    docs/PARALLELISM.md); [state_digest] fingerprints committed state.
    Inspection only — seeded results are identical whether or not an
    epoch ran wide. *)

val mem_report : t -> Report.mem_report
val committed_txns : t -> int

val aborted_txns : t -> int
(** Cumulative aborted transactions (user aborts and reconnaissance
    aborts; Aria conflict deferrals are not counted — they commit in a
    later epoch). *)

val total_time_ns : t -> float
(** Simulated time consumed so far (max over core clocks). *)

val counter_value : t -> int -> int64
(** Current value of persistent counter [i]. *)

val debug_row : t -> table:int -> key:int64 -> string
(** Diagnostic rendering of a row's persistent version mirror. *)

val counters_total : t -> Nv_nvmm.Stats.counters
(** Aggregate access counters across all cores (diagnostics). *)

(** {1 Observability} *)

val set_observability :
  ?tracer:Nv_obs.Tracer.t ->
  ?metrics:Nv_obs.Metrics.t ->
  ?profile:Nv_obs.Profile.t ->
  ?name:string ->
  t ->
  unit
(** Attach a span tracer, metrics registry and/or wall-clock profiler.
    The tracer gets this database's simulated clock installed and a new
    trace process opened (named [name], default ["nvcaracal"]); every
    subsequent epoch then records the Algorithm-1 phase spans
    (input-log, insert, major-gc, evict, append, execute, fence,
    epoch-persist), sampled per-transaction spans, and GC / eviction
    instants on per-core tracks. If the tracer also has a wall clock
    ({!Nv_obs.Tracer.set_wall_clock}), phase spans carry a second
    wall-time reading exported as a separate clock domain. The metrics
    registry receives one snapshot per epoch whose counters reconcile
    exactly with the returned {!Report.epoch_stats}. The profiler is
    charged per phase (wall time + Gc deltas) and bracketed per epoch
    (slow-epoch detection). Defaults keep the engine on the no-op
    {!Nv_obs.Tracer.null} / {!Nv_obs.Metrics.null} /
    {!Nv_obs.Profile.null} sinks. *)

(** {1 Crash / recovery} *)

type phase = Epoch.phase =
  | Log_done
  | Insert_done
  | Gc_pass1_done
  | Gc_done
  | Append_done
  | Exec_txn of int
  | Exec_done
  | Checkpointed
      (** Epoch-processing milestones, in order. [Exec_txn i] fires
          after transaction [i] finishes (commit or abort). *)

val set_phase_hook : ?defer:bool -> t -> (phase -> unit) -> unit
(** Test instrumentation: called at each milestone of every epoch.
    Crash-injection tests raise from the hook to stop the epoch at a
    precise point and then call [crash]. [defer] (default false) marks
    the hook as blind to intermediate engine state: its [Exec_txn]
    deliveries may then be journaled and fired at the execute phase's
    join barrier, in serial order, instead of forcing the execute phase
    onto one stripe. *)


type recovery_phase = Epoch.recovery_phase =
  | Rec_meta_recovered  (** allocator and counter state rebuilt *)
  | Rec_log_loaded  (** input log read back and verified *)
  | Rec_scan_done  (** index rebuilt; repairs and reverts persisted *)
  | Rec_replay_done  (** crashed epoch re-executed (or dropped) *)
      (** Recovery milestones, in order — the recovery-side analogue of
          {!phase}. *)

val crash : ?faults:Nv_nvmm.Pmem.fault_model -> t -> rng:Nv_util.Rng.t -> Nv_nvmm.Pmem.t
(** Tear the region to a crash image and return it; the database object
    must not be used afterwards. Without [faults] the image is a random
    {e legal} one; with a {!Nv_nvmm.Pmem.fault_model} it additionally
    suffers torn lines, bit-rot and dead lines (recover with
    [~scrub:true] to detect them). *)

val recover :
  config:Config.t ->
  tables:Table.t list ->
  pmem:Nv_nvmm.Pmem.t ->
  rebuild:(bytes -> Txn.t) ->
  ?replay_mode:[ `Caracal | `Aria ] ->
  ?phase_hook:(phase -> unit) ->
  ?recovery_hook:(recovery_phase -> unit) ->
  ?scrub:bool ->
  ?tracer:Nv_obs.Tracer.t ->
  ?metrics:Nv_obs.Metrics.t ->
  unit ->
  t * Report.recovery_report
(** Reconstruct a database from a (crashed) region. [rebuild]
    deserializes a logged input record back into its transaction; it
    must be deterministic and agree with what was originally submitted.
    If the crashed epoch's input log committed, the epoch is replayed
    to completion with the concurrency control the database was running
    ([replay_mode], default [`Caracal]). A [tracer] is installed before
    any work (see {!set_observability}), so the four recovery phases
    (load-log, scan, revert, replay) appear as spans, with the replay's
    epoch phases nested inside.

    [recovery_hook] is called at each {!recovery_phase} milestone; tests
    raise from it to simulate a crash in the middle of recovery (all
    recovery-time writes are idempotent, so recovering again converges).

    [scrub] (default false) forces the eager scan and verifies every
    checksum in the persistent layout: stale checksum words are
    rewritten, corrupt stale versions dropped, corrupt current versions
    dropped {e and} reported in [damage], a corrupt committed log makes
    the crashed epoch revert instead of replay ([log_dropped]), and
    corrupt allocator or counter checkpoints are salvaged conservatively
    (leaking slots, never double-allocating). See docs/FAULTS.md.

    @raise Nv_storage.Meta_region.Corrupt if the epoch commit record
    itself is unreadable — the one unrecoverable corruption. *)

(** {1 Engine instances}

    Both CC modes packaged behind the shared {!Engine_intf.S} seam.
    [run_batch] maps to {!run_epoch} (serial; never defers) or
    {!run_epoch_aria} (deferred transactions returned for
    resubmission); [recover] replays with the matching CC strategy and
    drops the recovery report. *)

module Serial_engine : Engine_intf.S with type t = t and type config = Config.t
module Aria_engine : Engine_intf.S with type t = t and type config = Config.t
