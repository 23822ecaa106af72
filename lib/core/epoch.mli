(** Epoch state and the shared substrate of the phase pipeline.

    This module owns the engine's state record and everything the phase
    drivers have in common: construction and NVMM layout, observability
    plumbing, the version-store access paths (committed reads, version
    arrays, the dual-version final write), bulk load and inspection.

    It is an {e internal seam}: the state record is exposed field by
    field so that the concurrency-control strategies ({!Cc_serial},
    {!Cc_aria}), the garbage collector ({!Gc}) and crash recovery
    ({!Recovery}) can be separate compilation units. External code
    should go through {!Db} (the public façade) or a first-class
    {!Engine_intf.S} instance instead. *)

module Pmem = Nv_nvmm.Pmem
module Stats = Nv_nvmm.Stats
module Memspec = Nv_nvmm.Memspec
module TP = Nv_storage.Transient_pool
module Prow = Nv_storage.Prow
module Vptr = Nv_storage.Vptr
module Slab = Nv_storage.Slab_pool
module VPools = Nv_storage.Value_pools
module PIdx = Nv_storage.Pindex
module Log = Nv_storage.Log_region
module Meta = Nv_storage.Meta_region
module HIdx = Nv_index.Hash_index
module OIdx = Nv_index.Ordered_index
module BIdx = Nv_index.Btree_index
module VA = Version_array
module Tracer = Nv_obs.Tracer
module Metrics = Nv_obs.Metrics

(** One DRAM index per table, chosen by the table's kind and the
    configured ordered-index implementation. *)
type index = Hash of Row.t HIdx.t | Ord of Row.t OIdx.t | Bt of Row.t BIdx.t

(** Milestones of one epoch, in pipeline order; a phase hook installed
    with {!set_phase_hook} is called at each and may raise to simulate
    a crash mid-epoch. *)
type phase =
  | Log_done
  | Insert_done
  | Gc_pass1_done
  | Gc_done
  | Append_done
  | Exec_txn of int
  | Exec_done
  | Checkpointed

(** The execute phase's effect journal: cache fills and persistent
    deletes recorded while transactions run and applied in serial order
    when the phase ends ({!Effects}). Columns reused across epochs. *)
type journal

(** The serial CC's write-set registry: one entry per (transaction,
    row) declaration, built by the initialization phase and consumed by
    the execution phase. Entries are columns reused across epochs;
    transaction [i]'s entries chain from [heads.(i)] through [next]
    (-1 ends a chain), newest first. *)
type wset = {
  mutable heads : int array;
  mutable ops : int array;  (** {!ws_insert}, {!ws_update} or {!ws_delete} *)
  mutable wrows : Row.t array;
  mutable next : int array;
  mutable wlen : int;
}

val ws_insert : int
val ws_update : int
val ws_delete : int

(** Recovery milestones, mirroring [phase] for the recovery pipeline. *)
type recovery_phase =
  | Rec_meta_recovered  (** allocator and counter state rebuilt *)
  | Rec_log_loaded  (** input log read back and verified *)
  | Rec_scan_done  (** index rebuilt; repairs and reverts persisted *)
  | Rec_replay_done  (** crashed epoch re-executed (or dropped) *)

(** The engine state. Every field is visible to the sibling phase
    modules; treat it as private elsewhere. *)
type t = {
  config : Config.t;
  tables : Table.t array;
  pmem : Pmem.t;
  core_stats : Stats.t array;
  scratch : Stats.t;  (** uncharged inspection accesses *)
  row_pool : Slab.t;
  value_pool : VPools.t;
  pindex : PIdx.t option;
  pix_delta : (int * int64, [ `Ins of int | `Del ]) Hashtbl.t;
      (** net index changes of the current epoch, batched to NVMM at
          epoch end when the persistent index is enabled *)
  log : Log.t;
  meta : Meta.t;
  indexes : index array;
  tpool : TP.t;
  cache : Cache.t;
  counters : int64 array;
  mutable epoch : int;
      (** epoch currently being processed (= last committed between
          epochs) *)
  mutable gc_rows : Row.t array;
      (** rows whose stale v1 awaits the major collector: the first
          [n_gc], in push order (see {!push_gc}) *)
  mutable n_gc : int;
  mutable gc_ptrs : int array;  (** the collector's scratch *)
  mutable gc_dedup : (int64, unit) Hashtbl.t;
  vstore : VA.store;  (** every version array of the current epoch *)
  ws : wset;
  mutable touched : Row.t array;
      (** rows holding a version array (or written, under Aria) this
          epoch: the first [n_touched] entries *)
  mutable n_touched : int;
  mutable retain_gc_dedup : bool;
      (** lazy (persistent-index) recovery: stale versions are
          collected on first touch, possibly many epochs later, so the
          crashed epoch's durable-GC dedup set must outlive the replay *)
  mutable loaded : bool;
  ej : journal;
  committed : int array;  (** cumulative, sharded by core *)
  total_aborted : int array;  (** cumulative, sharded by core *)
  mutable log_high_water : int;
  m_aborted : int array;
  m_version_writes : int array;
  m_persistent_writes : int array;
  m_minor_gc : int array;
  m_major_gc : int array;
  mutable m_evicted : int;
  mutable m_cache_hits0 : int;
  mutable m_cache_misses0 : int;
  mutable last_outcomes : [ `Committed | `Aborted | `Deferred ] array;
      (** per-txn outcome of the last batch, set at its checkpoint *)
  mutable phase_hook : (phase -> unit) option;
  mutable tracer : Tracer.t;
  mutable metrics : Metrics.t;
  mutable profile : Nv_obs.Profile.t;
  mutable m_access0 : Stats.counters;
      (** access-counter totals at epoch start *)
}

val config : t -> Config.t
val tables : t -> Table.t array
val pmem : t -> Pmem.t

(** {1 Construction} *)

(** [attach config tables pmem] builds engine state over an existing
    NVMM arena (used by {!create} and by recovery). *)
val attach : Config.t -> Table.t list -> Pmem.t -> t

(** [create ~config ~tables ()] sizes an NVMM arena from the config's
    layout and attaches fresh engine state to it. *)
val create : config:Config.t -> tables:Table.t list -> unit -> t

val epoch : t -> int

(** Install a phase hook; it is called at each {!phase} milestone and
    may raise to simulate a crash there. *)
val set_phase_hook : t -> (phase -> unit) -> unit

(** Fire the installed phase hook, if any. [Exec_txn] also hits the
    ["mid-epoch"] chaos crashpoint. *)
val hook : t -> phase -> unit

(** {1 Observability} *)

(** Merged access counters of all simulated cores. *)
val counters_total : t -> Stats.counters

(** Install trace/metrics sinks; [name] labels the Perfetto process. *)
val set_observability :
  ?tracer:Tracer.t ->
  ?metrics:Metrics.t ->
  ?profile:Nv_obs.Profile.t ->
  ?name:string ->
  t ->
  unit

(** [phase_span t name f] runs [f] and records one span per core from
    each core's clock at entry to its clock at exit (no span if [f]
    raises — crash injection), plus the phase's wall window when the
    tracer has a wall clock, and charges the phase to the attached
    profiler. *)
val phase_span : t -> string -> (unit -> 'a) -> 'a

(** Publish one epoch's report plus access-counter deltas and allocator
    gauges to the metrics sink. *)
val publish_epoch_metrics : t -> Report.epoch_stats -> unit

(** {1 Cores, clocks and indexes} *)

(** Home core of serial position [seq] ([seq mod cores]). *)
val core_of : t -> int -> int

(** The per-core simulated clock and counters. *)
val stats_of : t -> int -> Stats.t

(** Synchronize all core clocks to the maximum; returns it. Phase
    boundaries are barriers. *)
val barrier : t -> float

val find_row : t -> Stats.t -> table:int -> key:int64 -> Row.t option
val index_insert : t -> Stats.t -> table:int -> key:int64 -> Row.t -> unit
val index_remove : t -> Stats.t -> table:int -> key:int64 -> unit
val is_pool : Vptr.t -> bool
val is_inline : Vptr.t -> bool

(** {1 Version-store access} *)

(** Store one version value into the transient pool, charging per the
    design variant (NVMM for designs that persist every update). *)
val store_version_value : t -> Stats.t -> core:int -> bytes -> TP.vref

(** Load a version value back, with the matching charge. *)
val load_version_value : t -> Stats.t -> initial:bool -> TP.vref -> bytes

(** The charge of {!load_version_value} without the copy (the final
    persistent write reads the value in place). *)
val charge_version_read : t -> Stats.t -> initial:bool -> TP.vref -> unit

(** The latest persistent version visible at checkpoint granularity
    (bounded by [max_epoch], default the previous epoch). *)
val checkpoint_pversion : ?max_epoch:int -> t -> Row.t -> Row.pversion option

(** Lazily load a row's DRAM mirror from its NVMM header, completing
    any torn version update found there (section 4.5 repairs). *)
val ensure_mirror : t -> Stats.t -> Row.t -> unit

(** Read a row's committed value from the DRAM cache or NVMM,
    optionally filling the cache on a miss. *)
val committed_read :
  ?max_epoch:int -> t -> Stats.t -> Row.t -> fill_cache:bool -> bytes option

(** Whether the row holds a version array this epoch. *)
val has_varray : t -> Row.t -> bool

(** Get (or create, registering the row in [touched] and seeding the
    initial version) the row's version array for the current epoch. *)
val ensure_varray : t -> Stats.t -> core:int -> Row.t -> VA.t

(** Empty the write-set registry for a batch of [n] transactions. *)
val ws_reset : t -> int -> unit

(** Declare an [op] by transaction [i] on [row]. *)
val ws_add : t -> int -> op:int -> Row.t -> unit

(** Queue a row for the major collector. *)
val push_gc : t -> Row.t -> unit

(** Register a row as touched this epoch (Aria's written rows). *)
val touch_row : t -> Row.t -> unit

(** Discard the epoch's per-row state: version arrays (and the store
    holding them), fresh-slot marks, set-aside cache cells. *)
val release_touched : t -> unit

(** Free a pool value (no-op for inline/null pointers); [guard_dedup]
    skips values the crashed epoch's GC already freed durably. *)
val free_pool_value :
  ?guard_dedup:bool -> t -> Stats.t -> core:int -> Vptr.t -> unit

(** Write (sid, value) as the row's new recent version, rotating the
    dual-version slots as required (sections 4.4–4.6, 5.3). The value
    is [src.[src_off .. src_off+len-1]], copied once into NVMM; its
    checksum is taken from the same range. *)
val do_prow_final_write :
  t ->
  Stats.t ->
  core:int ->
  Row.t ->
  sid:Sid.t ->
  src:bytes ->
  src_off:int ->
  len:int ->
  unit

(** Persistently delete a row: free its values and slot, unhook the
    DRAM state. *)
val do_prow_delete : t -> Stats.t -> core:int -> Row.t -> unit

(** Flush the epoch's net index changes to the persistent index in one
    batch (part of the epoch checkpoint). *)
val apply_pindex_delta : t -> Stats.t -> unit

(** {1 The effect journal}

    Cache fills and persistent deletes wait for the end of the execute
    phase, so later transactions of the epoch see the cache and the
    index as the epoch began. The CC strategy installs the journal with
    {!Effects.begin_exec}; the finalizer helpers record into it; the
    phase ends with {!Effects.drain}. *)

(** Record a deferred persistent delete ({!do_prow_delete} on [core]'s
    meter when the phase ends). Returns [false], and records nothing,
    when no journal is installed; the caller then deletes at once. *)
val record_delete : t -> core:int -> Row.t -> bool

(** Fill the committed-value cache with a finalized value from the
    transient pool: journaled during execution, immediate otherwise.
    The value is copied only if the cache admits the row. *)
val cache_fill_final : t -> Stats.t -> Row.t -> TP.vref -> unit

module Effects : sig
  (** Install an empty journal. *)
  val begin_exec : t -> unit

  (** Apply the journal in serial order and uninstall it. The journal
      is uninstalled before the records are applied, so effects
      recorded meanwhile fall through to their immediate form. *)
  val drain : t -> unit

  (** Discard the journal without applying (execution died; recovery's
      deterministic replay rebuilds the state). *)
  val abort : t -> unit
end

(** {1 Shared epoch scaffolding}

    The pieces of Algorithm 1 common to both CC strategies; the
    strategies sequence them. *)

(** Reset the per-epoch meters (kept separate from {!begin_epoch} for
    recovery, which re-runs an epoch at the same number). *)
val reset_epoch_measurements : t -> unit

(** Bump the epoch number and reset per-epoch state. *)
val begin_epoch : t -> unit

(** Log transaction inputs (section 4.3); skipped during replay. *)
val log_inputs : t -> replay:bool -> Txn.t array -> unit

(** First half of the epoch checkpoint: persist allocators and
    counters, apply the persistent-index delta. The caller persists the
    epoch number. *)
val checkpoint_allocators : t -> unit

(** Assemble the epoch's report from the per-epoch meters and publish
    it to the metrics sink. *)
val epoch_report :
  t ->
  txns:int ->
  replay:bool ->
  duration:float ->
  phases:(string * float) list ->
  Report.epoch_stats

(** {1 Bulk load} *)

(** Load the initial database as epoch 1, then reset the simulated
    clocks (loading is setup, not workload). *)
val bulk_load : t -> (int * int64 * bytes) Seq.t -> unit

(** {1 Inspection} *)

val latest_pversion : t -> Row.t -> Row.pversion option
val read_committed : t -> table:int -> key:int64 -> bytes option
val iter_committed : t -> table:int -> (int64 -> bytes -> unit) -> unit
val mem_report : t -> Report.mem_report
val committed_txns : t -> int
val aborted_txns : t -> int

val total_time_ns : t -> float
val counter_value : t -> int -> int64
val last_epoch_outcomes : t -> [ `Committed | `Aborted ] array

(** Per-transaction outcome of the last batch, in batch order, set only
    once the batch's epoch has been checkpointed. Serial CC reports
    [`Committed]/[`Aborted]; Aria additionally marks conflict victims
    [`Deferred] (they were returned for resubmission). *)
val last_batch_outcomes : t -> [ `Committed | `Aborted | `Deferred ] array

val debug_row : t -> table:int -> key:int64 -> string
