(** Per-core persistent slab pools (paper sections 5.4 and 5.5).

    One pool manages fixed-size slots (persistent rows, or persistent
    values) across all simulated cores: each core owns a bump-allocated
    arena and a free-list ring, so allocation never synchronizes across
    cores. The pool is crash-consistent at epoch granularity: bump
    offsets and free-list head/tail have dual checkpointed NVMM slots,
    and [recover] reverts every allocation and transaction-free made in
    a crashed epoch while preserving non-revertible GC frees (the value
    pool's "current tail" mechanism).

    The same module implements both the persistent row pool and the
    persistent value pool; the value pool additionally uses
    [write_value]/[read_value] and [persist_gc_tail]/[free_gc]. *)

type spec
(** Offsets reserved in a {!Nv_nvmm.Layout.builder}; a pure function of
    the configuration so recovery recomputes identical addresses. *)

type t

val reserve :
  Nv_nvmm.Layout.builder ->
  name:string ->
  cores:int ->
  slots_per_core:int ->
  slot_size:int ->
  freelist_capacity:int ->
  spec
(** Reserve arena, free-list ring, and metadata space for each core.
    [slot_size] must be a multiple of 8. *)

val attach : Nv_nvmm.Pmem.t -> spec -> t
(** Bind the reservation to a region (fresh or recovered). *)

val slot_size : t -> int
val cores : t -> int

val alloc : t -> Nv_nvmm.Stats.t -> core:int -> int
(** Absolute pmem offset of a free slot: from the core's free list when
    an entry is allocatable, else from its bump arena. Raises [Failure]
    when the core's arena is exhausted. *)

val free : t -> Nv_nvmm.Stats.t -> core:int -> int -> unit
(** Revertible (transaction) free: appended past the checkpointed tail,
    reverted if the epoch crashes, not re-allocatable this epoch. *)

val free_gc : t -> Nv_nvmm.Stats.t -> core:int -> int -> dedup:(int64, unit) Hashtbl.t -> unit
(** GC free during the initialization phase. Skips pointers present in
    [dedup] (frees already made durable by the crashed epoch's GC pass,
    paper section 5.5). *)

val persist_gc_tail : t -> Nv_nvmm.Stats.t -> epoch:int -> unit
(** Make all frees recorded so far durable and non-revertible, and
    allocatable within this epoch. Call after major-GC pass 1. *)

val checkpoint : t -> (int -> Nv_nvmm.Stats.t) -> epoch:int -> unit
(** Persist every core's bump offset and free-list offsets into
    [epoch]'s slots (flush only; caller fences). Each core's metadata
    writes are charged to that core's stats — the checkpoint step runs
    in parallel. *)

type recovery = {
  dedup : (int64, unit) Hashtbl.t;
      (** crashed-epoch GC-freed pointers (replay must not re-free) *)
  meta_salvaged : int;  (** corrupt allocator checkpoint words salvaged *)
  corrupt_entries : int;  (** corrupt free-list ring entries (leaked) *)
}

val recover :
  t ->
  last_checkpointed_epoch:int ->
  crashed_epoch:int ->
  ?row_scan:bool ->
  unit ->
  recovery
(** Reload allocation state as of the last checkpoint (keeping durable
    GC frees of the crashed epoch) and return the dedup set of
    crashed-epoch GC-freed pointers plus corruption-salvage counts.
    With [row_scan] (row slabs only), a corrupt bump checkpoint is
    reconstructed by scanning the arena for the highest slot whose
    {!Prow} identity checksum verifies. *)

(** {1 Value access (value-pool use)} *)

val write_value :
  t -> Nv_nvmm.Stats.t -> ?charge:bool -> off:int -> data:bytes -> unit -> unit
(** Store value bytes into a slot and flush them; charges the blocks
    touched unless [charge] is false (design variants that bill update
    traffic elsewhere). [data] must fit the slot. *)

val write_value_from :
  t ->
  Nv_nvmm.Stats.t ->
  ?charge:bool ->
  off:int ->
  src:bytes ->
  src_off:int ->
  len:int ->
  unit ->
  unit
(** [write_value] of [src.[src_off .. src_off+len-1]]. *)

val read_slot : t -> Nv_nvmm.Stats.t -> off:int -> len:int -> bytes

(** {1 Introspection} *)

val iter_allocated : t -> f:(base:int -> unit) -> unit
(** Visit every allocated slot (bumped and not currently free), in
    arena order per core. Used by the recovery scan; the caller charges
    reads as it touches rows. *)

val allocated_slots : t -> int
(** Slots currently allocated (bumped minus free-list population). *)

val bumped_slots : t -> int

val capacity_slots : t -> int
(** Total slots across all cores. *)

val nvmm_bytes : t -> int
(** Total NVMM footprint of the pool (arenas + rings + metadata). *)

val free_list_length : t -> int
