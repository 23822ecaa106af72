(** Crash-consistent free list: a persistent ring buffer of freed
    pointers (paper sections 5.4–5.5).

    Head and tail are monotone counters; the working copies live in
    DRAM and each has two checkpointed NVMM slots (odd epochs persist
    slot 1, even epochs slot 2). Allocation pops from the head — a pure
    DRAM increment plus one NVMM read of the ring entry. Freeing
    appends at the tail — one sequential 8-byte NVMM write.

    Two invariants make epoch-granularity undo possible:
    + the checkpointed list is never mutated until the next checkpoint
      completes (appends go past the checkpointed tail; pops only move
      the DRAM head);
    + entries freed in the current epoch are not re-allocated in the
      same epoch: [alloc] refuses to advance the head past
      [allowed_tail].

    [allowed_tail] is normally the last checkpointed tail. The value
    pool additionally persists a {e non-revertible} "current tail"
    after each major-GC pass (section 5.5): GC-freed values are durable
    before execution starts and may be reallocated immediately, while
    transaction frees performed during execution remain revertible. *)

type t

val meta_bytes : int
(** NVMM bytes needed for the six offset slots. *)

val ring_bytes : capacity:int -> int
(** NVMM bytes needed for a ring of [capacity] entries. *)

val create :
  Nv_nvmm.Pmem.t -> meta_off:int -> ring_off:int -> capacity:int -> t

val length : t -> int
(** Entries currently in the list (including not-yet-allocatable ones). *)

val allocatable : t -> int
(** Entries the current epoch may still pop. *)

val alloc : t -> Nv_nvmm.Stats.t -> int
(** Pop the entry at the head, or -1 if none is allocatable (entries
    are non-negative offsets). Allocation-free. *)

val free : t -> Nv_nvmm.Stats.t -> int64 -> unit
(** Append a pointer at the tail. Raises [Failure] on ring overflow. *)

val checkpoint : t -> Nv_nvmm.Stats.t -> epoch:int -> unit
(** Persist DRAM head/tail into [epoch]'s slots (flush only; the caller
    fences). After the epoch commits, everything becomes allocatable. *)

val persist_gc_tail : t -> Nv_nvmm.Stats.t -> epoch:int -> unit
(** Persist the working tail as the non-revertible current tail, tagged
    with [epoch]. Call after major-GC pass 1 has appended all frees and
    before the execution phase; the caller fences. Frees recorded so
    far become allocatable within this epoch and survive a crash. *)

val iter_entries : t -> f:(int64 -> unit) -> unit
(** Visit entries currently in the list, head to tail, without charging
    (introspection for the recovery scan's free set). *)

type recovery = {
  gc_frees : int64 list;
      (** the crashed epoch's durable GC frees (the dedup set replay
          uses to avoid double-freeing — paper section 5.5) *)
  meta_salvaged : int;  (** corrupt checkpointed offset words salvaged *)
  corrupt_entries : int;  (** corrupt ring entries in the live window *)
}

val recover : t -> last_checkpointed_epoch:int -> crashed_epoch:int -> recovery
(** Reload DRAM offsets from the last checkpointed slots; if the crashed
    epoch's major GC had persisted its current tail, keep those frees.

    Every persistent word is crc32c-packed, so corruption is detected
    and salvaged rather than absorbed: a corrupt checkpointed offset
    resets the list to empty (leaking its entries — nothing can be
    double-allocated, and replay re-frees append fresh entries); a
    corrupt GC-tail record falls back to the checkpointed tail; corrupt
    ring entries stay in the window but are skipped by [alloc] and
    counted here. *)
