(** Per-row, per-epoch sorted version arrays (paper section 3.1.2).

    The initialization phase appends one PENDING slot per declared
    write; the execution phase fills slots in serial order. Unlike a
    linked-list MVCC chain, the array is kept sorted by SID so readers
    binary-search for their visible version. Appends use sorted
    insertion — cheap for short arrays, and deliberately O(n) per
    append for very hot rows, which reproduces the long-version-array
    slowdown the paper observes for contended YCSB-smallrow at large
    epochs (section 6.9).

    Each slot records the simulated time at which its value was
    written; a reader's core clock advances to that time, modelling the
    PENDING-wait of a real concurrent run (readers block until the
    writer produces the value).

    All of an epoch's arrays live in one {!store} of flat columns that
    is reused epoch after epoch, like the paper's transient pool: an array is an int handle, a slot an int index, and a slot's
    SID, value and write time are immediates stored in place, so a
    steady-state epoch allocates nothing for its version arrays. *)

type store

type t = int
(** A version array: valid from {!create} until the store's next
    {!reset}. *)

(** {1 Slot values}

    A slot's value is an int: {!pending}, {!ignored}, {!tombstone}, or
    a non-negative {!Nv_storage.Transient_pool.vref} — the written
    value's bytes in the transient pool. *)

val pending : int
(** Placeholder created by the initialization phase. *)

val ignored : int
(** Writer aborted, or never issued its declared write (section 4.6). *)

val tombstone : int
(** A delete became visible at this SID. *)

val is_written : int -> bool

(** {1 The store} *)

val create_store : nvmm_resident:bool -> ?batch_append:bool -> unit -> store
(** [nvmm_resident] makes slot traffic charge NVMM block costs instead
    of DRAM lines (the all-NVMM baseline of section 6.4).
    [batch_append] applies Caracal's batch-append cost model: O(1) per
    append instead of a sorted insert into a possibly long array. *)

val reset : store -> unit
(** Discard every array (epoch end). O(1). *)

val create : store -> t
(** A new empty array. *)

val length : store -> t -> int

val finalized : store -> t -> bool
val set_finalized : store -> t -> unit
(** Guard so the epoch-final persistent write runs exactly once per row
    even when a transaction declared the same key several times. *)

val append : store -> t -> Nv_nvmm.Stats.t -> Sid.t -> unit
(** Sorted-insert a PENDING slot. Duplicate SIDs are not allowed.
    Appends may move the array's slots, so slot indices are only stable
    once the initialization phases are over. *)

val find : store -> t -> Nv_nvmm.Stats.t -> Sid.t -> int
(** Exact slot (charged one line read) for a writer about to fill its
    placeholder. Raises [Not_found]. *)

val locate : store -> t -> Sid.t -> int
(** Uncharged [find]; -1 when absent. *)

(** {1 Slots} *)

val sid : store -> int -> Sid.t
val value : store -> int -> int
val set_value : store -> int -> int -> unit

val resolve : store -> int -> value:int -> Nv_nvmm.Stats.t -> unit
(** Publish a slot's value, written now on the given core's clock. *)

val advance_to_write : store -> int -> Nv_nvmm.Stats.t -> unit
(** Advance a reader's clock to the slot's write time (the PENDING
    wait of a concurrent run). *)

val latest_visible : store -> t -> Nv_nvmm.Stats.t -> before:Sid.t -> int
(** Latest non-PENDING, non-IGNORED slot with [sid < before] — what a
    reader at serial position [before] observes — or -1. PENDING slots
    below [before] violate serial-order execution and raise
    [Invalid_argument]. *)

val latest_resolved : store -> t -> Nv_nvmm.Stats.t -> int
(** Latest non-IGNORED slot overall, treating PENDING as absent, or -1
    — used when an aborted final writer must determine the replacement
    final version (section 4.6). *)

val max_sid : store -> t -> Sid.t
(** Largest SID in the array ([Sid.none] when empty). *)

val iter : store -> t -> (int -> unit) -> unit
(** Uncharged ascending traversal of slot indices (tests). *)
