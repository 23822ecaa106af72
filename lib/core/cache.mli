(** DRAM cache of persistent row values with epoch-based LRU eviction
    (paper sections 4.2 and 5.2).

    Each cached version carries the epoch of its last access and lives
    on the eviction list of that epoch. During the initialization phase
    of epoch [E] the engine processes the list of epoch [E - K - 1]:
    entries whose last access really is that old are evicted; entries
    that were touched since simply migrate to their newer epoch's list.
    Because eviction runs while no transactions execute, it needs no
    synchronization with row accesses.

    The cache is capacity-bounded in entries (Table 4); an insertion
    into a full cache is refused — the entry stays uncached until
    eviction makes room. *)

type t

val create : max_entries:int -> t

val admits : t -> Row.t -> bool
(** The admission rule, shared by {!insert} and by anything that must
    predict it: an insert lands (and charges DRAM) iff the row is
    already cached or the cache has headroom. Keeping the predicate in
    one place means a plan and the loop it predicts cannot diverge. *)

val insert : t -> Nv_nvmm.Stats.t -> Row.t -> data:bytes -> epoch:int -> unit
(** Create (or refresh) the cached version of a row with [data] when
    {!admits} allows it; a full cache refuses new rows silently. The
    caller may keep [data] (a committed read's result, an Aria write),
    so the cache never writes into it later. *)

val fill :
  t -> Nv_nvmm.Stats.t -> Row.t -> src:bytes -> src_off:int -> len:int -> epoch:int -> unit
(** [insert] of the value [src.[src_off .. src_off+len-1]], copied into
    the buffer the cache will keep only when {!admits} allows it, so a
    refused fill copies nothing. The buffer is the row's own
    (current, or the one {!drop} set aside this epoch) when no reader
    was ever handed it and the length matches, else a fresh one. Charges
    as [insert]. *)

val touch : t -> Row.t -> epoch:int -> unit
(** Record an access: bumps the cached version's last-access epoch. *)

val drop : t -> Nv_nvmm.Stats.t -> Row.t -> unit
(** Delete a row's cached version (append step consumes it; deletes
    discard it). No-op when uncached. The cell is set aside in
    [Row.spare] for a later {!fill} of the same epoch to reuse; the
    engine clears it at epoch end. *)

val keep_free_cell : t -> Row.cached option -> unit
(** Offer a cell no row holds any more for a later {!fill} of an
    uncached row; kept only when no reader holds its buffer and the
    free list has room. Eviction offers every evicted cell. *)

val evict : t -> Nv_nvmm.Stats.t -> current_epoch:int -> k:int -> int
(** Run epoch-based eviction for [current_epoch]; returns the number of
    entries evicted. *)

val entries : t -> int
val data_bytes : t -> int
val dram_bytes : t -> int
(** Data plus bookkeeping overhead (Figure 8). *)

val hits : t -> int
val misses : t -> int
val note_miss : t -> unit
(** Engine reporting hooks: [touch] counts a hit automatically. *)
