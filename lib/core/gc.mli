(** Major garbage collection (paper sections 4.4, 5.5).

    Runs during the initialization phase of each epoch, before the
    append step: every row whose previous-epoch write left a stale
    non-inline v1 has that value freed into the value pool's ring
    (durable via the non-revertible current tail) and its versions
    rotated (v1 ← v2, v2 nulled).

    The pass order inverts under the persistent index — rows are
    cleared {e before} frees are appended — so a crash in between leaks
    at most one epoch's stale values instead of leaving dangling
    pointers a later lazy recovery could double-free. *)

(** Collect the rows queued by {!Epoch.push_gc}, firing [Gc_pass1_done] between the two passes.
    No-op when the list is empty. *)
val major_gc : Epoch.t -> unit
