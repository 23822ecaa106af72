(** Caracal's serial concurrency control — the write-set architecture
    of Algorithm 1.

    An epoch runs: input log → insert step → major GC + cache eviction
    → append step (building per-row version arrays from declared,
    dynamic and reconnaissance-derived write sets) → execution in SID
    order (writes fill pre-appended version slots; a row's last
    declared writer triggers its final persistent write) → checkpoint.

    Never defers transactions: [run] always returns [[||]] as its
    second component. *)

include Cc_intf.S

(** {1 Internals shared with recovery-free callers}

    Exposed for white-box tests; regular clients should only use
    {!run}. *)

(** [Init] resolves everything declared so far (how dynamic write sets
    observe insert-step data); [Exec sid] resolves at a serial
    position. *)
type ctx_mode = Init | Exec of Sid.t

(** The value of [row] visible under [mode]: the version array when the
    row was touched this epoch, the committed read otherwise. *)
val visible_value :
  Epoch.t ->
  Nv_nvmm.Stats.t ->
  Row.t ->
  mode:ctx_mode ->
  bytes option
