(** Wall-clock phase profiler with allocation accounting.

    The {!Tracer} answers "what happened when" on the simulated clock;
    this module answers "where did the host's time and memory actually
    go": per phase name it aggregates call count, total host wall time
    (monotonic, [Nv_util.Clock]), and [Gc.quick_stat] word deltas
    (minor / major / promoted). Cheap enough to leave on for a whole
    run — two clock reads and two [Gc.quick_stat] calls per phase.

    Phases wrap the epoch pipeline on the domain that runs it, so Gc
    deltas count that domain's allocations.

    Epoch bracketing ([epoch_begin] / [epoch_end]) feeds a slow-epoch
    detector: an epoch whose wall time crosses the threshold is
    recorded with its per-phase wall breakdown (first 32 kept) and
    reported through the [on_slow] callback — the hook the server uses
    to log hiccups as they happen.

    The disabled profiler ({!null}) makes every operation a no-op. *)

type phase_stat = {
  calls : int;
  wall_ns : float;
  minor_words : float;
      (** minor-heap words allocated (coordinating domain; exact — read
          from the allocation pointer via [Gc.minor_words]) *)
  major_words : float;
      (** major-heap words per [Gc.quick_stat]; on OCaml 5 these
          counters advance with GC work, so attribution to a phase is
          best-effort *)
  promoted_words : float;
}

type slow_epoch = {
  epoch : int;  (** engine epoch number *)
  wall_ns : float;  (** wall time of the whole epoch *)
  phases : (string * float) list;  (** per-phase wall ns within this epoch *)
}

type t

val null : t
(** Disabled profiler: every operation is a no-op, [enabled] is false. *)

val create : ?slow_threshold_ns:float -> ?on_slow:(slow_epoch -> unit) -> unit -> t
(** Fresh enabled profiler. [slow_threshold_ns] (default: infinity, i.e.
    off) arms the slow-epoch detector; [on_slow] fires synchronously
    from [epoch_end] for each slow epoch. *)

val enabled : t -> bool

val phase : t -> string -> (unit -> 'a) -> 'a
(** [phase t name f] runs [f], charging its wall time and Gc deltas to
    [name]. Re-entrant use of the same name double-counts; the engine's
    phases do not nest. Charges even if [f] raises. *)

val epoch_begin : t -> epoch:int -> unit
val epoch_end : t -> unit

val epochs : t -> int
(** Epochs bracketed so far. *)

val total_wall_ns : t -> float
(** Total wall time across bracketed epochs. *)

val stats : t -> (string * phase_stat) list
(** Per-phase aggregates, in first-use order. *)

val slow_epochs : t -> slow_epoch list
(** Slow epochs in occurrence order (at most 32 kept; see
    {!slow_epoch_count} for the true total). *)

val slow_epoch_count : t -> int

val reset : t -> unit
(** Drop all aggregates, phase names and slow epochs. *)

val to_json : t -> Jsonx.t
(** Full snapshot: epochs, total wall, per-phase table and slow epochs.
    Times in ms, allocation in words. *)

val pp_table : Format.formatter -> t -> unit
(** Human-readable phase table (wall ms, %, minor/major Mwords). *)
