(** Per-core access accounting and the simulated clock.

    Every memory operation performed on behalf of a simulated core
    charges that core's [Stats.t]: a counter bump plus simulated
    nanoseconds from the {!Memspec} cost model. The discrete-event
    scheduler reads [now] to order execution; the harness merges
    per-core stats for reports. *)

type t

type counters = {
  dram_reads : int;
  dram_writes : int;
  nvmm_block_reads : int;
  nvmm_block_writes : int;
  nvmm_seq_bytes : int;
  flushes : int;
  fences : int;
  compute_ops : int;
  media_faults : int;  (** detected dead-line reads (fault injection only) *)
}

val create : Memspec.t -> t
val spec : t -> Memspec.t

val now : t -> float
(** Current simulated time of this core, in nanoseconds. *)

val set_now : t -> float -> unit

val save_now : t -> Float.Array.t -> int -> unit
(** [Float.Array.set a i (now t)], and [set_now_saved t a i] is
    [set_now t (Float.Array.get a i)]: clock reads and writes through a
    float array, which callers in other modules make without boxing. *)

val set_now_saved : t -> Float.Array.t -> int -> unit
(** Move this core's clock forward (scheduler use: waking a blocked core
    at the writer's timestamp). Never moves the clock backwards. *)

val advance : t -> float -> unit
(** Charge raw nanoseconds without touching counters. *)

val counters : t -> counters

(** Charging operations — each bumps a counter and advances the clock. *)

val dram_read : t -> ?lines:int -> unit -> unit
val dram_write : t -> ?lines:int -> unit -> unit

val dram_read_lines : t -> int -> unit
val dram_write_lines : t -> int -> unit
(** [dram_read t ~lines ()] and [dram_write t ~lines ()] without the
    optional argument, which a caller in another module pays for with
    an allocation. *)

val nvmm_read : t -> off:int -> len:int -> unit
(** Charge a random NVMM read touching the given byte range (cost is per
    256 B block overlapped). *)

val nvmm_write : t -> off:int -> len:int -> unit

val nvmm_read_blocks : t -> int -> unit
(** Charge a pre-computed number of NVMM block reads (used when a
    composite structure coalesces several touched ranges into a block
    set, e.g. a row header plus an inline value in the same block). *)

val nvmm_write_blocks : t -> int -> unit

val nvmm_read_lines : t -> int -> unit
(** Charge NVMM traffic at 64-byte-line granularity (a quarter of a
    block per line): models CPU-cache write-combining and buffering for
    small multi-version updates, used by the all-NVMM and hybrid
    baselines. *)

val nvmm_write_lines : t -> int -> unit

val nvmm_seq_write : t -> bytes:int -> unit
(** Charge a streaming NVMM write of [bytes] (input-log append rate). *)

val flush : t -> unit
val fence : t -> unit
val compute : t -> ?ops:int -> unit -> unit

val media_fault : t -> unit
(** Record a detected media fault (a charged read touched a dead line).
    Counter only — detection happens in the media controller, so no
    simulated latency is added. *)

val merge_counters : counters -> counters -> counters
val zero_counters : counters
val pp_counters : Format.formatter -> counters -> unit

val reset : t -> unit
(** Zero all counters and the clock (e.g. between measurement windows). *)
