(** Per-core transient pool in DRAM (paper section 5.1).

    Intermediate row versions written within an epoch live here; the
    whole pool is discarded at the end of the epoch by resetting each
    core's bump offset — no per-object deallocation, no garbage
    collection. Value bytes are stored in per-core byte arenas and
    referenced by {!vref}s, and every access charges DRAM cache-line
    costs to the accessing core's stats. *)

type t

type vref = { buf : bytes; core : int; off : int; len : int }
(** Reference to value bytes in some core's arena, valid until the next
    [reset]. The buffer is captured at write time so a reader on
    another domain never races the owning core growing its arena. *)

val create : cores:int -> initial_capacity:int -> t
(** Arenas grow on demand; [initial_capacity] is per core. *)

val write : t -> Nv_nvmm.Stats.t -> ?charge:bool -> core:int -> bytes -> vref
(** Bump-allocate and store one value on [core]'s arena. [charge]
    (default true) bills DRAM line writes; engine variants that model
    NVMM-resident version values pass false and charge NVMM costs
    themselves. *)

val write_from :
  t -> Nv_nvmm.Stats.t -> ?charge:bool -> core:int -> len:int -> (bytes -> int -> unit) -> vref
(** [write] of a [len]-byte value that [fill buf off] stores straight
    into the arena at [buf.[off]], so a value read from elsewhere (a
    persistent row) lands without an intermediate copy. [fill] runs
    before the DRAM charge. *)

val read : t -> Nv_nvmm.Stats.t -> ?charge:bool -> vref -> bytes

val reset : t -> unit
(** Free the entire pool (epoch end). O(cores). *)

val used_bytes : t -> int
(** Bytes currently allocated across all cores. *)

val peak_bytes : t -> int
(** High-water mark across the run (memory reporting, Figure 8). *)
