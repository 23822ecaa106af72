(** Per-core transient pool in DRAM (paper section 5.1).

    Intermediate row versions written within an epoch live here; the
    whole pool is discarded at the end of the epoch by resetting each
    core's bump offset — no per-object deallocation, no garbage
    collection. Value bytes are stored in per-core arenas of fixed
    chunks that never move, and referenced by {!vref}s; every access
    charges DRAM cache-line costs to the accessing core's stats. *)

type t

type vref = int
(** Reference to value bytes in some core's arena, valid until the next
    [reset]: an immediate int packing core, chunk, offset and length,
    so storing one allocates nothing. Chunks never move, so a vref
    stays valid while its core keeps writing. *)

val create : cores:int -> initial_capacity:int -> t
(** [initial_capacity] is the size of each core's first chunk; later
    chunks grow geometrically, so arenas grow on demand. *)

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

val len : vref -> int

val src : t -> vref -> bytes
(** The chunk holding the value; its bytes are [src t v] from [off v]
    for [len v] bytes. Lets a consumer (the final persistent write)
    read the value in place instead of copying it out. *)

val off : vref -> int

val read : t -> Nv_nvmm.Stats.t -> ?charge:bool -> vref -> bytes
(** A fresh copy of the value. *)

val charge_read : Nv_nvmm.Stats.t -> vref -> unit
(** The DRAM charge of [read], without the copy. *)


val reset : t -> unit
(** Free the entire pool (epoch end). O(cores). *)

val used_bytes : t -> int
(** Bytes currently allocated across all cores. *)

val peak_bytes : t -> int
(** High-water mark across the run (memory reporting, Figure 8). *)
