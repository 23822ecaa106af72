(** Transient pool in DRAM (paper section 5.1).

    Intermediate row versions written within an epoch live here; the
    whole pool is discarded at the end of the epoch by resetting its
    bump offset — no per-object deallocation, no garbage collection.
    Value bytes are stored in one arena of fixed chunks that never
    move, and referenced by {!vref}s; every access charges DRAM
    cache-line costs to the stats it is given (the accessing simulated
    core's). *)

type t

type vref = int
(** Reference to value bytes in the arena, valid until the next
    [reset]: an immediate int packing chunk, offset and length, so
    storing one allocates nothing. Chunks never move, so a vref stays
    valid while the arena keeps growing. *)

val create : initial_capacity:int -> t
(** [initial_capacity] is the size of the first chunk; later chunks
    grow geometrically, so the arena grows on demand. *)

val write : t -> Nv_nvmm.Stats.t -> ?charge:bool -> bytes -> vref
(** Bump-allocate and store one value. [charge]
    (default true) bills DRAM line writes; engine variants that model
    NVMM-resident version values pass false and charge NVMM costs
    themselves. *)

val write_from :
  t -> Nv_nvmm.Stats.t -> ?charge:bool -> len:int -> (bytes -> int -> unit) -> vref
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
(** Free the entire pool (epoch end). O(1). *)

val used_bytes : t -> int
(** Bytes currently allocated. *)

val peak_bytes : t -> int
(** High-water mark across the run (memory reporting, Figure 8). *)
