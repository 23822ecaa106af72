(** Size-classed persistent value pools (paper section 5.5).

    The paper's base design uses one fixed-size value pool; it notes
    the extension "to support multiple sizes by using multiple
    persistent value pools, such as one pool for each power of two
    size". This module implements that: a set of {!Slab_pool}s with
    distinct slot sizes; allocation picks the smallest class that fits,
    and frees are routed back by offset range. All crash-consistency
    mechanics (dual checkpointed offsets, the non-revertible GC tail,
    dedup of crashed-epoch GC frees) are per class and composed here. *)

type spec
type t

val reserve :
  Nv_nvmm.Layout.builder ->
  cores:int ->
  slots_per_core:int ->
  classes:int list ->
  freelist_capacity:int ->
  spec
(** [classes] are the slot sizes, ascending (e.g. [[256; 1024; 4096]]);
    each class gets [slots_per_core] slots per core. *)

val attach : Nv_nvmm.Pmem.t -> spec -> t

val classes : t -> int list
val max_value : t -> int
(** Largest allocatable value (the biggest class size). *)

val alloc : t -> Nv_nvmm.Stats.t -> core:int -> len:int -> int
(** Slot offset from the smallest class fitting [len]. Raises [Failure]
    if [len] exceeds the largest class or the class is exhausted. *)

val free : t -> Nv_nvmm.Stats.t -> core:int -> int -> unit
(** Revertible transaction free (routed to the owning class). *)

val free_gc :
  t -> Nv_nvmm.Stats.t -> core:int -> int -> dedup:(int64, unit) Hashtbl.t -> unit

val write_value : t -> Nv_nvmm.Stats.t -> ?charge:bool -> off:int -> data:bytes -> unit -> unit

val write_value_from :
  t ->
  Nv_nvmm.Stats.t ->
  ?charge:bool ->
  off:int ->
  src:bytes ->
  src_off:int ->
  len:int ->
  unit ->
  unit
(** [write_value] straight from a source range (no intermediate copy). *)

val persist_gc_tail : t -> Nv_nvmm.Stats.t -> epoch:int -> unit
val checkpoint : t -> (int -> Nv_nvmm.Stats.t) -> epoch:int -> unit

type recovery = {
  dedup : (int64, unit) Hashtbl.t;
  meta_salvaged : int;
  corrupt_entries : int;
}

val recover : t -> last_checkpointed_epoch:int -> crashed_epoch:int -> recovery
(** Combined dedup set and salvage counts across all classes. *)

val allocated_bytes : t -> int
(** Sum over classes of allocated slots x slot size. *)

val nvmm_bytes : t -> int

val debug_reset : unit -> unit
(** Clear the NVDBG double-allocation tracker (testing aid). *)

val meta_bytes : t -> int
(** Rings and allocator metadata (Figure 8's allocator overhead). *)
