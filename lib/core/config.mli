(** Engine configuration: design variant, sizing, and feature toggles.

    The design variants are the systems compared in the paper's
    evaluation (sections 6.4 and 6.7); all run on the same engine code
    with different storage/charging policies:

    - [Nvcaracal] — the full design: transient versions in DRAM,
      dual-version persistent rows, input logging, caching, GC.
    - [All_nvmm] — baseline: version arrays and all version values live
      in NVMM; no DRAM cache; no logging (Figure 7).
    - [Hybrid] — version arrays in DRAM but {e every} update is written
      to NVMM; Zen-style DRAM cache; no logging (Figure 7).
    - [No_logging] — NVCaracal without input logging; cannot recover
      (Figure 10).
    - [All_dram] — NVCaracal's code with DRAM costs for everything and
      no logging; the upper-bound configuration of Figure 10.
    - [Wal] — traditional write-ahead logging in NVMM (section 2.1):
      every update is redo-logged and later checkpointed in place, two
      NVMM writes per update; an extension baseline, not in the paper's
      figures. *)

type variant = Nvcaracal | All_nvmm | Hybrid | No_logging | All_dram | Wal

type ordered_index = Avl | Btree
(** Implementation backing [Table.Ordered] tables: an AVL tree or a
    wide-node B+-tree (the default — closer to Caracal's Masstree
    access pattern). *)

type t = {
  variant : variant;
  cores : int;
  row_size : int;  (** persistent row size, bytes (paper default 256) *)
  value_slot_size : int;  (** persistent value pool slot, bytes (1024) *)
  value_size_classes : int list;
      (** optional size-classed value pools (section 5.5's power-of-two
          extension); empty = a single [value_slot_size] class *)
  cache_k : int;  (** evict cached versions unused for K epochs (20) *)
  minor_gc : bool;  (** minor collector enabled (section 4.4) *)
  cached_versions : bool;  (** DRAM cached versions enabled (section 4.2) *)
  rows_per_core : int;  (** persistent row pool capacity per core *)
  values_per_core : int;  (** persistent value pool capacity per core *)
  freelist_capacity : int;  (** ring entries per core per pool *)
  log_capacity : int;  (** input-log region bytes *)
  n_counters : int;  (** persistent counters (TPC-C order ids) *)
  revert_on_recovery : bool;  (** revert crashed-epoch persistent writes during the recovery scan
      (TPC-C's non-deterministic-counter fix, section 6.2.3) *)
  cache_entries_max : int;  (** DRAM cache entry limit (Table 4) *)
  ordered_index : ordered_index;
  batch_append : bool;
      (** Caracal's batch-append optimization: version-array appends are
          buffered per core and merged in one pass, removing the
          long-sorted-array penalty of section 6.9 *)
  selective_caching : bool;
      (** Future-work policy from section 7: only create cached versions
          for rows being written (no cache fills on read misses) *)
  persistent_index : bool;
      (** Future-work design from section 7: maintain a persistent hash
          index in NVMM, updated in one batch per epoch; recovery then
          rebuilds the DRAM index from a sequential bucket scan and
          loads per-row version state lazily, instead of scanning every
          persistent row up front *)
  pindex_capacity : int;
      (** buckets in the persistent index; 0 derives 2x the row-pool
          capacity *)
  spec : Nv_nvmm.Memspec.t;
}

val default : t
(** NVCaracal, 8 cores, 256-byte rows, K=20 — the paper's defaults,
    with pool capacities sized for the scaled-down benchmarks. *)

val make :
  ?variant:variant ->
  ?cores:int ->
  ?row_size:int ->
  ?value_slot_size:int ->
  ?value_size_classes:int list ->
  ?cache_k:int ->
  ?minor_gc:bool ->
  ?cached_versions:bool ->
  ?rows_per_core:int ->
  ?values_per_core:int ->
  ?freelist_capacity:int ->
  ?log_capacity:int ->
  ?n_counters:int ->
  ?revert_on_recovery:bool ->
  ?cache_entries_max:int ->
  ?ordered_index:ordered_index ->
  ?batch_append:bool ->
  ?selective_caching:bool ->
  ?persistent_index:bool ->
  ?pindex_capacity:int ->
  unit ->
  t
(** [default] with overrides. The [All_dram] variant forces the
    DRAM-cost memory spec. *)

val logging_enabled : t -> bool
val caching_enabled : t -> bool
val uses_dram_version_arrays : t -> bool
(** False only for [All_nvmm], whose version arrays are charged as NVMM
    traffic. *)

val writes_all_updates_to_nvmm : t -> bool
(** True for [All_nvmm] and [Hybrid]: intermediate version values are
    charged as NVMM writes. *)

val redo_logs_updates : t -> bool
(** True for [Wal]: every version write is also appended to a redo log
    in NVMM. *)

val pp_variant : Format.formatter -> variant -> unit
val variant_name : variant -> string
