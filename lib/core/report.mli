(** Measurement records produced by the engine.

    [epoch_stats] is returned by every epoch run; [mem_report] breaks
    down DRAM/NVMM consumption (Figure 8); [recovery_report] breaks
    down recovery time (Figure 11). *)

type epoch_stats = {
  epoch : int;
  txns : int;
  aborted : int;
  version_writes : int;  (** all version-value writes this epoch *)
  persistent_writes : int;  (** final writes that reached NVMM *)
  transient_only_writes : int;
      (** version writes absorbed by DRAM — the paper's "% transient"
          metric is [transient_only_writes / version_writes] *)
  minor_gc : int;
  major_gc : int;
  evicted : int;
  cache_hits : int;
  cache_misses : int;
  log_bytes : int;
  duration_ns : float;  (** simulated wall time of the epoch *)
  phases : (string * float) list;
      (** per-phase simulated durations, in pipeline order (log /
          insert / gc+evict / append / execute / checkpoint) *)
}

val zero_epoch_stats : epoch_stats
(** Identity element of {!merge_epoch_stats}. *)

val merge_epoch_stats : epoch_stats -> epoch_stats -> epoch_stats
(** Combine two epoch reports (a run's total): counters add,
    [duration_ns], [epoch] and [txns] take the max, and [phases] are
    summed by name keeping first-appearance order. Associative with
    identity {!zero_epoch_stats}, so reports may be folded in any
    grouping. *)

type mem_report = {
  nvmm_rows : int;  (** persistent row bytes in use *)
  nvmm_values : int;  (** persistent value-pool bytes in use *)
  nvmm_log : int;  (** input-log high-water mark, bytes *)
  nvmm_freelists : int;  (** ring-buffer and allocator metadata bytes *)
  dram_index : int;
  dram_transient : int;  (** transient-pool high-water mark *)
  dram_cache : int;
}

type damage_kind =
  [ `Header  (** row identity header failed its checksum *)
  | `Current_version  (** a stable (pre-crash) version failed; data lost *)
  | `Stale_version  (** an old version failed; dropped, current survives *)
  | `Counter  (** a persistent counter slot failed both parities *)
  | `Log  (** the committed input log failed; crashed epoch dropped *)
  | `Allocator  (** allocator metadata failed; salvaged conservatively *) ]

type damage = {
  d_table : int;  (** -1 when the loss is not attributable to a row *)
  d_key : int64;
  d_kind : damage_kind;
}

type recovery_report = {
  load_log_ns : float;
  scan_ns : float;
  revert_ns : float;
  replay_ns : float;
  total_ns : float;
  scanned_rows : int;
  reverted_rows : int;
  replayed_txns : int;
  scrubbed : bool;  (** eager verification scan was forced *)
  log_dropped : bool;  (** committed log failed checksums; epoch not replayed *)
  crc_repaired : int;  (** stale slot checksums rewritten in place *)
  stale_dropped : int;  (** corrupt stale versions dropped (current survives) *)
  alloc_salvaged : int;  (** allocator metadata words rebuilt from fallbacks *)
  alloc_corrupt_entries : int;  (** freelist ring entries skipped *)
  counter_salvaged : int;  (** counters recovered from the older parity slot *)
  damage : damage list;  (** unrecoverable losses, reported loudly *)
}

val has_salvage : recovery_report -> bool
(** True when any corruption was repaired, salvaged, or reported —
    i.e. the recovery was not a clean crash-image recovery. *)

val damage_count : table:int -> recovery_report -> int
(** Number of damage entries attributed to [table]. *)

val pp_damage : Format.formatter -> damage -> unit

val pp_epoch_stats : Format.formatter -> epoch_stats -> unit
val pp_phases : Format.formatter -> (string * float) list -> unit
val pp_mem_report : Format.formatter -> mem_report -> unit
val pp_recovery_report : Format.formatter -> recovery_report -> unit

val total_nvmm : mem_report -> int
val total_dram : mem_report -> int

val transient_fraction : epoch_stats -> float
(** Fraction of version writes that stayed in DRAM; [nan] when no
    writes happened. *)
