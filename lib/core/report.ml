type epoch_stats = {
  epoch : int;
  txns : int;
  aborted : int;
  version_writes : int;
  persistent_writes : int;
  transient_only_writes : int;
  minor_gc : int;
  major_gc : int;
  evicted : int;
  cache_hits : int;
  cache_misses : int;
  log_bytes : int;
  duration_ns : float;
  phases : (string * float) list;
}

type mem_report = {
  nvmm_rows : int;
  nvmm_values : int;
  nvmm_log : int;
  nvmm_freelists : int;
  dram_index : int;
  dram_transient : int;
  dram_cache : int;
}

type damage_kind =
  [ `Header  (** row identity header failed its checksum *)
  | `Current_version  (** a stable (pre-crash) version failed; data lost *)
  | `Stale_version  (** an old version failed; dropped, current survives *)
  | `Counter  (** a persistent counter slot failed both parities *)
  | `Log  (** the committed input log failed; crashed epoch dropped *)
  | `Allocator  (** allocator metadata failed; salvaged conservatively *) ]

type damage = { d_table : int; d_key : int64; d_kind : damage_kind }

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

let zero_epoch_stats =
  {
    epoch = 0;
    txns = 0;
    aborted = 0;
    version_writes = 0;
    persistent_writes = 0;
    transient_only_writes = 0;
    minor_gc = 0;
    major_gc = 0;
    evicted = 0;
    cache_hits = 0;
    cache_misses = 0;
    log_bytes = 0;
    duration_ns = 0.0;
    phases = [];
  }

(* Sum phase durations by name. Names keep their order of first
   appearance (left operand first), so a fold in a fixed order gives
   one deterministic result, and the grouping of the fold does not
   change which names appear or their order. *)
let merge_phases a b =
  let merged =
    List.map
      (fun (name, v) ->
        match List.assoc_opt name b with None -> (name, v) | Some w -> (name, v +. w))
      a
  in
  merged @ List.filter (fun (name, _) -> not (List.mem_assoc name a)) b

(* Combine two epoch reports, as [Runner] and the served benchmark do
   to total a run. Counters add; the duration, [epoch] and [txns] take
   the max. Associative, with [zero_epoch_stats] as identity. *)
let merge_epoch_stats a b =
  {
    epoch = max a.epoch b.epoch;
    txns = max a.txns b.txns;
    aborted = a.aborted + b.aborted;
    version_writes = a.version_writes + b.version_writes;
    persistent_writes = a.persistent_writes + b.persistent_writes;
    transient_only_writes = a.transient_only_writes + b.transient_only_writes;
    minor_gc = a.minor_gc + b.minor_gc;
    major_gc = a.major_gc + b.major_gc;
    evicted = a.evicted + b.evicted;
    cache_hits = a.cache_hits + b.cache_hits;
    cache_misses = a.cache_misses + b.cache_misses;
    log_bytes = a.log_bytes + b.log_bytes;
    duration_ns = Float.max a.duration_ns b.duration_ns;
    phases = merge_phases a.phases b.phases;
  }

let pp_phases ppf phases =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
    (fun ppf (name, ns) -> Format.fprintf ppf "%s %.0fus" name (ns /. 1e3))
    ppf phases

let pp_epoch_stats ppf s =
  Format.fprintf ppf
    "epoch %d: %d txns (%d aborted), %d version writes (%d persistent, %d transient), gc \
     minor/major %d/%d, evicted %d, cache %d/%d, log %dB, %.0f us"
    s.epoch s.txns s.aborted s.version_writes s.persistent_writes s.transient_only_writes
    s.minor_gc s.major_gc s.evicted s.cache_hits s.cache_misses s.log_bytes
    (s.duration_ns /. 1e3)

let total_nvmm m = m.nvmm_rows + m.nvmm_values + m.nvmm_log + m.nvmm_freelists
let total_dram m = m.dram_index + m.dram_transient + m.dram_cache

let pp_mem_report ppf m =
  Format.fprintf ppf
    "NVMM: rows %d, values %d, log %d, alloc-meta %d | DRAM: index %d, transient %d, cache %d"
    m.nvmm_rows m.nvmm_values m.nvmm_log m.nvmm_freelists m.dram_index m.dram_transient
    m.dram_cache

let pp_damage_kind ppf = function
  | `Header -> Format.pp_print_string ppf "header"
  | `Current_version -> Format.pp_print_string ppf "current-version"
  | `Stale_version -> Format.pp_print_string ppf "stale-version"
  | `Counter -> Format.pp_print_string ppf "counter"
  | `Log -> Format.pp_print_string ppf "log"
  | `Allocator -> Format.pp_print_string ppf "allocator"

let pp_damage ppf d =
  if d.d_table >= 0 then
    Format.fprintf ppf "%a table=%d key=%Ld" pp_damage_kind d.d_kind d.d_table d.d_key
  else Format.fprintf ppf "%a" pp_damage_kind d.d_kind

let has_salvage r =
  r.log_dropped || r.crc_repaired > 0 || r.stale_dropped > 0 || r.alloc_salvaged > 0
  || r.alloc_corrupt_entries > 0 || r.counter_salvaged > 0 || r.damage <> []

let damage_count ~table r =
  List.length (List.filter (fun d -> d.d_table = table) r.damage)

let pp_recovery_report ppf r =
  Format.fprintf ppf
    "recovery: load-log %.0fus, scan %.0fus (%d rows), revert %.0fus (%d rows), replay %.0fus \
     (%d txns), total %.0fus"
    (r.load_log_ns /. 1e3) (r.scan_ns /. 1e3) r.scanned_rows (r.revert_ns /. 1e3)
    r.reverted_rows (r.replay_ns /. 1e3) r.replayed_txns (r.total_ns /. 1e3);
  if r.scrubbed || has_salvage r then begin
    Format.fprintf ppf "@\nscrub:";
    if r.scrubbed then Format.fprintf ppf " verified";
    if r.log_dropped then Format.fprintf ppf " log-dropped";
    if r.crc_repaired > 0 then Format.fprintf ppf " crc-repaired %d" r.crc_repaired;
    if r.stale_dropped > 0 then Format.fprintf ppf " stale-dropped %d" r.stale_dropped;
    if r.alloc_salvaged > 0 then Format.fprintf ppf " alloc-salvaged %d" r.alloc_salvaged;
    if r.alloc_corrupt_entries > 0 then
      Format.fprintf ppf " alloc-corrupt-entries %d" r.alloc_corrupt_entries;
    if r.counter_salvaged > 0 then
      Format.fprintf ppf " counter-salvaged %d" r.counter_salvaged;
    if r.damage <> [] then begin
      Format.fprintf ppf "@\nDAMAGE (%d):" (List.length r.damage);
      List.iter (fun d -> Format.fprintf ppf "@\n  %a" pp_damage d) r.damage
    end
  end

let transient_fraction s =
  if s.version_writes = 0 then nan
  else float_of_int s.transient_only_writes /. float_of_int s.version_writes
