type variant = Nvcaracal | All_nvmm | Hybrid | No_logging | All_dram | Wal
type ordered_index = Avl | Btree

type t = {
  variant : variant;
  cores : int;
  row_size : int;
  value_slot_size : int;
  cache_k : int;
  minor_gc : bool;
  cached_versions : bool;
  rows_per_core : int;
  values_per_core : int;
  freelist_capacity : int;
  log_capacity : int;
  n_counters : int;
  revert_on_recovery : bool;
  cache_entries_max : int;
  ordered_index : ordered_index;
  batch_append : bool;
  selective_caching : bool;
  persistent_index : bool;
  pindex_capacity : int;
  spec : Nv_nvmm.Memspec.t;
}

let default =
  {
    variant = Nvcaracal;
    cores = 8;
    row_size = 256;
    value_slot_size = 1024;
    cache_k = 20;
    minor_gc = true;
    cached_versions = true;
    rows_per_core = 65536;
    values_per_core = 65536;
    freelist_capacity = 65536;
    log_capacity = 1 lsl 22;
    n_counters = 0;
    revert_on_recovery = false;
    cache_entries_max = max_int;
    ordered_index = Btree;
    batch_append = false;
    selective_caching = false;
    persistent_index = false;
    pindex_capacity = 0;
    spec = Nv_nvmm.Memspec.default;
  }

let make ?(variant = default.variant) ?(cores = default.cores) ?(row_size = default.row_size)
    ?(value_slot_size = default.value_slot_size) ?(cache_k = default.cache_k)
    ?(minor_gc = default.minor_gc) ?(cached_versions = default.cached_versions)
    ?(rows_per_core = default.rows_per_core)
    ?(values_per_core = default.values_per_core)
    ?(freelist_capacity = default.freelist_capacity) ?(log_capacity = default.log_capacity)
    ?(n_counters = default.n_counters) ?(revert_on_recovery = default.revert_on_recovery)
    ?(cache_entries_max = default.cache_entries_max) ?(ordered_index = default.ordered_index)
    ?(batch_append = default.batch_append) ?(selective_caching = default.selective_caching)
    ?(persistent_index = default.persistent_index)
    ?(pindex_capacity = default.pindex_capacity) () =
  assert (row_size >= Nv_storage.Prow.min_row_size);
  {
    variant;
    cores;
    row_size;
    value_slot_size;
    cache_k;
    minor_gc;
    cached_versions;
    rows_per_core;
    values_per_core;
    freelist_capacity;
    log_capacity;
    n_counters;
    revert_on_recovery;
    cache_entries_max;
    ordered_index;
    batch_append;
    selective_caching;
    persistent_index;
    pindex_capacity;
    spec = (if variant = All_dram then Nv_nvmm.Memspec.dram_only else Nv_nvmm.Memspec.default);
  }

let logging_enabled t = match t.variant with Nvcaracal -> true | _ -> false
let caching_enabled t = t.cached_versions && t.variant <> All_nvmm
let uses_dram_version_arrays t = t.variant <> All_nvmm

let writes_all_updates_to_nvmm t =
  match t.variant with
  | All_nvmm | Hybrid -> true
  | Nvcaracal | No_logging | All_dram | Wal -> false

let redo_logs_updates t = t.variant = Wal

let variant_name = function
  | Nvcaracal -> "nvcaracal"
  | All_nvmm -> "all-nvmm"
  | Hybrid -> "hybrid"
  | No_logging -> "no-logging"
  | All_dram -> "all-dram"
  | Wal -> "wal"

let pp_variant ppf v = Format.pp_print_string ppf (variant_name v)
