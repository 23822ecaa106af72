(* The harness-side engine seam: one spec record describing which
   backend to run with which design toggles, and the derivation of
   every engine-specific configuration number from it. Runner, the
   fuzzer, the bench tables and the CLI all instantiate engines here,
   so adding a backend (or a toggle) touches exactly this module. *)

module Config = Nvcaracal.Config
module Engine_intf = Nvcaracal.Engine_intf
module W = Nv_workloads.Workload

type backend = Caracal of Config.variant | Caracal_aria | Zen

type setup = {
  epochs : int;
  epoch_txns : int;
  seed : int;
  row_size : int;
  cache_entries : int;
  insert_growth : int;
}

let setup ?(epochs = 12) ?(epoch_txns = 1500) ?(seed = 42) ?(row_size = 256)
    ?(cache_entries = 0) ?(insert_growth = 0) () =
  { epochs; epoch_txns; seed; row_size; cache_entries; insert_growth }

let cores = 8

(* Domain-pool width every derived configuration requests. CLI layers
   set this once at parse time (--jobs); NVC_JOBS seeds the default so
   test and CI runs can go wide without threading a flag through every
   call site. *)
let default_jobs =
  ref
    (match Option.bind (Sys.getenv_opt "NVC_JOBS") int_of_string_opt with
    | Some n when n > 0 -> n
    | Some _ | None -> 1)

type spec = {
  backend : backend;
  minor_gc : bool;
  cached_versions : bool;
  crash_safe : bool;
  batch_append : bool;
  selective_caching : bool;
  ordered_index : Config.ordered_index;
  persistent_index : bool;
  record_size : int option;
}

let spec ?(minor_gc = true) ?(cached_versions = true) ?(batch_append = false)
    ?(selective_caching = false) ?(ordered_index = Config.Btree) ?(persistent_index = false)
    ?record_size backend =
  {
    backend;
    minor_gc;
    cached_versions;
    crash_safe = true;
    batch_append;
    selective_caching;
    ordered_index;
    persistent_index;
    record_size;
  }

let of_string name =
  match name with
  | "zen" -> Some (spec Zen)
  | "aria" -> Some (spec Caracal_aria)
  | _ ->
      Option.map
        (fun v -> spec (Caracal v))
        (List.find_opt
           (fun v -> Config.variant_name v = name)
           [ Config.Nvcaracal; Config.All_nvmm; Config.Hybrid; Config.No_logging;
             Config.All_dram; Config.Wal ])

let label sp (w : W.t) =
  match sp.backend with
  | Caracal v -> Config.variant_name v ^ "/" ^ w.W.name
  | Caracal_aria -> "aria/" ^ w.W.name
  | Zen -> "zen/" ^ w.W.name

let feeds_deferred sp = sp.backend = Caracal_aria

(* Derive pool capacities: the loaded dataset, plus insert growth, plus
   one epoch of value churn (freed slots are not reusable within the
   epoch that freed them). *)
let sizing s (w : W.t) =
  let base_rows = W.total_rows w in
  let grown = base_rows + (s.epochs * s.epoch_txns * s.insert_growth) + 1024 in
  let rows_per_core = (grown * 3 / 2 / cores) + 64 in
  let values_per_core =
    let pool_valued =
      if w.W.typical_value > Nv_storage.Prow.half_capacity ~row_size:s.row_size then grown
      else 1024
    in
    ((pool_valued + (s.epoch_txns * 12)) * 3 / 2 / cores) + 64
  in
  let freelist_capacity = 2 * max rows_per_core values_per_core in
  (base_rows, rows_per_core, values_per_core, freelist_capacity)

let variant_of sp =
  match sp.backend with Caracal v -> v | Caracal_aria | Zen -> Config.Nvcaracal

let caracal_config s (w : W.t) sp =
  let base_rows, rows_per_core, values_per_core, freelist_capacity = sizing s w in
  let cache_entries = if s.cache_entries > 0 then s.cache_entries else base_rows in
  let c =
    Config.make ~variant:(variant_of sp) ~cores ~row_size:s.row_size
      ~value_slot_size:(max 1024 (w.W.typical_value + 24))
      ~minor_gc:sp.minor_gc ~cached_versions:sp.cached_versions
      ~rows_per_core ~values_per_core ~freelist_capacity
      ~log_capacity:(max (1 lsl 20) (s.epoch_txns * 256))
      ~n_counters:w.W.n_counters ~revert_on_recovery:w.W.revert_on_recovery
      ~cache_entries_max:cache_entries ~ordered_index:sp.ordered_index
      ~batch_append:sp.batch_append ~selective_caching:sp.selective_caching
      ~parallelism:!default_jobs ()
  in
  if sp.persistent_index then
    { c with Config.persistent_index = true; pindex_capacity = 4 * base_rows }
  else c

let zen_config s (w : W.t) sp =
  let record_size =
    match sp.record_size with Some r -> r | None -> Zen_record_size.optimal w
  in
  let base_rows = W.total_rows w in
  let slots_per_core =
    ((base_rows + (s.epochs * s.epoch_txns * (s.insert_growth + 2))) * 2 / cores) + 64
  in
  let cache_entries = if s.cache_entries > 0 then s.cache_entries else base_rows in
  {
    Nv_zen.Zen_db.cores;
    record_size;
    cache_entries;
    slots_per_core;
    spec = Nv_nvmm.Memspec.default;
  }

let instantiate sp s (w : W.t) =
  match sp.backend with
  | Caracal _ ->
      let config = caracal_config s w sp in
      Engine_intf.Packed
        ( (module Nvcaracal.Db.Serial_engine),
          Nvcaracal.Db.Serial_engine.create ~config ~tables:w.W.tables () )
  | Caracal_aria ->
      let config = caracal_config s w sp in
      Engine_intf.Packed
        ( (module Nvcaracal.Db.Aria_engine),
          Nvcaracal.Db.Aria_engine.create ~config ~tables:w.W.tables () )
  | Zen ->
      let config = zen_config s w sp in
      Engine_intf.Packed
        ( (module Nv_zen.Zen_db.Engine),
          Nv_zen.Zen_db.Engine.create ~config ~tables:w.W.tables () )

let recover sp s (w : W.t) ~pmem ~rebuild =
  match sp.backend with
  | Caracal _ ->
      let config = caracal_config s w sp in
      Engine_intf.Packed
        ( (module Nvcaracal.Db.Serial_engine),
          Nvcaracal.Db.Serial_engine.recover ~config ~tables:w.W.tables ~pmem ~rebuild () )
  | Caracal_aria ->
      let config = caracal_config s w sp in
      Engine_intf.Packed
        ( (module Nvcaracal.Db.Aria_engine),
          Nvcaracal.Db.Aria_engine.recover ~config ~tables:w.W.tables ~pmem ~rebuild () )
  | Zen ->
      let config = zen_config s w sp in
      Engine_intf.Packed
        ( (module Nv_zen.Zen_db.Engine),
          Nv_zen.Zen_db.Engine.recover ~config ~tables:w.W.tables ~pmem ~rebuild () )

let introspect (Engine_intf.Packed ((module E), db)) = E.introspect db
let state_digest packed = (introspect packed).Engine_intf.state_digest
