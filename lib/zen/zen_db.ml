module Pmem = Nv_nvmm.Pmem
module Stats = Nv_nvmm.Stats
module Memspec = Nv_nvmm.Memspec
module Layout = Nv_nvmm.Layout
module HIdx = Nv_index.Hash_index
module OIdx = Nv_index.Ordered_index
module Txn = Nvcaracal.Txn
module Table = Nvcaracal.Table
module Report = Nvcaracal.Report

type config = {
  cores : int;
  record_size : int;
  cache_entries : int;
  slots_per_core : int;
  spec : Memspec.t;
}

let default_config =
  {
    cores = 8;
    record_size = 256;
    cache_entries = 65536;
    slots_per_core = 65536;
    spec = Memspec.default;
  }

type row = {
  key : int64;
  table : int;
  mutable rec_off : int;
  mutable cached : bytes option;
  mutable cache_slot : int; (* clock-cache slot, -1 when uncached *)
}

type index = Hash of row HIdx.t | Ord of row OIdx.t

type t = {
  config : config;
  tables : Table.t array;
  pmem : Pmem.t;
  store : Zen_store.t;
  indexes : index array;
  core_stats : Stats.t array;
  scratch : Stats.t;
  cache_slots : row option array; (* CLOCK over cached rows *)
  mutable cache_hand : int;
  mutable version : int64; (* global commit counter *)
  counters : int64 array;
  mutable committed : int;
  mutable aborted : int;
  mutable last_outcomes : [ `Committed | `Aborted | `Deferred ] array;
}

let build_layout (cfg : config) =
  let b = Layout.builder () in
  let per_core, _ =
    Zen_store.reserve b ~cores:cfg.cores ~slots_per_core:cfg.slots_per_core
      ~record_size:cfg.record_size
  in
  (Layout.total_size b, per_core)

let attach (cfg : config) tables pmem per_core =
  let tables = Array.of_list tables in
  {
    config = cfg;
    tables;
    pmem;
    store = Zen_store.attach pmem ~per_core ~record_size:cfg.record_size;
    indexes =
      Array.map
        (fun (tb : Table.t) ->
          match tb.Table.index with
          | Table.Hash -> Hash (HIdx.create ())
          | Table.Ordered -> Ord (OIdx.create ()))
        tables;
    core_stats = Array.init cfg.cores (fun _ -> Stats.create cfg.spec);
    scratch = Stats.create cfg.spec;
    cache_slots = Array.make (max 1 cfg.cache_entries) None;
    cache_hand = 0;
    version = 0L;
    counters = Array.make 8 0L;
    committed = 0;
    aborted = 0;
    last_outcomes = [||];
  }

let create ~config ~tables () =
  let size, per_core = build_layout config in
  attach config tables (Pmem.create ~size ()) per_core

let pmem t = t.pmem

let crash ?faults t ~rng =
  (match faults with
  | None -> Pmem.crash t.pmem ~rng
  | Some model -> ignore (Pmem.crash_with_faults t.pmem ~rng ~model));
  t.pmem

(* Zen has no epoch phases or per-epoch reports to instrument; accept
   the sinks so backend-generic harness code never has to branch. *)
let set_observability ?tracer:_ ?metrics:_ ?profile:_ ?name:_ _t = ()
let stats_of t core = t.core_stats.(core)

let find_row t stats ~table ~key =
  match t.indexes.(table) with
  | Hash h -> HIdx.find h stats key
  | Ord o -> OIdx.find o stats key

let index_insert t stats ~table ~key row =
  match t.indexes.(table) with
  | Hash h -> HIdx.insert h stats key row
  | Ord o -> OIdx.insert o stats key row

let index_remove t stats ~table ~key =
  match t.indexes.(table) with
  | Hash h -> HIdx.remove h stats key
  | Ord o -> OIdx.remove o stats key

(* --- Hot-tuple cache (CLOCK eviction) --- *)

let cache_drop t (row : row) =
  if row.cache_slot >= 0 then begin
    t.cache_slots.(row.cache_slot) <- None;
    row.cache_slot <- -1;
    row.cached <- None
  end

let cache_insert t stats (row : row) data =
  let lines = Memspec.lines_touched (Stats.spec stats) ~off:0 ~len:(Bytes.length data) in
  Stats.dram_write stats ~lines ();
  if row.cache_slot >= 0 then row.cached <- Some data
  else begin
    let n = Array.length t.cache_slots in
    (match t.cache_slots.(t.cache_hand) with
    | Some victim ->
        victim.cached <- None;
        victim.cache_slot <- -1
    | None -> ());
    t.cache_slots.(t.cache_hand) <- Some row;
    row.cache_slot <- t.cache_hand;
    row.cached <- Some data;
    t.cache_hand <- (t.cache_hand + 1) mod n
  end

(* --- Commit path --- *)

let next_version t =
  t.version <- Int64.add t.version 1L;
  t.version

let commit_write t stats ~core ~table ~key data =
  let version = next_version t in
  let off = Zen_store.alloc t.store stats ~core in
  Zen_store.write_record t.store stats ~off ~key ~table ~version ~data;
  (match find_row t stats ~table ~key with
  | Some row ->
      Zen_store.free t.store ~core row.rec_off;
      row.rec_off <- off;
      cache_insert t stats row data
  | None ->
      let row = { key; table; rec_off = off; cached = None; cache_slot = -1 } in
      index_insert t stats ~table ~key row;
      cache_insert t stats row data)

let commit_delete t stats ~core ~table ~key =
  match find_row t stats ~table ~key with
  | None -> ()
  | Some row ->
      Zen_store.invalidate t.store stats ~off:row.rec_off;
      Zen_store.free t.store ~core row.rec_off;
      cache_drop t row;
      index_remove t stats ~table ~key

(* --- Read path --- *)

let read_row t stats (row : row) =
  match row.cached with
  | Some data ->
      Stats.dram_read stats
        ~lines:(Memspec.lines_touched (Stats.spec stats) ~off:0 ~len:(Bytes.length data))
        ();
      data
  | None ->
      let data = Zen_store.read_value t.store stats ~off:row.rec_off in
      cache_insert t stats row data;
      data

(* --- Transaction execution --- *)

type buffered = Bwrite of bytes | Bdelete

let exec_txn t ~core (txn : Txn.t) =
  let stats = stats_of t core in
  let buffer : (int * int64, buffered) Hashtbl.t = Hashtbl.create 8 in
  let notes = Hashtbl.create 4 in
  let buffer_read ~table ~key =
    match Hashtbl.find_opt buffer (table, key) with
    | Some (Bwrite d) -> Some (Some d)
    | Some Bdelete -> Some None
    | None -> None
  in
  let read ~table ~key =
    Stats.compute stats ();
    match buffer_read ~table ~key with
    | Some r -> r
    | None -> (
        match find_row t stats ~table ~key with
        | Some row -> Some (read_row t stats row)
        | None -> None)
  in
  let write ~table ~key data =
    Stats.compute stats ();
    Hashtbl.replace buffer (table, key) (Bwrite data)
  in
  let delete ~table ~key =
    Stats.compute stats ();
    Hashtbl.replace buffer (table, key) Bdelete
  in
  let with_ordered table f =
    match t.indexes.(table) with
    | Ord o -> f o
    | Hash _ -> invalid_arg "Zen_db: range operation on hash table"
  in
  let range_read ~table ~lo ~hi =
    with_ordered table (fun o ->
        List.rev
          (OIdx.fold_range o stats ~lo ~hi ~init:[] ~f:(fun acc key row ->
               match buffer_read ~table ~key with
               | Some (Some d) -> (key, d) :: acc
               | Some None -> acc
               | None -> (key, read_row t stats row) :: acc)))
  in
  let max_below ~table bound =
    with_ordered table (fun o ->
        Option.map (fun (k, row) -> (k, read_row t stats row)) (OIdx.max_below o stats bound))
  in
  let min_above ~table bound =
    with_ordered table (fun o ->
        Option.map (fun (k, row) -> (k, read_row t stats row)) (OIdx.min_above o stats bound))
  in
  let abort () = raise Txn.Aborted in
  let compute ~ops = Stats.compute stats ~ops () in
  let counter_next ~idx =
    let v = t.counters.(idx) in
    t.counters.(idx) <- Int64.add v 1L;
    v
  in
  let ctx =
    {
      Txn.Ctx.sid = 0;
      core;
      read;
      write;
      delete;
      range_read;
      max_below;
      min_above;
      abort;
      compute;
      counter_next;
      notes;
    }
  in
  (* Apply declared insert data up-front (the body may overwrite it). *)
  let apply_inserts ops =
    List.iter
      (function
        | Txn.Insert { table; key; data = Some d } ->
            Hashtbl.replace buffer (table, key) (Bwrite d)
        | Txn.Insert _ | Txn.Update _ | Txn.Delete _ -> ())
      ops
  in
  apply_inserts txn.Txn.write_set;
  (match txn.Txn.insert_gen with Some gen -> apply_inserts (gen ctx) | None -> ());
  match txn.Txn.body ctx with
  | () ->
      (* Commit: one NVMM record per write, one fence for the txn. *)
      Hashtbl.iter
        (fun (table, key) buffered ->
          match buffered with
          | Bwrite data -> commit_write t stats ~core ~table ~key data
          | Bdelete -> commit_delete t stats ~core ~table ~key)
        buffer;
      Pmem.fence t.pmem stats;
      t.committed <- t.committed + 1;
      `Committed
  | exception Txn.Aborted ->
      t.aborted <- t.aborted + 1;
      `Aborted

let barrier t =
  let m = Array.fold_left (fun acc s -> Float.max acc (Stats.now s)) 0.0 t.core_stats in
  Array.iter (fun s -> Stats.set_now s m) t.core_stats

let exec_batch t txns =
  (* Zen commits (and fences) each transaction as it executes, so by
     the time the batch returns every outcome is already durable — the
     per-batch report is filled in directly. *)
  t.last_outcomes <- Array.mapi (fun i txn -> exec_txn t ~core:(i mod t.config.cores) txn) txns;
  barrier t

let last_batch_outcomes t = t.last_outcomes

(* As in NVCaracal's load, a fence every [load_round] rows retires the
   flushed records, so the crash-state log holds one round, not the
   whole dataset; loading costs are reset below. *)
let load_round = 8192

let bulk_load t rows =
  let i = ref 0 in
  Seq.iter
    (fun (table, key, data) ->
      let core = !i mod t.config.cores in
      incr i;
      commit_write t (stats_of t core) ~core ~table ~key data;
      if !i mod load_round = 0 then Pmem.fence t.pmem (stats_of t 0))
    rows;
  Array.iter Stats.reset t.core_stats;
  t.committed <- 0;
  t.aborted <- 0

let counters_total t =
  Array.fold_left
    (fun acc s -> Stats.merge_counters acc (Stats.counters s))
    Stats.zero_counters t.core_stats

let committed_txns t = t.committed
let aborted_txns t = t.aborted

let total_time_ns t =
  Array.fold_left (fun acc s -> Float.max acc (Stats.now s)) 0.0 t.core_stats

let read_committed t ~table ~key =
  match find_row t t.scratch ~table ~key with
  | None -> None
  | Some row -> Some (Zen_store.read_value t.store t.scratch ~off:row.rec_off)

let iter_committed t ~table f =
  let visit key row = f key (Zen_store.read_value t.store t.scratch ~off:row.rec_off) in
  match t.indexes.(table) with Hash h -> HIdx.iter h visit | Ord o -> OIdx.iter o visit

let mem_report t =
  let index_bytes =
    Array.fold_left
      (fun acc idx ->
        acc + (match idx with Hash h -> HIdx.dram_bytes h | Ord o -> OIdx.dram_bytes o))
      0 t.indexes
  in
  let cache_bytes =
    Array.fold_left
      (fun acc s ->
        acc
        +
        match s with
        | Some r -> 32 + Bytes.length (Option.value r.cached ~default:Bytes.empty)
        | None -> 8)
      0 t.cache_slots
  in
  {
    Report.nvmm_rows = Zen_store.bumped_slots t.store * t.config.record_size;
    nvmm_values = 0;
    nvmm_log = 0;
    nvmm_freelists = 0;
    dram_index = index_bytes + Zen_store.dram_freelist_bytes t.store;
    dram_transient = 0;
    dram_cache = cache_bytes;
  }

type recovery_report = {
  scan1_ns : float;
  scan2_ns : float;
  total_ns : float;
  live_rows : int;
  scanned_slots : int;
}

let recover ~config ~tables ~pmem () =
  let _, per_core = build_layout config in
  let t = attach config tables pmem per_core in
  let stats = stats_of t 0 in
  let latest : (int * int64, int64 * int) Hashtbl.t = Hashtbl.create 1024 in
  let scanned = ref 0 in
  (* Pass 1: find the latest committed version of each key. Zen scans
     the whole arena — recovery cost scales with capacity. *)
  Zen_store.iter_slots t.store ~f:(fun ~off ->
      incr scanned;
      Pmem.charge_read pmem stats ~off ~len:Zen_store.header_bytes;
      let key, table, version, _len = Zen_store.peek t.store ~off in
      if version > 0L then
        match Hashtbl.find_opt latest (table, key) with
        | Some (v, _) when v >= version -> ()
        | Some _ | None -> Hashtbl.replace latest (table, key) (version, off));
  let t1 = Stats.now stats in
  (* Pass 2: rebuild the index and free everything else. *)
  let core = ref 0 in
  Zen_store.iter_slots t.store ~f:(fun ~off ->
      Pmem.charge_read pmem stats ~off ~len:Zen_store.header_bytes;
      let key, table, version, _len = Zen_store.peek t.store ~off in
      let live =
        version > 0L
        && match Hashtbl.find_opt latest (table, key) with
           | Some (_, o) -> o = off
           | None -> false
      in
      if live then
        index_insert t stats ~table ~key { key; table; rec_off = off; cached = None; cache_slot = -1 }
      else begin
        Zen_store.free t.store ~core:(!core mod config.cores) off;
        incr core
      end);
  (* Everything was claimed from the arenas: mark them fully bumped so
     fresh allocations come from the rebuilt free lists. *)
  Zen_store.set_fully_bumped t.store;
  let t2 = Stats.now stats in
  t.version <-
    Hashtbl.fold (fun _ (v, _) acc -> if v > acc then v else acc) latest 0L;
  barrier t;
  ( t,
    {
      scan1_ns = t1;
      scan2_ns = t2 -. t1;
      total_ns = t2;
      live_rows = Hashtbl.length latest;
      scanned_slots = !scanned;
    } )

(* ------------------------------------------------------------------ *)
(* Engine instance                                                     *)

module Engine :
  Nvcaracal.Engine_intf.S with type t = t and type config = config = struct
  type nonrec t = t
  type nonrec config = config

  let name = "zen"
  let defers = false
  let create = create
  let bulk_load = bulk_load

  (* Zen commits every transaction as it executes: no epoch report, no
     deferrals. *)
  let run_batch t txns =
    exec_batch t txns;
    (None, [||])

  let read_committed = read_committed
  let iter_committed = iter_committed
  let last_batch_outcomes = last_batch_outcomes
  let committed_txns = committed_txns
  let aborted_txns = aborted_txns
  let total_time_ns = total_time_ns

  let state_digest t =
    Nvcaracal.Engine_intf.digest_committed ~tables:(Array.to_list t.tables)
      ~iter:(fun ~table f -> iter_committed t ~table f)

  let mem_report = mem_report
  let counters_total = counters_total
  let set_observability = set_observability
  let pmem = pmem
  let crash = crash

  (* Zen recovers from the record arenas alone; the input-log [rebuild]
     closure has nothing to deserialize. *)
  let recover ~config ~tables ~pmem ~rebuild:_ () =
    fst (recover ~config ~tables ~pmem ())
end
