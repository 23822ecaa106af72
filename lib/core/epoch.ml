(* Epoch state and the shared substrate of the phase pipeline: the
   engine record, construction/attachment, observability plumbing,
   version-store access paths, bulk load and inspection. The phase
   *drivers* live in {!Cc_serial} and {!Cc_aria}; GC in {!Gc}; crash
   recovery in {!Recovery}; {!Db} re-exports the public surface. *)

module Pmem = Nv_nvmm.Pmem
module Stats = Nv_nvmm.Stats
module Memspec = Nv_nvmm.Memspec
module Layout = Nv_nvmm.Layout
module TP = Nv_storage.Transient_pool
module Prow = Nv_storage.Prow
module Vptr = Nv_storage.Vptr
module Slab = Nv_storage.Slab_pool
module PIdx = Nv_storage.Pindex
module Log = Nv_storage.Log_region
module Meta = Nv_storage.Meta_region
module HIdx = Nv_index.Hash_index
module OIdx = Nv_index.Ordered_index
module BIdx = Nv_index.Btree_index
module VA = Version_array
module Tracer = Nv_obs.Tracer
module Metrics = Nv_obs.Metrics
module Profile = Nv_obs.Profile

type index = Hash of Row.t HIdx.t | Ord of Row.t OIdx.t | Bt of Row.t BIdx.t

type phase =
  | Log_done
  | Insert_done
  | Gc_pass1_done
  | Gc_done
  | Append_done
  | Exec_txn of int
  | Exec_done
  | Checkpointed

(* Recovery milestones, mirroring [phase] for the epoch pipeline: a
   [recovery_hook] is called at each one, and may raise to simulate a
   crash in the middle of recovery (every recovery-time write is
   idempotent, so recovering again from the resulting image must
   converge to the same state). *)
type recovery_phase =
  | Rec_meta_recovered  (* allocator and counter state rebuilt *)
  | Rec_log_loaded  (* input log read back and verified *)
  | Rec_scan_done  (* index rebuilt; repairs and reverts persisted *)
  | Rec_replay_done  (* crashed epoch re-executed (or dropped) *)

(* The effect journal: side effects of the execute phase that wait for
   its end, because running them in place would change what later
   transactions of the same epoch observe. Records are appended in
   serial order and applied in that order when the phase ends (see the
   [Effects] module at the bottom of this file). A record is a row of
   columns: its kind (one of the [k_] codes) and the fields that kind
   uses; the columns outlive the epoch and are overwritten, not
   reallocated, so recording allocates nothing.
   - k_fill (st, row, vref): epoch-final cache fill from the transient
     pool; admission runs against the cache state at apply time (a
     refused fill copies nothing) and charges [st], the writing core's
     meter;
   - k_read (st, row, data): cache fill with a committed read's result
     (which the reader holds too), charged likewise;
   - k_delete (core, row): the whole persistent delete: value slots stay
     readable and the index unchanged until the phase ends, and freelist
     rings are written after every transaction has run. *)
type journal = {
  mutable on : bool; (* installed: inside the execute phase *)
  mutable len : int;
  mutable kinds : int array;
  mutable args : int array; (* vref (k_fill) or core (k_delete) *)
  mutable rows : Row.t array;
  mutable sts : Stats.t array;
  mutable datas : bytes array; (* k_read *)
}

let k_fill = 0
let k_read = 1
let k_delete = 2

(* The serial CC's write-set registry: one entry per (transaction, row)
   declaration, built by the initialization phase and consumed by the
   execution phase. Entries are columns reused across epochs; each
   transaction's entries form a chain from [heads.(i)] through [next],
   newest first. *)
type wset = {
  mutable heads : int array;
  mutable ops : int array; (* ws_insert | ws_update | ws_delete *)
  mutable wrows : Row.t array;
  mutable next : int array;
  mutable wlen : int;
}

let ws_insert = 0
let ws_update = 1
let ws_delete = 2

type t = {
  config : Config.t;
  tables : Table.t array;
  pmem : Pmem.t;
  core_stats : Stats.t array;
  scratch : Stats.t; (* uncharged inspection accesses *)
  row_pool : Slab.t;
  value_pool : Slab.t;
  pindex : PIdx.t option;
  pix_delta : (int * int64, [ `Ins of int | `Del ]) Hashtbl.t;
      (* net index changes of the current epoch, batched to NVMM at
         epoch end when the persistent index is enabled *)
  log : Log.t;
  meta : Meta.t;
  indexes : index array;
  tpool : TP.t;
  cache : Cache.t;
  counters : int64 array;
  mutable epoch : int; (* epoch currently being processed (= last committed between epochs) *)
  mutable gc_rows : Row.t array;
      (* rows whose stale v1 awaits the major collector: the first
         [n_gc], in push order; reused across epochs *)
  mutable n_gc : int;
  mutable gc_ptrs : int array; (* the collector's scratch *)
  mutable gc_dedup : (int64, unit) Hashtbl.t;
  vstore : VA.store; (* every version array of the current epoch *)
  ws : wset;
  mutable touched : Row.t array;
      (* rows holding a version array (or written, under Aria) this
         epoch: the first [n_touched] entries, reset at epoch end *)
  mutable n_touched : int;
  mutable retain_gc_dedup : bool;
      (* lazy (persistent-index) recovery: stale versions are collected
         on first touch, possibly many epochs later, so the crashed
         epoch's durable-GC dedup set must outlive the replay *)
  mutable loaded : bool;
  ej : journal; (* the execute phase's effect journal *)
  (* Cumulative measurements. *)
  mutable committed : int;
  mutable total_aborted : int;
  mutable log_high_water : int;
  (* Per-epoch measurements (reset each epoch). *)
  mutable m_aborted : int;
  mutable m_version_writes : int;
  mutable m_persistent_writes : int;
  mutable m_minor_gc : int;
  mutable m_major_gc : int;
  mutable m_evicted : int;
  mutable m_cache_hits0 : int;
  mutable m_cache_misses0 : int;
  mutable last_outcomes : [ `Committed | `Aborted | `Deferred ] array;
      (* per-txn outcome of the last batch, set at its checkpoint *)
  mutable phase_hook : (phase -> unit) option;
  (* Observability (no-op sinks unless installed). *)
  mutable tracer : Tracer.t;
  mutable metrics : Metrics.t;
  mutable profile : Profile.t;
  mutable m_access0 : Stats.counters; (* access-counter totals at epoch start *)
}

let config t = t.config
let tables t = t.tables
let pmem t = t.pmem

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)

let build_layout (cfg : Config.t) =
  let b = Layout.builder () in
  let meta_r = Meta.reserve b ~n_counters:cfg.n_counters in
  let log_r = Log.reserve b ~capacity_bytes:cfg.log_capacity in
  let row_spec =
    Slab.reserve b ~name:"rows" ~cores:cfg.cores ~slots_per_core:cfg.rows_per_core
      ~slot_size:cfg.row_size ~freelist_capacity:cfg.freelist_capacity
  in
  let value_spec =
    Slab.reserve b
      ~name:(Printf.sprintf "values%d" cfg.value_slot_size)
      ~cores:cfg.cores ~slots_per_core:cfg.values_per_core ~slot_size:cfg.value_slot_size
      ~freelist_capacity:cfg.freelist_capacity
  in
  let pindex_r =
    if cfg.persistent_index then begin
      let capacity =
        if cfg.pindex_capacity > 0 then cfg.pindex_capacity
        else 2 * cfg.cores * cfg.rows_per_core
      in
      Some (PIdx.reserve b ~capacity)
    end
    else None
  in
  (Layout.total_size b, meta_r, log_r, row_spec, value_spec, pindex_r)

let attach (cfg : Config.t) tables pmem =
  let tables = Array.of_list tables in
  Array.iteri (fun i (tb : Table.t) -> assert (tb.Table.id = i)) tables;
  let _, meta_r, log_r, row_spec, value_spec, pindex_r = build_layout cfg in
  {
    config = cfg;
    tables;
    pmem;
    core_stats = Array.init cfg.cores (fun _ -> Stats.create cfg.spec);
    scratch = Stats.create cfg.spec;
    row_pool = Slab.attach pmem row_spec;
    value_pool = Slab.attach pmem value_spec;
    pindex = Option.map (PIdx.attach pmem) pindex_r;
    pix_delta = Hashtbl.create 256;
    log = Log.attach pmem log_r;
    meta = Meta.attach pmem meta_r ~n_counters:cfg.n_counters;
    indexes =
      Array.map
        (fun (tb : Table.t) ->
          match (tb.Table.index, cfg.Config.ordered_index) with
          | Table.Hash, _ -> Hash (HIdx.create ())
          | Table.Ordered, Config.Avl -> Ord (OIdx.create ())
          | Table.Ordered, Config.Btree -> Bt (BIdx.create ()))
        tables;
    tpool = TP.create ~initial_capacity:(1 lsl 16);
    cache = Cache.create ~max_entries:cfg.cache_entries_max;
    counters = Array.make cfg.n_counters 0L;
    epoch = 0;
    gc_rows = [||];
    n_gc = 0;
    gc_ptrs = [||];
    gc_dedup = Hashtbl.create 16;
    vstore =
      VA.create_store
        ~nvmm_resident:(not (Config.uses_dram_version_arrays cfg))
        ~batch_append:cfg.Config.batch_append ();
    ws = { heads = [||]; ops = [||]; wrows = [||]; next = [||]; wlen = 0 };
    touched = [||];
    n_touched = 0;
    retain_gc_dedup = false;
    loaded = false;
    ej =
      {
        on = false;
        len = 0;
        kinds = [||];
        args = [||];
        rows = [||];
        sts = [||];
        datas = [||];
      };
    committed = 0;
    total_aborted = 0;
    log_high_water = 0;
    m_aborted = 0;
    m_version_writes = 0;
    m_persistent_writes = 0;
    m_minor_gc = 0;
    m_major_gc = 0;
    m_evicted = 0;
    m_cache_hits0 = 0;
    m_cache_misses0 = 0;
    last_outcomes = [||];
    phase_hook = None;
    tracer = Tracer.null;
    metrics = Metrics.null;
    profile = Profile.null;
    m_access0 = Stats.zero_counters;
  }

let create ~config ~tables () =
  let size, _, _, _, _, _ = build_layout config in
  attach config tables (Pmem.create ~size ())

let epoch t = t.epoch

let set_phase_hook t hook = t.phase_hook <- Some hook

(* ------------------------------------------------------------------ *)
(* Effect recording (the journal's write side; the apply side lives in
   [Effects] below, once the finalizer helpers it replays exist)        *)

(* Placeholders for the journal columns a record's kind leaves unused. *)
let no_row = Row.make ~key:0L ~table:(-1) ~home_core:0 ~prow_base:0 ~created_epoch:0
let no_stats = Stats.create Memspec.default

let grow_journal j =
  let n = max 64 (2 * Array.length j.kinds) in
  let extend a fill =
    let b = Array.make n fill in
    Array.blit a 0 b 0 j.len;
    b
  in
  j.kinds <- extend j.kinds 0;
  j.args <- extend j.args 0;
  j.rows <- extend j.rows no_row;
  j.sts <- extend j.sts no_stats;
  j.datas <- extend j.datas Bytes.empty

(* Record one effect. Returns false, and records nothing, outside the
   execute phase (inspection reads, bulk load, recovery scaffolding,
   Aria's reserve-and-apply step); the caller then applies the effect
   immediately. *)
let record t ~kind ~arg ~row ~st ~data =
  let j = t.ej in
  j.on
  &&
  let i = j.len in
  if i = Array.length j.kinds then grow_journal j;
  j.kinds.(i) <- kind;
  j.args.(i) <- arg;
  j.rows.(i) <- row;
  j.sts.(i) <- st;
  j.datas.(i) <- data;
  j.len <- i + 1;
  true

let record_delete t ~core row =
  record t ~kind:k_delete ~arg:core ~row ~st:no_stats ~data:Bytes.empty

let hook t phase =
  (* The chaos harness's in-epoch kill-9 point: between transactions of
     a running batch, where the most execution state is in flight. *)
  (match phase with Exec_txn _ -> Nv_util.Crashpoint.hit "mid-epoch" | _ -> ());
  match t.phase_hook with None -> () | Some h -> h phase

(* Fill the committed-value cache: journaled during execution (fills
   are applied in serial order when the phase ends, so admission sees
   the cache state of that moment and the DRAM cost lands on the
   recording core's meter), immediate otherwise. [cache_fill_final]
   carries the finalized value's transient-pool reference and copies it
   only if the cache admits the row; [cache_fill_read] caches a
   committed read's result, which the reader keeps too. *)
let apply_fill t stats (row : Row.t) vref =
  Cache.fill t.cache stats row ~src:(TP.src t.tpool vref) ~src_off:(TP.off vref)
    ~len:(TP.len vref) ~epoch:t.epoch

let cache_fill_final t stats (row : Row.t) vref =
  if not (record t ~kind:k_fill ~arg:vref ~row ~st:stats ~data:Bytes.empty) then
    apply_fill t stats row vref

let cache_fill_read t stats (row : Row.t) ~data =
  if not (record t ~kind:k_read ~arg:0 ~row ~st:stats ~data) then
    Cache.insert t.cache stats row ~data ~epoch:t.epoch

(* ------------------------------------------------------------------ *)
(* Observability                                                       *)

let counters_total t =
  Array.fold_left
    (fun acc s -> Stats.merge_counters acc (Stats.counters s))
    Stats.zero_counters t.core_stats

let set_observability ?tracer ?metrics ?profile ?name t =
  (match tracer with
  | Some tr ->
      t.tracer <- tr;
      Tracer.set_clock tr (fun core ->
          Stats.now t.core_stats.(core mod Array.length t.core_stats));
      Tracer.open_process tr ~name:(Option.value name ~default:"nvcaracal")
  | None -> ());
  (match profile with Some p -> t.profile <- p | None -> ());
  match metrics with
  | Some m ->
      t.metrics <- m;
      if Metrics.enabled m then t.m_access0 <- counters_total t
  | None -> ()

(* Record one epoch-phase span per core: each begins at the core's
   clock when the phase starts (cores are aligned by the preceding
   barrier) and ends at that core's clock when the phase's work is done
   — so per-core skew inside a phase is visible in the trace. If [f]
   raises (crash injection), no span is recorded. *)
let phase_span t name f =
  let tr = t.tracer in
  let traced () =
    if not (Tracer.enabled tr) then f ()
    else begin
      let begins = Array.map Stats.now t.core_stats in
      let wts = Tracer.wall_now tr in
      let r = f () in
      let wdur = Tracer.wall_now tr -. wts in
      (* The cores are simulated on one domain, so every core's span
         carries the same wall window; skew between cores is a
         simulated-time notion. *)
      Array.iteri
        (fun core s ->
          Tracer.complete tr ~core ~name ~cat:"epoch" ~wts ~wdur ~ts:begins.(core)
            ~dur:(Stats.now s -. begins.(core)) ())
        t.core_stats;
      r
    end
  in
  Profile.phase t.profile name traced

let value_bytes t = Slab.allocated_slots t.value_pool * t.config.Config.value_slot_size

(* Per-epoch metrics snapshot: engine counters come straight from the
   epoch report (so JSONL records reconcile exactly with what the
   harness prints); access counters are the per-epoch delta of the
   merged per-core {!Stats}; allocator/cache levels are gauges. *)
let publish_epoch_metrics t (r : Report.epoch_stats) =
  let m = t.metrics in
  if Metrics.enabled m then begin
    let c name v = Metrics.set_counter (Metrics.counter m name) v in
    let g name v = Metrics.set_gauge (Metrics.gauge m name) v in
    c "txns" r.Report.txns;
    c "committed" (r.Report.txns - r.Report.aborted);
    c "aborted" r.Report.aborted;
    c "version_writes" r.Report.version_writes;
    c "persistent_writes" r.Report.persistent_writes;
    c "transient_only_writes" r.Report.transient_only_writes;
    c "minor_gc" r.Report.minor_gc;
    c "major_gc" r.Report.major_gc;
    c "evicted" r.Report.evicted;
    c "cache_hits" r.Report.cache_hits;
    c "cache_misses" r.Report.cache_misses;
    c "log_bytes" r.Report.log_bytes;
    g "duration_ns" r.Report.duration_ns;
    let tot = counters_total t in
    let d = t.m_access0 in
    c "dram_reads" (tot.Stats.dram_reads - d.Stats.dram_reads);
    c "dram_writes" (tot.Stats.dram_writes - d.Stats.dram_writes);
    c "nvmm_block_reads" (tot.Stats.nvmm_block_reads - d.Stats.nvmm_block_reads);
    c "nvmm_block_writes" (tot.Stats.nvmm_block_writes - d.Stats.nvmm_block_writes);
    c "nvmm_seq_bytes" (tot.Stats.nvmm_seq_bytes - d.Stats.nvmm_seq_bytes);
    c "pmem_flushes" (tot.Stats.flushes - d.Stats.flushes);
    c "pmem_fences" (tot.Stats.fences - d.Stats.fences);
    c "compute_ops" (tot.Stats.compute_ops - d.Stats.compute_ops);
    t.m_access0 <- tot;
    g "rows_allocated" (float_of_int (Slab.allocated_slots t.row_pool));
    g "value_bytes_allocated" (float_of_int (value_bytes t));
    g "transient_peak_bytes" (float_of_int (TP.peak_bytes t.tpool));
    g "cache_entries" (float_of_int (Cache.entries t.cache));
    g "cache_bytes" (float_of_int (Cache.data_bytes t.cache));
    g "log_high_water_bytes" (float_of_int t.log_high_water);
    (* Fault gauges only exist once faults have been injected, so
       fault-free runs emit byte-identical metric records. *)
    if Pmem.faults_injected t.pmem then begin
      let fr = Pmem.faults t.pmem in
      c "media_fault_reads" (counters_total t).Stats.media_faults;
      g "faults_torn_lines" (float_of_int fr.Pmem.torn_lines);
      g "faults_rotted_lines" (float_of_int fr.Pmem.rotted_lines);
      g "faults_flipped_bits" (float_of_int fr.Pmem.flipped_bits);
      g "faults_dead_lines" (float_of_int fr.Pmem.dead_lines)
    end;
    ignore (Metrics.snapshot m ~epoch:t.epoch)
  end

(* ------------------------------------------------------------------ *)
(* Small helpers                                                       *)

let core_of t seq = seq mod t.config.Config.cores
let stats_of t core = t.core_stats.(core)

let barrier t =
  let m = Array.fold_left (fun acc s -> Float.max acc (Stats.now s)) 0.0 t.core_stats in
  Array.iter (fun s -> Stats.set_now s m) t.core_stats;
  m

let find_row t stats ~table ~key =
  match t.indexes.(table) with
  | Hash h -> HIdx.find h stats key
  | Ord o -> OIdx.find o stats key
  | Bt b -> BIdx.find b stats key

let index_insert t stats ~table ~key row =
  match t.indexes.(table) with
  | Hash h -> HIdx.insert h stats key row
  | Ord o -> OIdx.insert o stats key row
  | Bt b -> BIdx.insert b stats key row

let index_remove t stats ~table ~key =
  match t.indexes.(table) with
  | Hash h -> HIdx.remove h stats key
  | Ord o -> OIdx.remove o stats key
  | Bt b -> BIdx.remove b stats key

(* Ordered-table operations, uniform over the AVL and B+-tree
   implementations. A hash-indexed table refuses them; [who] names the
   caller in the message. *)
let no_range who = invalid_arg (who ^ ": range operation on a hash-indexed table")

let ordered_fold t stats ~who table ~lo ~hi ~init ~f =
  match t.indexes.(table) with
  | Ord o -> OIdx.fold_range o stats ~lo ~hi ~init ~f
  | Bt b -> BIdx.fold_range b stats ~lo ~hi ~init ~f
  | Hash _ -> no_range who

let ordered_max_below t stats ~who table bound =
  match t.indexes.(table) with
  | Ord o -> OIdx.max_below o stats bound
  | Bt b -> BIdx.max_below b stats bound
  | Hash _ -> no_range who

let is_pool = Vptr.is_pool
let is_inline = Vptr.is_inline

(* Charge one [len]-byte version value just placed in the transient
   pool, per the design variant: DRAM for NVCaracal/all-DRAM, NVMM for
   designs that persist every update. The initial-version copy counts as
   a DRAM cache fill for the hybrid design (its cache works like Zen's). *)
let charge_version_value t stats ~initial ~len =
  let spec = Stats.spec stats in
  if
    Config.writes_all_updates_to_nvmm t.config
    && not (initial && t.config.Config.variant = Config.Hybrid)
  then
    (* Every update is individually made durable (these designs recover
       from the updates themselves): a flush per update costs a full
       NVMM block write — Optane's 256-byte internal write — even for
       small values. *)
    Stats.nvmm_write_blocks stats (Memspec.blocks_touched spec ~off:0 ~len)
  else Stats.dram_write_lines stats (Memspec.lines_touched spec ~off:0 ~len);
  if Config.redo_logs_updates t.config then
    (* Traditional WAL (section 2.1): every committed update is
       redo-logged to NVMM before it is checkpointed in place. *)
    Stats.nvmm_seq_write stats ~bytes:(24 + len)

(* Store one version value into the transient pool and charge it. *)
let store_version_value t stats data =
  let vref = TP.write t.tpool stats ~charge:false data in
  charge_version_value t stats ~initial:false ~len:(Bytes.length data);
  t.m_version_writes <- t.m_version_writes + 1;
  vref

(* Charge one read of a version value from the transient pool, per the
   design variant (the counterpart of [charge_version_value]). *)
let charge_version_read t stats ~initial vref =
  if
    Config.writes_all_updates_to_nvmm t.config
    && not (initial && t.config.Config.variant = Config.Hybrid)
  then Stats.nvmm_read_lines stats (Memspec.lines_touched (Stats.spec stats) ~off:0 ~len:(TP.len vref))
  else TP.charge_read stats vref

(* A charged copy of a version value, for a transaction's read. *)
let load_version_value t stats ~initial vref =
  charge_version_read t stats ~initial vref;
  TP.read t.tpool stats ~charge:false vref

(* The latest persistent version visible at checkpoint granularity:
   v2 unless it is empty or newer than [max_epoch] — during epoch
   execution the bound is the previous epoch (a replayed epoch must not
   read its own pre-crash writes); between epochs it is the committed
   epoch itself. *)
let checkpoint_pversion ?max_epoch t (row : Row.t) =
  let limit = match max_epoch with Some e -> e | None -> t.epoch - 1 in
  let usable (v : Row.pversion) =
    (not (Sid.is_none v.Row.psid)) && Sid.epoch_of v.Row.psid <= limit
  in
  if usable row.Row.pv2 then Some row.Row.pv2
  else if usable row.Row.pv1 then Some row.Row.pv1
  else None

(* Lazily load the DRAM mirror of a row recovered via the persistent
   index, completing any torn version update found in the header (the
   same section 4.5 repairs the recovery scan performs eagerly). *)
let ensure_mirror t stats (row : Row.t) =
  if not row.Row.mirror_loaded then begin
    let _key, _table, v1, v2 = Prow.read_header t.pmem stats ~base:row.Row.prow_base in
    let base = row.Row.prow_base in
    (* Torn case 1: equal SIDs = an interrupted GC move; complete it.
       (Header words are judged as stored, before decoding.) *)
    let v1, v2 =
      if v1.Prow.sid <> 0L && Int64.equal v1.Prow.sid v2.Prow.sid then begin
        Prow.repair_case1 t.pmem stats ~base ();
        let v1, v2 = Prow.peek_versions t.pmem ~base in
        (v1, v2)
      end
      else (v1, v2)
    in
    (* Torn case 2: SID nulled but not the pointer. *)
    let v2 =
      if v2.Prow.sid = 0L && v2.Prow.ptr <> 0L then begin
        Prow.repair_case2 t.pmem stats ~base ();
        { Prow.sid = 0L; ptr = 0L }
      end
      else v2
    in
    Row.set_version row.Row.pv1 ~sid:(Int64.to_int v1.Prow.sid) ~ptr:(Vptr.of_word v1.Prow.ptr)
      ~fresh:false;
    Row.set_version row.Row.pv2 ~sid:(Int64.to_int v2.Prow.sid) ~ptr:(Vptr.of_word v2.Prow.ptr)
      ~fresh:false;
    row.Row.mirror_loaded <- true
  end

(* Read a row's committed value from the DRAM cache or from NVMM,
   optionally filling the cache on a miss. *)
let committed_read ?max_epoch t stats (row : Row.t) ~fill_cache =
  ensure_mirror t stats row;
  let caching = Config.caching_enabled t.config in
  match row.Row.cached with
  | Some c when caching ->
      Cache.touch t.cache row ~epoch:t.epoch;
      (* The caller gets the cached buffer itself, so the cache must
         never write into it again. *)
      if not c.Row.shared then c.Row.shared <- true;
      Stats.dram_read_lines stats
        (Memspec.lines_touched (Stats.spec stats) ~off:0 ~len:(Bytes.length c.Row.data));
      Some c.Row.data
  | _ -> (
      match checkpoint_pversion ?max_epoch t row with
      | None -> None
      | Some pv ->
          if caching then Cache.note_miss t.cache;
          Stats.nvmm_read_blocks stats 1;
          let data =
            Prow.read_value t.pmem stats ~base:row.Row.prow_base pv.Row.pptr
              ~header_charged:true ()
          in
          (* Selective caching (section 7 future work): cold reads do
             not populate the cache; only written rows do. *)
          if caching && fill_cache && not t.config.Config.selective_caching then
            cache_fill_read t stats row ~data;
          Some data)

(* ------------------------------------------------------------------ *)
(* Version arrays                                                      *)

(* Whether the row holds a version array this epoch. *)
let has_varray t (row : Row.t) = row.Row.varray_epoch = t.epoch

(* Empty the registry for a batch of [n] transactions. *)
let ws_reset t n =
  let ws = t.ws in
  if Array.length ws.heads < n then ws.heads <- Array.make n (-1)
  else Array.fill ws.heads 0 n (-1);
  Array.fill ws.wrows 0 ws.wlen no_row;
  ws.wlen <- 0

let ws_add t i ~op (row : Row.t) =
  let ws = t.ws in
  let e = ws.wlen in
  if e = Array.length ws.ops then begin
    let size = max 256 (2 * e) in
    let extend a fill =
      let b = Array.make size fill in
      Array.blit a 0 b 0 e;
      b
    in
    ws.ops <- extend ws.ops 0;
    ws.next <- extend ws.next 0;
    ws.wrows <- extend ws.wrows no_row
  end;
  ws.ops.(e) <- op;
  ws.wrows.(e) <- row;
  ws.next.(e) <- ws.heads.(i);
  ws.heads.(i) <- e;
  ws.wlen <- e + 1

let push_gc t (row : Row.t) =
  if t.n_gc = Array.length t.gc_rows then begin
    let grown = Array.make (max 256 (2 * t.n_gc)) no_row in
    Array.blit t.gc_rows 0 grown 0 t.n_gc;
    t.gc_rows <- grown
  end;
  t.gc_rows.(t.n_gc) <- row;
  t.n_gc <- t.n_gc + 1

let touch_row t (row : Row.t) =
  if t.n_touched = Array.length t.touched then begin
    let grown = Array.make (max 256 (2 * t.n_touched)) no_row in
    Array.blit t.touched 0 grown 0 t.n_touched;
    t.touched <- grown
  end;
  t.touched.(t.n_touched) <- row;
  t.n_touched <- t.n_touched + 1

(* Per-epoch row state is discarded at epoch end: version-array handles
   go stale with the store's reset, pool slots stop being fresh, and a
   cache cell the append step set aside and no fill reclaimed (the cache
   was full when the row's fill came) goes to the cache's free cells,
   for the next fill of an uncached row. *)
let release_touched t =
  for i = 0 to t.n_touched - 1 do
    let row = t.touched.(i) in
    row.Row.varray_epoch <- 0;
    row.Row.pv1.Row.fresh <- false;
    row.Row.pv2.Row.fresh <- false;
    if row.Row.spare <> None then begin
      Cache.keep_free_cell t.cache row.Row.spare;
      row.Row.spare <- None
    end;
    t.touched.(i) <- no_row
  done;
  t.n_touched <- 0;
  VA.reset t.vstore

let ensure_varray t stats (row : Row.t) =
  if not (has_varray t row) then begin
    let va = VA.create t.vstore in
    row.Row.varray <- va;
    row.Row.varray_epoch <- t.epoch;
    touch_row t row;
    ensure_mirror t stats row;
    (* Copy the committed value in as the initial version; the cached
       version, if any, is consumed (paper section 4.1). A value in
       NVMM is read straight into the transient pool; its charge waits
       until the slot exists, as for a cached one. *)
    let init =
      match row.Row.cached with
      | Some c when Config.caching_enabled t.config ->
          let data = c.Row.data in
          Stats.dram_read_lines stats
            (Memspec.lines_touched (Stats.spec stats) ~off:0 ~len:(Bytes.length data));
          Cache.drop t.cache stats row;
          TP.write t.tpool stats ~charge:false data
      | _ -> (
          match checkpoint_pversion t row with
          | None -> -1
          | Some pv ->
              Stats.nvmm_read_blocks stats 1;
              let ptr = pv.Row.pptr in
              TP.write_from t.tpool stats ~charge:false ~len:(Vptr.len ptr)
                (fun dst dst_off ->
                  Prow.read_value_into t.pmem stats ~base:row.Row.prow_base ptr
                    ~header_charged:true ~dst ~dst_off ()))
    in
    if init >= 0 then begin
      VA.append t.vstore va stats Sid.none;
      let slot = VA.find t.vstore va stats Sid.none in
      (* The copy is bookkeeping, not an update: no version write. *)
      charge_version_value t stats ~initial:true ~len:(TP.len init);
      VA.resolve t.vstore slot ~value:init stats
    end
  end;
  row.Row.varray

(* ------------------------------------------------------------------ *)
(* Final persistent write (sections 4.4–4.6, 5.3)                      *)

let free_pool_value ?(guard_dedup = false) t stats ~core ptr =
  if Vptr.is_pool ptr then begin
    let off = Vptr.pool_off ptr in
    (* A lazily-recovered row may still reference a value the crashed
       epoch's GC already freed durably (its pass 2 never cleared the
       version slot): freeing it again would hand the slot out twice. *)
    if not (guard_dedup && Hashtbl.mem t.gc_dedup (Int64.of_int off)) then
      Slab.free t.value_pool stats ~core off
  end

(* A value too large to sit inline in its row goes to the value pool,
   which has one slot size: a larger value is refused with [Failure]
   before anything is allocated or written for it. *)
let check_value_fits t len =
  let slot = t.config.Config.value_slot_size in
  if len > slot && len > Prow.half_capacity ~row_size:t.config.Config.row_size then
    failwith (Printf.sprintf "Db: value of %d bytes exceeds the %d-byte value slot" len slot)

(* Write (sid, value) as the row's new recent version, rotating the
   dual-version slots as required and preserving the previous epoch's
   checkpointed version. The value is [src.[src_off .. src_off+len-1]]
   — a transient-pool chunk for the serial CC, so the bytes go from the
   arena straight into NVMM — and its checksum is taken from that same
   source range rather than read back from the region. *)
let do_prow_final_write t stats ~core (row : Row.t) ~sid ~src ~src_off ~len =
  check_value_fits t len;
  ensure_mirror t stats row;
  let cfg = t.config in
  let charge = not (Config.writes_all_updates_to_nvmm cfg) in
  (* The optional-argument form of [charge], built without allocating. *)
  let charge_opt = if charge then None else Some false in
  let base = row.Row.prow_base in
  if Sid.epoch_of row.Row.pv2.Row.psid = t.epoch then begin
    (* Overwrite: the slot was written this epoch (insert-step data
       followed by an update, or a pre-crash write found during replay).
       A value slot we allocated ourselves is freed (revertible free); a
       slot inherited from the crashed epoch was already reverted by the
       pool recovery and must not be freed. *)
    if row.Row.pv2.Row.fresh then free_pool_value t stats ~core row.Row.pv2.Row.pptr
  end
  else if not (Sid.is_none row.Row.pv2.Row.psid) then begin
    (* Rotate v2 (the previous checkpoint) into v1 before overwriting.
       A stale v1 can only be inline here: stale pool values are always
       collected by the major collector during initialization. *)
    let v1 = row.Row.pv1 in
    if not (Sid.is_none v1.Row.psid) then begin
      if is_inline v1.Row.pptr && cfg.Config.minor_gc then
        t.m_minor_gc <- t.m_minor_gc + 1
      else if row.Row.lazily_recovered then begin
        (* Lazy (persistent-index) recovery skips the scan that rebuilds
           the major-GC list, so a stale version is collected here, on
           first touch. The dedup set guards against re-freeing a value
           the crashed epoch's GC already made durable. *)
        free_pool_value ~guard_dedup:true t stats ~core v1.Row.pptr;
        t.m_major_gc <- t.m_major_gc + 1
      end
      else if not (is_inline v1.Row.pptr) then
        failwith "Db: stale non-inline v1 at write time (major GC missed a row)"
      else failwith "Db: stale v1 at write time with minor GC disabled"
    end;
    Prow.gc_move t.pmem stats ~base ~charge:false ();
    Row.rotate row
  end;
  let inline = len <= Prow.half_capacity ~row_size:cfg.Config.row_size in
  let ptr =
    if inline then begin
      let half = Row.free_half ~row_size:cfg.Config.row_size row.Row.pv1 in
      Prow.write_inline_value_from t.pmem stats ~base ~row_size:cfg.Config.row_size ~half ~src
        ~src_off ~len ?charge:charge_opt ()
    end
    else begin
      let off = Slab.alloc t.value_pool stats ~core in
      Slab.write_value_from t.value_pool stats ?charge:charge_opt ~off ~src ~src_off ~len ();
      Vptr.pool ~off ~len
    end
  in
  let vcrc = Nv_util.Crc32c.bytes_native src src_off len in
  Prow.write_version t.pmem stats ~base ~slot:`V2 ~sid ~ptr ~vcrc ?charge:charge_opt ();
  Row.set_version row.Row.pv2 ~sid ~ptr ~fresh:(not inline);
  t.m_persistent_writes <- t.m_persistent_writes + 1;
  (* Track the now-stale v1 for the major collector; inline stale
     versions are left for the minor collector instead. *)
  if
    (not (Sid.is_none row.Row.pv1.Row.psid))
    && (not row.Row.in_gc_list)
    && (is_pool row.Row.pv1.Row.pptr || not cfg.Config.minor_gc)
  then begin
    push_gc t row;
    row.Row.in_gc_list <- true
  end

(* Persistently delete a row: free its value slots and the row itself
   (all revertible transaction frees), and unhook the DRAM state. *)
let do_prow_delete t stats ~core (row : Row.t) =
  ensure_mirror t stats row;
  let guard_dedup = row.Row.lazily_recovered in
  free_pool_value ~guard_dedup t stats ~core row.Row.pv1.Row.pptr;
  free_pool_value ~guard_dedup t stats ~core row.Row.pv2.Row.pptr;
  Slab.free t.row_pool stats ~core row.Row.prow_base;
  index_remove t stats ~table:row.Row.table ~key:row.Row.key;
  if t.pindex <> None then begin
    (* Net delta: an insert and delete of the same key in one epoch
       cancel out; a delete of a pre-existing key becomes a tombstone. *)
    let k = (row.Row.table, row.Row.key) in
    match Hashtbl.find_opt t.pix_delta k with
    | Some (`Ins _) -> Hashtbl.remove t.pix_delta k
    | Some `Del | None -> Hashtbl.replace t.pix_delta k `Del
  end;
  Cache.drop t.cache stats row;
  Row.clear_version row.Row.pv1;
  Row.clear_version row.Row.pv2;
  t.m_persistent_writes <- t.m_persistent_writes + 1

(* Flush the epoch's net index changes to the persistent index in one
   batch (section 7 future work): part of the epoch checkpoint, before
   the epoch number is persisted. *)
let apply_pindex_delta t stats =
  match t.pindex with
  | None -> ()
  | Some pix ->
      if Hashtbl.length t.pix_delta > 0 then begin
        let inserts = ref [] and deletes = ref [] in
        Hashtbl.iter
          (fun (table, key) change ->
            match change with
            | `Ins base -> inserts := (key, base, table) :: !inserts
            | `Del -> deletes := (key, table) :: !deletes)
          t.pix_delta;
        PIdx.apply_batch pix stats ~epoch:t.epoch ~inserts:!inserts ~deletes:!deletes;
        Hashtbl.reset t.pix_delta
      end

(* ------------------------------------------------------------------ *)
(* The effect journal's apply side                                      *)

module Effects = struct
  let begin_exec t =
    assert (not t.ej.on);
    t.ej.len <- 0;
    t.ej.on <- true

  (* Apply every record in serial order, then uninstall. The journal is
     uninstalled first, so an effect recorded from inside an apply (none
     today) falls through to its immediate form. Charges land on the
     meter captured at record time. *)
  let drain t =
    let j = t.ej in
    if j.on then begin
      j.on <- false;
      for i = 0 to j.len - 1 do
        let row = j.rows.(i) and k = j.kinds.(i) in
        if k = k_fill then apply_fill t j.sts.(i) row j.args.(i)
        else if k = k_read then begin
          Cache.insert t.cache j.sts.(i) row ~data:j.datas.(i) ~epoch:t.epoch;
          j.datas.(i) <- Bytes.empty
        end
        else begin
          let core = j.args.(i) in
          do_prow_delete t (stats_of t core) ~core row
        end
      done
    end

  (* Discard without applying: execution died (crash injection). The
     replacement state is rebuilt by recovery's deterministic replay,
     which re-records and re-applies the same effects. *)
  let abort t = t.ej.on <- false
end

(* ------------------------------------------------------------------ *)
(* Shared epoch scaffolding (used by both CC strategies)               *)

let reset_epoch_measurements t =
  t.m_aborted <- 0;
  t.m_version_writes <- 0;
  t.m_persistent_writes <- 0;
  t.m_minor_gc <- 0;
  t.m_major_gc <- 0;
  t.m_evicted <- 0;
  t.m_cache_hits0 <- Cache.hits t.cache;
  t.m_cache_misses0 <- Cache.misses t.cache

(* Open the next epoch: bump the number, reset the per-epoch meters and
   the touched-row list. *)
let begin_epoch t =
  t.epoch <- t.epoch + 1;
  Profile.epoch_begin t.profile ~epoch:t.epoch;
  reset_epoch_measurements t;
  release_touched t

(* Log transaction inputs (section 4.3): length-prefixed records,
   clwb'd, fence, publish the count, fence. Skipped during replay (the
   log being replayed must not be overwritten). *)
let log_inputs t ~replay txns =
  phase_span t "input-log" (fun () ->
      if Config.logging_enabled t.config && not replay then begin
        Log.begin_epoch t.log (stats_of t 0) ~epoch:t.epoch;
        Array.iteri
          (fun i (txn : Txn.t) -> Log.append t.log (stats_of t (core_of t i)) txn.Txn.input)
          txns;
        Log.commit t.log (stats_of t 0);
        t.log_high_water <- max t.log_high_water (Log.bytes_appended t.log)
      end;
      hook t Log_done)

(* The epoch checkpoint's first half: persist each core's allocator
   bump offsets and free-list head/tail into the epoch-parity slots,
   persist counters, apply the persistent-index delta. The caller
   persists the epoch number afterwards. *)
let checkpoint_allocators t =
  let stats0 = stats_of t 0 in
  phase_span t "fence" (fun () ->
      Slab.checkpoint t.row_pool (stats_of t) ~epoch:t.epoch;
      Slab.checkpoint t.value_pool (stats_of t) ~epoch:t.epoch;
      if t.config.Config.n_counters > 0 then
        Meta.checkpoint_counters t.meta stats0 ~epoch:t.epoch (Array.copy t.counters);
      apply_pindex_delta t stats0)

(* Assemble the epoch's report from the per-epoch meters and publish it
   to the metrics sink. [phases] is the CC strategy's barrier-to-barrier
   breakdown. *)
let epoch_report t ~txns:n ~replay ~duration ~phases =
  let cache_hits = Cache.hits t.cache - t.m_cache_hits0 in
  let cache_misses = Cache.misses t.cache - t.m_cache_misses0 in
  let log_bytes =
    if Config.logging_enabled t.config && not replay then Log.bytes_appended t.log else 0
  in
  let report =
    {
      Report.epoch = t.epoch;
      txns = n;
      aborted = t.m_aborted;
      version_writes = t.m_version_writes;
      persistent_writes = t.m_persistent_writes;
      transient_only_writes = t.m_version_writes - t.m_persistent_writes;
      minor_gc = t.m_minor_gc;
      major_gc = t.m_major_gc;
      evicted = t.m_evicted;
      cache_hits;
      cache_misses;
      log_bytes;
      duration_ns = duration;
      phases;
    }
  in
  publish_epoch_metrics t report;
  Profile.epoch_end t.profile;
  report

(* ------------------------------------------------------------------ *)
(* Bulk load                                                           *)

(* Rows are flushed as they load, so a fence after each round of
   [load_round] rows keeps the crash-state log to one round, not the
   whole dataset. Load costs are reset below, fences included. *)
let load_round = 8192

(* Materialize each initial row (slab slot, persistent header, value,
   version) on its home core, then index it. *)
let bulk_load t rows =
  if t.loaded then invalid_arg "Db.bulk_load: already loaded";
  t.epoch <- 1;
  let cfg = t.config in
  let sid = Sid.make ~epoch:1 ~seq:0 in
  Seq.iteri
    (fun idx (table, key, data) ->
      check_value_fits t (Bytes.length data);
      let core = core_of t idx in
      let stats = stats_of t core in
      let base = Slab.alloc t.row_pool stats ~core in
      Prow.init t.pmem stats ~base ~key ~table;
      let row = Row.make ~key ~table ~home_core:core ~prow_base:base ~created_epoch:0 in
      let len = Bytes.length data in
      let ptr =
        if len <= Prow.half_capacity ~row_size:cfg.Config.row_size then
          Prow.write_inline_value t.pmem stats ~base ~row_size:cfg.Config.row_size ~half:0 ~data ()
        else begin
          let off = Slab.alloc t.value_pool stats ~core in
          Slab.write_value t.value_pool stats ~off ~data ();
          Vptr.pool ~off ~len
        end
      in
      Prow.set_version t.pmem stats ~base ~slot:`V2 ~sid ~ptr ();
      Row.set_version row.Row.pv2 ~sid ~ptr ~fresh:false;
      index_insert t stats ~table ~key row;
      if t.pindex <> None then Hashtbl.replace t.pix_delta (table, key) (`Ins base);
      if (idx + 1) mod load_round = 0 then Pmem.fence t.pmem (stats_of t 0))
    rows;
  Pmem.fence t.pmem (stats_of t 0);
  let stats0 = stats_of t 0 in
  Slab.checkpoint t.row_pool (stats_of t) ~epoch:1;
  Slab.checkpoint t.value_pool (stats_of t) ~epoch:1;
  if cfg.Config.n_counters > 0 then
    Meta.checkpoint_counters t.meta stats0 ~epoch:1 (Array.copy t.counters);
  apply_pindex_delta t stats0;
  Meta.persist_magic t.meta stats0;
  Meta.persist_epoch t.meta stats0 ~epoch:1;
  (* Loading is setup, not workload: forget its costs. *)
  Array.iter Stats.reset t.core_stats;
  t.committed <- 0;
  t.total_aborted <- 0;
  t.loaded <- true

(* ------------------------------------------------------------------ *)
(* Inspection                                                          *)

let latest_pversion t (row : Row.t) =
  ensure_mirror t t.scratch row;
  if not (Sid.is_none row.Row.pv2.Row.psid) then Some row.Row.pv2
  else if not (Sid.is_none row.Row.pv1.Row.psid) then Some row.Row.pv1
  else None

let read_committed t ~table ~key =
  match find_row t t.scratch ~table ~key with
  | None -> None
  | Some row -> (
      match latest_pversion t row with
      | None -> None
      | Some pv -> Some (Prow.read_value t.pmem t.scratch ~base:row.Row.prow_base pv.Row.pptr ()))

let iter_committed t ~table f =
  let visit key (row : Row.t) =
    match latest_pversion t row with
    | None -> ()
    | Some pv -> f key (Prow.read_value t.pmem t.scratch ~base:row.Row.prow_base pv.Row.pptr ())
  in
  match t.indexes.(table) with
  | Hash h -> HIdx.iter h visit
  | Ord o -> OIdx.iter o visit
  | Bt b -> BIdx.iter b visit

let mem_report t =
  let index_bytes =
    Array.fold_left
      (fun acc idx ->
        acc
        + (match idx with
          | Hash h -> HIdx.dram_bytes h
          | Ord o -> OIdx.dram_bytes o
          | Bt b -> BIdx.dram_bytes b))
      0 t.indexes
  in
  {
    Report.nvmm_rows = Slab.allocated_slots t.row_pool * t.config.Config.row_size;
    nvmm_values = value_bytes t;
    nvmm_log = t.log_high_water;
    nvmm_freelists =
      Slab.nvmm_bytes t.row_pool
      - (t.config.Config.rows_per_core * t.config.Config.cores * t.config.Config.row_size)
      + Slab.nvmm_bytes t.value_pool
      - (Slab.capacity_slots t.value_pool * t.config.Config.value_slot_size)
      + (match t.pindex with Some p -> PIdx.nvmm_bytes p | None -> 0);
    dram_index = index_bytes;
    dram_transient = TP.peak_bytes t.tpool;
    dram_cache = Cache.dram_bytes t.cache;
  }

let committed_txns t = t.committed
let aborted_txns t = t.total_aborted

let total_time_ns t =
  Array.fold_left (fun acc s -> Float.max acc (Stats.now s)) 0.0 t.core_stats

let counter_value t i = t.counters.(i)

let last_batch_outcomes t = t.last_outcomes

let last_epoch_outcomes t =
  (* The historical two-variant view: serial CC never defers, so the
     collapse below only matters if callers mix it with Aria batches. *)
  Array.map
    (function `Committed -> `Committed | `Aborted | `Deferred -> `Aborted)
    t.last_outcomes

let debug_row t ~table ~key =
  match find_row t t.scratch ~table ~key with
  | None -> "absent"
  | Some row ->
      ensure_mirror t t.scratch row;
      Format.asprintf "v1=(%a,%a) v2=(%a,%a)%s" Sid.pp row.Row.pv1.Row.psid Vptr.pp
        row.Row.pv1.Row.pptr Sid.pp row.Row.pv2.Row.psid Vptr.pp row.Row.pv2.Row.pptr
        (if row.Row.lazily_recovered then " lazy" else "")
