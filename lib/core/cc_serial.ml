(* Caracal's serial concurrency control (Algorithm 1): the write-set
   initialization phases (insert step, append step) build per-row
   version arrays, then bodies execute in SID order against them.
   Moved verbatim out of the Db monolith; the shared substrate —
   version arrays, committed reads, the final persistent write — is in
   {!Epoch}. *)

module Stats = Nv_nvmm.Stats
module Prow = Nv_storage.Prow
module Slab = Nv_storage.Slab_pool
module Meta = Nv_storage.Meta_region
module TP = Nv_storage.Transient_pool
module VA = Version_array
module Tracer = Nv_obs.Tracer
module Metrics = Nv_obs.Metrics

open Epoch

let name = "caracal"

(* Work declared for one transaction on one row lives in the engine's
   write-set registry ([Epoch.wset]): entry [e] is an op on row
   [t.ws.wrows.(e)], and transaction [i]'s entries chain from
   [t.ws.heads.(i)], newest first. *)

(* The slot a transaction declared on an entry's row: found by SID (an
   uncharged search — slot indices are only stable once the
   initialization phases are over). *)
let slot_of t e ~sid = VA.locate t.vstore t.ws.wrows.(e).Row.varray sid

(* Newest entry from [e] on along its chain whose row is (table, key)
   and whose op [fits] ([`Any], [`Write]: not a delete, [`Delete]); -1
   if none. *)
let rec find_entry ws e ~table ~key ~fits =
  if e < 0 then -1
  else
    let row = ws.wrows.(e) in
    if
      row.Row.table = table && Int64.equal row.Row.key key
      &&
      match fits with
      | `Any -> true
      | `Write -> ws.ops.(e) <> ws_delete
      | `Delete -> ws.ops.(e) = ws_delete
    then e
    else find_entry ws ws.next.(e) ~table ~key ~fits

(* Apply [f] to each of transaction [i]'s entries, newest first. *)
let iter_entries t i f =
  let e = ref t.ws.heads.(i) in
  while !e >= 0 do
    f !e;
    e := t.ws.next.(!e)
  done

(* ------------------------------------------------------------------ *)
(* Transaction contexts                                                *)

type ctx_mode = Init | Exec of Sid.t

(* Visibility of a row's value at a serial position (Exec) or at
   initialization time (Init: everything resolved so far, which is how
   dynamic write sets observe insert-step data). *)
let visible_value t stats (row : Row.t) ~mode =
  if has_varray t row then begin
    let st = t.vstore and va = row.Row.varray in
    let slot =
      match mode with
      | Exec before -> VA.latest_visible st va stats ~before
      | Init -> VA.latest_resolved st va stats
    in
    if slot < 0 then
      if row.Row.created_epoch = t.epoch then None
      else committed_read t stats row ~fill_cache:true
    else begin
      let v = VA.value st slot in
      if VA.is_written v then begin
        VA.advance_to_write st slot stats;
        Some (load_version_value t stats ~initial:(Sid.is_none (VA.sid st slot)) v)
      end
      else if v = VA.tombstone then None
      else assert false
    end
  end
  else committed_read t stats row ~fill_cache:true

exception Found of (int64 * bytes)

let make_ctx t ~core ~sid ~mode ~txn ~notes ~wrote =
  let stats = stats_of t core in
  let read ~table ~key =
    Stats.compute stats ();
    (* Keys in the write set were already resolved during the
       initialization phase; the execution phase holds direct row
       references (as Caracal does) and only probes the index for
       read-only keys. *)
    match find_entry t.ws t.ws.heads.(txn) ~table ~key ~fits:`Any with
    | -1 -> (
        match find_row t stats ~table ~key with
        | None -> None
        | Some row -> visible_value t stats row ~mode)
    | e -> visible_value t stats t.ws.wrows.(e) ~mode
  in
  let write ~table ~key data =
    (match mode with Exec _ -> () | Init -> invalid_arg "Txn.Ctx.write: not in execution phase");
    Stats.compute stats ();
    let entry = find_entry t.ws t.ws.heads.(txn) ~table ~key ~fits:`Write in
    if entry < 0 then
      invalid_arg
        (Printf.sprintf "Txn.Ctx.write: key (%d, %Ld) is not in the write set" table key);
    let vref = store_version_value t stats data in
    VA.resolve t.vstore (slot_of t entry ~sid) ~value:vref stats;
    wrote := true
  in
  let delete ~table ~key =
    (match mode with Exec _ -> () | Init -> invalid_arg "Txn.Ctx.delete: not in execution phase");
    Stats.compute stats ();
    let entry = find_entry t.ws t.ws.heads.(txn) ~table ~key ~fits:`Delete in
    if entry < 0 then
      invalid_arg
        (Printf.sprintf "Txn.Ctx.delete: key (%d, %Ld) is not in the delete set" table key);
    VA.resolve t.vstore (slot_of t entry ~sid) ~value:VA.tombstone stats;
    t.m_version_writes <- t.m_version_writes + 1;
    wrote := true
  in
  let ordered_fold table = ordered_fold t stats ~who:"Txn.Ctx" table in
  let range_read ~table ~lo ~hi =
    List.rev
      (ordered_fold table ~lo ~hi ~init:[] ~f:(fun acc key row ->
           match visible_value t stats row ~mode with
           | Some data -> (key, data) :: acc
           | None -> acc))
  in
  let min_above ~table bound =
    (* Ascending scan with early exit on the first visible entry. *)
    try
      ordered_fold table ~lo:bound ~hi:Int64.max_int ~init:() ~f:(fun () key row ->
          match visible_value t stats row ~mode with
          | Some data -> raise (Found (key, data))
          | None -> ());
      None
    with Found kv -> Some kv
  in
  let max_below ~table bound =
    (* Descend from the bound; visibility is rechecked walking down in
       key order. *)
    let rec go bound =
      match ordered_max_below t stats ~who:"Txn.Ctx" table bound with
      | None -> None
      | Some (key, row) -> (
          match visible_value t stats row ~mode with
          | Some data -> Some (key, data)
          | None -> if key = Int64.min_int then None else go (Int64.pred key))
    in
    go bound
  in
  let abort () =
    if !wrote then failwith "Txn.Ctx.abort: user aborts must precede the first write";
    raise Txn.Aborted
  in
  let compute ~ops = Stats.compute stats ~ops () in
  let counter_next ~idx =
    Stats.compute stats ();
    let v = t.counters.(idx) in
    t.counters.(idx) <- Int64.add v 1L;
    v
  in
  {
    Txn.Ctx.sid;
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

(* ------------------------------------------------------------------ *)
(* Initialization phase                                                *)

let do_insert t stats ~core ~i ~sid ~table ~key ~data =
  Stats.compute stats ();
  (match find_row t stats ~table ~key with
  | Some _ -> invalid_arg (Printf.sprintf "Db: duplicate insert of key (%d, %Ld)" table key)
  | None -> ());
  let base = Slab.alloc t.row_pool stats ~core in
  Prow.init t.pmem stats ~base ~key ~table;
  let row = Row.make ~key ~table ~home_core:core ~prow_base:base ~created_epoch:t.epoch in
  index_insert t stats ~table ~key row;
  if t.pindex <> None then Hashtbl.replace t.pix_delta (table, key) (`Ins base);
  let va = ensure_varray t stats row in
  VA.append t.vstore va stats sid;
  let slot = VA.find t.vstore va stats sid in
  (match data with
  | Some d ->
      let vref = store_version_value t stats d in
      VA.resolve t.vstore slot ~value:vref stats
  | None -> ());
  ws_add t i ~op:ws_insert row

let do_append t stats ~i ~sid ~table ~key ~(kind : [ `Update | `Delete ]) =
  Stats.compute stats ();
  match find_row t stats ~table ~key with
  | None -> invalid_arg (Printf.sprintf "Db: update/delete of missing key (%d, %Ld)" table key)
  | Some row ->
      let va = ensure_varray t stats row in
      (* A transaction may declare the same key more than once (multiple
         writes per item, section 3.1.1): reuse its slot. *)
      (match VA.find t.vstore va stats sid with
      | _ -> ()
      | exception Not_found ->
          VA.append t.vstore va stats sid;
          ignore (VA.find t.vstore va stats sid));
      ws_add t i ~op:(match kind with `Update -> ws_update | `Delete -> ws_delete) row

(* ------------------------------------------------------------------ *)
(* Finalization (section 4.6)                                          *)

(* Selective caching (section 7): the write-set information gathered
   during initialization identifies hot rows — rows with several
   versions this epoch are worth caching; rows written once are not. *)
let worth_caching t va =
  (not t.config.Config.selective_caching) || VA.length t.vstore va > 2

(* Resolve the epoch-final version of a row once its last declared
   writer has executed (handles aborted final writers, section 4.6).
   Cache fills and deletes go through the effect journal; the final
   persistent write runs here. *)
let finalize_row t stats ~core (row : Row.t) =
  let st = t.vstore and va = row.Row.varray in
  let slot = VA.latest_resolved st va stats in
  if slot >= 0 (* else a fresh insert whose every version aborted *) then begin
    let v = VA.value st slot and sid = VA.sid st slot in
    let cache = Config.caching_enabled t.config && worth_caching t va in
    if VA.is_written v && Sid.is_none sid then begin
      (* Every real write aborted; the initial version stands. The
         persistent row is untouched; restore the cached version the
         append step consumed (section 4.6). *)
      if cache then begin
        charge_version_read t stats ~initial:true v;
        cache_fill_final t stats row v
      end
    end
    else if VA.is_written v then begin
      (* One copy: the value goes from its arena chunk straight into
         NVMM (and, if the cache admits the row, into its buffer). *)
      charge_version_read t stats ~initial:false v;
      do_prow_final_write t stats ~core row ~sid ~src:(TP.src t.tpool v) ~src_off:(TP.off v)
        ~len:(TP.len v);
      if cache then cache_fill_final t stats row v
    end
    else if v = VA.tombstone then begin
      if not (record_delete t ~core row) then do_prow_delete t stats ~core row
    end
    else assert false
  end

(* ------------------------------------------------------------------ *)
(* Epoch driver (Algorithm 1)                                          *)

let run ?(replay = false) t txns =
  let cfg = t.config in
  begin_epoch t;
  let n = Array.length txns in
  let t_start = barrier t in
  (* --- Log transaction inputs (section 4.3). --- *)
  log_inputs t ~replay txns;
  let t_log = barrier t in
  (* --- Insert step. --- *)
  ws_reset t n;
  let notes = Array.init n (fun _ -> Hashtbl.create 4) in
  let outcomes = Array.make n `Committed in
  phase_span t "insert" (fun () ->
      for i = 0 to n - 1 do
        let core = core_of t i in
        let stats = stats_of t core in
        let sid = Sid.make ~epoch:t.epoch ~seq:i in
        (* Generated inserts are computed (and checked) first, then the
           static ones land before them. *)
        let generated =
          match txns.(i).Txn.insert_gen with
          | None -> []
          | Some gen ->
              let ctx =
                make_ctx t ~core ~sid ~mode:Init ~txn:i ~notes:notes.(i) ~wrote:(ref true)
              in
              let ops = gen ctx in
              List.iter
                (function
                  | Txn.Insert _ -> ()
                  | Txn.Update _ | Txn.Delete _ ->
                      invalid_arg "Db: insert_gen may only produce Insert ops")
                ops;
              ops
        in
        let insert = function
          | Txn.Insert { table; key; data } ->
              do_insert t stats ~core ~i ~sid ~table ~key ~data
          | Txn.Update _ | Txn.Delete _ -> ()
        in
        List.iter insert txns.(i).Txn.write_set;
        List.iter insert generated
      done;
      hook t Insert_done);
  let t_insert = barrier t in
  (* --- Major GC, then cache eviction (initialization phase). --- *)
  phase_span t "major-gc" (fun () ->
      Gc.major_gc t;
      hook t Gc_done);
  phase_span t "evict" (fun () ->
      if Config.caching_enabled cfg then begin
        t.m_evicted <-
          Cache.evict t.cache (stats_of t (t.epoch mod cfg.Config.cores)) ~current_epoch:t.epoch
            ~k:cfg.Config.cache_k;
        Tracer.instant t.tracer ~core:(t.epoch mod cfg.Config.cores) ~name:"cache-evict"
          ~cat:"cache"
          ~args:[ ("evicted", Nv_obs.Jsonx.Int t.m_evicted) ]
          ()
      end);
  let t_gc = barrier t in
  (* --- Append step. --- *)
  let recon_reads = Array.make n [] in
  phase_span t "append" (fun () ->
  for i = 0 to n - 1 do
    let core = core_of t i in
    let stats = stats_of t core in
    let sid = Sid.make ~epoch:t.epoch ~seq:i in
    let ops_of gen =
      let ctx = make_ctx t ~core ~sid ~mode:Init ~txn:i ~notes:notes.(i) ~wrote:(ref true) in
      List.map
        (function
          | Txn.Update { table; key } -> (table, key, `Update)
          | Txn.Delete { table; key } -> (table, key, `Delete)
          | Txn.Insert _ -> invalid_arg "Db: computed write sets may not produce Insert ops")
        (gen ctx)
    in
    let dynamic_ops =
      match txns.(i).Txn.dynamic_write_set with None -> [] | Some gen -> ops_of gen
    in
    (* Reconnaissance (section 3.1.1): run the read-only pass, record
       every value it observes, and derive the write set from it. The
       reads are re-validated just before execution. *)
    let recon_ops =
      match txns.(i).Txn.recon with
      | None -> []
      | Some gen ->
          ops_of (fun ctx ->
              let recorded = ref [] in
              let recording_read ~table ~key =
                let v = ctx.Txn.Ctx.read ~table ~key in
                recorded := (table, key, Option.map Bytes.copy v) :: !recorded;
                v
              in
              let ops = gen { ctx with Txn.Ctx.read = recording_read } in
              recon_reads.(i) <- !recorded;
              ops)
    in
    (* Declared (static) writes first, then the computed ones. *)
    List.iter
      (function
        | Txn.Update { table; key } -> do_append t stats ~i ~sid ~table ~key ~kind:`Update
        | Txn.Delete { table; key } -> do_append t stats ~i ~sid ~table ~key ~kind:`Delete
        | Txn.Insert _ -> ())
      txns.(i).Txn.write_set;
    List.iter
      (fun (table, key, kind) -> do_append t stats ~i ~sid ~table ~key ~kind)
      dynamic_ops;
    List.iter
      (fun (table, key, kind) -> do_append t stats ~i ~sid ~table ~key ~kind)
      recon_ops
  done;
  hook t Append_done);
  let t_append = barrier t in
  (* --- Execution phase. --- *)
  let txn_sample = if Tracer.enabled t.tracer then Tracer.txn_sample t.tracer else 0 in
  let exec_hist =
    if Metrics.enabled t.metrics then Some (Metrics.histogram t.metrics "txn_exec_ns") else None
  in
  (* One transaction at serial position [i]. *)
  let exec_one i =
    let core = core_of t i in
    let stats = stats_of t core in
    let sid = Sid.make ~epoch:t.epoch ~seq:i in
    let traced = txn_sample > 0 && i mod txn_sample = 0 in
    let ts0 = if traced || exec_hist <> None then Stats.now stats else 0.0 in
    let wrote = ref false in
    let ctx = make_ctx t ~core ~sid ~mode:(Exec sid) ~txn:i ~notes:notes.(i) ~wrote in
    (* Validate reconnaissance reads: if any value the recon pass
       observed was changed by an earlier transaction in this epoch,
       abort deterministically. *)
    let recon_valid =
      List.for_all
        (fun (table, key, observed) ->
          match (ctx.Txn.Ctx.read ~table ~key, observed) with
          | None, None -> true
          | Some a, Some b -> Bytes.equal a b
          | _ -> false)
        recon_reads.(i)
    in
    let aborted =
      (not recon_valid)
      ||
      try
        txns.(i).Txn.body ctx;
        false
      with Txn.Aborted -> true
    in
    if aborted then outcomes.(i) <- `Aborted;
    let st = t.vstore in
    if aborted then begin
      t.m_aborted <- t.m_aborted + 1;
      t.total_aborted <- t.total_aborted + 1;
      iter_entries t i (fun e -> VA.set_value st (slot_of t e ~sid) VA.ignored)
    end
    else t.committed <- t.committed + 1;
    (* Declared writes the body never issued are equivalent to aborted
       single writes: mark them IGNORE so readers skip them. *)
    iter_entries t i (fun e ->
        let slot = slot_of t e ~sid in
        if VA.value st slot = VA.pending then VA.set_value st slot VA.ignored);
    (* Rows whose last declared writer is this transaction get their
       final version persisted now. *)
    iter_entries t i (fun e ->
        let row = t.ws.wrows.(e) in
        let va = row.Row.varray in
        if Sid.compare (VA.max_sid st va) sid = 0 && not (VA.finalized st va) then begin
          VA.set_finalized st va;
          finalize_row t stats ~core row
        end);
    (if traced || exec_hist <> None then begin
       let dur = Stats.now stats -. ts0 in
       if traced then
         Tracer.complete t.tracer ~core ~name:"txn" ~cat:"txn"
           ~args:[ ("seq", Nv_obs.Jsonx.Int i); ("aborted", Nv_obs.Jsonx.Bool aborted) ]
           ~ts:ts0 ~dur ();
       match exec_hist with Some hist -> Metrics.observe hist dur | None -> ()
     end);
    hook t (Exec_txn i)
  in
  phase_span t "execute" (fun () ->
      Effects.begin_exec t;
      (try
         for i = 0 to n - 1 do
           exec_one i
         done
       with e ->
         Effects.abort t;
         raise e);
      Effects.drain t;
      hook t Exec_done);
  let t_exec = barrier t in
  (* --- Checkpoint: persist allocators (fence), then the epoch number. --- *)
  let stats0 = stats_of t 0 in
  checkpoint_allocators t;
  phase_span t "epoch-persist" (fun () ->
      Meta.persist_epoch t.meta stats0 ~epoch:t.epoch;
      t.last_outcomes <- outcomes;
      hook t Checkpointed);
  (* --- Discard the transient pool and per-epoch row state. --- *)
  release_touched t;
  TP.reset t.tpool;
  if replay && not t.retain_gc_dedup then t.gc_dedup <- Hashtbl.create 16;
  let t_end = barrier t in
  let report =
    epoch_report t ~txns:n ~replay ~duration:(t_end -. t_start)
      ~phases:
        [
          ("log", t_log -. t_start);
          ("insert", t_insert -. t_log);
          ("gc+evict", t_gc -. t_insert);
          ("append", t_append -. t_gc);
          ("execute", t_exec -. t_append);
          ("checkpoint", t_end -. t_exec);
        ]
  in
  (report, [||])
