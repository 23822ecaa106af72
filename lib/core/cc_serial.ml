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
module OIdx = Nv_index.Ordered_index
module BIdx = Nv_index.Btree_index
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
   dynamic write sets observe insert-step data). [wait_for] is the wide
   execution hook: it blocks until the slot's writer has resolved it. *)
let visible_value ?wait_for t stats (row : Row.t) ~mode =
  if has_varray t row then begin
    let st = t.vstore and va = row.Row.varray in
    let slot =
      match mode with
      | Exec before -> VA.latest_visible ?wait_for st va stats ~before
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

let make_ctx ?wait_for ?wait_preds t ~core ~sid ~mode ~txn ~notes ~wrote =
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
        | Some row -> visible_value ?wait_for t stats row ~mode)
    | e -> visible_value ?wait_for t stats t.ws.wrows.(e) ~mode
  in
  let write ~table ~key data =
    (match mode with Exec _ -> () | Init -> invalid_arg "Txn.Ctx.write: not in execution phase");
    Stats.compute stats ();
    let entry = find_entry t.ws t.ws.heads.(txn) ~table ~key ~fits:`Write in
    if entry < 0 then
      invalid_arg
        (Printf.sprintf "Txn.Ctx.write: key (%d, %Ld) is not in the write set" table key);
    let vref = store_version_value t stats ~core data in
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
    t.m_version_writes.(core) <- t.m_version_writes.(core) + 1;
    wrote := true
  in
  (* Ordered-table operations, uniform over the AVL and B+-tree
     implementations. *)
  let ordered_fold table ~lo ~hi ~init ~f =
    match t.indexes.(table) with
    | Ord o -> OIdx.fold_range o stats ~lo ~hi ~init ~f
    | Bt b -> BIdx.fold_range b stats ~lo ~hi ~init ~f
    | Hash _ -> invalid_arg "Txn.Ctx: range operation on a hash-indexed table"
  in
  let ordered_max_below table bound =
    match t.indexes.(table) with
    | Ord o -> OIdx.max_below o stats bound
    | Bt b -> BIdx.max_below b stats bound
    | Hash _ -> invalid_arg "Txn.Ctx: range operation on a hash-indexed table"
  in
  let range_read ~table ~lo ~hi =
    List.rev
      (ordered_fold table ~lo ~hi ~init:[] ~f:(fun acc key row ->
           match visible_value ?wait_for t stats row ~mode with
           | Some data -> (key, data) :: acc
           | None -> acc))
  in
  let min_above ~table bound =
    (* Ascending scan with early exit on the first visible entry. *)
    try
      ordered_fold table ~lo:bound ~hi:Int64.max_int ~init:() ~f:(fun () key row ->
          match visible_value ?wait_for t stats row ~mode with
          | Some data -> raise (Found (key, data))
          | None -> ());
      None
    with Found kv -> Some kv
  in
  let max_below ~table bound =
    (* Descend from the bound; visibility is rechecked walking down in
       key order. *)
    let rec go bound =
      match ordered_max_below table bound with
      | None -> None
      | Some (key, row) -> (
          match visible_value ?wait_for t stats row ~mode with
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
    (* Counters draw from a shared array in serial order. Under wide
       execution the draw runs only after every earlier transaction has
       finished ([wait_preds]), which serializes all draws in serial
       position order — the progress atomics make the predecessors'
       draws visible. *)
    (match wait_preds with Some wait -> wait () | None -> ());
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
  let va = ensure_varray t stats ~core row in
  VA.append t.vstore va stats sid;
  let slot = VA.find t.vstore va stats sid in
  (match data with
  | Some d ->
      let vref = store_version_value t stats ~core d in
      VA.resolve t.vstore slot ~value:vref stats
  | None -> ());
  ws_add t i ~op:ws_insert row

let do_append t stats ~core ~i ~sid ~table ~key ~(kind : [ `Update | `Delete ]) =
  Stats.compute stats ();
  match find_row t stats ~table ~key with
  | None -> invalid_arg (Printf.sprintf "Db: update/delete of missing key (%d, %Ld)" table key)
  | Some row ->
      let va = ensure_varray t stats ~core row in
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
   [wait_for] blocks on slots whose writers — earlier transactions the
   finalizer never read from, e.g. before a blind write — are still in
   flight. Order-sensitive outcomes (cache fills, deletes) go through
   the effect journal; the final persistent write itself is row-local,
   so it runs here, on the finalizing stripe. *)
let finalize_row ?wait_for t stats ~core (row : Row.t) =
  let st = t.vstore and va = row.Row.varray in
  let slot = VA.latest_resolved ?wait_for st va stats in
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
        | Txn.Update { table; key } -> do_append t stats ~core ~i ~sid ~table ~key ~kind:`Update
        | Txn.Delete { table; key } -> do_append t stats ~core ~i ~sid ~table ~key ~kind:`Delete
        | Txn.Insert _ -> ())
      txns.(i).Txn.write_set;
    List.iter
      (fun (table, key, kind) -> do_append t stats ~core ~i ~sid ~table ~key ~kind)
      dynamic_ops;
    List.iter
      (fun (table, key, kind) -> do_append t stats ~core ~i ~sid ~table ~key ~kind)
      recon_ops
  done;
  hook t Append_done);
  let t_append = barrier t in
  (* --- Execution phase. --- *)
  let txn_sample = if Tracer.enabled t.tracer then Tracer.txn_sample t.tracer else 0 in
  let exec_hist =
    if Metrics.enabled t.metrics then Some (Metrics.histogram t.metrics "txn_exec_ns") else None
  in
  (* One transaction at serial position [i]. [wait_for] is the wide
     execution hook (block until an earlier transaction's slot is
     resolved); [wait_preds] blocks until every earlier transaction has
     finished (counter draws). Order-sensitive outputs — sampled txn
     spans, histogram observations, deferred hook deliveries, cache
     fills, deletes — are recorded in the effect journal under serial
     position [i] and replayed in order at the join. *)
  let exec_one ?wait_for ?wait_preds i =
    let core = core_of t i in
    let stats = stats_of t core in
    let sid = Sid.make ~epoch:t.epoch ~seq:i in
    let traced = txn_sample > 0 && i mod txn_sample = 0 in
    let ts0 = if traced || exec_hist <> None then Stats.now stats else 0.0 in
    let wrote = ref false in
    set_cur_seq i;
    let ctx =
      make_ctx ?wait_for ?wait_preds t ~core ~sid ~mode:(Exec sid) ~txn:i ~notes:notes.(i)
        ~wrote
    in
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
      t.m_aborted.(core) <- t.m_aborted.(core) + 1;
      t.total_aborted.(core) <- t.total_aborted.(core) + 1;
      iter_entries t i (fun e -> VA.set_value st (slot_of t e ~sid) VA.ignored)
    end
    else t.committed.(core) <- t.committed.(core) + 1;
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
          finalize_row ?wait_for t stats ~core row
        end);
    (if traced || exec_hist <> None then begin
       let dur = Stats.now stats -. ts0 in
       (if traced then begin
          (* Sampled txn spans carry explicit timestamps, so emitting
             from the journal in ascending serial position reproduces
             the serial event stream byte for byte. *)
          let emit () =
            Tracer.complete t.tracer ~core ~name:"txn" ~cat:"txn"
              ~args:[ ("seq", Nv_obs.Jsonx.Int i); ("aborted", Nv_obs.Jsonx.Bool aborted) ]
              ~ts:ts0 ~dur ()
          in
          if not (record_effect t (E_trace emit)) then emit ()
        end);
       match exec_hist with
       | Some hist ->
           if not (record_effect t (E_observe { hist; v = dur })) then Metrics.observe hist dur
       | None -> ()
     end);
    hook t (Exec_txn i);
    set_cur_seq (-1)
  in
  (* Wide execution is a pure performance path: it must be bit-for-bit
     equivalent to the serial-order loop at any pool width. The effect
     journal carries everything order-sensitive to the join barrier, so
     the gate no longer depends on what the batch does — only on
     structural conditions the journal cannot absorb (each noted in the
     serial-reason telemetry). Transactions synchronize through
     version-array slots: stripe [s] runs positions congruent to [s]
     modulo [wide_d] in ascending order, and a read of a slot written by
     another stripe spins on that stripe's progress counter. Declared
     reads, undeclared probes and finalizer scans all wait only on
     earlier serial positions, so every stripe is always runnable
     (docs/PARALLELISM.md develops the full argument). *)
  let wide_d =
    let d = Dpool.stripes (pool t) ~cores:cfg.Config.cores in
    let gate =
      if n <= 1 then Some R_small_batch
      else if d <= 1 then Some R_width
      else if Dpool.in_task () then
        (* Nested in a pool task: Dpool.run would
           inline-serialize the stripes, deadlocking any cross-stripe
           wait. *)
        Some R_nested
      else if match t.phase_hook with Some h -> not h.hk_defer | None -> false then
        Some R_phase_hook
      else if t.unmirrored_rows then Some R_unmirrored_rows
      else if cfg.Config.row_size mod 64 <> 0 then
        (* Adjacent row slots in one arena may share a cache line, and
           rows finalize on their last writer's stripe — only line-
           aligned rows make stripes' stores line-disjoint. *)
        Some R_row_align
      else None
    in
    match gate with
    | None -> d
    | Some r ->
        note_serial_reason t r;
        1
  in
  phase_span t "execute" (fun () ->
      Effects.begin_exec t ~d:wide_d;
      (try
         if wide_d = 1 then
           for i = 0 to n - 1 do
             exec_one i
           done
         else begin
           (* progress.(s) = highest serial position stripe [s] has
              finished (-1 initially): one atomic per stripe instead of
              a done flag per transaction, so the common wait is a
              single load that usually already satisfies. *)
           let progress = Array.init wide_d (fun _ -> Atomic.make (-1)) in
           let await s bound =
             let spins = ref 0 in
             while Atomic.get progress.(s) < bound do
               Dpool.backoff !spins;
               incr spins
             done
           in
           Pmem.begin_stripes t.pmem ~n:wide_d;
           Fun.protect
             ~finally:(fun () -> Pmem.end_stripes t.pmem)
             (fun () ->
               ignore
                 (Dpool.run (pool t) ~n:wide_d (fun s ->
                      Pmem.set_stripe t.pmem s;
                      let cur = ref s in
                      let wait_for sid =
                        let seq = Sid.seq_of sid in
                        if Sid.epoch_of sid = t.epoch && seq <> !cur && seq < n then
                          await (seq mod wide_d) seq
                      in
                      (* Block until every serial position below [cur]
                         has finished: stripe [p] is done with them once
                         it has finished its largest position below
                         [cur]. *)
                      let wait_preds () =
                        let i = !cur in
                        for p = 0 to wide_d - 1 do
                          if p <> s && i - 1 >= p then
                            await p (i - 1 - ((i - 1 - p) mod wide_d))
                        done
                      in
                      try
                        while !cur < n do
                          exec_one ~wait_for ~wait_preds !cur;
                          Atomic.set progress.(s) !cur;
                          cur := !cur + wide_d
                        done
                      with e ->
                        (* Poison the rest of the stripe — resolve its
                           slots and push its progress past every
                           position — so the other stripes' waits
                           terminate; Dpool re-raises after the join. *)
                        let bt = Printexc.get_raw_backtrace () in
                        let j = ref !cur in
                        while !j < n do
                          let sid = Sid.make ~epoch:t.epoch ~seq:!j in
                          iter_entries t !j (fun e ->
                              let slot = slot_of t e ~sid in
                              if VA.value t.vstore slot = VA.pending then
                                VA.set_value t.vstore slot VA.ignored);
                          j := !j + wide_d
                        done;
                        Atomic.set progress.(s) (n + wide_d);
                        Printexc.raise_with_backtrace e bt)))
         end
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
