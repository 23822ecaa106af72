(* Aria-style concurrency control (section 7 future work, after Lu et
   al.): snapshot execution + deterministic reservations, no declared
   write sets. Moved verbatim out of the Db monolith; reuses the same
   dual-version final-write path as the serial strategy via {!Epoch}. *)

module Stats = Nv_nvmm.Stats
module Memspec = Nv_nvmm.Memspec
module Prow = Nv_storage.Prow
module Slab = Nv_storage.Slab_pool
module Meta = Nv_storage.Meta_region
module Tracer = Nv_obs.Tracer

open Epoch

let name = "aria"

(* The name range refusals carry. *)
let who = "Db.run_epoch_aria"

exception Found of (int64 * bytes)

let run ?(replay = false) t txns =
  let cfg = t.config in
  begin_epoch t;
  let n = Array.length txns in
  let t_start = barrier t in
  log_inputs t ~replay txns;
  let t_log = barrier t in
  (* Initialization housekeeping is unchanged: collect the previous
     epoch's stale versions, evict cold cached versions. *)
  phase_span t "major-gc" (fun () ->
      Gc.major_gc t;
      hook t Gc_done);
  phase_span t "evict" (fun () ->
      if Config.caching_enabled cfg then
        t.m_evicted <-
          Cache.evict t.cache (stats_of t (t.epoch mod cfg.Config.cores)) ~current_epoch:t.epoch
            ~k:cfg.Config.cache_k);
  let t_gc = barrier t in
  (* Phase 1: every transaction executes against the epoch-start
     snapshot; writes are buffered privately; read sets are recorded. *)
  let buffers = Array.init n (fun _ -> Hashtbl.create 8) in
  let read_sets = Array.init n (fun _ -> Hashtbl.create 8) in
  let user_aborted = Array.make n false in
  let exec_one i =
    let core = core_of t i in
    let stats = stats_of t core in
    let sid = Sid.make ~epoch:t.epoch ~seq:i in
    let buffer = buffers.(i) and rset = read_sets.(i) in
    let snapshot_read ~table ~key =
      match find_row t stats ~table ~key with
      | None -> None
      | Some row -> committed_read t stats row ~fill_cache:true
    in
    let read ~table ~key =
      Stats.compute stats ();
      match Hashtbl.find_opt buffer (table, key) with
      | Some v -> Some v (* read-your-own-buffered-writes *)
      | None ->
          Hashtbl.replace rset (table, key) ();
          snapshot_read ~table ~key
    in
    let write ~table ~key data =
      Stats.compute stats ();
      Stats.dram_write stats
        ~lines:(Memspec.lines_touched (Stats.spec stats) ~off:0 ~len:(Bytes.length data))
        ();
      t.m_version_writes <- t.m_version_writes + 1;
      Hashtbl.replace buffer (table, key) data
    in
    let delete ~table:_ ~key:_ = invalid_arg "Db.run_epoch_aria: deletes are not supported" in
    let ordered_fold table = ordered_fold t stats ~who table in
    let range_read ~table ~lo ~hi =
      List.rev
        (ordered_fold table ~lo ~hi ~init:[] ~f:(fun acc key row ->
             Hashtbl.replace rset (table, key) ();
             match committed_read t stats row ~fill_cache:true with
             | Some data -> (key, data) :: acc
             | None -> acc))
    in
    let first ~table ~lo ~hi =
      try
        ordered_fold table ~lo ~hi ~init:() ~f:(fun () key row ->
            Hashtbl.replace rset (table, key) ();
            match committed_read t stats row ~fill_cache:true with
            | Some data -> raise (Found (key, data))
            | None -> ());
        None
      with Found kv -> Some kv
    in
    let min_above ~table bound = first ~table ~lo:bound ~hi:Int64.max_int in
    let max_below ~table bound =
      (* Committed snapshot, so index max_below suffices. *)
      match ordered_max_below t stats ~who table bound with
      | Some (key, row) ->
          Hashtbl.replace rset (table, key) ();
          Option.map (fun d -> (key, d)) (committed_read t stats row ~fill_cache:true)
      | None -> None
    in
    let ctx =
      {
        Txn.Ctx.sid;
        core;
        read;
        write;
        delete;
        range_read;
        max_below;
        min_above;
        abort = (fun () -> raise Txn.Aborted);
        compute = (fun ~ops -> Stats.compute stats ~ops ());
        counter_next =
          (fun ~idx ->
            Stats.compute stats ();
            let v = t.counters.(idx) in
            t.counters.(idx) <- Int64.add v 1L;
            v);
        notes = Hashtbl.create 4;
      }
    in
    (match txns.(i).Txn.body ctx with
    | () -> ()
    | exception Txn.Aborted ->
        user_aborted.(i) <- true;
        Hashtbl.reset buffer);
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
      Effects.drain t);
  let t_exec = barrier t in
  (* Phase 2: Aria's deterministic reservations. Each key records the
     smallest SID that wrote it; a transaction aborts (for retry) if
     any key it wrote or read carries a smaller reservation. *)
  let reserve_apply_begins =
    if Tracer.enabled t.tracer then Array.map Stats.now t.core_stats else [||]
  in
  let reservations : (int * int64, int) Hashtbl.t = Hashtbl.create 256 in
  Array.iteri
    (fun i buffer ->
      if not user_aborted.(i) then
        Hashtbl.iter
          (fun key _ ->
            Stats.compute (stats_of t (core_of t i)) ();
            match Hashtbl.find_opt reservations key with
            | Some j when j <= i -> ()
            | Some _ | None -> Hashtbl.replace reservations key i)
          buffer)
    buffers;
  let deferred = ref [] in
  let outcomes = Array.make n `Committed in
  let decisions : ((int * int64) * int * bytes) list ref = ref [] in
  for i = 0 to n - 1 do
    let core = core_of t i in
    let stats = stats_of t core in
    if user_aborted.(i) then begin
      outcomes.(i) <- `Aborted;
      t.m_aborted <- t.m_aborted + 1;
      t.total_aborted <- t.total_aborted + 1
    end
    else begin
      let reserved_earlier key =
        match Hashtbl.find_opt reservations key with Some j -> j < i | None -> false
      in
      let conflict =
        Hashtbl.fold (fun key _ acc -> acc || reserved_earlier key) buffers.(i) false
        || Hashtbl.fold (fun key () acc -> acc || reserved_earlier key) read_sets.(i) false
      in
      Stats.compute stats ~ops:(1 + Hashtbl.length read_sets.(i)) ();
      if conflict then begin
        outcomes.(i) <- `Deferred;
        deferred := txns.(i) :: !deferred;
        t.m_aborted <- t.m_aborted + 1
      end
      else begin
        t.committed <- t.committed + 1;
        Hashtbl.iter (fun key data -> decisions := (key, i, data) :: !decisions) buffers.(i)
      end
    end
  done;
  (* Apply the surviving writes through the dual-version NVMM path, in
     deterministic key order (one persistent write per row). *)
  let decisions = List.sort compare !decisions in
  List.iter
    (fun (((table, key) : int * int64), i, data) ->
      let core = core_of t i in
      let stats = stats_of t core in
      let sid = Sid.make ~epoch:t.epoch ~seq:i in
      let row =
        match find_row t stats ~table ~key with
        | Some row -> row
        | None ->
            (* Writing a missing key inserts it. *)
            let base = Slab.alloc t.row_pool stats ~core in
            Prow.init t.pmem stats ~base ~key ~table;
            let row = Row.make ~key ~table ~home_core:core ~prow_base:base ~created_epoch:t.epoch in
            index_insert t stats ~table ~key row;
            if t.pindex <> None then Hashtbl.replace t.pix_delta (table, key) (`Ins base);
            row
      in
      do_prow_final_write t stats ~core row ~sid ~src:data ~src_off:0 ~len:(Bytes.length data);
      if Config.caching_enabled cfg then Cache.insert t.cache stats row ~data ~epoch:t.epoch;
      touch_row t row)
    decisions;
  hook t Exec_done;
  if Tracer.enabled t.tracer then
    Array.iteri
      (fun core s ->
        Tracer.complete t.tracer ~core ~name:"reserve+apply" ~cat:"epoch"
          ~ts:reserve_apply_begins.(core)
          ~dur:(Stats.now s -. reserve_apply_begins.(core))
          ())
      t.core_stats;
  let t_apply = barrier t in
  (* Checkpoint, exactly as in the Caracal mode. *)
  let stats0 = stats_of t 0 in
  checkpoint_allocators t;
  phase_span t "epoch-persist" (fun () ->
      Meta.persist_epoch t.meta stats0 ~epoch:t.epoch;
      t.last_outcomes <- outcomes;
      hook t Checkpointed);
  release_touched t;
  if replay && not t.retain_gc_dedup then t.gc_dedup <- Hashtbl.create 16;
  let t_end = barrier t in
  let report =
    epoch_report t ~txns:n ~replay ~duration:(t_end -. t_start)
      ~phases:
        [
          ("log", t_log -. t_start);
          ("gc+evict", t_gc -. t_log);
          ("execute", t_exec -. t_gc);
          ("reserve+apply", t_apply -. t_exec);
          ("checkpoint", t_end -. t_apply);
        ]
  in
  (report, Array.of_list (List.rev !deferred))
