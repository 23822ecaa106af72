(* Crash and recovery (paper sections 4.5, 5.x; scrub/salvage per
   docs/FAULTS.md). Moved verbatim out of the Db monolith; the replay
   step re-enters whichever CC strategy produced the crashed epoch,
   picked as a first-class {!Cc_intf.S}. *)

module Pmem = Nv_nvmm.Pmem
module Stats = Nv_nvmm.Stats
module Prow = Nv_storage.Prow
module Vptr = Nv_storage.Vptr
module Slab = Nv_storage.Slab_pool
module PIdx = Nv_storage.Pindex
module Log = Nv_storage.Log_region
module Meta = Nv_storage.Meta_region
module Tracer = Nv_obs.Tracer

open Epoch

let crash ?faults t ~rng =
  (match faults with
  | None -> Pmem.crash t.pmem ~rng
  | Some model -> ignore (Pmem.crash_with_faults t.pmem ~rng ~model));
  t.pmem

(* The CC strategy that produced (and therefore replays) the crashed
   epoch. *)
(* The scan judges torn and corrupt headers on the version words as
   stored (a rotted bit 63 must not vanish in decoding), and decodes
   only what it keeps into the row's mirror. *)
let empty = { Prow.sid = 0L; ptr = 0L }
let word_epoch w = Int64.to_int (Int64.shift_right_logical w 32)
let word_is_pool w = w <> 0L && Int64.logand w 1L = 0L

let cc_of_mode = function
  | `Caracal -> (module Cc_serial : Cc_intf.S)
  | `Aria -> (module Cc_aria : Cc_intf.S)

let recover ~config ~tables ~pmem ~rebuild ?(replay_mode = `Caracal) ?phase_hook
    ?recovery_hook ?(scrub = false) ?tracer ?metrics () =
  let t = attach config tables pmem in
  (match phase_hook with Some h -> set_phase_hook t h | None -> ());
  let rhook p = match recovery_hook with Some f -> f p | None -> () in
  set_observability ?tracer ?metrics ~name:"recovery" t;
  t.loaded <- true;
  let stats0 = stats_of t 0 in
  (* Damage and salvage accounting (populated by the scrub checks; all
     zero/empty on a clean legal-crash recovery). *)
  let damage = ref [] in
  let crc_repaired = ref 0 in
  let stale_dropped = ref 0 in
  let report_damage ~table ~key kind =
    damage := { Report.d_table = table; d_key = key; d_kind = kind } :: !damage
  in
  (match Meta.check_magic t.meta with
  | `Ok | `Absent -> ()
  | `Version_mismatch v ->
      failwith
        (Printf.sprintf "Db.recover: persistent layout version %d, this build expects %d" v
           Meta.layout_version)
  | `Corrupt ->
      (* Advisory only — the epoch word is the commit record. Restamp. *)
      Meta.persist_magic t.meta stats0;
      incr crc_repaired);
  let lce = Meta.read_epoch t.meta in
  let crashed = lce + 1 in
  t.epoch <- lce;
  (* Allocator state reverts to the last checkpoint; durable GC frees of
     the crashed epoch are kept and feed the dedup set. *)
  let row_rec =
    Slab.recover t.row_pool ~last_checkpointed_epoch:lce ~crashed_epoch:crashed ~row_scan:true
      ()
  in
  let val_rec =
    Slab.recover t.value_pool ~last_checkpointed_epoch:lce ~crashed_epoch:crashed ()
  in
  t.gc_dedup <- val_rec.Slab.dedup;
  let alloc_salvaged = row_rec.Slab.meta_salvaged + val_rec.Slab.meta_salvaged in
  let alloc_corrupt = row_rec.Slab.corrupt_entries + val_rec.Slab.corrupt_entries in
  if alloc_salvaged > 0 then report_damage ~table:(-1) ~key:0L `Allocator;
  let counter_salvaged = ref 0 in
  if config.Config.n_counters > 0 then begin
    let cr = Meta.recover_counters t.meta ~last_checkpointed_epoch:lce in
    Array.blit cr.Meta.values 0 t.counters 0 (Array.length cr.Meta.values);
    counter_salvaged := List.length cr.Meta.salvaged;
    List.iter
      (fun i -> report_damage ~table:(-1) ~key:(Int64.of_int i) `Counter)
      cr.Meta.salvaged
  end;
  rhook Rec_meta_recovered;
  (* Load the crashed epoch's input log, if it committed. *)
  let t0 = Stats.now stats0 in
  let log_dropped = ref false in
  let log_entries =
    match Log.read_committed t.log stats0 with
    | Log.Committed (ep, entries) when ep = crashed -> Some entries
    | Log.Committed _ | Log.Empty -> None
    | Log.Corrupt { epoch = Some ep; reason = _ } when ep <> crashed ->
        (* A superseded epoch's log went bad; it was never going to be
           read again. *)
        None
    | Log.Corrupt _ ->
        (* The crashed epoch committed but its inputs are unreadable:
           it cannot be replayed. Drop the epoch — reverting its row
           writes below — and report the loss loudly. *)
        log_dropped := true;
        report_damage ~table:(-1) ~key:0L `Log;
        None
  in
  let t_load = Stats.now stats0 -. t0 in
  rhook Rec_log_loaded;
  (* Rebuild the DRAM index. With the persistent index enabled (and no
     revert pass required), recovery reads the sequential NVMM bucket
     table and defers per-row version state to first touch — the
     section 7 fast path. Otherwise, scan every persistent row: fix
     torn version updates, rebuild the index and the GC list, and
     optionally revert crashed-epoch writes. *)
  let scanned = ref 0 in
  let reverted = ref 0 in
  let revert_ns = ref 0.0 in
  let t1 = Stats.now stats0 in
  (* Scrub and a dropped log both force the eager scan: the former to
     verify every row, the latter to revert the unreplayable epoch. *)
  let lazy_path =
    config.Config.persistent_index && (not config.Config.revert_on_recovery)
    && (not scrub) && (not !log_dropped)
    && t.pindex <> None
  in
  let do_revert = config.Config.revert_on_recovery || !log_dropped in
  (* Rows whose v2 carries the crashed epoch's SID but fails its
     checksum. A genuine torn write of the crashed epoch is made whole
     by the replay; one fabricated by bit-rot (a stable SID rotted into
     the crashed epoch) is not, so judgement is deferred to after the
     replay. Until then the slot is left untouched — in particular the
     revert below skips it, so the post-replay check can still tell the
     two apart. *)
  let suspects = ref [] in
  if lazy_path then begin
    let pix = match t.pindex with Some p -> p | None -> assert false in
    PIdx.iter_recovered pix stats0 ~crashed_epoch:crashed ~f:(fun ~key ~table ~base ->
        incr scanned;
        let row = Row.make ~key ~table ~home_core:0 ~prow_base:base ~created_epoch:0 in
        row.Row.mirror_loaded <- false;
        row.Row.lazily_recovered <- true;
        index_insert t stats0 ~table ~key row);
    (* Stale versions are now collected lazily, so the crashed epoch's
       durable-GC dedup set must survive past the replay. *)
    t.retain_gc_dedup <- true
  end
  else begin
    (* With a persistent index maintained but the scan path taken (the
       TPC-C revert mode), still repair crashed-epoch bucket tags so
       the table stays consistent for future recoveries. *)
    (match t.pindex with
    | Some pix ->
        PIdx.iter_recovered pix stats0 ~crashed_epoch:crashed ~f:(fun ~key:_ ~table:_ ~base:_ ->
            ())
    | None -> ());
  Slab.iter_allocated t.row_pool ~f:(fun ~base ->
      incr scanned;
      if scrub && not (Prow.check_id t.pmem ~base) then
        (* The identity header fails its checksum: nothing about this
           slot can be trusted. Leave it unindexed and report it —
           the key as read may itself be garbage. *)
        report_damage ~table:(-1) ~key:(Prow.peek_key t.pmem ~base) `Header
      else begin
      let key, table, v1, v2 = Prow.read_header t.pmem stats0 ~base in
      (* Torn case 1: a GC move copied the SID (and possibly the
         pointer) to v1 but did not finish nulling v2. Complete it. *)
      let v1, v2 =
        if v1.Prow.sid <> 0L && Int64.equal v1.Prow.sid v2.Prow.sid && word_epoch v1.Prow.sid <> crashed
        then begin
          Prow.repair_case1 t.pmem stats0 ~base ();
          Prow.peek_versions t.pmem ~base
        end
        else (v1, v2)
      in
      (* Torn case 2: v2's SID was nulled but not its pointer. *)
      let v2 =
        if v2.Prow.sid = 0L && v2.Prow.ptr <> 0L then begin
          Prow.repair_case2 t.pmem stats0 ~base ();
          empty
        end
        else v2
      in
      (* Scrub: verify v2 against its checksum word. Slots carrying the
         crashed epoch's SID are judged after the replay instead. *)
      let suspect = ref false in
      let v2 =
        if not scrub then v2
        else if v2.Prow.sid <> 0L && word_epoch v2.Prow.sid = crashed then begin
          if Prow.check_slot t.pmem ~base ~slot:`V2 = Prow.Slot_corrupt then
            suspect := true;
          v2
        end
        else
          match Prow.check_slot t.pmem ~base ~slot:`V2 with
          | Prow.Slot_ok -> v2
          | Prow.Slot_stale_crc ->
              Prow.rewrite_slot_crc t.pmem stats0 ~base ~slot:`V2;
              incr crc_repaired;
              v2
          | Prow.Slot_corrupt ->
              (* A stable current version fails its checksum: the data
                 is lost. Drop the version so reads fall back to v1 (or
                 to absence) and report the damage loudly. *)
              report_damage ~table ~key `Current_version;
              Prow.set_version t.pmem stats0 ~base ~slot:`V2 ~sid:Sid.none ~ptr:Vptr.null ();
              empty
      in
      (* Revert of crashed-epoch writes: configured (TPC-C, section
         6.2.3) or forced because the epoch's log was dropped. *)
      let v2 =
        if
          do_revert && (not !suspect) && v2.Prow.sid <> 0L && word_epoch v2.Prow.sid = crashed
        then begin
          let r0 = Stats.now stats0 in
          Prow.set_version t.pmem stats0 ~base ~slot:`V2 ~sid:Sid.none ~ptr:Vptr.null ();
          incr reverted;
          revert_ns := !revert_ns +. (Stats.now stats0 -. r0);
          empty
        end
        else v2
      in
      (* Scrub: verify v1. With a live v2 it is only the stale version;
         without one it was the row's current value. *)
      let v1 =
        if not scrub then v1
        else
          match Prow.check_slot t.pmem ~base ~slot:`V1 with
          | Prow.Slot_ok -> v1
          | Prow.Slot_stale_crc ->
              Prow.rewrite_slot_crc t.pmem stats0 ~base ~slot:`V1;
              incr crc_repaired;
              v1
          | Prow.Slot_corrupt ->
              let was_current = v2.Prow.sid = 0L && not !suspect in
              (* A stale version whose value bytes were in flight at the
                 crash was being overwritten by the crashed epoch (half
                 or pool-slot reuse behind a torn-back header): drop it
                 silently — the turnover was legal and the current
                 version survives. Anything else is media damage. *)
              let turnover =
                (not was_current)
                && Prow.value_in_crash_turnover t.pmem ~base (Vptr.of_word v1.Prow.ptr)
              in
              if not turnover then
                report_damage ~table ~key
                  (if was_current then `Current_version else `Stale_version);
              if not was_current then incr stale_dropped;
              Prow.set_version t.pmem stats0 ~base ~slot:`V1 ~sid:Sid.none ~ptr:Vptr.null ();
              empty
      in
      let row = Row.make ~key ~table ~home_core:0 ~prow_base:base ~created_epoch:0 in
      Row.set_version row.Row.pv1 ~sid:(Int64.to_int v1.Prow.sid) ~ptr:(Vptr.of_word v1.Prow.ptr)
        ~fresh:false;
      Row.set_version row.Row.pv2 ~sid:(Int64.to_int v2.Prow.sid) ~ptr:(Vptr.of_word v2.Prow.ptr)
        ~fresh:false;
      index_insert t stats0 ~table ~key row;
      if !suspect then suspects := (base, table, key, row) :: !suspects;
      (* Rebuild the GC list (section 5.5): two live versions whose
         recent one predates the crash and whose stale one needs the
         major collector. *)
      if
        v1.Prow.sid <> 0L && v2.Prow.sid <> 0L
        && word_epoch v2.Prow.sid <> crashed
        && (word_is_pool v1.Prow.ptr || not config.Config.minor_gc)
      then begin
        push_gc t row;
        row.Row.in_gc_list <- true
      end
      end)
  end;
  let t_scan = Stats.now stats0 -. t1 -. !revert_ns in
  if Tracer.enabled t.tracer then begin
    Tracer.complete t.tracer ~core:0 ~name:"load-log" ~cat:"recovery" ~ts:t0 ~dur:t_load ();
    Tracer.complete t.tracer ~core:0 ~name:"revert" ~cat:"recovery"
      ~args:[ ("rows", Nv_obs.Jsonx.Int !reverted) ]
      ~ts:t1 ~dur:!revert_ns ();
    Tracer.complete t.tracer ~core:0 ~name:"scan" ~cat:"recovery"
      ~args:[ ("rows", Nv_obs.Jsonx.Int !scanned) ]
      ~ts:t1
      ~dur:(t_scan +. !revert_ns)
      ()
  end;
  rhook Rec_scan_done;
  (* Deterministic replay of the crashed epoch. *)
  let t2 = Stats.now stats0 in
  ignore (barrier t);
  let replayed =
    match log_entries with
    | None -> 0
    | Some entries ->
        let txns = Array.of_list (List.map rebuild entries) in
        let (module Cc) = cc_of_mode replay_mode in
        ignore (Cc.run ~replay:true t txns);
        Array.length txns
  in
  let t_replay = total_time_ns t -. t2 in
  (* Judge the deferred suspects. A genuine torn crashed-epoch write
     was just rewritten by the replay (deterministic inputs produce the
     same write set), so its slot now verifies; one that still fails
     was fabricated by media corruption — or belongs to an epoch whose
     log was dropped — and is reverted and reported. *)
  List.iter
    (fun (base, table, key, (row : Row.t)) ->
      match Prow.check_slot t.pmem ~base ~slot:`V2 with
      | Prow.Slot_ok -> ()
      | Prow.Slot_stale_crc ->
          Prow.rewrite_slot_crc t.pmem stats0 ~base ~slot:`V2;
          incr crc_repaired
      | Prow.Slot_corrupt ->
          report_damage ~table ~key `Current_version;
          Prow.set_version t.pmem stats0 ~base ~slot:`V2 ~sid:Sid.none ~ptr:Vptr.null ();
          Row.clear_version row.Row.pv2)
    !suspects;
  if Tracer.enabled t.tracer then
    Tracer.complete t.tracer ~core:0 ~name:"replay" ~cat:"recovery"
      ~args:[ ("txns", Nv_obs.Jsonx.Int replayed) ]
      ~ts:t2 ~dur:t_replay ();
  rhook Rec_replay_done;
  let report =
    {
      Report.load_log_ns = t_load;
      scan_ns = t_scan;
      revert_ns = !revert_ns;
      replay_ns = t_replay;
      total_ns = total_time_ns t;
      scanned_rows = !scanned;
      reverted_rows = !reverted;
      replayed_txns = replayed;
      scrubbed = scrub;
      log_dropped = !log_dropped;
      crc_repaired = !crc_repaired;
      stale_dropped = !stale_dropped;
      alloc_salvaged;
      alloc_corrupt_entries = alloc_corrupt;
      counter_salvaged = !counter_salvaged;
      damage = List.rev !damage;
    }
  in
  (t, report)
