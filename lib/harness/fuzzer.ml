module Config = Nvcaracal.Config
module Db = Nvcaracal.Db
module Table = Nvcaracal.Table
module W = Nv_workloads.Workload
module Rng = Nv_util.Rng

module Pmem = Nv_nvmm.Pmem
module Report = Nvcaracal.Report

type outcome = {
  iterations : int;
  crashes_injected : int;
  replays : int;
  faulted : int;  (* iterations that injected media faults *)
  recrashes : int;  (* crashes injected in the middle of recovery *)
  salvages : int;  (* recoveries that repaired/salvaged/reported corruption *)
  detection_only : int;  (* iterations verified by damage report alone *)
  diffed : int;  (* iterations that cross-checked NVCaracal against Zen *)
  failures : string list;
}

(* Every 5th iteration fuzzes an in-process routed cluster instead:
   random member count, cross-shard transfers, a random member crash +
   recovery from its own NVMM, checked against money conservation and a
   single-member cluster run of the same batches. *)
let fuzz_cluster rng iter failures =
  let nodes = 2 + Rng.int rng 3 in
  let accounts = 40 + Rng.int rng 80 in
  let config =
    Config.make ~cores:(Rng.pick rng [| 2; 4 |]) ~row_size:128
      ~rows_per_core:4096 ~values_per_core:4096 ~freelist_capacity:8192 ()
  in
  let tables = [ Nvcaracal.Table.make ~id:0 ~name:"a" () ] in
  let balance v =
    let b = Bytes.create 8 in
    Bytes.set_int64_le b 0 v;
    b
  in
  let transfer src dst amount =
    Nvcaracal.Txn.make ~input:Bytes.empty ~write_set:[] (fun ctx ->
        let bal key =
          match ctx.Nvcaracal.Txn.Ctx.read ~table:0 ~key with
          | Some v -> Bytes.get_int64_le v 0
          | None -> failwith "missing"
        in
        let s = bal src in
        if Int64.compare s amount < 0 then ctx.Nvcaracal.Txn.Ctx.abort ();
        let d = bal dst in
        ctx.Nvcaracal.Txn.Ctx.write ~table:0 ~key:src (balance (Int64.sub s amount));
        ctx.Nvcaracal.Txn.Ctx.write ~table:0 ~key:dst (balance (Int64.add d amount)))
  in
  let batch seed n =
    let brng = Rng.create seed in
    Array.init n (fun _ ->
        let src = Int64.of_int (Rng.int brng accounts) in
        let rec dst () =
          let d = Int64.of_int (Rng.int brng accounts) in
          if d = src then dst () else d
        in
        transfer src (dst ()) (Int64.of_int (1 + Rng.int brng 15)))
  in
  let run nodes crash_at =
    let member i ~applied db =
      Nvcaracal.Routed.create ~shard_id:i ~shards:nodes ~applied ~rebuild:Fun.id
        ~engine:(Nvcaracal.Engine_intf.Packed ((module Db.Serial_engine), db))
        ~tables
    in
    let dbs = Array.init nodes (fun _ -> Db.create ~config ~tables ()) in
    let members = Array.mapi (member ~applied:0) dbs in
    Array.iter
      (fun m ->
        Nvcaracal.Routed.bulk_load m
          (Seq.init accounts (fun i -> (0, Int64.of_int i, balance 100L))))
      members;
    let epoch = ref 0 in
    let seeds = List.init 4 (fun e -> 1000 + e) in
    List.iteri
      (fun e seed ->
        let rec retry b rounds =
          if Array.length b > 0 && rounds < 10 then begin
            incr epoch;
            let o = Nvcaracal.Routed.exec members ~epoch:!epoch b in
            retry (Array.of_list (List.filteri (fun i _ -> o.(i) = `Deferred) (Array.to_list b)))
              (rounds + 1)
          end
        in
        retry (batch seed 25) 0;
        match crash_at with
        | Some (ce, node) when ce = e && node < nodes ->
            let pmem = Db.crash dbs.(node) ~rng in
            let db, _ =
              Db.recover ~config ~tables ~pmem ~rebuild:Nvcaracal.Routed.apply_txn_of_input ()
            in
            dbs.(node) <- db;
            members.(node) <- member node ~applied:!epoch db
        | _ -> ())
      seeds;
    List.init accounts (fun k ->
        let key = Int64.of_int k in
        match
          Nvcaracal.Routed.read_committed
            members.(Nvcaracal.Routed.owner ~shards:nodes ~table:0 ~key)
            ~table:0 ~key
        with
        | Some v -> Bytes.get_int64_le v 0
        | None -> -1L)
  in
  let crash_at = Some (Rng.int rng 4, Rng.int rng nodes) in
  let sharded = run nodes crash_at in
  let reference = run 1 None in
  let conserved =
    List.fold_left Int64.add 0L sharded = Int64.of_int (accounts * 100)
  in
  if (not conserved) || sharded <> reference then
    failures :=
      Printf.sprintf "iter %d: partition fuzz mismatch (nodes=%d accounts=%d)" iter nodes
        accounts
      :: !failures

exception Crash_now

let pick_workload rng =
  match Rng.int rng 3 with
  | 0 ->
      Nv_workloads.Tpcc.make
        {
          Nv_workloads.Tpcc.warehouses = 1 + Rng.int rng 2;
          districts = 10;
          customers_per_district = 8 + Rng.int rng 8;
          items = 40;
          max_order_lines = 8;
          invalid_item_rate = 0.02;
        }
  | 1 ->
    Nv_workloads.Ycsb.make
      {
        Nv_workloads.Ycsb.rows = 200 + Rng.int rng 400;
        value_size = Rng.pick rng [| 16; 64; 200; 600 |];
        update_bytes = 16;
        hot_rows = 16;
        hot_per_txn = Rng.int rng 8;
        ops_per_txn = 4;
        distribution =
          (if Rng.bool rng then Nv_workloads.Ycsb.Hotspot
           else Nv_workloads.Ycsb.Zipfian 0.99);
      }
  | _ ->
    Nv_workloads.Smallbank.make
      {
        Nv_workloads.Smallbank.default with
        Nv_workloads.Smallbank.customers = 200 + Rng.int rng 400;
        hot_customers = 10 + Rng.int rng 20;
      }

let pick_config rng (w : W.t) =
  Config.make ~cores:(Rng.pick rng [| 1; 2; 4; 8 |])
    ~row_size:(Rng.pick rng [| 128; 256; 512 |])
    ~cache_k:(1 + Rng.int rng 4) ~minor_gc:(Rng.bool rng)
    ~cached_versions:(Rng.bool rng) ~batch_append:(Rng.bool rng)
    ~selective_caching:(Rng.bool rng) ~persistent_index:(Rng.bool rng)
    ~pindex_capacity:8192
    ~ordered_index:(if Rng.bool rng then Config.Avl else Config.Btree)
    ~rows_per_core:8192 ~values_per_core:8192 ~freelist_capacity:16384
    ~log_capacity:(1 lsl 20) ~n_counters:w.W.n_counters
    ~revert_on_recovery:w.W.revert_on_recovery ()

let pick_phase rng ~epoch_txns =
  match Rng.int rng 8 with
  | 0 -> Db.Log_done
  | 1 -> Db.Insert_done
  | 2 -> Db.Gc_pass1_done
  | 3 -> Db.Gc_done
  | 4 -> Db.Append_done
  | 5 -> Db.Exec_txn (Rng.int rng epoch_txns)
  | 6 -> Db.Exec_done
  | _ -> Db.Checkpointed

(* One oracle for every backend: the committed state as a sorted
   (table, key, value) list, read through the shared engine seam. *)
let engine_state (type e) (module E : Nvcaracal.Engine_intf.S with type t = e) (db : e)
    (w : W.t) =
  List.concat_map
    (fun (tb : Table.t) ->
      let out = ref [] in
      E.iter_committed db ~table:tb.Table.id (fun k v ->
          out := (tb.Table.id, k, Bytes.to_string v) :: !out);
      List.sort compare !out)
    w.W.tables

let state db (w : W.t) = engine_state (module Db.Serial_engine) db w

(* ------------------------------------------------------------------ *)
(* Differential campaign ([~diff:true]): each iteration runs the same
   seeded batches through the deterministic NVCaracal engine and
   through Zen via the shared {!Nvcaracal.Engine_intf.S} seam, and
   compares committed state and commit counts. Both engines execute
   batches in serial order, so any divergence is an engine bug (or a
   seam bug — which is the point of the campaign). Restricted to YCSB
   and SmallBank: Zen supports neither dynamic write sets nor the
   persistent counters TPC-C needs. *)

let pick_diff_workload rng =
  if Rng.bool rng then
    Nv_workloads.Ycsb.make
      {
        Nv_workloads.Ycsb.rows = 200 + Rng.int rng 400;
        value_size = Rng.pick rng [| 16; 64; 200; 600 |];
        update_bytes = 16;
        hot_rows = 16;
        hot_per_txn = Rng.int rng 8;
        ops_per_txn = 4;
        distribution =
          (if Rng.bool rng then Nv_workloads.Ycsb.Hotspot
           else Nv_workloads.Ycsb.Zipfian 0.99);
      }
  else
    Nv_workloads.Smallbank.make
      {
        Nv_workloads.Smallbank.default with
        Nv_workloads.Smallbank.customers = 200 + Rng.int rng 400;
        hot_customers = 10 + Rng.int rng 20;
      }

let run_packed packed (w : W.t) batches =
  match (packed : Nvcaracal.Engine_intf.packed) with
  | Nvcaracal.Engine_intf.Packed ((module E), db) ->
      E.bulk_load db (w.W.load ());
      List.iter (fun b -> ignore (E.run_batch db b)) batches;
      (E.state_digest db, E.committed_txns db)

let fuzz_diff iter_rng iter ~failures ~log =
  let w = pick_diff_workload iter_rng in
  let epochs = 2 + Rng.int iter_rng 3 in
  let epoch_txns = 30 + Rng.int iter_rng 50 in
  let batch_seed = Rng.int iter_rng 1_000_000 in
  let batches =
    let brng = Rng.create batch_seed in
    List.init epochs (fun _ -> w.W.gen_batch brng epoch_txns)
  in
  let s = Engine.setup ~epochs ~epoch_txns () in
  let run spec = run_packed (Engine.instantiate spec s w) w batches in
  let nv_digest, nv_committed = run (Engine.spec (Engine.Caracal Config.Nvcaracal)) in
  let zen_digest, zen_committed = run (Engine.spec Engine.Zen) in
  let ok = nv_digest = zen_digest && nv_committed = zen_committed in
  if not ok then
    failures :=
      Printf.sprintf "iter %d: %s (epochs=%d txns=%d) nvcaracal/zen divergence (committed %d vs %d)"
        iter w.W.name epochs epoch_txns nv_committed zen_committed
      :: !failures;
  log
    (Printf.sprintf "iter %3d: %-32s epochs=%d txns=%d diff %s" iter w.W.name epochs
       epoch_txns
       (if ok then "ok" else "MISMATCH"))

(* ------------------------------------------------------------------ *)
(* Media-fault campaign ([~faults:true]): each iteration crashes the
   victim through a random fault model — legal image, torn lines,
   bit-rot into cold media, dead lines — optionally crashes again in
   the middle of recovery, then recovers with [~scrub:true]. What the
   verdict checks depends on what the scrub found:

   - no damage: recovered state must equal the oracle exactly;
   - [log_dropped]: the crashed epoch reverted, so the oracle is
     rebuilt without its final batch;
   - damage attributed to a (table, key): the key is excluded from the
     comparison on both sides — the scrub already reported it lost;
   - [`Header] damage (row identity destroyed, loss not attributable):
     the iteration is verified by the damage report alone;
   - [Meta_region.Corrupt] or [Failure] escaping recovery counts as a
     loud detection when faults were injected, and as a failure on a
     legal image.

   Allocator and counter salvage never touch committed row state, so
   they leave the comparison strict. Crash-during-recovery is only
   paired with the legal and torn models: rot and dead lines can null
   stable versions in the first attempt, and the rerun's report would
   then under-state the damage those keys already suffered. *)

type fault_kind = F_legal | F_torn | F_rot | F_dead

let kind_name = function
  | F_legal -> "legal"
  | F_torn -> "torn"
  | F_rot -> "rot"
  | F_dead -> "dead"

let pick_fault rng =
  match Rng.int rng 4 with
  | 0 -> (F_legal, Pmem.no_faults)
  | 1 -> (F_torn, { Pmem.no_faults with Pmem.torn_frac = 0.5 })
  | 2 ->
      ( F_rot,
        {
          Pmem.no_faults with
          Pmem.rot_lines = 1 + Rng.int rng 4;
          rot_max_bits = 1 + Rng.int rng 3;
        } )
  | _ -> (F_dead, { Pmem.no_faults with Pmem.dead = 1 + Rng.int rng 2 })

let pick_rec_phase rng =
  match Rng.int rng 4 with
  | 0 -> Db.Rec_meta_recovered
  | 1 -> Db.Rec_log_loaded
  | 2 -> Db.Rec_scan_done
  | _ -> Db.Rec_replay_done

let fuzz_faults iter_rng iter ~crashes ~replays ~recrashes ~salvages ~detections
    ~failures ~log =
  let w = pick_workload iter_rng in
  let config = pick_config iter_rng w in
  let epochs = 2 + Rng.int iter_rng 3 in
  let epoch_txns = 30 + Rng.int iter_rng 50 in
  let batch_seed = Rng.int iter_rng 1_000_000 in
  let batches =
    let brng = Rng.create batch_seed in
    List.init epochs (fun _ -> w.W.gen_batch brng epoch_txns)
  in
  let oracle_without_last () =
    let o = Db.create ~config ~tables:w.W.tables () in
    Db.bulk_load o (w.W.load ());
    List.iteri (fun i b -> if i < epochs - 1 then ignore (Db.run_epoch o b)) batches;
    o
  in
  let oracle = Db.create ~config ~tables:w.W.tables () in
  Db.bulk_load oracle (w.W.load ());
  List.iter (fun b -> ignore (Db.run_epoch oracle b)) batches;
  let db = Db.create ~config ~tables:w.W.tables () in
  Db.bulk_load db (w.W.load ());
  List.iteri (fun i b -> if i < epochs - 1 then ignore (Db.run_epoch db b)) batches;
  let phase = pick_phase iter_rng ~epoch_txns in
  let log_committed = ref false in
  Db.set_phase_hook db (fun p ->
      if p = Db.Log_done then log_committed := true;
      if p = phase then raise Crash_now);
  let completed =
    try
      ignore (Db.run_epoch db (List.nth batches (epochs - 1)));
      true
    with Crash_now -> false
  in
  let kind, model = pick_fault iter_rng in
  let recrash = (kind = F_legal || kind = F_torn) && Rng.int iter_rng 3 = 0 in
  let recrash_at = pick_rec_phase iter_rng in
  incr crashes;
  let pmem =
    match kind with
    | F_legal -> Db.crash db ~rng:iter_rng
    | _ -> Db.crash ~faults:model db ~rng:iter_rng
  in
  let attempt ?recovery_hook () =
    Db.recover ~config ~tables:w.W.tables ~pmem ~rebuild:w.W.rebuild ?recovery_hook
      ~scrub:true ()
  in
  let verdict = ref "ok" in
  let fail msg =
    verdict := "MISMATCH";
    failures :=
      Printf.sprintf "iter %d: %s [%s%s] (epochs=%d txns=%d) %s" iter w.W.name
        (kind_name kind)
        (if recrash then "+recrash" else "")
        epochs epoch_txns msg
      :: !failures
  in
  let result =
    try
      let r =
        if recrash then begin
          match
            attempt ~recovery_hook:(fun p -> if p = recrash_at then raise Crash_now) ()
          with
          | r -> r
          | exception Crash_now ->
              incr recrashes;
              incr crashes;
              Pmem.crash pmem ~rng:iter_rng;
              attempt ()
        end
        else attempt ()
      in
      `Recovered r
    with
    | Nv_storage.Meta_region.Corrupt msg -> `Detected ("meta corrupt: " ^ msg)
    | Failure msg -> `Detected ("failure: " ^ msg)
  in
  (match result with
  | `Detected msg ->
      if kind = F_legal then fail ("raised on a legal image: " ^ msg)
      else begin
        incr detections;
        verdict := "detected"
      end
  | `Recovered (db2, report) ->
      if report.Report.replayed_txns > 0 then incr replays;
      if Report.has_salvage report then incr salvages;
      let damage = report.Report.damage in
      if kind = F_legal && (damage <> [] || report.Report.log_dropped) then
        fail
          (Printf.sprintf "false-positive damage on a legal crash image (log_dropped=%b %s)"
             report.Report.log_dropped
             (String.concat ","
                (List.map
                   (fun d ->
                     Format.asprintf "%a@%d/%Ld" Report.pp_damage d d.Report.d_table
                       d.Report.d_key)
                   damage)))
      else if List.exists (fun d -> d.Report.d_kind = `Header) damage then begin
        (* A destroyed row identity can't be attributed to a table, so
           the state comparison is meaningless; the loud report is the
           verdict. *)
        incr detections;
        verdict := Printf.sprintf "detected (%d damage)" (List.length damage)
      end
      else begin
        let oracle =
          if report.Report.log_dropped || not (completed || !log_committed) then
            oracle_without_last ()
          else oracle
        in
        let excluded =
          List.filter_map
            (fun d ->
              if d.Report.d_table >= 0 then Some (d.Report.d_table, d.Report.d_key)
              else None)
            damage
        in
        let filter st =
          List.filter (fun (tb, k, _) -> not (List.mem (tb, k) excluded)) st
        in
        if filter (state db2 w) <> filter (state oracle w) then
          fail "state mismatch after faulted crash"
        else if excluded <> [] then
          verdict := Printf.sprintf "ok (%d keys reported lost)" (List.length excluded)
      end);
  log
    (Printf.sprintf "iter %3d: %-32s epochs=%d txns=%d fault=%-5s%s %s" iter w.W.name
       epochs epoch_txns (kind_name kind)
       (if recrash then "+recrash" else "")
       !verdict)

let run ~seed ~iterations ?(faults = false) ?(diff = false) ?(log = fun _ -> ()) () =
  let rng = Rng.create seed in
  let crashes = ref 0 and replays = ref 0 and failures = ref [] in
  let faulted = ref 0
  and recrashes = ref 0
  and salvages = ref 0
  and detections = ref 0
  and diffs = ref 0 in
  for iter = 1 to iterations do
    let iter_rng = Rng.split rng in
    if diff then begin
      incr diffs;
      fuzz_diff iter_rng iter ~failures ~log
    end
    else if faults then begin
      incr faulted;
      fuzz_faults iter_rng iter ~crashes ~replays ~recrashes ~salvages ~detections
        ~failures ~log
    end
    else if iter mod 5 = 0 then begin
      incr crashes;
      fuzz_cluster iter_rng iter failures;
      log (Printf.sprintf "iter %3d: partition cluster fuzz %s" iter
             (if !failures = [] then "ok" else "MISMATCH"))
    end
    else begin
    let w = pick_workload iter_rng in
    let config = pick_config iter_rng w in
    let epochs = 2 + Rng.int iter_rng 3 in
    let epoch_txns = 30 + Rng.int iter_rng 50 in
    let batch_seed = Rng.int iter_rng 1_000_000 in
    let batches =
      let brng = Rng.create batch_seed in
      List.init epochs (fun _ -> w.W.gen_batch brng epoch_txns)
    in
    (* Oracle: same batches, no crash. *)
    let oracle = Db.create ~config ~tables:w.W.tables () in
    Db.bulk_load oracle (w.W.load ());
    List.iter (fun b -> ignore (Db.run_epoch oracle b)) batches;
    (* Victim: crash in the final epoch at a random phase. *)
    let db = Db.create ~config ~tables:w.W.tables () in
    Db.bulk_load db (w.W.load ());
    List.iteri (fun i b -> if i < epochs - 1 then ignore (Db.run_epoch db b)) batches;
    let phase = pick_phase iter_rng ~epoch_txns in
    let log_committed = ref false in
    Db.set_phase_hook db (fun p ->
        if p = Db.Log_done then log_committed := true;
        if p = phase then raise Crash_now);
    let completed =
      try
        ignore (Db.run_epoch db (List.nth batches (epochs - 1)));
        true
      with Crash_now -> false
    in
    incr crashes;
    let pmem = Db.crash db ~rng:iter_rng in
    let db2, report = Db.recover ~config ~tables:w.W.tables ~pmem ~rebuild:w.W.rebuild () in
    if report.Nvcaracal.Report.replayed_txns > 0 then incr replays;
    (* If the final epoch never logged, the oracle comparison must drop
       it: rebuild an oracle without it. *)
    let oracle =
      if completed || !log_committed then oracle
      else begin
        let o = Db.create ~config ~tables:w.W.tables () in
        Db.bulk_load o (w.W.load ());
        List.iteri (fun i b -> if i < epochs - 1 then ignore (Db.run_epoch o b)) batches;
        o
      end
    in
    if state db2 w <> state oracle w then
      failures :=
        Printf.sprintf "iter %d: %s (epochs=%d txns=%d) state mismatch after crash" iter
          w.W.name epochs epoch_txns
        :: !failures;
    log
      (Printf.sprintf "iter %3d: %-32s epochs=%d txns=%d crash=%s %s" iter w.W.name epochs
         epoch_txns
         (match phase with
         | Db.Log_done -> "log"
         | Db.Insert_done -> "insert"
         | Db.Gc_pass1_done -> "gc1"
         | Db.Gc_done -> "gc"
         | Db.Append_done -> "append"
         | Db.Exec_txn k -> Printf.sprintf "exec@%d" k
         | Db.Exec_done -> "exec-end"
         | Db.Checkpointed -> "checkpointed")
         (if state db2 w = state oracle w then "ok" else "MISMATCH"))
    end
  done;
  {
    iterations;
    crashes_injected = !crashes;
    replays = !replays;
    faulted = !faulted;
    recrashes = !recrashes;
    salvages = !salvages;
    detection_only = !detections;
    diffed = !diffs;
    failures = List.rev !failures;
  }
