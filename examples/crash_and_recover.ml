(* Crash and recover: the paper's headline capability. The database
   crashes mid-epoch, the simulated NVMM tears every unpersisted cache
   line, and recovery rebuilds the exact committed state from the bytes
   alone — then deterministically replays the crashed epoch from the
   input log.

     dune exec examples/crash_and_recover.exe *)

open Nvcaracal

let table = 0

(* Inputs must round-trip through the log for deterministic replay:
   encode (key, delta) pairs. *)
let encode key delta =
  let b = Bytes.create 16 in
  Bytes.set_int64_le b 0 key;
  Bytes.set_int64_le b 8 delta;
  b

let txn_of_input input =
  let key = Bytes.get_int64_le input 0 in
  let delta = Bytes.get_int64_le input 8 in
  Txn.make ~input ~write_set:[ Txn.Update { table; key } ] (fun ctx ->
      match ctx.Txn.Ctx.read ~table ~key with
      | Some v ->
          let b = Bytes.create 8 in
          Bytes.set_int64_le b 0 (Int64.add (Bytes.get_int64_le v 0) delta);
          ctx.Txn.Ctx.write ~table ~key b
      | None -> failwith "missing row")

let add key delta = txn_of_input (encode key delta)

exception Power_failure

let () =
  (* The NVMM region tracks exactly which stores are persistent. *)
  let config = Config.make ~cores:4 () in
  let tables = [ Table.make ~id:table ~name:"counters" () ] in
  let db = Db.create ~config ~tables () in
  Db.bulk_load db
    (Seq.init 500 (fun i ->
         let b = Bytes.create 8 in
         Bytes.set_int64_le b 0 0L;
         (table, Int64.of_int i, b)));

  let rng = Nv_util.Rng.create 99 in
  let batch () =
    Array.init 200 (fun _ ->
        add (Int64.of_int (Nv_util.Rng.int rng 500)) (Int64.of_int (Nv_util.Rng.int rng 10)))
  in

  (* Two clean epochs... *)
  ignore (Db.run_epoch db (batch ()));
  ignore (Db.run_epoch db (batch ()));
  Format.printf "committed 2 epochs (epoch = %d)@." (Db.epoch db);

  (* ...then the power fails in the middle of epoch 4's execution. *)
  Db.set_phase_hook db (fun phase ->
      if phase = Db.Exec_txn 120 then raise Power_failure);
  (try ignore (Db.run_epoch db (batch ())) with
  | Power_failure -> Format.printf "power failed mid-epoch!@.");

  (* Tear the NVMM to a legal crash image: every line independently
     keeps either its last persisted content or some prefix of the
     stores since. *)
  let pmem = Db.crash db ~rng:(Nv_util.Rng.create 1) in
  Format.printf "crashed; recovering from the NVMM image alone...@.";

  let db2, report = Db.recover ~config ~tables ~pmem ~rebuild:txn_of_input () in
  Format.printf "%a@." Report.pp_recovery_report report;
  Format.printf "recovered to epoch %d (the crashed epoch was replayed from its input log)@."
    (Db.epoch db2);

  (* The recovered database keeps processing. *)
  ignore (Db.run_epoch db2 (batch ()));
  let sum = ref 0L in
  Db.iter_committed db2 ~table (fun _ v -> sum := Int64.add !sum (Bytes.get_int64_le v 0));
  Format.printf "epoch %d committed after recovery; counter sum = %Ld@." (Db.epoch db2) !sum
