(* Sharded cluster: distributed transactions without two-phase commit —
   the deterministic-database argument from the paper's introduction.
   Keys are hash-sharded over three in-process members of a routed
   cluster; cross-shard transfers commit through one Route/Fence epoch
   with no vote, and a crashed member recovers from its own NVMM.

     dune exec examples/sharded_cluster.exe *)

open Nvcaracal

let accounts = 300
let shards = 3

let balance_bytes v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 v;
  b

let transfer ~src ~dst ~amount =
  Txn.make ~input:Bytes.empty ~write_set:[] (fun ctx ->
      let bal key =
        match ctx.Txn.Ctx.read ~table:0 ~key with
        | Some v -> Bytes.get_int64_le v 0
        | None -> failwith "missing account"
      in
      let s = bal src in
      if Int64.compare s amount < 0 then ctx.Txn.Ctx.abort ();
      let d = bal dst in
      ctx.Txn.Ctx.write ~table:0 ~key:src (balance_bytes (Int64.sub s amount));
      ctx.Txn.Ctx.write ~table:0 ~key:dst (balance_bytes (Int64.add d amount)))

let () =
  let config = Config.make ~cores:4 ~row_size:128 ~crash_safe:true () in
  let tables = [ Table.make ~id:0 ~name:"accounts" () ] in
  (* Each member is an ordinary Db; the calls it receives are the
     transactions themselves. *)
  let member i ~applied db =
    Routed.create ~shard_id:i ~shards ~applied ~rebuild:Fun.id
      ~engine:(Engine_intf.Packed ((module Db.Serial_engine), db))
      ~tables
  in
  let dbs = Array.init shards (fun _ -> Db.create ~config ~tables ()) in
  let members = Array.mapi (member ~applied:0) dbs in
  Array.iter
    (fun m ->
      Routed.bulk_load m (Seq.init accounts (fun i -> (0, Int64.of_int i, balance_bytes 100L))))
    members;

  let rng = Nv_util.Rng.create 2026 in
  let batch n =
    Array.init n (fun _ ->
        let src = Int64.of_int (Nv_util.Rng.int rng accounts) in
        let rec dst () =
          let d = Int64.of_int (Nv_util.Rng.int rng accounts) in
          if d = src then dst () else d
        in
        transfer ~src ~dst:(dst ()) ~amount:(Int64.of_int (1 + Nv_util.Rng.int rng 30)))
  in
  let epoch = ref 0 and committed = ref 0 in
  let run txns =
    incr epoch;
    let outcomes = Routed.exec members ~epoch:!epoch txns in
    Array.iter (fun o -> if o = `Committed then incr committed) outcomes;
    Array.of_list (List.filteri (fun i _ -> outcomes.(i) = `Deferred) (Array.to_list txns))
  in

  let total_txns = 200 in
  for _ = 1 to 4 do
    let deferred = run (batch 50) in
    (* Deferred (conflicting) transfers retry next epoch. *)
    if Array.length deferred > 0 then ignore (run deferred)
  done;

  let total () =
    let sum = ref 0L in
    for k = 0 to accounts - 1 do
      let key = Int64.of_int k in
      match Routed.read_committed members.(Routed.owner ~shards ~table:0 ~key) ~table:0 ~key with
      | Some v -> sum := Int64.add !sum (Bytes.get_int64_le v 0)
      | None -> ()
    done;
    !sum
  in
  Format.printf "after %d submitted transfers across %d shards: total = %Ld (expected %d)@."
    total_txns shards (total ()) (accounts * 100);
  Format.printf "committed: %d, cluster epoch: %d@." !committed !epoch;

  (* Member 2 loses power; its NVMM tears; it recovers from its own log
     and checkpoint and rejoins at the epoch it had applied. *)
  let pmem = Db.crash dbs.(2) ~rng:(Nv_util.Rng.create 5) in
  Format.printf "member 2 crashed...@.";
  let db, _ = Db.recover ~config ~tables ~pmem ~rebuild:Routed.apply_txn_of_input () in
  members.(2) <- member 2 ~applied:!epoch db;
  Format.printf "member 2 recovered at engine epoch %d; total = %Ld (still conserved)@."
    (Db.epoch db) (total ());

  ignore (run (batch 50));
  Format.printf "cluster continues: epoch %d@." !epoch
