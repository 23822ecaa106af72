(* Multi-shard deterministic execution over in-process Routed members:
   cross-shard transactions without two-phase commit, placement,
   deterministic deferral, member crash + recovery, and member-count
   invariance. *)

open Nvcaracal

let config =
  Config.make ~cores:4 ~crash_safe:true ~rows_per_core:4096 ~values_per_core:4096
    ~freelist_capacity:4096 ()

let tables = [ Table.make ~id:0 ~name:"accounts" () ]
let accounts = 64

let balance_bytes v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 v;
  b

(* An in-process cluster: one Db per member; calls are the
   transactions themselves. *)
type cluster = { dbs : Db.t array; members : Txn.t Routed.t array; mutable epoch : int }

let member ~shards i ~applied db =
  Routed.create ~shard_id:i ~shards ~applied ~rebuild:Fun.id
    ~engine:(Engine_intf.Packed ((module Db.Serial_engine), db))
    ~tables

let mk_cluster ?(config = config) ?(shards = 3) () =
  let dbs = Array.init shards (fun _ -> Db.create ~config ~tables ()) in
  let members = Array.mapi (member ~shards ~applied:0) dbs in
  Array.iter
    (fun m ->
      Routed.bulk_load m (Seq.init accounts (fun i -> (0, Int64.of_int i, balance_bytes 100L))))
    members;
  { dbs; members; epoch = 0 }

(* One epoch; returns the verdicts and the deferred transactions. *)
let run_epoch c batch =
  c.epoch <- c.epoch + 1;
  let outcomes = Routed.exec c.members ~epoch:c.epoch batch in
  (outcomes, Array.of_list (List.filteri (fun i _ -> outcomes.(i) = `Deferred) (Array.to_list batch)))

let read c ~key =
  Routed.read_committed c.members.(Routed.owner ~shards:(Array.length c.members) ~table:0 ~key)
    ~table:0 ~key

(* Move [amount] from one account to another — frequently spanning
   shards. *)
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

let balances c =
  List.init accounts (fun k ->
      match read c ~key:(Int64.of_int k) with Some v -> Bytes.get_int64_le v 0 | None -> -1L)

let total c = List.fold_left (fun acc b -> if b < 0L then acc else Int64.add acc b) 0L (balances c)

let gen_batch seed n =
  let rng = Nv_util.Rng.create seed in
  Array.init n (fun _ ->
      let src = Int64.of_int (Nv_util.Rng.int rng accounts) in
      let rec dst () =
        let d = Int64.of_int (Nv_util.Rng.int rng accounts) in
        if d = src then dst () else d
      in
      transfer ~src ~dst:(dst ()) ~amount:(Int64.of_int (1 + Nv_util.Rng.int rng 20)))

(* Runs [batch] with retries; returns how many transactions committed. *)
let run_with_retry c batch =
  let committed = ref 0 in
  let rec go batch rounds =
    if Array.length batch > 0 && rounds <= 20 then begin
      let outcomes, deferred = run_epoch c batch in
      Array.iter (fun o -> if o = `Committed then incr committed) outcomes;
      go deferred (rounds + 1)
    end
  in
  go batch 0;
  !committed

let test_cross_partition_transfers () =
  let c = mk_cluster () in
  let committed = ref 0 in
  for seed = 1 to 5 do
    committed := !committed + run_with_retry c (gen_batch seed 30)
  done;
  (* Money is conserved across shards despite cross-member transfers
     and no 2PC. *)
  Alcotest.(check int64) "conserved" (Int64.of_int (accounts * 100)) (total c);
  Alcotest.(check bool) "committed txns" true (!committed > 50);
  Array.iter
    (fun db -> Alcotest.(check bool) "time advanced" true (Db.total_time_ns db > 0.0))
    c.dbs

let test_keys_are_sharded () =
  let c = mk_cluster () in
  let counts = Array.make 3 0 in
  for k = 0 to accounts - 1 do
    let o = Routed.owner ~shards:3 ~table:0 ~key:(Int64.of_int k) in
    counts.(o) <- counts.(o) + 1
  done;
  Array.iter (fun n -> Alcotest.(check bool) "non-degenerate shard" true (n > 5)) counts;
  ignore (run_with_retry c (gen_batch 1 30));
  (* Each member only stores its shard, before and after cross-shard
     writes. *)
  for node = 0 to 2 do
    let local = ref 0 in
    Db.iter_committed c.dbs.(node) ~table:0 (fun k _ ->
        incr local;
        Alcotest.(check int) "row on its owner" node (Routed.owner ~shards:3 ~table:0 ~key:k));
    Alcotest.(check int) "shard size" counts.(node) !local
  done

let test_conflicts_defer_deterministically () =
  let run () =
    let c = mk_cluster () in
    let batch =
      Array.init 10 (fun i -> transfer ~src:1L ~dst:(Int64.of_int (10 + i)) ~amount:5L)
    in
    let _, deferred = run_epoch c batch in
    (Array.length deferred, total c)
  in
  let d1, t1 = run () and d2, t2 = run () in
  Alcotest.(check int) "same deferrals" d1 d2;
  Alcotest.(check int64) "same totals" t1 t2;
  (* All ten conflict on account 1: only the first commits per epoch. *)
  Alcotest.(check int) "nine deferred" 9 d1

(* A member's whole durability is its own engine: crash its Db, recover
   it from the torn NVMM image (its input log replays apply-writes with
   Routed.apply_txn_of_input), and it rejoins at the epoch it had
   applied; the router then carries it forward with the cluster. *)
let test_node_crash_and_catchup () =
  let c = mk_cluster () in
  for seed = 1 to 3 do
    ignore (run_with_retry c (gen_batch seed 30))
  done;
  let before = balances c in
  let engine_epoch = Db.epoch c.dbs.(1) in
  let pmem = Db.crash c.dbs.(1) ~rng:(Nv_util.Rng.create 5) in
  let db, _ = Db.recover ~config ~tables ~pmem ~rebuild:Routed.apply_txn_of_input () in
  c.dbs.(1) <- db;
  c.members.(1) <- member ~shards:3 1 ~applied:c.epoch db;
  Alcotest.(check int) "back at its pre-crash engine epoch" engine_epoch (Db.epoch db);
  Alcotest.(check (list int64)) "balances intact" before (balances c);
  (* The cluster keeps processing. *)
  ignore (run_with_retry c (gen_batch 9 30));
  Alcotest.(check int64) "still conserved" (Int64.of_int (accounts * 100)) (total c)

(* Crash a member right after its first epochs: what it owns comes back
   only from replaying its own input log, and the cluster carries on. *)
let test_node_crash_replays_local_log () =
  let c = mk_cluster () in
  ignore (run_with_retry c (gen_batch 1 40));
  let owned db =
    let rows = ref [] in
    Db.iter_committed db ~table:0 (fun k v -> rows := (k, Bytes.get_int64_le v 0) :: !rows);
    List.sort compare !rows
  in
  let before = owned c.dbs.(0) in
  let pmem = Db.crash c.dbs.(0) ~rng:(Nv_util.Rng.create 11) in
  let db, _ = Db.recover ~config ~tables ~pmem ~rebuild:Routed.apply_txn_of_input () in
  c.dbs.(0) <- db;
  c.members.(0) <- member ~shards:3 0 ~applied:c.epoch db;
  Alcotest.(check (list (pair int64 int64))) "owned rows replayed" before (owned db);
  ignore (run_with_retry c (gen_batch 2 40));
  Alcotest.(check int64) "conserved" (Int64.of_int (accounts * 100)) (total c)

let test_cluster_size_invariance () =
  (* The committed state is a pure function of the batch sequence:
     1-, 2- and 4-member clusters must agree key for key. *)
  let state_of shards =
    let c = mk_cluster ~shards () in
    for seed = 1 to 4 do
      ignore (run_with_retry c (gen_batch seed 25))
    done;
    balances c
  in
  let one = state_of 1 in
  List.iter
    (fun n ->
      Alcotest.(check bool) (Printf.sprintf "%d members agree with 1" n) true (state_of n = one))
    [ 2; 4 ]

(* --- Failure handling: every refusal of the protocol is a loud
   Failure (or Invalid_argument) that leaves the member unapplied. --- *)

let fails what f =
  match f () with
  | exception Failure _ -> ()
  | _ -> Alcotest.failf "%s: expected Failure" what

let test_out_of_range_shard () =
  let db = Db.create ~config ~tables () in
  List.iter
    (fun shard_id ->
      match member ~shards:3 shard_id ~applied:0 db with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "shard %d of 3 accepted" shard_id)
    [ -1; 3 ]

let test_route_epoch_gap () =
  let c = mk_cluster () in
  let calls = gen_batch 1 5 in
  fails "route ahead of the next epoch" (fun () ->
      Routed.route c.members.(0) ~epoch:2 ~calls ~reads:[||]);
  ignore (run_epoch c calls);
  fails "re-route an applied epoch" (fun () ->
      Routed.route c.members.(0) ~epoch:1 ~calls ~reads:[||]);
  Alcotest.(check int) "applied unchanged" 1 (Routed.applied c.members.(0))

let test_fence_needs_route () =
  let c = mk_cluster () in
  let m = c.members.(0) in
  let calls = gen_batch 1 5 in
  fails "fence with no route" (fun () -> Routed.fence m ~epoch:1 ~reads:[||] ~persist:ignore);
  ignore (Routed.route m ~epoch:1 ~calls ~reads:[||]);
  let persisted = ref false in
  fails "fence of another epoch" (fun () ->
      Routed.fence m ~epoch:2 ~reads:[||] ~persist:(fun _ -> persisted := true));
  Alcotest.(check bool) "nothing persisted" false !persisted;
  Alcotest.(check int) "nothing applied" 0 (Routed.applied m)

let test_replay_epoch_gap () =
  let c = mk_cluster () in
  fails "replay past a gap" (fun () ->
      Routed.replay c.members.(0) ~epoch:2 ~calls:(gen_batch 1 5) ~reads:[||]);
  Alcotest.(check int) "nothing applied" 0 (Routed.applied c.members.(0))

(* Router-level checks, over scripted peers. *)
let answer key value = { Routed.sr_table = 0; sr_key = key; sr_value = Some (Bytes.of_string value) }

let scripted ?(fence = fun _ -> [| `Committed |]) route = { Routed.route; fence }

let test_router_rejects_disagreeing_reads () =
  let fenced = ref false in
  let fence _ =
    fenced := true;
    [| `Committed |]
  in
  let peers =
    [|
      scripted ~fence (fun _ -> ([| answer 1L "a" |], true));
      scripted ~fence (fun _ -> ([| answer 1L "b" |], true));
    |]
  in
  fails "disagreeing reads" (fun () -> Routed.run_epoch ~epoch:1 peers);
  Alcotest.(check bool) "no member fenced" false !fenced

let test_router_trips_on_divergent_verdicts () =
  let peers =
    [|
      scripted (fun _ -> ([||], true));
      scripted ~fence:(fun _ -> [| `Deferred |]) (fun _ -> ([||], true));
    |]
  in
  fails "divergent verdicts" (fun () -> Routed.run_epoch ~epoch:1 peers)

let test_router_bounds_reconnaissance () =
  (* A member that always learns something new and never completes. *)
  let rounds = ref 0 in
  let peer =
    scripted (fun _ ->
        incr rounds;
        ([| answer (Int64.of_int !rounds) "x" |], false))
  in
  fails "endless reconnaissance" (fun () -> Routed.run_epoch ~epoch:1 [| peer |]);
  Alcotest.(check bool) "bounded rounds" true (!rounds > 1 && !rounds <= 32)

let suites =
  [
    (* Printed as "partition" so the ids of these tests stay stable. *)
    ( "partition",
      [
        Alcotest.test_case "cross-partition transfers" `Quick test_cross_partition_transfers;
        Alcotest.test_case "sharding" `Quick test_keys_are_sharded;
        Alcotest.test_case "deterministic deferral" `Quick test_conflicts_defer_deterministically;
        Alcotest.test_case "node crash + catch-up" `Quick test_node_crash_and_catchup;
        Alcotest.test_case "crash replays local log" `Quick test_node_crash_replays_local_log;
        Alcotest.test_case "cluster-size invariance" `Quick test_cluster_size_invariance;
      ] );
    ( "routed.failure-handling",
      [
        Alcotest.test_case "out-of-range shard rejected" `Quick test_out_of_range_shard;
        Alcotest.test_case "route refuses an epoch gap" `Quick test_route_epoch_gap;
        Alcotest.test_case "fence needs its route" `Quick test_fence_needs_route;
        Alcotest.test_case "replay refuses an epoch gap" `Quick test_replay_epoch_gap;
        Alcotest.test_case "router rejects disagreeing reads" `Quick
          test_router_rejects_disagreeing_reads;
        Alcotest.test_case "router trips on divergent verdicts" `Quick
          test_router_trips_on_divergent_verdicts;
        Alcotest.test_case "router bounds reconnaissance" `Quick test_router_bounds_reconnaissance;
      ] );
  ]
