(* Workload tests: each benchmark runs end-to-end on the engine,
   rebuild (log decode) reproduces transactions, and TPC-C's
   crash-recovery path (counter checkpointing + revert) matches a
   crash-free oracle run. *)

open Nvcaracal
module W = Nv_workloads.Workload
module Ycsb = Nv_workloads.Ycsb
module Smallbank = Nv_workloads.Smallbank
module Tpcc = Nv_workloads.Tpcc

let small_ycsb =
  Ycsb.with_contention `Medium { Ycsb.default with Ycsb.rows = 500; hot_rows = 16 }

let small_smallbank =
  { Smallbank.default with Smallbank.customers = 400; hot_customers = 20 }

let small_tpcc =
  { Tpcc.default with Tpcc.warehouses = 2; customers_per_district = 10; items = 50 }

let config_for (w : W.t) =
  Config.make ~cores:4 ~rows_per_core:32768 ~values_per_core:8192
    ~freelist_capacity:16384 ~n_counters:w.W.n_counters
    ~revert_on_recovery:w.W.revert_on_recovery ~log_capacity:(1 lsl 20) ()

let mk_db (w : W.t) =
  let db = Db.create ~config:(config_for w) ~tables:w.W.tables () in
  Db.bulk_load db (w.W.load ());
  db

let state db (w : W.t) =
  List.concat_map
    (fun (tb : Table.t) ->
      let out = ref [] in
      Db.iter_committed db ~table:tb.Table.id (fun k v ->
          out := (tb.Table.id, k, Bytes.to_string v) :: !out);
      List.sort compare !out)
    w.W.tables

let run_epochs db (w : W.t) ~seed ~epochs ~txns =
  let rng = Nv_util.Rng.create seed in
  let total_aborted = ref 0 in
  for _ = 1 to epochs do
    let stats = Db.run_epoch db (w.W.gen_batch rng txns) in
    total_aborted := !total_aborted + stats.Report.aborted
  done;
  !total_aborted

let test_ycsb_runs () =
  let w = Ycsb.make small_ycsb in
  let db = mk_db w in
  let aborted = run_epochs db w ~seed:1 ~epochs:5 ~txns:50 in
  Alcotest.(check int) "no aborts in ycsb" 0 aborted;
  Alcotest.(check int) "all committed" 250 (Db.committed_txns db)

let test_ycsb_deterministic () =
  let w = Ycsb.make small_ycsb in
  let db1 = mk_db w and db2 = mk_db w in
  ignore (run_epochs db1 w ~seed:7 ~epochs:3 ~txns:40);
  ignore (run_epochs db2 w ~seed:7 ~epochs:3 ~txns:40);
  Alcotest.(check bool) "same state" true (state db1 w = state db2 w)

let test_ycsb_rebuild_roundtrip () =
  let w = Ycsb.make small_ycsb in
  let rng = Nv_util.Rng.create 3 in
  let batch = w.W.gen_batch rng 20 in
  (* Applying the original batch and the rebuilt batch must produce the
     same state. *)
  let db1 = mk_db w and db2 = mk_db w in
  ignore (Db.run_epoch db1 batch);
  ignore (Db.run_epoch db2 (Array.map (fun (t : Txn.t) -> w.W.rebuild t.Txn.input) batch));
  Alcotest.(check bool) "rebuild equivalent" true (state db1 w = state db2 w)

let test_ycsb_contention_increases_transient () =
  let run level =
    let w = Ycsb.make (Ycsb.with_contention level { Ycsb.default with Ycsb.rows = 2000 }) in
    let db = mk_db w in
    let rng = Nv_util.Rng.create 5 in
    let stats = Db.run_epoch db (w.W.gen_batch rng 400) in
    Report.transient_fraction stats
  in
  let low = run `Low and high = run `High in
  Alcotest.(check bool)
    (Printf.sprintf "transient fraction rises with contention (%.2f < %.2f)" low high)
    true (low < high)

let test_ycsb_zipfian_skew () =
  (* Zipfian key selection concentrates writes: the transient fraction
     must exceed the uniform distribution's on the same table. *)
  let run dist =
    let w =
      Ycsb.make { small_ycsb with Ycsb.hot_per_txn = 0; distribution = dist; rows = 2000 }
    in
    let db = mk_db w in
    let rng = Nv_util.Rng.create 5 in
    let stats = Db.run_epoch db (w.W.gen_batch rng 400) in
    Report.transient_fraction stats
  in
  let uniform = run Ycsb.Hotspot (* hot_per_txn = 0 means uniform *) in
  let zipf = run (Ycsb.Zipfian 0.99) in
  Alcotest.(check bool)
    (Printf.sprintf "zipf more transient (%.2f > %.2f)" zipf uniform)
    true (zipf > uniform)

let test_smallbank_runs_and_aborts () =
  let w = Smallbank.make small_smallbank in
  let db = mk_db w in
  let aborted = run_epochs db w ~seed:11 ~epochs:10 ~txns:100 in
  (* Two of five types abort at ~10%: expect ~4% overall. *)
  let rate = float_of_int aborted /. 1000.0 in
  Alcotest.(check bool) (Printf.sprintf "abort rate ~4-10%% (got %.1f%%)" (rate *. 100.)) true
    (rate > 0.005 && rate < 0.15)

let test_smallbank_no_negative_savings () =
  (* Checking may overdraw (WriteCheck penalty path); savings never go
     negative because TransactSavings aborts first. *)
  let w = Smallbank.make small_smallbank in
  let db = mk_db w in
  ignore (run_epochs db w ~seed:13 ~epochs:10 ~txns:100);
  Db.iter_committed db ~table:Smallbank.savings_table (fun k v ->
      let bal = Bytes.get_int64_le v 0 in
      if Int64.compare bal 0L < 0 then
        Alcotest.failf "negative savings %Ld for customer %Ld" bal k)

let test_smallbank_rebuild_roundtrip () =
  let w = Smallbank.make small_smallbank in
  let rng = Nv_util.Rng.create 17 in
  let batch = w.W.gen_batch rng 50 in
  let db1 = mk_db w and db2 = mk_db w in
  ignore (Db.run_epoch db1 batch);
  ignore (Db.run_epoch db2 (Array.map (fun (t : Txn.t) -> w.W.rebuild t.Txn.input) batch));
  Alcotest.(check bool) "rebuild equivalent" true (state db1 w = state db2 w)

let test_tpcc_runs () =
  let w = Tpcc.make small_tpcc in
  let db = mk_db w in
  ignore (run_epochs db w ~seed:19 ~epochs:8 ~txns:60);
  (* NewOrders inserted orders; some were delivered. *)
  let orders = ref 0 and undelivered = ref 0 and delivered = ref 0 in
  Db.iter_committed db ~table:Tpcc.order_t (fun _ v ->
      incr orders;
      if Bytes.get_int64_le v 16 >= 0L then incr delivered);
  Db.iter_committed db ~table:Tpcc.new_order_t (fun _ _ -> incr undelivered);
  Alcotest.(check bool) "orders placed" true (!orders > 50);
  Alcotest.(check bool) "some delivered" true (!delivered > 0);
  Alcotest.(check int) "undelivered = orders - delivered" (!orders - !delivered) !undelivered

let test_tpcc_order_lines_consistent () =
  let w = Tpcc.make small_tpcc in
  let db = mk_db w in
  ignore (run_epochs db w ~seed:23 ~epochs:6 ~txns:50);
  (* Every committed order has exactly ol_cnt order lines. *)
  Db.iter_committed db ~table:Tpcc.order_t (fun key order ->
      let ol_cnt = Int64.to_int (Bytes.get_int64_le order 8) in
      let code = Int64.shift_right_logical key 32 in
      let o = Int64.to_int (Int64.logand key 0xFFFFFFFFL) in
      let w_id = Int64.to_int code / 10 and d = Int64.to_int code mod 10 in
      let found = ref 0 in
      for line = 0 to ol_cnt - 1 do
        if Db.read_committed db ~table:Tpcc.order_line_t
             ~key:(Tpcc.order_line_key ~w:w_id ~d ~o ~line) <> None
        then incr found
      done;
      Alcotest.(check int) (Printf.sprintf "lines of order %Ld" key) ol_cnt !found)

let test_tpcc_crash_recovery_matches_oracle () =
  (* Crash TPC-C mid-epoch; recovery (with counter restore + revert of
     crashed-epoch writes) must land in the same state as a crash-free
     run of the same batches. *)
  let w = Tpcc.make small_tpcc in
  let seed = 29 in
  let epochs_before = 3 and txns = 40 in
  let batches rng n = List.init n (fun _ -> w.W.gen_batch rng txns) in
  let rng1 = Nv_util.Rng.create seed in
  let all = batches rng1 (epochs_before + 1) in
  (* Oracle run. *)
  let oracle = mk_db w in
  List.iter (fun b -> ignore (Db.run_epoch oracle b)) all;
  (* Crash run. *)
  let db = mk_db w in
  List.iteri (fun i b -> if i < epochs_before then ignore (Db.run_epoch db b)) all;
  let exception Crash_now in
  Db.set_phase_hook db (fun p -> if p = Db.Exec_txn 25 then raise Crash_now);
  (try ignore (Db.run_epoch db (List.nth all epochs_before)) with Crash_now -> ());
  let pmem = Db.crash db ~rng:(Nv_util.Rng.create 31) in
  let db2, report =
    Db.recover
      ~config:(config_for w)
      ~tables:w.W.tables ~pmem ~rebuild:w.W.rebuild ()
  in
  Alcotest.(check int) "replayed" txns report.Report.replayed_txns;
  Alcotest.(check bool) "state equals oracle" true (state db2 w = state oracle w)

let test_tpcc_rebuild_roundtrip () =
  let w = Tpcc.make small_tpcc in
  let rng = Nv_util.Rng.create 37 in
  let batch = w.W.gen_batch rng 50 in
  let db1 = mk_db w and db2 = mk_db w in
  ignore (Db.run_epoch db1 batch);
  ignore (Db.run_epoch db2 (Array.map (fun (t : Txn.t) -> w.W.rebuild t.Txn.input) batch));
  Alcotest.(check bool) "rebuild equivalent" true (state db1 w = state db2 w)

let test_zen_runs_ycsb_and_smallbank () =
  (* The paper's Zen comparison covers YCSB and SmallBank. *)
  List.iter
    (fun (w : W.t) ->
      let config =
        {
          Nv_zen.Zen_db.default_config with
          cores = 4;
          slots_per_core = 32768;
          record_size = 1088;
          cache_entries = 256;
        }
      in
      let db = Nv_zen.Zen_db.create ~config ~tables:w.W.tables () in
      Nv_zen.Zen_db.bulk_load db (w.W.load ());
      let rng = Nv_util.Rng.create 41 in
      for _ = 1 to 3 do
        Nv_zen.Zen_db.exec_batch db (w.W.gen_batch rng 50)
      done;
      Alcotest.(check bool)
        (w.W.name ^ " committed on zen")
        true
        (Nv_zen.Zen_db.committed_txns db > 100))
    [ Ycsb.make small_ycsb; Smallbank.make small_smallbank ]

let suites =
  [
    ( "workloads",
      [
        Alcotest.test_case "ycsb runs" `Quick test_ycsb_runs;
        Alcotest.test_case "ycsb deterministic" `Quick test_ycsb_deterministic;
        Alcotest.test_case "ycsb rebuild" `Quick test_ycsb_rebuild_roundtrip;
        Alcotest.test_case "ycsb contention->transient" `Quick
          test_ycsb_contention_increases_transient;
        Alcotest.test_case "ycsb zipfian skew" `Quick test_ycsb_zipfian_skew;
        Alcotest.test_case "smallbank aborts" `Quick test_smallbank_runs_and_aborts;
        Alcotest.test_case "smallbank balances" `Quick test_smallbank_no_negative_savings;
        Alcotest.test_case "smallbank rebuild" `Quick test_smallbank_rebuild_roundtrip;
        Alcotest.test_case "tpcc runs" `Quick test_tpcc_runs;
        Alcotest.test_case "tpcc order lines" `Quick test_tpcc_order_lines_consistent;
        Alcotest.test_case "tpcc crash recovery" `Quick test_tpcc_crash_recovery_matches_oracle;
        Alcotest.test_case "tpcc rebuild" `Quick test_tpcc_rebuild_roundtrip;
        Alcotest.test_case "zen runs workloads" `Quick test_zen_runs_ycsb_and_smallbank;
      ] );
  ]
