(* Crash-recovery tests: a deterministic mini-workload drives the
   engine, a pure-OCaml model predicts the committed state, and crashes
   are injected at every phase of an epoch. After [Db.crash] +
   [Db.recover], the database must equal the model state of all
   committed epochs (including the replayed one whenever the input log
   committed before the crash). *)

open Nvcaracal

(* ------------------------------------------------------------------ *)
(* Mini-workload: serializable ops with a binary codec for the log.    *)

type mop =
  | Set of { key : int64; len : int; tag : char }  (* read-modify-write *)
  | Ins of { key : int64; len : int; tag : char }
  | Del of { key : int64 }
  | AbortAfterRead of { key : int64 }

let value ~len ~tag = Bytes.make len tag

let encode_ops ops =
  let buf = Buffer.create 64 in
  Buffer.add_uint8 buf (List.length ops);
  List.iter
    (fun op ->
      let add tag key len c =
        Buffer.add_uint8 buf tag;
        Buffer.add_int64_le buf key;
        Buffer.add_uint16_le buf len;
        Buffer.add_char buf c
      in
      match op with
      | Set { key; len; tag } -> add 0 key len tag
      | Ins { key; len; tag } -> add 1 key len tag
      | Del { key } -> add 2 key 0 ' '
      | AbortAfterRead { key } -> add 3 key 0 ' ')
    ops;
  Buffer.to_bytes buf

let decode_ops b =
  let n = Char.code (Bytes.get b 0) in
  let pos = ref 1 in
  List.init n (fun _ ->
      let tag = Char.code (Bytes.get b !pos) in
      let key = Bytes.get_int64_le b (!pos + 1) in
      let len = Bytes.get_uint16_le b (!pos + 9) in
      let c = Bytes.get b (!pos + 11) in
      pos := !pos + 12;
      match tag with
      | 0 -> Set { key; len; tag = c }
      | 1 -> Ins { key; len; tag = c }
      | 2 -> Del { key }
      | 3 -> AbortAfterRead { key }
      | _ -> assert false)

let txn_of_ops ops =
  let write_set =
    List.filter_map
      (function
        | Set { key; _ } -> Some (Txn.Update { table = 0; key })
        | Ins { key; len; tag } ->
            Some (Txn.Insert { table = 0; key; data = Some (value ~len ~tag) })
        | Del { key } -> Some (Txn.Delete { table = 0; key })
        | AbortAfterRead _ -> None)
      ops
  in
  Txn.make ~input:(encode_ops ops) ~write_set (fun ctx ->
      List.iter
        (fun op ->
          match op with
          | Set { key; len; tag } ->
              ignore (ctx.Txn.Ctx.read ~table:0 ~key);
              ctx.Txn.Ctx.write ~table:0 ~key (value ~len ~tag)
          | Ins _ -> () (* data supplied at the insert step *)
          | Del { key } -> ctx.Txn.Ctx.delete ~table:0 ~key
          | AbortAfterRead { key } ->
              ignore (ctx.Txn.Ctx.read ~table:0 ~key);
              ctx.Txn.Ctx.abort ())
        ops)

let rebuild input = txn_of_ops (decode_ops input)

(* ------------------------------------------------------------------ *)
(* Deterministic batch generation plus the reference model.            *)

let initial_keys = 24
let epoch_txns = 16

(* The model applies a batch exactly as the serial order dictates. *)
let model_apply model batch =
  Array.iter
    (fun ops ->
      List.iter
        (fun op ->
          match op with
          | Set { key; len; tag } -> Hashtbl.replace model key (value ~len ~tag)
          | Ins { key; len; tag } -> Hashtbl.replace model key (value ~len ~tag)
          | Del { key } -> Hashtbl.remove model key
          | AbortAfterRead _ -> ())
        ops)
    batch

(* Generate the batch for [epoch] from a per-epoch RNG stream. The
   generator consults [model]-alive keys as of the previous epoch and
   avoids inserting keys that still exist or deleting keys twice. *)
let gen_batch ~seed ~epoch model =
  let rng = Nv_util.Rng.create (seed + (1000 * epoch)) in
  let alive = Hashtbl.fold (fun k _ acc -> k :: acc) model [] in
  let alive = Array.of_list (List.sort compare alive) in
  let deleted = Hashtbl.create 8 in
  let inserted = Hashtbl.create 8 in
  let fresh_key = ref (Int64.of_int (1000 + (epoch * 100))) in
  Array.init epoch_txns (fun _ ->
      let n_ops = 1 + Nv_util.Rng.int rng 3 in
      let pick_alive () =
        if Array.length alive = 0 then None
        else
          let k = Nv_util.Rng.pick rng alive in
          if Hashtbl.mem deleted k then None else Some k
      in
      (* User aborts must precede the transaction's first write, so an
         aborting transaction carries only reads. *)
      if Nv_util.Rng.int rng 10 = 0 then
        match pick_alive () with Some key -> [ AbortAfterRead { key } ] | None -> []
      else
        List.filter_map
          (fun _ ->
            let len = if Nv_util.Rng.bool rng then 16 else 200 in
            let tag = Char.chr (Char.code 'a' + Nv_util.Rng.int rng 26) in
            match Nv_util.Rng.int rng 9 with
            | 0 ->
                let key = !fresh_key in
                fresh_key := Int64.add key 1L;
                Hashtbl.replace inserted key ();
                Some (Ins { key; len; tag })
            | 1 -> (
                match pick_alive () with
                | Some key when not (Hashtbl.mem inserted key) ->
                    Hashtbl.replace deleted key ();
                    Some (Del { key })
                | Some _ | None -> None)
            | _ -> (
                match pick_alive () with
                | Some key -> Some (Set { key; len; tag })
                | None -> None))
          (List.init n_ops Fun.id))

let load_rows =
  Seq.init initial_keys (fun i ->
      (0, Int64.of_int i, value ~len:(if i mod 2 = 0 then 16 else 200) ~tag:'0'))

let model_load () =
  let model = Hashtbl.create 64 in
  Seq.iter (fun (_, k, v) -> Hashtbl.replace model k v) load_rows;
  model

let tables = [ Table.make ~id:0 ~name:"t" () ]

let test_config =
  Config.make ~cores:4 ~crash_safe:true ~cache_k:3 ~rows_per_core:2048 ~values_per_core:2048
    ~freelist_capacity:2048 ()

let pindex_config =
  Config.make ~cores:4 ~crash_safe:true ~cache_k:3 ~rows_per_core:2048 ~values_per_core:2048
    ~freelist_capacity:2048 ~persistent_index:true ~pindex_capacity:512 ()

let db_state db =
  let out = ref [] in
  Db.iter_committed db ~table:0 (fun k v -> out := (k, Bytes.to_string v) :: !out);
  List.sort compare !out

let model_state model =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, Bytes.to_string v) :: acc) model [])

let check_states_equal what model db =
  let ms = model_state model and ds = db_state db in
  if ms <> ds then begin
    let pp l =
      String.concat "; "
        (List.map
           (fun (k, v) -> Printf.sprintf "%Ld=%c(%d)" k (if v = "" then '?' else v.[0]) (String.length v))
           l)
    in
    Alcotest.failf "%s:\n model: %s\n db:    %s" what (pp ms) (pp ds)
  end

(* ------------------------------------------------------------------ *)
(* Tests                                                               *)

let test_determinism_no_crash () =
  let db = Db.create ~config:test_config ~tables () in
  Db.bulk_load db load_rows;
  let model = model_load () in
  let seed = 42 in
  for epoch = 2 to 6 do
    let batch = gen_batch ~seed ~epoch model in
    ignore (Db.run_epoch db (Array.map txn_of_ops batch));
    model_apply model batch;
    check_states_equal (Printf.sprintf "epoch %d" epoch) model db
  done

exception Crash_now

(* Run [crash_epoch - 1] clean epochs, then crash epoch [crash_epoch]
   at [phase]; recover and check against the model. *)
let run_crash_scenario ?(config = test_config) ~seed ~crash_epoch ~phase_pred ~crash_seed () =
  let db = Db.create ~config ~tables () in
  Db.bulk_load db load_rows;
  let model = model_load () in
  for epoch = 2 to crash_epoch - 1 do
    let batch = gen_batch ~seed ~epoch model in
    ignore (Db.run_epoch db (Array.map txn_of_ops batch));
    model_apply model batch
  done;
  let crash_batch = gen_batch ~seed ~epoch:crash_epoch model in
  let log_committed = ref false in
  Db.set_phase_hook db (fun phase ->
      if phase = Db.Log_done then log_committed := true;
      if phase_pred phase then raise Crash_now);
  let completed =
    try
      ignore (Db.run_epoch db (Array.map txn_of_ops crash_batch));
      true
    with Crash_now -> false
  in
  let pmem = Db.crash db ~rng:(Nv_util.Rng.create crash_seed) in
  let db2, report = Db.recover ~config ~tables ~pmem ~rebuild () in
  (* The crashed epoch counts iff its input log committed (or the epoch
     completed entirely). *)
  if completed || !log_committed then model_apply model crash_batch;
  check_states_equal "post-recovery" model db2;
  (* The recovered database keeps working. *)
  let next = gen_batch ~seed ~epoch:(crash_epoch + 1) model in
  ignore (Db.run_epoch db2 (Array.map txn_of_ops next));
  model_apply model next;
  check_states_equal "post-recovery epoch" model db2;
  report

let phase_cases =
  [
    ("after log", fun p -> p = Db.Log_done);
    ("after insert step", fun p -> p = Db.Insert_done);
    ("after GC pass 1", fun p -> p = Db.Gc_pass1_done);
    ("after GC", fun p -> p = Db.Gc_done);
    ("after append step", fun p -> p = Db.Append_done);
    ("mid-execution (txn 3)", fun p -> p = Db.Exec_txn 3);
    ("mid-execution (txn 11)", fun p -> p = Db.Exec_txn 11);
    ("after execution", fun p -> p = Db.Exec_done);
    ("after checkpoint", fun p -> p = Db.Checkpointed);
  ]

let crash_phase_tests =
  List.map
    (fun (name, pred) ->
      Alcotest.test_case ("crash " ^ name) `Quick (fun () ->
          List.iter
            (fun crash_seed ->
              ignore (run_crash_scenario ~seed:7 ~crash_epoch:4 ~phase_pred:pred ~crash_seed ()))
            [ 1; 2; 3 ]))
    phase_cases

(* The same crash matrix with the persistent NVMM index enabled: the
   lazy recovery path (section 7 future work) must be state-equivalent
   to the eager scan. *)
let pindex_crash_phase_tests =
  List.map
    (fun (name, pred) ->
      Alcotest.test_case ("pindex crash " ^ name) `Quick (fun () ->
          List.iter
            (fun crash_seed ->
              ignore
                (run_crash_scenario ~config:pindex_config ~seed:7 ~crash_epoch:4
                   ~phase_pred:pred ~crash_seed ()))
            [ 1; 2 ]))
    phase_cases

let test_pindex_recovery_faster_scan () =
  (* With the persistent index, recovery reads the bucket table instead
     of block-reading every row: the scan component shrinks. *)
  let run config =
    (run_crash_scenario ~config ~seed:5 ~crash_epoch:4
       ~phase_pred:(fun p -> p = Db.Exec_txn 8)
       ~crash_seed:1 ())
      .Report.scan_ns
  in
  let eager = run test_config and lazy_scan = run pindex_config in
  Alcotest.(check bool)
    (Printf.sprintf "pindex scan faster (%.0f < %.0f ns)" lazy_scan eager)
    true (lazy_scan < eager)

let test_pindex_survives_many_epochs_after_recovery () =
  (* Lazily-recovered rows are touched (and their stale versions
     collected) over many later epochs; state must stay equivalent to
     the model throughout. *)
  let db = Db.create ~config:pindex_config ~tables () in
  Db.bulk_load db load_rows;
  let model = model_load () in
  let seed = 77 in
  for epoch = 2 to 3 do
    let batch = gen_batch ~seed ~epoch model in
    ignore (Db.run_epoch db (Array.map txn_of_ops batch));
    model_apply model batch
  done;
  let crash_batch = gen_batch ~seed ~epoch:4 model in
  Db.set_phase_hook db (fun p -> if p = Db.Exec_txn 10 then raise Crash_now);
  (try ignore (Db.run_epoch db (Array.map txn_of_ops crash_batch)) with Crash_now -> ());
  let pmem = Db.crash db ~rng:(Nv_util.Rng.create 13) in
  let db2, _ = Db.recover ~config:pindex_config ~tables ~pmem ~rebuild () in
  model_apply model crash_batch;
  for epoch = 5 to 10 do
    let batch = gen_batch ~seed ~epoch model in
    ignore (Db.run_epoch db2 (Array.map txn_of_ops batch));
    model_apply model batch;
    check_states_equal (Printf.sprintf "post-lazy-recovery epoch %d" epoch) model db2
  done

let test_crash_before_any_epoch () =
  (* Crash right after load: recovery must restore the loaded state. *)
  let db = Db.create ~config:test_config ~tables () in
  Db.bulk_load db load_rows;
  let model = model_load () in
  let pmem = Db.crash db ~rng:(Nv_util.Rng.create 5) in
  let db2, report = Db.recover ~config:test_config ~tables ~pmem ~rebuild () in
  check_states_equal "post-load recovery" model db2;
  Alcotest.(check int) "nothing replayed" 0 report.Report.replayed_txns

let test_recovery_report_shape () =
  let report =
    run_crash_scenario ~seed:11 ~crash_epoch:3
      ~phase_pred:(fun p -> p = Db.Exec_txn 9)
      ~crash_seed:9 ()
  in
  Alcotest.(check bool) "rows scanned" true (report.Report.scanned_rows >= initial_keys / 2);
  Alcotest.(check int) "replayed the epoch" epoch_txns report.Report.replayed_txns;
  Alcotest.(check bool) "total covers scan" true
    (report.Report.scan_ns > 0.0 && report.Report.total_ns > report.Report.scan_ns)

let test_double_crash () =
  (* Crash, recover, crash again immediately: the second recovery must
     be idempotent. *)
  let db = Db.create ~config:test_config ~tables () in
  Db.bulk_load db load_rows;
  let model = model_load () in
  let seed = 23 in
  for epoch = 2 to 3 do
    let batch = gen_batch ~seed ~epoch model in
    ignore (Db.run_epoch db (Array.map txn_of_ops batch));
    model_apply model batch
  done;
  let crash_batch = gen_batch ~seed ~epoch:4 model in
  Db.set_phase_hook db (fun p -> if p = Db.Exec_txn 8 then raise Crash_now);
  (try ignore (Db.run_epoch db (Array.map txn_of_ops crash_batch)) with Crash_now -> ());
  let pmem = Db.crash db ~rng:(Nv_util.Rng.create 31) in
  let db2, _ = Db.recover ~config:test_config ~tables ~pmem ~rebuild () in
  model_apply model crash_batch;
  check_states_equal "first recovery" model db2;
  let pmem2 = Db.crash db2 ~rng:(Nv_util.Rng.create 37) in
  let db3, report = Db.recover ~config:test_config ~tables ~pmem:pmem2 ~rebuild () in
  Alcotest.(check int) "no replay needed" 0 report.Report.replayed_txns;
  check_states_equal "second recovery" model db3

let test_revert_on_recovery_mode () =
  (* With revert_on_recovery, crashed-epoch persistent writes are nulled
     during the scan and replay rebuilds them; final state unchanged. *)
  let config = { test_config with Config.revert_on_recovery = true } in
  let db = Db.create ~config ~tables () in
  Db.bulk_load db load_rows;
  let model = model_load () in
  let seed = 51 in
  let batch2 = gen_batch ~seed ~epoch:2 model in
  ignore (Db.run_epoch db (Array.map txn_of_ops batch2));
  model_apply model batch2;
  let crash_batch = gen_batch ~seed ~epoch:3 model in
  Db.set_phase_hook db (fun p -> if p = Db.Exec_done then raise Crash_now);
  (try ignore (Db.run_epoch db (Array.map txn_of_ops crash_batch)) with Crash_now -> ());
  let pmem = Db.crash db ~rng:(Nv_util.Rng.create 3) in
  let db2, report = Db.recover ~config ~tables ~pmem ~rebuild () in
  model_apply model crash_batch;
  Alcotest.(check bool) "some rows reverted" true (report.Report.reverted_rows > 0);
  check_states_equal "revert-mode recovery" model db2

let test_pindex_ordered_table () =
  (* Lazy recovery must rebuild ordered indexes too (range scans work
     right after recovery, before any row state is loaded). *)
  let tables = [ Table.make ~id:0 ~name:"ord" ~index:Table.Ordered () ] in
  let config = pindex_config in
  let db = Db.create ~config ~tables () in
  Db.bulk_load db
    (Seq.init 24 (fun i -> (0, Int64.of_int (i * 10), value ~len:16 ~tag:'o')));
  let upd key tag = txn_of_ops [ Set { key; len = 16; tag } ] in
  ignore (Db.run_epoch db [| upd 40L 'a'; upd 90L 'b' |]);
  Db.set_phase_hook db (fun p -> if p = Db.Exec_txn 0 then raise Crash_now);
  (try ignore (Db.run_epoch db [| upd 50L 'c' |]) with Crash_now -> ());
  let pmem = Db.crash db ~rng:(Nv_util.Rng.create 2) in
  let db2, _ = Db.recover ~config ~tables ~pmem ~rebuild () in
  (* Range read through a transaction exercises the ordered index over
     lazily-recovered rows. *)
  let seen = ref [] in
  let reader =
    Txn.make ~input:(encode_ops []) ~write_set:[] (fun ctx ->
        seen := ctx.Txn.Ctx.range_read ~table:0 ~lo:35L ~hi:95L)
  in
  ignore (Db.run_epoch db2 [| reader |]);
  Alcotest.(check (list (pair int64 string)))
    "range over lazy rows"
    [
      (40L, String.make 16 'a'); (50L, String.make 16 'c'); (60L, String.make 16 'o');
      (70L, String.make 16 'o'); (80L, String.make 16 'o'); (90L, String.make 16 'b');
    ]
    (List.map (fun (k, v) -> (k, Bytes.to_string v)) !seen)

(* Crash DURING the replay itself, possibly repeatedly: recovery must
   be idempotent under repeated failures at arbitrary points. *)
let test_crash_during_replay () =
  List.iter
    (fun config ->
      let db = Db.create ~config ~tables () in
      Db.bulk_load db load_rows;
      let model = model_load () in
      let seed = 61 in
      for epoch = 2 to 3 do
        let batch = gen_batch ~seed ~epoch model in
        ignore (Db.run_epoch db (Array.map txn_of_ops batch));
        model_apply model batch
      done;
      let crash_batch = gen_batch ~seed ~epoch:4 model in
      Db.set_phase_hook db (fun p -> if p = Db.Exec_txn 9 then raise Crash_now);
      (try ignore (Db.run_epoch db (Array.map txn_of_ops crash_batch)) with Crash_now -> ());
      model_apply model crash_batch;
      (* Recovery attempt 1 dies mid-replay; attempt 2 dies during its
         replay's GC; attempt 3 completes. *)
      let pmem = ref (Db.crash db ~rng:(Nv_util.Rng.create 3)) in
      let attempt phase_pred crash_seed =
        match
          Db.recover ~config ~tables ~pmem:!pmem ~rebuild
            ~phase_hook:(fun p -> if phase_pred p then raise Crash_now)
            ()
        with
        | db2, _ -> Ok db2
        | exception Crash_now ->
            (* The half-recovered engine's region is still tracked; tear
               it again. The Db handle is unusable, but the pmem object
               is the same one we passed in. *)
            Nv_nvmm.Pmem.crash !pmem ~rng:(Nv_util.Rng.create crash_seed);
            Error ()
      in
      (match attempt (fun p -> p = Db.Exec_txn 12) 5 with
      | Ok _ -> Alcotest.fail "expected crash during first recovery"
      | Error () -> ());
      (match attempt (fun p -> p = Db.Gc_done) 7 with
      | Ok _ -> Alcotest.fail "expected crash during second recovery"
      | Error () -> ());
      match attempt (fun _ -> false) 0 with
      | Error () -> Alcotest.fail "third recovery should complete"
      | Ok db2 ->
          check_states_equal "after three-fold crash recovery" model db2;
          (* And the database still works. *)
          let next = gen_batch ~seed ~epoch:5 model in
          ignore (Db.run_epoch db2 (Array.map txn_of_ops next));
          model_apply model next;
          check_states_equal "post-triple-crash epoch" model db2)
    [ test_config; pindex_config ]

(* Property: for random seeds, crash epochs, phases and crash images,
   recovery always reproduces the model state. *)
let prop_recovery_equivalence =
  QCheck.Test.make ~name:"recovery equivalence (random crash point)" ~count:30
    QCheck.(
      quad (int_range 1 10_000) (int_range 2 5)
        (int_range 0 (List.length phase_cases - 1))
        (int_range 1 10_000))
    (fun (seed, crash_epoch, phase_idx, crash_seed) ->
      let _, pred = List.nth phase_cases phase_idx in
      ignore (run_crash_scenario ~seed ~crash_epoch ~phase_pred:pred ~crash_seed ());
      true)

let prop_pindex_recovery_equivalence =
  QCheck.Test.make ~name:"pindex recovery equivalence (random crash point)" ~count:15
    QCheck.(
      quad (int_range 1 10_000) (int_range 2 5)
        (int_range 0 (List.length phase_cases - 1))
        (int_range 1 10_000))
    (fun (seed, crash_epoch, phase_idx, crash_seed) ->
      let _, pred = List.nth phase_cases phase_idx in
      ignore
        (run_crash_scenario ~config:pindex_config ~seed ~crash_epoch ~phase_pred:pred
           ~crash_seed ());
      true)

(* Engine-level fingerprint of the crash model: a seeded crash-safe
   YCSB run, crashed mid-execution with a fixed RNG, must reproduce the
   recorded crash image and the recovered state. The expected values
   were recorded under the list-based line tracker that preceded the
   per-line state buffers; any change to which states a crash may
   surface, or to the RNG draws that choose among them, moves them. *)
let test_crash_fingerprint () =
  let w =
    Nv_workloads.Ycsb.make
      {
        Nv_workloads.Ycsb.default with
        Nv_workloads.Ycsb.rows = 400;
        value_size = 200;
        update_bytes = 40;
        hot_rows = 16;
        hot_per_txn = 4;
      }
  in
  let tables = w.Nv_workloads.Workload.tables in
  let config =
    Config.make ~cores:2 ~row_size:256 ~crash_safe:true ~rows_per_core:4096
      ~values_per_core:4096 ~freelist_capacity:8192 ~log_capacity:(1 lsl 20)
      ~n_counters:w.Nv_workloads.Workload.n_counters ()
  in
  let db = Db.create ~config ~tables () in
  Db.bulk_load db (w.Nv_workloads.Workload.load ());
  let brng = Nv_util.Rng.create 11 in
  let batch () = w.Nv_workloads.Workload.gen_batch brng 60 in
  for _ = 1 to 2 do
    ignore (Db.run_epoch db (batch ()))
  done;
  let exception Crash_now in
  Db.set_phase_hook db (fun p -> if p = Db.Exec_txn 30 then raise Crash_now);
  (try ignore (Db.run_epoch db (batch ())) with Crash_now -> ());
  let dirty = Nv_nvmm.Pmem.dirty_line_count (Db.pmem db) in
  let pmem = Db.crash db ~rng:(Nv_util.Rng.create 5) in
  Alcotest.(check int) "dirty lines at the crash" 664 dirty;
  Alcotest.(check int32) "crash image crc" 0xd709826el
    (Nv_nvmm.Pmem.crc32c pmem ~off:0 ~len:(Nv_nvmm.Pmem.size pmem));
  let db2, _ = Db.recover ~config ~tables ~pmem ~rebuild:w.Nv_workloads.Workload.rebuild () in
  Alcotest.(check int64) "recovered state digest" 0x21e2b9d9dc8a6163L
    (Nv_harness.Engine.state_digest (Engine_intf.Packed ((module Db.Serial_engine), db2)))

let suites =
  [
    ( "recovery",
      [
        Alcotest.test_case "determinism (no crash)" `Quick test_determinism_no_crash;
        Alcotest.test_case "crash after load" `Quick test_crash_before_any_epoch;
        Alcotest.test_case "recovery report" `Quick test_recovery_report_shape;
        Alcotest.test_case "double crash" `Quick test_double_crash;
        Alcotest.test_case "revert-on-recovery mode" `Quick test_revert_on_recovery_mode;
      ]
      @ crash_phase_tests @ pindex_crash_phase_tests
      @ [
          Alcotest.test_case "pindex scan faster" `Quick test_pindex_recovery_faster_scan;
          Alcotest.test_case "pindex long-run equivalence" `Quick
            test_pindex_survives_many_epochs_after_recovery;
          Alcotest.test_case "pindex ordered table" `Quick test_pindex_ordered_table;
          Alcotest.test_case "crash during replay (x3)" `Quick test_crash_during_replay;
          Alcotest.test_case "crash fingerprint" `Quick test_crash_fingerprint;
          QCheck_alcotest.to_alcotest prop_recovery_equivalence;
          QCheck_alcotest.to_alcotest prop_pindex_recovery_equivalence;
        ] );
  ]
