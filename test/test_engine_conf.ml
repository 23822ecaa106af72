(* Engine-interface conformance: the same test body runs against every
   Engine_intf.S instance (NVCaracal serial, NVCaracal Aria, Zen), so a
   backend can only pass by honouring the shared contract — batch order
   is serial order, committed reads see checkpoint state, deferred
   transactions commit once resubmitted. *)

module Engine_intf = Nvcaracal.Engine_intf
module Config = Nvcaracal.Config
module Table = Nvcaracal.Table
module Txn = Nvcaracal.Txn

let tables = [ Table.make ~id:0 ~name:"conf" () ]

let caracal_config () =
  Config.make ~cores:2 ~row_size:128 ~rows_per_core:4096 ~values_per_core:4096
    ~freelist_capacity:8192 ~log_capacity:(1 lsl 20) ()

let zen_config () =
  {
    Nv_zen.Zen_db.default_config with
    Nv_zen.Zen_db.cores = 2;
    record_size = 64;
    cache_entries = 256;
    slots_per_core = 4096;
  }

(* Each entry builds a fresh engine over one hash table (id 0). *)
let engines : (string * (unit -> Engine_intf.packed)) list =
  [
    ( "nvcaracal",
      fun () ->
        Engine_intf.Packed
          ( (module Nvcaracal.Db.Serial_engine),
            Nvcaracal.Db.Serial_engine.create ~config:(caracal_config ()) ~tables () ) );
    ( "aria",
      fun () ->
        Engine_intf.Packed
          ( (module Nvcaracal.Db.Aria_engine),
            Nvcaracal.Db.Aria_engine.create ~config:(caracal_config ()) ~tables () ) );
    ( "zen",
      fun () ->
        Engine_intf.Packed
          ( (module Nv_zen.Zen_db.Engine),
            Nv_zen.Zen_db.Engine.create ~config:(zen_config ()) ~tables () ) );
  ]

let value i =
  let b = Bytes.create 16 in
  Bytes.set_int64_le b 0 (Int64.of_int i);
  Bytes.set_int64_le b 8 (Int64.of_int (i * 7));
  b

let load n = Seq.init n (fun i -> (0, Int64.of_int i, value i))

(* A declared-write-set update (serial CC needs the declaration; Aria
   and Zen ignore it). *)
let set_txn ~key v =
  Txn.make ~input:Bytes.empty
    ~write_set:[ Txn.Update { table = 0; key } ]
    (fun ctx -> ctx.Txn.Ctx.write ~table:0 ~key v)

let abort_txn ~key =
  Txn.make ~input:Bytes.empty
    ~write_set:[ Txn.Update { table = 0; key } ]
    (fun ctx -> ctx.Txn.Ctx.abort ())

(* Run a batch to completion: deferring engines (Aria) return conflict
   victims for resubmission; feed them back until none remain. *)
let drain (type e) (module E : Engine_intf.S with type t = e) (db : e) batch =
  let rec go batch rounds =
    if Array.length batch > 0 then begin
      if rounds > 10 then Alcotest.fail "deferred transactions never drained";
      let _, d = E.run_batch db batch in
      go d (rounds + 1)
    end
  in
  go batch 0

let get (type e) (module E : Engine_intf.S with type t = e) (db : e) key =
  E.read_committed db ~table:0 ~key:(Int64.of_int key)

let check_bytes name expected actual =
  Alcotest.(check (option bytes)) name expected actual

(* ------------------------------------------------------------------ *)
(* The conformance cases, each generic in the packed engine.           *)

let test_bulk_load_reads mk () =
  match mk () with
  | Engine_intf.Packed ((module E), db) ->
      E.bulk_load db (load 100);
      check_bytes "loaded key 0" (Some (value 0)) (get (module E) db 0);
      check_bytes "loaded key 99" (Some (value 99)) (get (module E) db 99);
      check_bytes "missing key" None (get (module E) db 100);
      Alcotest.(check int) "nothing committed yet" 0 (E.committed_txns db)

let test_run_batch_commits mk () =
  match mk () with
  | Engine_intf.Packed ((module E), db) ->
      E.bulk_load db (load 50);
      drain (module E) db
        (Array.init 10 (fun i -> set_txn ~key:(Int64.of_int i) (value (1000 + i))));
      Alcotest.(check int) "all committed" 10 (E.committed_txns db);
      check_bytes "updated key" (Some (value 1003)) (get (module E) db 3);
      check_bytes "untouched key" (Some (value 20)) (get (module E) db 20)

let test_iter_committed mk () =
  match mk () with
  | Engine_intf.Packed ((module E), db) ->
      E.bulk_load db (load 20);
      drain (module E) db [| set_txn ~key:5L (value 500) |];
      let seen = Hashtbl.create 32 in
      E.iter_committed db ~table:0 (fun k v ->
          if Hashtbl.mem seen k then Alcotest.fail "key visited twice";
          Hashtbl.replace seen k v);
      Alcotest.(check int) "all live keys visited" 20 (Hashtbl.length seen);
      check_bytes "iter sees the committed update" (Some (value 500))
        (Hashtbl.find_opt seen 5L)

let test_empty_batch mk () =
  match mk () with
  | Engine_intf.Packed ((module E), db) ->
      E.bulk_load db (load 10);
      drain (module E) db [||];
      drain (module E) db [||];
      Alcotest.(check int) "no commits from empty batches" 0 (E.committed_txns db);
      check_bytes "state untouched" (Some (value 7)) (get (module E) db 7)

(* Two writers to the same key in one batch: batch order is serial
   order, so the later transaction's value must win once everything
   (including any deferral) has committed. *)
let test_duplicate_key_last_wins mk () =
  match mk () with
  | Engine_intf.Packed ((module E), db) ->
      E.bulk_load db (load 10);
      drain (module E) db [| set_txn ~key:4L (value 41); set_txn ~key:4L (value 42) |];
      Alcotest.(check int) "both eventually committed" 2 (E.committed_txns db);
      check_bytes "last writer wins" (Some (value 42)) (get (module E) db 4)

(* One transaction writing the same key twice: its own last write is
   the committed value. *)
let test_duplicate_key_in_txn mk () =
  match mk () with
  | Engine_intf.Packed ((module E), db) ->
      E.bulk_load db (load 10);
      let t =
        Txn.make ~input:Bytes.empty
          ~write_set:[ Txn.Update { table = 0; key = 6L } ]
          (fun ctx ->
            ctx.Txn.Ctx.write ~table:0 ~key:6L (value 61);
            ctx.Txn.Ctx.write ~table:0 ~key:6L (value 62))
      in
      drain (module E) db [| t |];
      check_bytes "txn's last write wins" (Some (value 62)) (get (module E) db 6)

let test_user_abort mk () =
  match mk () with
  | Engine_intf.Packed ((module E), db) ->
      E.bulk_load db (load 10);
      drain (module E) db [| abort_txn ~key:2L; set_txn ~key:3L (value 33) |];
      Alcotest.(check int) "only the non-aborting txn committed" 1 (E.committed_txns db);
      Alcotest.(check int) "abort counted" 1 (E.aborted_txns db);
      check_bytes "aborted write invisible" (Some (value 2)) (get (module E) db 2);
      check_bytes "other txn committed" (Some (value 33)) (get (module E) db 3)

(* Outcome reporting is uniform across engines: a batch's per-txn
   verdicts appear (only) once its epoch checkpointed, in batch order,
   and conflict-deferred transactions are flagged as such rather than
   folded into aborts. *)
let test_last_batch_outcomes mk () =
  match mk () with
  | Engine_intf.Packed ((module E), db) ->
      E.bulk_load db (load 20);
      Alcotest.(check int) "no outcomes before first batch" 0
        (Array.length (E.last_batch_outcomes db));
      (* Disjoint keys: no engine can defer these. *)
      let _, d1 =
        E.run_batch db [| set_txn ~key:1L (value 11); abort_txn ~key:2L; set_txn ~key:3L (value 33) |]
      in
      Alcotest.(check int) "nothing deferred on disjoint keys" 0 (Array.length d1);
      let o = E.last_batch_outcomes db in
      Alcotest.(check int) "one outcome per txn" 3 (Array.length o);
      Alcotest.(check bool) "txn 0 committed" true (o.(0) = `Committed);
      Alcotest.(check bool) "txn 1 aborted" true (o.(1) = `Aborted);
      Alcotest.(check bool) "txn 2 committed" true (o.(2) = `Committed);
      (* Same key twice in one batch: serial engines commit both; a
         deferring engine must report exactly the returned victims as
         [`Deferred]. *)
      let _, d2 = E.run_batch db [| set_txn ~key:7L (value 71); set_txn ~key:7L (value 72) |] in
      let o2 = E.last_batch_outcomes db in
      Alcotest.(check int) "conflict batch outcome count" 2 (Array.length o2);
      let deferred_flags =
        Array.fold_left (fun acc x -> if x = `Deferred then acc + 1 else acc) 0 o2
      in
      Alcotest.(check int) "deferred flags match returned victims"
        (Array.length d2) deferred_flags;
      Alcotest.(check bool) "no outcome is a final abort" true
        (Array.for_all (fun x -> x <> `Aborted) o2);
      drain (module E) db d2;
      Alcotest.(check int) "every non-aborting txn eventually committed" 4
        (E.committed_txns db)

let test_time_advances mk () =
  match mk () with
  | Engine_intf.Packed ((module E), db) ->
      E.bulk_load db (load 50);
      let t0 = E.total_time_ns db in
      drain (module E) db
        (Array.init 8 (fun i -> set_txn ~key:(Int64.of_int i) (value (200 + i))));
      Alcotest.(check bool) "simulated time advanced" true (E.total_time_ns db > t0);
      let m = E.mem_report db in
      Alcotest.(check bool) "engine reports NVMM row storage" true
        (m.Nvcaracal.Report.nvmm_rows > 0)

let suites =
  List.map
    (fun (name, mk) ->
      ( "engine-conf:" ^ name,
        [
          Alcotest.test_case "bulk_load then read_committed" `Quick
            (test_bulk_load_reads mk);
          Alcotest.test_case "run_batch commits in serial order" `Quick
            (test_run_batch_commits mk);
          Alcotest.test_case "iter_committed visits live keys once" `Quick
            (test_iter_committed mk);
          Alcotest.test_case "empty batch is a no-op" `Quick (test_empty_batch mk);
          Alcotest.test_case "duplicate key across txns: last wins" `Quick
            (test_duplicate_key_last_wins mk);
          Alcotest.test_case "duplicate key within a txn: last wins" `Quick
            (test_duplicate_key_in_txn mk);
          Alcotest.test_case "user abort leaves no trace" `Quick (test_user_abort mk);
          Alcotest.test_case "last_batch_outcomes per txn" `Quick
            (test_last_batch_outcomes mk);
          Alcotest.test_case "time and memory accounting move" `Quick
            (test_time_advances mk);
        ] ))
    engines
