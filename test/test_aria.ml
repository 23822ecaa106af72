(* Aria-mode tests: snapshot execution with deterministic reservations
   (no pre-declared write sets), conflict deferral and retry, blind
   inserts, and crash recovery with Aria replay. *)

open Nvcaracal

let bytes_of_string = Bytes.of_string

let config =
  Config.make ~cores:4 ~cache_k:3 ~rows_per_core:4096 ~values_per_core:4096
    ~freelist_capacity:4096 ()

let one_table = [ Table.make ~id:0 ~name:"t" () ]

let mk_db () =
  let db = Db.create ~config ~tables:one_table () in
  Db.bulk_load db
    (Seq.init 16 (fun i -> (0, Int64.of_int i, bytes_of_string (Printf.sprintf "v%d" i))));
  db

(* Aria transactions carry no write set. The input encodes (key, tag)
   so crashed epochs replay identically. *)
let encode key tag =
  let b = Bytes.create 9 in
  Bytes.set_int64_le b 0 key;
  Bytes.set b 8 tag;
  b

let txn_of_input input =
  let key = Bytes.get_int64_le input 0 in
  let tag = Bytes.get input 8 in
  Txn.make ~input ~write_set:[] (fun ctx ->
      let prev =
        match ctx.Txn.Ctx.read ~table:0 ~key with Some v -> Bytes.to_string v | None -> ""
      in
      ctx.Txn.Ctx.write ~table:0 ~key (bytes_of_string (prev ^ String.make 1 tag)))

let rmw key tag = txn_of_input (encode key tag)

let committed db key =
  Option.map Bytes.to_string (Db.read_committed db ~table:0 ~key)

let test_aria_disjoint_batch () =
  let db = mk_db () in
  let stats, deferred =
    Db.run_epoch_aria db [| rmw 1L 'a'; rmw 2L 'b'; rmw 3L 'c' |]
  in
  Alcotest.(check int) "none deferred" 0 (Array.length deferred);
  Alcotest.(check int) "no aborts" 0 stats.Report.aborted;
  Alcotest.(check (option string)) "k1" (Some "v1a") (committed db 1L);
  Alcotest.(check (option string)) "k2" (Some "v2b") (committed db 2L);
  Alcotest.(check (option string)) "k3" (Some "v3c") (committed db 3L)

let test_aria_conflicts_defer () =
  let db = mk_db () in
  (* Three RMWs of the same key: only the first can commit; the other
     two read a key the first wrote. *)
  let stats, deferred = Db.run_epoch_aria db [| rmw 1L 'a'; rmw 1L 'b'; rmw 1L 'c' |] in
  Alcotest.(check int) "two deferred" 2 (Array.length deferred);
  Alcotest.(check int) "aborted counted" 2 stats.Report.aborted;
  Alcotest.(check (option string)) "first writer won" (Some "v1a") (committed db 1L);
  (* Retrying drains the queue deterministically. *)
  let rec drain batch rounds =
    if Array.length batch = 0 then rounds
    else begin
      let _, d = Db.run_epoch_aria db batch in
      drain d (rounds + 1)
    end
  in
  let rounds = drain deferred 0 in
  Alcotest.(check int) "two retry rounds" 2 rounds;
  Alcotest.(check (option string)) "all applied in order" (Some "v1abc") (committed db 1L)

let test_aria_snapshot_reads () =
  let db = mk_db () in
  let seen = ref None in
  let reader =
    Txn.make ~input:Bytes.empty ~write_set:[] (fun ctx ->
        seen := ctx.Txn.Ctx.read ~table:0 ~key:1L)
  in
  (* The reader has a LARGER sid than the writer, yet sees the snapshot
     (Aria), where Caracal would have shown it the new value. The
     reader still commits: read-only transactions conflict only if the
     read key was written, which it was — so it defers. *)
  let _, deferred = Db.run_epoch_aria db [| rmw 1L 'z'; reader |] in
  Alcotest.(check (option string)) "snapshot read" (Some "v1")
    (Option.map Bytes.to_string !seen);
  Alcotest.(check int) "reader deferred (RAW)" 1 (Array.length deferred);
  let _, d2 = Db.run_epoch_aria db deferred in
  Alcotest.(check int) "reader commits on retry" 0 (Array.length d2);
  Alcotest.(check (option string)) "retry saw new value" (Some "v1z")
    (Option.map Bytes.to_string !seen)

let test_aria_blind_insert () =
  let db = mk_db () in
  let ins =
    Txn.make ~input:Bytes.empty ~write_set:[] (fun ctx ->
        ctx.Txn.Ctx.write ~table:0 ~key:500L (bytes_of_string "fresh"))
  in
  let _, deferred = Db.run_epoch_aria db [| ins |] in
  Alcotest.(check int) "committed" 0 (Array.length deferred);
  Alcotest.(check (option string)) "inserted" (Some "fresh") (committed db 500L)

let test_aria_user_abort () =
  let db = mk_db () in
  let aborter =
    Txn.make ~input:Bytes.empty ~write_set:[] (fun ctx ->
        ctx.Txn.Ctx.write ~table:0 ~key:1L (bytes_of_string "never");
        ctx.Txn.Ctx.abort ())
  in
  let stats, deferred = Db.run_epoch_aria db [| aborter |] in
  Alcotest.(check int) "user abort is final" 0 (Array.length deferred);
  Alcotest.(check int) "aborted" 1 stats.Report.aborted;
  Alcotest.(check (option string)) "no write applied" (Some "v1") (committed db 1L)

let test_aria_deterministic () =
  let run () =
    let db = mk_db () in
    let rng = Nv_util.Rng.create 31 in
    let all_deferred = ref 0 in
    for _ = 1 to 4 do
      let batch =
        Array.init 24 (fun _ ->
            rmw
              (Int64.of_int (Nv_util.Rng.int rng 8))
              (Char.chr (Char.code 'a' + Nv_util.Rng.int rng 26)))
      in
      let _, deferred = Db.run_epoch_aria db batch in
      all_deferred := !all_deferred + Array.length deferred
    done;
    let out = ref [] in
    Db.iter_committed db ~table:0 (fun k v -> out := (k, Bytes.to_string v) :: !out);
    (!all_deferred, List.sort compare !out)
  in
  Alcotest.(check bool) "identical runs" true (run () = run ())

let test_aria_crash_recovery () =
  let db = mk_db () in
  let batch seed =
    let rng = Nv_util.Rng.create seed in
    Array.init 20 (fun _ ->
        rmw
          (Int64.of_int (Nv_util.Rng.int rng 10))
          (Char.chr (Char.code 'a' + Nv_util.Rng.int rng 26)))
  in
  ignore (Db.run_epoch_aria db (batch 1));
  ignore (Db.run_epoch_aria db (batch 2));
  (* Oracle: same epochs, no crash. *)
  let oracle = mk_db () in
  ignore (Db.run_epoch_aria oracle (batch 1));
  ignore (Db.run_epoch_aria oracle (batch 2));
  ignore (Db.run_epoch_aria oracle (batch 3));
  (* Crash mid-apply of epoch 4 (= batch 3). *)
  let exception Crash_now in
  Db.set_phase_hook db (fun p -> if p = Db.Exec_txn 15 then raise Crash_now);
  (try ignore (Db.run_epoch_aria db (batch 3)) with Crash_now -> ());
  let pmem = Db.crash db ~rng:(Nv_util.Rng.create 7) in
  let db2, report =
    Db.recover ~config ~tables:one_table ~pmem ~rebuild:txn_of_input ~replay_mode:`Aria ()
  in
  Alcotest.(check int) "replayed" 20 report.Report.replayed_txns;
  let state d =
    let out = ref [] in
    Db.iter_committed d ~table:0 (fun k v -> out := (k, Bytes.to_string v) :: !out);
    List.sort compare !out
  in
  Alcotest.(check bool) "recovered state equals oracle" true (state db2 = state oracle)

let test_aria_transient_collapse () =
  (* Many buffered writes to the same key by ONE transaction collapse
     into one persistent write — the paper's final-write insight holds
     in Aria mode too. *)
  let db = mk_db () in
  let multi =
    Txn.make ~input:Bytes.empty ~write_set:[] (fun ctx ->
        for k = 0 to 9 do
          ctx.Txn.Ctx.write ~table:0 ~key:1L (bytes_of_string (Printf.sprintf "w%d" k))
        done)
  in
  let stats, _ = Db.run_epoch_aria db [| multi |] in
  Alcotest.(check int) "ten version writes" 10 stats.Report.version_writes;
  Alcotest.(check int) "one persistent write" 1 stats.Report.persistent_writes;
  Alcotest.(check (option string)) "last wins" (Some "w9") (committed db 1L)

(* Property: the committed set is exactly a deterministic conflict-free
   prefix-respecting subset, and the final state equals applying the
   committed transactions' buffered writes in serial order to the
   snapshot. *)
let prop_aria_matches_model =
  QCheck.Test.make ~name:"aria commit set matches reservation model" ~count:50
    QCheck.(pair (int_range 1 10_000) (int_range 1 30))
    (fun (seed, n) ->
      let db = mk_db () in
      let rng = Nv_util.Rng.create seed in
      let ops =
        Array.init n (fun _ ->
            ( Int64.of_int (Nv_util.Rng.int rng 6),
              Char.chr (Char.code 'a' + Nv_util.Rng.int rng 26) ))
      in
      let batch = Array.map (fun (k, c) -> rmw k c) ops in
      let _, deferred = Db.run_epoch_aria db batch in
      (* Model: reservations = min writer index per key (RMW reads and
         writes the same key, so conflict = an earlier writer exists). *)
      let reserved = Hashtbl.create 8 in
      Array.iteri
        (fun i (k, _) -> if not (Hashtbl.mem reserved k) then Hashtbl.add reserved k i)
        ops;
      let committed_model = Hashtbl.create 8 in
      Array.iteri
        (fun i (k, c) -> if Hashtbl.find reserved k = i then Hashtbl.replace committed_model k c)
        ops;
      let expected_deferred =
        Array.to_list ops
        |> List.filteri (fun i _ -> Hashtbl.find reserved (fst ops.(i)) <> i)
        |> List.length
      in
      let state_ok =
        Hashtbl.fold
          (fun k c acc ->
            acc
            && committed db k = Some (Printf.sprintf "v%Ld%c" k c))
          committed_model true
      in
      Array.length deferred = expected_deferred && state_ok)

let suites =
  [
    ( "aria",
      [
        Alcotest.test_case "disjoint batch" `Quick test_aria_disjoint_batch;
        Alcotest.test_case "conflicts defer" `Quick test_aria_conflicts_defer;
        Alcotest.test_case "snapshot reads" `Quick test_aria_snapshot_reads;
        Alcotest.test_case "blind insert" `Quick test_aria_blind_insert;
        Alcotest.test_case "user abort" `Quick test_aria_user_abort;
        Alcotest.test_case "deterministic" `Quick test_aria_deterministic;
        Alcotest.test_case "crash recovery" `Quick test_aria_crash_recovery;
        Alcotest.test_case "transient collapse" `Quick test_aria_transient_collapse;
        QCheck_alcotest.to_alcotest prop_aria_matches_model;
      ] );
  ]
