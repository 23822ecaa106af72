(* Fault-injection tests: the media-fault model in [Pmem], the
   checksummed persistent layout, scrub/salvage recovery, idempotent
   crash-during-recovery, and failover to a standby that replays the
   crashed primary's admission journal. Reuses the mini-workload and
   reference model from [Test_recovery]. *)

open Nvcaracal
module Pmem = Nv_nvmm.Pmem
module Stats = Nv_nvmm.Stats
module Memspec = Nv_nvmm.Memspec
module Crc = Nv_util.Crc32c
module Rng = Nv_util.Rng

let stats () = Stats.create Memspec.default

exception Crash_now

(* ------------------------------------------------------------------ *)
(* CRC-32C and packed self-checking words                              *)

let test_crc32c_vectors () =
  Alcotest.(check int32) "check value" 0xE3069283l (Crc.string "123456789");
  Alcotest.(check int32) "empty" 0l (Crc.string "");
  let b = Bytes.of_string "xx123456789yy" in
  Alcotest.(check int32) "range" 0xE3069283l (Crc.bytes b 2 9);
  (* Incremental primitives agree with the one-shot form. *)
  let one = Crc.int64_crc 0x1122334455667788L in
  let inc = Crc.finish (Crc.int64 (Crc.init ()) 0x1122334455667788L) in
  Alcotest.(check int32) "incremental int64" one inc

let test_packed_words () =
  let w = Crc.pack ~salt:0x31 77L in
  Alcotest.(check (option int64)) "roundtrip" (Some 77L) (Crc.unpack ~salt:0x31 w);
  Alcotest.(check (option int64)) "salt mismatch" None (Crc.unpack ~salt:0x32 w);
  Alcotest.(check (option int64)) "bit flip detected" None
    (Crc.unpack ~salt:0x31 (Int64.logxor w 0x400000L));
  (* Freshly zeroed NVMM must parse as valid empty state. *)
  Alcotest.(check (option int64)) "all-zero word is value 0" (Some 0L)
    (Crc.unpack ~salt:0x31 0L);
  Alcotest.check_raises "oversized value rejected"
    (Invalid_argument "Crc32c.pack: value 4294967296 exceeds 32 bits") (fun () ->
      ignore (Crc.pack 0x1_0000_0000L))

(* ------------------------------------------------------------------ *)
(* Pmem fault model                                                    *)

let test_torn_lines () =
  (* Two unflushed stores to one line, torn with probability 1: each
     8-byte word independently picks a store state, so (unlike any
     legal image) the second store can survive without the first. *)
  let seen_illegal = ref false in
  for seed = 1 to 100 do
    let p = Pmem.create ~mode:Pmem.Crash_safe ~size:4096 () in
    Pmem.set_i64 p 0 1L;
    Pmem.set_i64 p 8 2L;
    let fr =
      Pmem.crash_with_faults p ~rng:(Rng.create seed)
        ~model:{ Pmem.no_faults with Pmem.torn_frac = 1.0 }
    in
    Alcotest.(check int) "one torn line" 1 fr.Pmem.torn_lines;
    let a = Pmem.get_i64 p 0 and b = Pmem.get_i64 p 8 in
    Alcotest.(check bool) "word values legal" true
      ((a = 0L || a = 1L) && (b = 0L || b = 2L));
    if a = 0L && b = 2L then seen_illegal := true
  done;
  Alcotest.(check bool) "some image was prefix-inconsistent" true !seen_illegal;
  (* torn_frac 0 over the same stores is exactly the legal model. *)
  let p = Pmem.create ~mode:Pmem.Crash_safe ~size:4096 () in
  Pmem.set_i64 p 0 1L;
  let fr = Pmem.crash_with_faults p ~rng:(Rng.create 1) ~model:Pmem.no_faults in
  Alcotest.(check int) "no torn lines" 0 fr.Pmem.torn_lines

let test_bit_rot () =
  let p = Pmem.create ~mode:Pmem.Crash_safe ~size:4096 () in
  let s = stats () in
  Pmem.set_i64 p 256 0xAAAAAAAAAAAAAAAAL;
  Pmem.persist p s ~off:256 ~len:8;
  (* A dirty line is immune: rot takes time, it hits cold media. *)
  Pmem.set_i64 p 0 1L;
  let before = Bytes.to_string (Pmem.read_bytes p ~off:0 ~len:4096) in
  let hit, flipped = Pmem.inject_bit_rot p ~rng:(Rng.create 3) ~lines:8 ~max_bits:2 in
  let after = Bytes.to_string (Pmem.read_bytes p ~off:0 ~len:4096) in
  Alcotest.(check bool) "some lines hit" true (hit > 0 && flipped >= hit);
  Alcotest.(check bool) "content changed" true (before <> after);
  Alcotest.(check int64) "dirty line untouched" 1L (Pmem.get_i64 p 0);
  Alcotest.(check bool) "fault report cumulative" true
    (Pmem.faults_injected p && (Pmem.faults p).Pmem.rotted_lines = hit
    && (Pmem.faults p).Pmem.flipped_bits = flipped)

let test_dead_lines () =
  let p = Pmem.create ~mode:Pmem.Crash_safe ~size:4096 () in
  let killed = Pmem.kill_lines p ~rng:(Rng.create 7) ~n:2 in
  Alcotest.(check bool) "lines killed" true (killed >= 1);
  Alcotest.(check int) "reported" killed (Pmem.faults p).Pmem.dead_lines;
  (* Find a dead line; content reads back all-ones and charged reads
     record a media fault. *)
  let li = ref (-1) in
  for i = 4096 / 64 - 1 downto 0 do
    if Pmem.is_dead_line p ~off:(i * 64) then li := i
  done;
  Alcotest.(check bool) "dead line findable" true (!li >= 0);
  Alcotest.(check int64) "poisoned content" (-1L) (Pmem.get_i64 p (!li * 64));
  let s = stats () in
  Pmem.charge_read p s ~off:(!li * 64) ~len:8;
  Pmem.charge_read p s ~off:((!li * 64) + 8) ~len:8;
  Alcotest.(check int) "charged reads fault" 2 (Stats.counters s).Stats.media_faults;
  let s2 = stats () in
  Pmem.charge_read p s2 ~off:(((!li + 1) * 64) mod 4096) ~len:8;
  Alcotest.(check int) "healthy line clean" 0 (Stats.counters s2).Stats.media_faults

let test_dead_lines_skip_dirty () =
  (* Like bit-rot, a dead line hits cold media: a line with stores in
     flight keeps its content and its crash states. *)
  let p = Pmem.create ~mode:Pmem.Crash_safe ~size:256 () in
  Pmem.fill p ~off:0 ~len:256 'd';
  Alcotest.(check int) "no dirty line killed" 0 (Pmem.kill_lines p ~rng:(Rng.create 7) ~n:8);
  Alcotest.(check int) "nothing reported" 0 (Pmem.faults p).Pmem.dead_lines;
  Pmem.crash_all_persisted p;
  Alcotest.(check string) "newest state survives" (String.make 256 'd')
    (Bytes.to_string (Pmem.read_bytes p ~off:0 ~len:256))

let test_corrupt_range () =
  let p = Pmem.create ~mode:Pmem.Crash_safe ~size:4096 () in
  Pmem.write_bytes p ~off:128 (Bytes.of_string "payload");
  Pmem.corrupt_range p ~off:128 ~len:7 ~mask:0x5A;
  Alcotest.(check bool) "xor applied" true
    (Bytes.to_string (Pmem.read_bytes p ~off:128 ~len:7) <> "payload");
  Pmem.corrupt_range p ~off:128 ~len:7 ~mask:0x5A;
  Alcotest.(check string) "xor involutive" "payload"
    (Bytes.to_string (Pmem.read_bytes p ~off:128 ~len:7))

let test_faults_empty_without_injection () =
  let p = Pmem.create ~mode:Pmem.Crash_safe ~size:4096 () in
  Pmem.set_i64 p 0 1L;
  Pmem.crash p ~rng:(Rng.create 1);
  Alcotest.(check bool) "legal crash injects nothing" false (Pmem.faults_injected p)

(* ------------------------------------------------------------------ *)
(* Crash-image adversaries through full recovery                       *)

(* Run the Test_recovery scenario but tear the region with an explicit
   adversary instead of a random legal image. *)
let run_adversary_scenario ~choose ~scrub () =
  let config = Test_recovery.test_config in
  let tables = Test_recovery.tables in
  let db = Db.create ~config ~tables () in
  Db.bulk_load db Test_recovery.load_rows;
  let model = Test_recovery.model_load () in
  let seed = 19 in
  for epoch = 2 to 3 do
    let batch = Test_recovery.gen_batch ~seed ~epoch model in
    ignore (Db.run_epoch db (Array.map Test_recovery.txn_of_ops batch));
    Test_recovery.model_apply model batch
  done;
  let crash_batch = Test_recovery.gen_batch ~seed ~epoch:4 model in
  Db.set_phase_hook db (fun p -> if p = Db.Exec_txn 7 then raise Crash_now);
  (try ignore (Db.run_epoch db (Array.map Test_recovery.txn_of_ops crash_batch))
   with Crash_now -> ());
  let pmem = Db.pmem db in
  Pmem.crash_with pmem ~choose;
  let db2, report =
    Db.recover ~config ~tables ~pmem ~rebuild:Test_recovery.rebuild ~scrub ()
  in
  (* The crash hit mid-execution, after the input log committed. *)
  Test_recovery.model_apply model crash_batch;
  Test_recovery.check_states_equal "adversary recovery" model db2;
  report

let test_worst_case_adversaries () =
  (* Oldest-state-per-line (drops every unflushed store), newest-state,
     and an alternating pattern: all legal, all must recover. *)
  ignore (run_adversary_scenario ~choose:(fun ~line:_ ~options:_ -> 0) ~scrub:false ());
  ignore
    (run_adversary_scenario ~choose:(fun ~line:_ ~options -> options - 1) ~scrub:false ());
  ignore
    (run_adversary_scenario
       ~choose:(fun ~line ~options -> if line mod 2 = 0 then 0 else options - 1)
       ~scrub:false ())

let test_crash_all_persisted_recovers () =
  let db = Db.create ~config:Test_recovery.test_config ~tables:Test_recovery.tables () in
  Db.bulk_load db Test_recovery.load_rows;
  let model = Test_recovery.model_load () in
  let batch = Test_recovery.gen_batch ~seed:19 ~epoch:2 model in
  ignore (Db.run_epoch db (Array.map Test_recovery.txn_of_ops batch));
  Test_recovery.model_apply model batch;
  let pmem = Db.pmem db in
  Pmem.crash_all_persisted pmem;
  let db2, _ =
    Db.recover ~config:Test_recovery.test_config ~tables:Test_recovery.tables ~pmem
      ~rebuild:Test_recovery.rebuild ()
  in
  Test_recovery.check_states_equal "all-persisted recovery" model db2

let test_scrub_clean_on_legal_images () =
  (* A scrub over legal crash images must never report damage or drop
     the log: checksums make corruption detectable, not false alarms.
     (Repair work — crc normalization, turnover stale drops — is fine:
     those are torn states the legal model can produce.) *)
  List.iter
    (fun choose ->
      let report = run_adversary_scenario ~choose ~scrub:true () in
      Alcotest.(check bool) "scrubbed" true report.Report.scrubbed;
      Alcotest.(check bool) "no damage" true (report.Report.damage = []);
      Alcotest.(check bool) "log kept" false report.Report.log_dropped;
      Alcotest.(check int) "no allocator salvage" 0 report.Report.alloc_salvaged;
      Alcotest.(check int) "no counter salvage" 0 report.Report.counter_salvaged)
    [
      (fun ~line:_ ~options:_ -> 0);
      (fun ~line:_ ~options -> options - 1);
      (fun ~line ~options -> if line mod 3 = 0 then 0 else options - 1);
    ]

(* ------------------------------------------------------------------ *)
(* Guards                                                              *)

let test_requires_crash_safe () =
  let config = Config.make ~cores:2 () in
  let db = Db.create ~config ~tables:Test_recovery.tables () in
  Db.bulk_load db Test_recovery.load_rows;
  Alcotest.check_raises "crash guarded"
    (Invalid_argument "Db.crash: requires a crash_safe configuration") (fun () ->
      ignore (Db.crash db ~rng:(Rng.create 1)));
  let pmem = Pmem.create ~size:4096 () in
  Alcotest.check_raises "recover guarded"
    (Invalid_argument "Db.recover: requires a crash_safe configuration") (fun () ->
      ignore
        (Db.recover ~config ~tables:Test_recovery.tables ~pmem
           ~rebuild:Test_recovery.rebuild ()))

(* ------------------------------------------------------------------ *)
(* Crash in the middle of recovery (recovery_hook)                     *)

let test_crash_during_recovery_each_phase () =
  List.iter
    (fun recrash_at ->
      let config = Test_recovery.test_config in
      let tables = Test_recovery.tables in
      let db = Db.create ~config ~tables () in
      Db.bulk_load db Test_recovery.load_rows;
      let model = Test_recovery.model_load () in
      let seed = 29 in
      for epoch = 2 to 3 do
        let batch = Test_recovery.gen_batch ~seed ~epoch model in
        ignore (Db.run_epoch db (Array.map Test_recovery.txn_of_ops batch));
        Test_recovery.model_apply model batch
      done;
      let crash_batch = Test_recovery.gen_batch ~seed ~epoch:4 model in
      Db.set_phase_hook db (fun p -> if p = Db.Exec_txn 5 then raise Crash_now);
      (try ignore (Db.run_epoch db (Array.map Test_recovery.txn_of_ops crash_batch))
       with Crash_now -> ());
      Test_recovery.model_apply model crash_batch;
      let pmem = Db.crash db ~rng:(Rng.create 41) in
      (* First attempt dies at the given recovery milestone; the region
         is torn again and the second attempt must converge. *)
      (match
         Db.recover ~config ~tables ~pmem ~rebuild:Test_recovery.rebuild
           ~recovery_hook:(fun p -> if p = recrash_at then raise Crash_now)
           ()
       with
      | _ -> Alcotest.fail "expected crash during recovery"
      | exception Crash_now -> Pmem.crash pmem ~rng:(Rng.create 43));
      let db2, _ = Db.recover ~config ~tables ~pmem ~rebuild:Test_recovery.rebuild () in
      Test_recovery.check_states_equal "recovery after mid-recovery crash" model db2;
      (* And the database keeps working. *)
      let next = Test_recovery.gen_batch ~seed ~epoch:5 model in
      ignore (Db.run_epoch db2 (Array.map Test_recovery.txn_of_ops next));
      Test_recovery.model_apply model next;
      Test_recovery.check_states_equal "epoch after mid-recovery crash" model db2)
    [ Db.Rec_meta_recovered; Db.Rec_log_loaded; Db.Rec_scan_done; Db.Rec_replay_done ]

(* ------------------------------------------------------------------ *)
(* Targeted corruption: scrub detects, salvages, and reports           *)

let find_pattern pmem pattern =
  let size = Pmem.size pmem in
  let hay = Bytes.to_string (Pmem.read_bytes pmem ~off:0 ~len:size) in
  let n = String.length pattern in
  let rec go i =
    if i + n > size then None
    else if String.sub hay i n = pattern then Some i
    else go (i + 1)
  in
  go 0

let test_scrub_reports_corrupt_current_version () =
  let config = Test_recovery.test_config in
  let tables = Test_recovery.tables in
  let db = Db.create ~config ~tables () in
  (* Key 5 carries a unique 200-byte pool value; the rest are plain. *)
  let marker = String.init 32 (fun i -> Char.chr (0x41 + (i * 7 mod 26))) in
  let victim = Bytes.of_string (marker ^ String.make 168 'v') in
  Db.bulk_load db
    (Seq.init 12 (fun i ->
         (0, Int64.of_int i, if i = 5 then victim else Bytes.make 16 'p')));
  let pmem = Db.pmem db in
  Pmem.crash_all_persisted pmem;
  let off =
    match find_pattern pmem marker with
    | Some off -> off
    | None -> Alcotest.fail "victim value not found in region"
  in
  Pmem.corrupt_range pmem ~off ~len:8 ~mask:0xFF;
  let db2, report =
    Db.recover ~config ~tables ~pmem ~rebuild:Test_recovery.rebuild ~scrub:true ()
  in
  Alcotest.(check int) "one damage entry" 1 (List.length report.Report.damage);
  (match report.Report.damage with
  | [ d ] ->
      Alcotest.(check int) "table attributed" 0 d.Report.d_table;
      Alcotest.(check int64) "key attributed" 5L d.Report.d_key;
      Alcotest.(check bool) "kind current-version" true
        (d.Report.d_kind = `Current_version)
  | _ -> assert false);
  Alcotest.(check (option string)) "damaged key dropped" None
    (Option.map Bytes.to_string (Db.read_committed db2 ~table:0 ~key:5L));
  Alcotest.(check (option string)) "other keys intact" (Some (String.make 16 'p'))
    (Option.map Bytes.to_string (Db.read_committed db2 ~table:0 ~key:4L));
  (* Without scrub the same corruption goes unnoticed: checksums are
     only verified when asked (they are off the hot path). *)
  Alcotest.(check bool) "reported loudly, not absorbed" true
    (Report.has_salvage report)

let test_scrub_drops_corrupt_log () =
  let config = Test_recovery.test_config in
  let tables = Test_recovery.tables in
  let db = Db.create ~config ~tables () in
  Db.bulk_load db Test_recovery.load_rows;
  let model = Test_recovery.model_load () in
  let seed = 67 in
  let batch2 = Test_recovery.gen_batch ~seed ~epoch:2 model in
  ignore (Db.run_epoch db (Array.map Test_recovery.txn_of_ops batch2));
  Test_recovery.model_apply model batch2;
  (* Crash after execution: the input log for epoch 3 is committed. *)
  let crash_batch = Test_recovery.gen_batch ~seed ~epoch:3 model in
  Db.set_phase_hook db (fun p -> if p = Db.Exec_done then raise Crash_now);
  (try ignore (Db.run_epoch db (Array.map Test_recovery.txn_of_ops crash_batch))
   with Crash_now -> ());
  let pmem = Db.pmem db in
  Pmem.crash_all_persisted pmem;
  (* Corrupt the logged input record of the first non-empty txn. *)
  let input =
    match
      Array.find_opt
        (fun ops -> Bytes.length (Test_recovery.encode_ops ops) > 8)
        crash_batch
    with
    | Some ops -> Bytes.to_string (Test_recovery.encode_ops ops)
    | None -> Alcotest.fail "no loggable txn in batch"
  in
  let off =
    match find_pattern pmem input with
    | Some off -> off
    | None -> Alcotest.fail "logged input not found in region"
  in
  Pmem.corrupt_range pmem ~off ~len:1 ~mask:0x10;
  let db2, report =
    Db.recover ~config ~tables ~pmem ~rebuild:Test_recovery.rebuild ~scrub:true ()
  in
  Alcotest.(check bool) "log dropped" true report.Report.log_dropped;
  Alcotest.(check int) "nothing replayed" 0 report.Report.replayed_txns;
  Alcotest.(check bool) "log damage reported" true
    (List.exists (fun d -> d.Report.d_kind = `Log) report.Report.damage);
  (* The crashed epoch is gone; state reverts to the last checkpoint. *)
  Test_recovery.check_states_equal "state without the dropped epoch" model db2

(* ------------------------------------------------------------------ *)
(* Failover under a primary crash                                      *)

(* The standby is a fresh engine that replays the primary's admission
   journal. The primary dies mid-epoch, after the batch was journaled,
   so the standby re-runs that batch too: its state must equal a
   crash-free run's, before and after it takes further traffic. *)
let test_failover_after_primary_crash () =
  let module F_batcher = Nv_frontend.Batcher in
  let module F_journal = Nv_frontend.Journal in
  let module Engine = Nv_harness.Engine in
  let module W = Nv_workloads.Workload in
  let w = Test_frontend.small_smallbank () in
  let spec = Engine.spec (Engine.Caracal Config.Nvcaracal) in
  let config = Engine.caracal_config (Engine.setup ~epochs:64 ~epoch_txns:64 ()) w spec in
  let registry = Nv_frontend.Proc.of_workload w in
  let rng = Rng.create 83 in
  let batches = Array.init 6 (fun _ -> Array.init 16 (fun _ -> w.W.gen_call rng)) in
  let crash_batch = 4 in
  let batcher ?journal ?hook () =
    let db = Db.create ~config ~tables:w.W.tables () in
    Option.iter (Db.set_phase_hook db) hook;
    Db.bulk_load db (w.W.load ());
    let engine = Engine_intf.Packed ((module Db.Serial_engine), db) in
    let cfg = F_batcher.config ~batch_target:256 ~deadline_ticks:100 () in
    F_batcher.create ~cfg ?journal
      ~shards:(Nv_frontend.Shard_set.local ~engine ~tables:w.W.tables)
      ~registry ~tables:w.W.tables ()
  in
  let serve b client lo hi =
    for i = lo to hi do
      Array.iteri
        (fun k (proc, args) ->
          match F_batcher.submit b client ~req:((i * 100) + k) ~proc ~args with
          | `Admitted -> ()
          | _ -> Alcotest.fail "call not admitted")
        batches.(i);
      F_batcher.flush b
    done
  in
  (* Oracle: the same batches on one engine that never crashes. *)
  let oracle = batcher () in
  let oc = F_batcher.connect oracle ~reply:None in
  serve oracle oc 0 crash_batch;
  let digest_at_crash = F_batcher.state_digest oracle in
  serve oracle oc (crash_batch + 1) (Array.length batches - 1);
  let armed = ref false in
  let hook p =
    if !armed && p = Db.Exec_txn 4 then begin
      armed := false;
      raise Crash_now
    end
  in
  let path = Test_frontend.tmpfile "failover-journal" in
  let meta = Test_frontend.jmeta in
  let journal = F_journal.create ~path ~meta () in
  let primary = batcher ~journal ~hook () in
  let client = F_batcher.connect primary ~reply:None in
  serve primary client 0 (crash_batch - 1);
  armed := true;
  (match serve primary client crash_batch crash_batch with
  | () -> Alcotest.fail "expected primary crash"
  | exception Crash_now -> ());
  F_journal.close journal;
  (* Failover: the standby replays every journaled batch, the crashed
     one included. *)
  let o = F_journal.load ~path ~meta in
  Alcotest.(check int) "crashed batch was journaled" (crash_batch + 1)
    (List.length o.F_journal.records);
  let standby = batcher ~journal:o.F_journal.journal () in
  F_batcher.recover standby ~records:o.F_journal.records ~sessions:[] ~batches_done:0;
  Alcotest.(check int64) "standby state = journaled epochs" digest_at_crash
    (F_batcher.state_digest standby);
  (* The promoted standby keeps serving the same session. *)
  let resumed =
    F_batcher.connect ~id:(F_batcher.client_id client) ~resume:true standby ~reply:None
  in
  serve standby resumed (crash_batch + 1) (Array.length batches - 1);
  F_journal.close o.F_journal.journal;
  Sys.remove path;
  Alcotest.(check int64) "standby equals oracle" (F_batcher.state_digest oracle)
    (F_batcher.state_digest standby)

(* ------------------------------------------------------------------ *)
(* Fault-campaign smoke test                                           *)

let test_fault_fuzz_smoke () =
  let outcome = Nv_harness.Fuzzer.run ~seed:3 ~iterations:6 ~faults:true () in
  Alcotest.(check (list string)) "no failures" [] outcome.Nv_harness.Fuzzer.failures;
  Alcotest.(check int) "all iterations faulted" 6 outcome.Nv_harness.Fuzzer.faulted;
  Alcotest.(check bool) "crashes injected" true
    (outcome.Nv_harness.Fuzzer.crashes_injected >= 6)

let suites =
  [
    ( "faults",
      [
        Alcotest.test_case "crc32c vectors" `Quick test_crc32c_vectors;
        Alcotest.test_case "packed self-checking words" `Quick test_packed_words;
        Alcotest.test_case "torn lines" `Quick test_torn_lines;
        Alcotest.test_case "bit rot" `Quick test_bit_rot;
        Alcotest.test_case "dead lines" `Quick test_dead_lines;
        Alcotest.test_case "dead lines skip dirty" `Quick test_dead_lines_skip_dirty;
        Alcotest.test_case "corrupt_range" `Quick test_corrupt_range;
        Alcotest.test_case "legal crash injects no faults" `Quick
          test_faults_empty_without_injection;
        Alcotest.test_case "worst-case crash adversaries" `Quick test_worst_case_adversaries;
        Alcotest.test_case "crash_all_persisted recovers" `Quick
          test_crash_all_persisted_recovers;
        Alcotest.test_case "scrub clean on legal images" `Quick
          test_scrub_clean_on_legal_images;
        Alcotest.test_case "crash/recover require crash_safe" `Quick test_requires_crash_safe;
        Alcotest.test_case "crash during recovery (each phase)" `Quick
          test_crash_during_recovery_each_phase;
        Alcotest.test_case "scrub reports corrupt current version" `Quick
          test_scrub_reports_corrupt_current_version;
        Alcotest.test_case "scrub drops corrupt log" `Quick test_scrub_drops_corrupt_log;
        Alcotest.test_case "failover after primary crash" `Quick
          test_failover_after_primary_crash;
        Alcotest.test_case "fault fuzz smoke" `Quick test_fault_fuzz_smoke;
      ] );
  ]
