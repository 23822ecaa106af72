(* The networked front end: wire protocol, stored-procedure registry,
   epoch batcher (admission, deadline/size close, checkpoint-gated
   replies, backpressure, disconnects), served-vs-replayed determinism,
   and a real sockets end-to-end run. *)

module F_wire = Nv_frontend.Wire
module F_proc = Nv_frontend.Proc
module F_batcher = Nv_frontend.Batcher
module F_server = Nv_frontend.Server
module F_loadgen = Nv_frontend.Loadgen
module F_journal = Nv_frontend.Journal
module F_restart = Nv_frontend.Restart
module F_shard_set = Nv_frontend.Shard_set
module Engine = Nv_harness.Engine
module Engine_intf = Nvcaracal.Engine_intf
module W = Nv_workloads.Workload
module Rng = Nv_util.Rng

(* ------------------------------------------------------------------ *)
(* Wire protocol                                                       *)

let requests : F_wire.request list =
  [
    F_wire.Hello { client = 7; version = F_wire.protocol_version; resume = false; last_seq = 0 };
    F_wire.Hello { client = 3; version = 2; resume = true; last_seq = 9_000_001 };
    F_wire.Submit { req = 42; proc = "ycsb.rmw"; args = Bytes.of_string "\x01\x02\x03" };
    F_wire.Submit { req = 0; proc = "p"; args = Bytes.empty };
    F_wire.Bye;
    F_wire.Shutdown;
    F_wire.Stats;
  ]

let responses : F_wire.response list =
  [
    F_wire.Hello_ok { version = 2; last_acked = 0 };
    F_wire.Hello_ok { version = 1; last_acked = 123_456 };
    F_wire.Result { req = 3; outcome = `Committed };
    F_wire.Result { req = 9; outcome = `Aborted };
    F_wire.Rejected { req = 1; reason = `Overloaded };
    F_wire.Rejected { req = 2; reason = `Unknown_proc };
    F_wire.Rejected { req = F_wire.no_req; reason = `Bad_frame };
    F_wire.Bye_ok { digest = 0x1234_5678_9ABC_DEFL };
    F_wire.Server_error "boom";
    F_wire.Stats_ok { json = {|{"uptime_s":1.5,"admitted":42}|} };
  ]

let decode_stream decode feed_sizes frames =
  let all = Bytes.concat Bytes.empty frames in
  let reader = F_wire.Reader.create () in
  let out = ref [] in
  let off = ref 0 in
  let sizes = ref feed_sizes in
  while !off < Bytes.length all do
    let n =
      match !sizes with
      | [] -> Bytes.length all - !off
      | s :: rest ->
          sizes := rest;
          min s (Bytes.length all - !off)
    in
    F_wire.Reader.feed reader all ~off:!off ~len:n;
    off := !off + n;
    let continue = ref true in
    while !continue do
      match F_wire.Reader.next_payload reader with
      | None -> continue := false
      | Some payload -> out := decode payload :: !out
    done
  done;
  List.rev !out

let test_wire_roundtrip () =
  let got = decode_stream F_wire.decode_request [] (List.map F_wire.encode_request requests) in
  Alcotest.(check int) "request count" (List.length requests) (List.length got);
  List.iter2 (fun a b -> assert (a = b)) requests got;
  let got =
    decode_stream F_wire.decode_response [] (List.map F_wire.encode_response responses)
  in
  Alcotest.(check int) "response count" (List.length responses) (List.length got);
  List.iter2 (fun a b -> assert (a = b)) responses got

(* Byte-at-a-time delivery: the incremental reader reassembles frames
   across arbitrarily fragmented reads. *)
let test_wire_partial () =
  let sizes = List.init 10_000 (fun _ -> 1) in
  let got = decode_stream F_wire.decode_request sizes (List.map F_wire.encode_request requests) in
  assert (got = requests);
  let sizes = List.init 10_000 (fun i -> 1 + (i mod 3)) in
  let got =
    decode_stream F_wire.decode_response sizes (List.map F_wire.encode_response responses)
  in
  assert (got = responses)

let test_wire_errors () =
  let raises f =
    match f () with
    | exception F_wire.Protocol_error _ -> ()
    | _ -> Alcotest.fail "expected Protocol_error"
  in
  (* Unknown tag. *)
  raises (fun () -> F_wire.decode_request (Bytes.of_string "\x7f"));
  raises (fun () -> F_wire.decode_response (Bytes.of_string "\x7f"));
  (* Truncated Submit payload. *)
  raises (fun () -> F_wire.decode_request (Bytes.of_string "\x02\x00\x00"));
  (* Oversized length prefix. *)
  raises (fun () ->
      let r = F_wire.Reader.create () in
      let b = Bytes.create 4 in
      Bytes.set_int32_le b 0 (Int32.of_int (F_wire.max_frame + 1));
      F_wire.Reader.feed r b ~off:0 ~len:4;
      F_wire.Reader.next_payload r);
  (* Zero-length frame. *)
  raises (fun () ->
      let r = F_wire.Reader.create () in
      let b = Bytes.make 4 '\x00' in
      F_wire.Reader.feed r b ~off:0 ~len:4;
      F_wire.Reader.next_payload r);
  (* Truncated Result payload. *)
  raises (fun () -> F_wire.decode_response (Bytes.of_string "\x82\x00\x00"));
  (* A Hello claiming version 0 is nonsense... *)
  raises (fun () ->
      let frame =
        F_wire.encode_request
          (F_wire.Hello { client = 1; version = 0; resume = false; last_seq = 0 })
      in
      F_wire.decode_request (Bytes.sub frame 4 (Bytes.length frame - 4)));
  (* ...but a version above ours must decode — the server clamps in its
     Hello_ok, so a future client can connect and negotiate down. *)
  (let frame =
     F_wire.encode_request
       (F_wire.Hello
          { client = 1; version = F_wire.protocol_version + 1; resume = true; last_seq = 7 })
   in
   match F_wire.decode_request (Bytes.sub frame 4 (Bytes.length frame - 4)) with
   | F_wire.Hello { client = 1; version = v; resume = true; last_seq = 7 }
     when v = F_wire.protocol_version + 1 ->
       ()
   | _ -> Alcotest.fail "future-version Hello did not decode");
  (* A v2 Hello with a garbage resume flag. *)
  raises (fun () ->
      let frame =
        F_wire.encode_request
          (F_wire.Hello { client = 1; version = 2; resume = true; last_seq = 5 })
      in
      let payload = Bytes.sub frame 4 (Bytes.length frame - 4) in
      Bytes.set_uint8 payload 9 7;
      F_wire.decode_request payload)

(* Version 1 peers stay decodable: a label-only Hello and a bare
   Hello_ok normalise to the v2 record with no session semantics. *)
let test_wire_legacy_v1 () =
  let p = Bytes.create 5 in
  Bytes.set_uint8 p 0 0x01;
  Bytes.set_int32_le p 1 9l;
  (match F_wire.decode_request p with
  | F_wire.Hello { client = 9; version = 1; resume = false; last_seq = 0 } -> ()
  | _ -> Alcotest.fail "legacy Hello did not normalise");
  match F_wire.decode_response (Bytes.make 1 '\x81') with
  | F_wire.Hello_ok { version = 1; last_acked = 0 } -> ()
  | _ -> Alcotest.fail "legacy Hello_ok did not normalise"

(* Seeded fuzz over the reader + decoders: random byte streams, random
   fragmentation, and randomly corrupted valid frames must only ever
   yield decoded messages or [Protocol_error] — never any other
   exception, never a crash. *)
let test_wire_fuzz () =
  let rng = Rng.create 0xF00D in
  let feed_and_drain decode all sizes =
    let reader = F_wire.Reader.create () in
    let off = ref 0 in
    let sizes = ref sizes in
    (try
       while !off < Bytes.length all do
         let n =
           match !sizes with
           | [] -> Bytes.length all - !off
           | s :: rest ->
               sizes := rest;
               min (max 1 s) (Bytes.length all - !off)
         in
         F_wire.Reader.feed reader all ~off:!off ~len:n;
         off := !off + n;
         let continue = ref true in
         while !continue do
           match F_wire.Reader.next_payload reader with
           | None -> continue := false
           | Some payload -> ignore (decode payload)
         done
       done
     with F_wire.Protocol_error _ -> ());
    ()
  in
  for _ = 1 to 200 do
    (* Pure garbage. *)
    let len = 1 + Rng.int rng 256 in
    let garbage = Bytes.init len (fun _ -> Char.chr (Rng.int rng 256)) in
    let frags = List.init 8 (fun _ -> 1 + Rng.int rng 64) in
    feed_and_drain F_wire.decode_request garbage frags;
    feed_and_drain F_wire.decode_response garbage frags;
    (* A valid frame stream with one corrupted byte. *)
    let valid = Bytes.concat Bytes.empty (List.map F_wire.encode_request requests) in
    let corrupted = Bytes.copy valid in
    let pos = Rng.int rng (Bytes.length corrupted) in
    Bytes.set corrupted pos (Char.chr (Rng.int rng 256));
    feed_and_drain F_wire.decode_request corrupted [ 1 + Rng.int rng 16 ]
  done

(* ------------------------------------------------------------------ *)
(* Stored-procedure registry                                           *)

let small_ycsb () =
  Nv_workloads.Ycsb.make
    {
      Nv_workloads.Ycsb.default with
      Nv_workloads.Ycsb.rows = 512;
      value_size = 64;
      update_bytes = 32;
      ops_per_txn = 4;
    }

let small_smallbank () =
  Nv_workloads.Smallbank.make
    { Nv_workloads.Smallbank.default with Nv_workloads.Smallbank.customers = 400; hot_customers = 40 }

let test_proc_registry () =
  List.iter
    (fun (w : W.t) ->
      let reg = F_proc.of_workload w in
      assert (F_proc.names reg <> []);
      assert (not (F_proc.mem reg "no.such.proc"));
      (match F_proc.build reg ~proc:"no.such.proc" ~args:Bytes.empty with
      | Error `Unknown_proc -> ()
      | Ok _ -> Alcotest.fail "unknown proc built");
      (* Every call the workload generates resolves, builds, and logs a
         framed input that rebuilds. *)
      let rng = Rng.create 7 in
      for _ = 1 to 50 do
        let proc, args = w.W.gen_call rng in
        assert (F_proc.mem reg proc);
        match F_proc.build reg ~proc ~args with
        | Error `Unknown_proc -> Alcotest.fail "generated call did not resolve"
        | Ok txn ->
            (* The logged input is the framed call... *)
            assert (txn.Nvcaracal.Txn.input = F_proc.encode_call ~proc ~args);
            (* ...and decodes back to the same (proc, args). *)
            (match F_proc.decode_call txn.Nvcaracal.Txn.input with
            | Some (p, a) -> assert (p = proc && a = args)
            | None -> Alcotest.fail "framed call did not decode");
            (* rebuild (the replay path) accepts it. *)
            let again = F_proc.rebuild reg txn.Nvcaracal.Txn.input in
            assert (again.Nvcaracal.Txn.input = txn.Nvcaracal.Txn.input)
      done)
    [ small_ycsb (); small_smallbank (); Nv_workloads.Tpcc.make Nv_workloads.Tpcc.default ]

(* ------------------------------------------------------------------ *)
(* Batcher                                                             *)

let spec_serial = Engine.spec (Engine.Caracal Nvcaracal.Config.Nvcaracal)
let spec_aria = Engine.spec Engine.Caracal_aria
let spec_zen = Engine.spec Engine.Zen

let loaded_engine ?(setup = Engine.setup ~epochs:64 ~epoch_txns:64 ()) spec (w : W.t) =
  let packed = Engine.instantiate spec setup w in
  (match packed with Engine_intf.Packed ((module E), db) -> E.bulk_load db (w.W.load ()));
  packed

type sim_client = {
  c : F_batcher.client;
  rng : Rng.t;
  results : F_wire.response list ref;
}

(* Single-shard serving is the N=1 case of the shard-set seam. *)
let local_set engine (w : W.t) = F_shard_set.local ~engine ~tables:w.W.tables

let mk_batcher ?cfg ?journal spec w =
  let engine = loaded_engine spec w in
  let registry = F_proc.of_workload w in
  F_batcher.create ?cfg ?journal ~shards:(local_set engine w) ~registry ~tables:w.W.tables ()

let tmpfile name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "nvdb-test-%d-%s" (Unix.getpid ()) name)

let jmeta = "workload=test contention=low engine=serial seed=1"

(* The batches a journaled batcher ran, exactly as formed (carryover
   included), read back from the closed journal file, which is then
   removed. *)
let journaled_batches j ~path =
  F_journal.close j;
  let o = F_journal.load ~path ~meta:jmeta in
  F_journal.close o.F_journal.journal;
  Sys.remove path;
  assert (not o.F_journal.torn_tail);
  o.F_journal.records

let mk_client ?(seed = 0) b =
  let results = ref [] in
  let c = F_batcher.connect b ~reply:(Some (fun r -> results := r :: !results)) in
  { c; rng = Rng.create seed; results }

let submit_one b (w : W.t) cl ~req =
  let proc, args = w.W.gen_call cl.rng in
  F_batcher.submit b cl.c ~req ~proc ~args

(* ------------------------------------------------------------------ *)
(* A session over every engine                                         *)

(* The in-process admission path ([nvdb serve-sim] drives it the same
   way) gives every engine the same contract: nothing runs for an empty
   batch, and a reply waits for its epoch. *)
let session_engines = [ ("nvcaracal", spec_serial); ("aria", spec_aria); ("zen", spec_zen) ]

let test_session_empty_flush spec () =
  let w = small_ycsb () in
  let b = mk_batcher spec w in
  let a = mk_client b in
  F_batcher.flush b;
  F_batcher.advance b 1;
  Alcotest.(check int) "no epoch for an empty batch" 0 (F_batcher.epochs_run b);
  assert (F_batcher.pending b = 0);
  assert (!(a.results) = [])

let test_session_result_gating spec () =
  let w = small_ycsb () in
  let cfg = F_batcher.config ~batch_target:100 ~deadline_ticks:100 () in
  let b = mk_batcher ~cfg spec w in
  let a = mk_client ~seed:3 b in
  let before = F_batcher.state_digest b in
  assert (submit_one b w a ~req:1 = `Admitted);
  assert (submit_one b w a ~req:2 = `Admitted);
  F_batcher.advance b 1;
  (* Before the epoch runs: no reply, and the committed state is
     untouched. *)
  assert (!(a.results) = []);
  Alcotest.(check int) "pending" 2 (F_batcher.pending b);
  Alcotest.(check int) "outstanding" 2 (F_batcher.outstanding a.c);
  Alcotest.(check int64) "state untouched" before (F_batcher.state_digest b);
  F_batcher.flush b;
  Alcotest.(check int) "one epoch" 1 (F_batcher.epochs_run b);
  let reqs =
    List.rev_map
      (function F_wire.Result { req; _ } -> req | _ -> Alcotest.fail "not a Result")
      !(a.results)
  in
  Alcotest.(check (list int)) "both answered, in order" [ 1; 2 ] reqs;
  Alcotest.(check int) "outstanding after" 0 (F_batcher.outstanding a.c);
  assert (F_batcher.state_digest b <> before)

let test_session_auto_flush_exact spec () =
  let w = small_ycsb () in
  let cfg = F_batcher.config ~batch_target:3 ~deadline_ticks:100 () in
  let b = mk_batcher ~cfg spec w in
  let a = mk_client ~seed:4 b in
  assert (submit_one b w a ~req:0 = `Admitted);
  assert (submit_one b w a ~req:1 = `Admitted);
  F_batcher.advance b 1;
  (* Two admissions: below target, still pending. *)
  Alcotest.(check int) "no epoch below target" 0 (F_batcher.epochs_run b);
  Alcotest.(check int) "pending" 2 (F_batcher.pending b);
  (* The third reaches the target exactly: the next tick runs the
     epoch and answers all three, bar what Aria defers to the next. *)
  assert (submit_one b w a ~req:2 = `Admitted);
  F_batcher.advance b 1;
  Alcotest.(check int) "one epoch at target" 1 (F_batcher.epochs_run b);
  let deferred = F_batcher.carryover_len b in
  Alcotest.(check int) "only deferrals pending" deferred (F_batcher.pending b);
  Alcotest.(check int) "replies" (3 - deferred) (List.length !(a.results));
  F_batcher.drain b;
  Alcotest.(check int) "all answered" 3 (List.length !(a.results))

let test_batcher_size_close spec () =
  let w = small_ycsb () in
  let cfg = F_batcher.config ~batch_target:8 ~deadline_ticks:100 () in
  let path = tmpfile "batcher-size" in
  let journal = F_journal.create ~path ~meta:jmeta () in
  let b = mk_batcher ~cfg ~journal spec w in
  let a = mk_client ~seed:1 b and c = mk_client ~seed:2 b in
  for i = 0 to 3 do
    assert (submit_one b w a ~req:i = `Admitted);
    assert (submit_one b w c ~req:i = `Admitted)
  done;
  (* Replies are withheld until a batch closes and its epoch
     checkpoints: nothing has fired yet even though the target is met. *)
  assert (!(a.results) = [] && !(c.results) = []);
  assert (F_batcher.pending b = 8);
  F_batcher.advance b 1;
  (* Size target reached: one tick closes and runs exactly one epoch. *)
  Alcotest.(check int) "epochs" 1 (F_batcher.epochs_run b);
  assert (F_batcher.pending b = 0);
  Alcotest.(check int) "client a replies" 4 (List.length !(a.results));
  Alcotest.(check int) "client c replies" 4 (List.length !(c.results));
  (* Round-robin admission in client-id order: a, c, a, c, ... *)
  (match journaled_batches journal ~path with
  | [ r ] -> Alcotest.(check int) "batch size" 8 (List.length r.F_journal.r_entries)
  | _ -> Alcotest.fail "expected one admitted batch");
  (* Per-client FIFO: requests answered in submission order. *)
  let reqs cl =
    List.rev !(cl.results)
    |> List.map (function F_wire.Result { req; _ } -> req | _ -> Alcotest.fail "not a Result")
  in
  Alcotest.(check (list int)) "fifo a" [ 0; 1; 2; 3 ] (reqs a);
  Alcotest.(check (list int)) "fifo c" [ 0; 1; 2; 3 ] (reqs c)

let test_batcher_deadline_close () =
  let w = small_ycsb () in
  let cfg = F_batcher.config ~batch_target:100 ~deadline_ticks:3 () in
  let b = mk_batcher ~cfg spec_serial w in
  let a = mk_client b in
  for i = 0 to 4 do
    ignore (submit_one b w a ~req:i)
  done;
  (* Under-filled batch: the deadline, not the size target, closes it. *)
  F_batcher.advance b 1;
  F_batcher.advance b 1;
  assert (F_batcher.epochs_run b = 0 && !(a.results) = []);
  F_batcher.advance b 1;
  Alcotest.(check int) "epochs after deadline" 1 (F_batcher.epochs_run b);
  Alcotest.(check int) "replies" 5 (List.length !(a.results))

let test_batcher_overload () =
  let w = small_ycsb () in
  let cfg = F_batcher.config ~batch_target:4 ~deadline_ticks:4 ~max_pending:6 () in
  let b = mk_batcher ~cfg spec_serial w in
  let a = mk_client b in
  for i = 0 to 5 do
    assert (submit_one b w a ~req:i = `Admitted)
  done;
  (* The bound is hit: rejection is explicit, never a silent drop. *)
  (match submit_one b w a ~req:6 with
  | `Rejected `Overloaded -> ()
  | `Admitted | `Rejected _ | `Replayed _ | `Duplicate -> Alcotest.fail "expected `Overloaded");
  (match !(a.results) with
  | [ F_wire.Rejected { req = 6; reason = `Overloaded } ] -> ()
  | _ -> Alcotest.fail "rejection must be delivered on the reply channel");
  Alcotest.(check int) "rejected count" 1 (F_batcher.rejected b);
  (* Draining makes room again. *)
  F_batcher.drain b;
  assert (F_batcher.pending b = 0);
  assert (submit_one b w a ~req:7 = `Admitted);
  (* Unknown procedures are rejected explicitly too. *)
  (match F_batcher.submit b a.c ~req:8 ~proc:"no.such" ~args:Bytes.empty with
  | `Rejected `Unknown_proc -> ()
  | _ -> Alcotest.fail "expected `Unknown_proc")

let test_batcher_disconnect () =
  let w = small_ycsb () in
  let cfg = F_batcher.config ~batch_target:100 ~deadline_ticks:2 () in
  let b = mk_batcher ~cfg spec_serial w in
  let a = mk_client ~seed:1 b and c = mk_client ~seed:2 b in
  for i = 0 to 3 do
    ignore (submit_one b w a ~req:i);
    ignore (submit_one b w c ~req:i)
  done;
  (* Client c vanishes before its epoch ran: its admitted transactions
     still execute (admission is a determinism commitment), only the
     replies are dropped. *)
  F_batcher.disconnect b c.c;
  F_batcher.drain b;
  Alcotest.(check int) "all admitted executed" 8
    (F_batcher.committed b + F_batcher.aborted b);
  Alcotest.(check int) "survivor replied" 4 (List.length !(a.results));
  Alcotest.(check int) "ghost not replied" 0 (List.length !(c.results))

(* Served determinism: a 32-client interleaved run, then an offline
   replay of the very batches the batcher admitted, through a fresh
   engine — committed digests and the raw pmem byte image must be
   identical (the acceptance check of the networked front end). *)
let test_batcher_determinism spec () =
  let w = small_ycsb () in
  let cfg = F_batcher.config ~batch_target:24 ~deadline_ticks:3 ~max_pending:4096 () in
  let path = tmpfile "batcher-determinism" in
  let journal = F_journal.create ~path ~meta:jmeta () in
  let b = mk_batcher ~cfg ~journal spec w in
  let clients = Array.init 32 (fun i -> mk_client ~seed:(100 + i) b) in
  let driver = Rng.create 9 in
  for round = 0 to 19 do
    Array.iteri
      (fun i cl ->
        let n = Rng.int driver 3 in
        for k = 0 to n - 1 do
          ignore (submit_one b w cl ~req:((round * 10) + k + (i * 1000)))
        done)
      clients;
    F_batcher.advance b 1
  done;
  F_batcher.drain b;
  let digest_served = F_batcher.state_digest b in
  let batches = journaled_batches journal ~path in
  assert (batches <> []);
  (* Offline replay of the same admitted batches. *)
  let replay = loaded_engine spec w in
  let registry = F_proc.of_workload w in
  (* A record holds the calls its batch admitted; the batch itself is
     led by the previous batch's deferrals (Aria's carryover). *)
  (match replay with
  | Engine_intf.Packed ((module E), db) ->
      ignore
        (List.fold_left
           (fun carry r ->
             let txns =
               Array.append carry
                 (Array.of_list
                    (List.map
                       (fun e -> F_proc.rebuild registry e.F_journal.j_call)
                       r.F_journal.r_entries))
             in
             snd (E.run_batch db txns))
           [||] batches));
  let digest_replayed = Engine.state_digest replay in
  Alcotest.(check int64) "served vs replayed digest" digest_served digest_replayed;
  (* Byte-identical persistent images. *)
  let image packed =
    match packed with
    | Engine_intf.Packed ((module E), db) ->
        let p = E.pmem db in
        Nv_nvmm.Pmem.read_bytes p ~off:0 ~len:(Nv_nvmm.Pmem.size p)
  in
  let a = image (F_batcher.engine b) and r = image replay in
  Alcotest.(check int) "pmem sizes" (Bytes.length a) (Bytes.length r);
  Alcotest.(check bool) "pmem byte image identical" true (Bytes.equal a r)

let pmem_image packed =
  match packed with
  | Engine_intf.Packed ((module E), db) ->
      let p = E.pmem db in
      Nv_nvmm.Pmem.read_bytes p ~off:0 ~len:(Nv_nvmm.Pmem.size p)

(* ------------------------------------------------------------------ *)
(* Crashpoints                                                         *)

let test_crashpoint_parse () =
  let module C = Nv_util.Crashpoint in
  assert (C.parse "mid-epoch:3" = Some ("mid-epoch", 3));
  assert (C.parse "p" = Some ("p", 1));
  assert (C.parse "" = None);
  assert (C.parse ":2" = None);
  assert (C.parse "p:0" = None);
  assert (C.parse "p:-1" = None);
  assert (C.parse "p:x" = None);
  (* The test runner is never armed: hits are free no-ops, suppressed
     or not. *)
  assert (C.armed () = None);
  C.hit "anything";
  C.suppress (fun () -> C.hit "anything")

(* ------------------------------------------------------------------ *)
(* Durable admission journal                                           *)

let mk_entries b n =
  List.init n (fun i ->
      {
        F_journal.j_client = 1 + (i mod 3);
        j_seq = (b * 100) + i;
        j_call = Bytes.of_string (Printf.sprintf "call-%d-%d" b i);
      })

let test_journal_roundtrip () =
  let path = tmpfile "journal-rt" in
  (try Sys.remove path with Sys_error _ -> ());
  let j = F_journal.create ~path ~meta:jmeta () in
  let batches = List.init 5 (fun b -> (b, mk_entries b (1 + b))) in
  List.iter (fun (b, es) -> F_journal.append j ~batch:b ~entries:es) batches;
  Alcotest.(check int) "record count" 5 (F_journal.record_count j);
  F_journal.close j;
  let o = F_journal.load ~path ~meta:jmeta in
  Alcotest.(check bool) "no torn tail" false o.F_journal.torn_tail;
  assert (o.F_journal.checkpoint = None);
  Alcotest.(check int) "reloaded record count" 5 (List.length o.F_journal.records);
  List.iter2
    (fun (b, es) r ->
      Alcotest.(check int) "batch number" b r.F_journal.r_batch;
      assert (r.F_journal.r_entries = es))
    batches o.F_journal.records;
  F_journal.close o.F_journal.journal;
  (* Replaying against the wrong serving configuration is refused. *)
  (match F_journal.load ~path ~meta:"workload=other contention=low engine=serial seed=1" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "meta mismatch accepted");
  Sys.remove path

(* A torn or bit-rotted tail record is healed: the CRC-valid prefix
   survives, the damage is reported, and the journal appends on. *)
let test_journal_torn_tail () =
  let path = tmpfile "journal-torn" in
  (try Sys.remove path with Sys_error _ -> ());
  let j = F_journal.create ~path ~meta:jmeta () in
  List.iter (fun b -> F_journal.append j ~batch:b ~entries:(mk_entries b 3)) [ 0; 1; 2 ];
  let used = F_journal.used_bytes j in
  F_journal.close j;
  (* Corrupt a byte inside the last record's span — a torn mirror
     write at the moment of the crash. *)
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  (* [- 16] keeps the flip inside CRC-covered payload bytes, clear of
     the record's final pad-to-8 slack. *)
  ignore (Unix.lseek fd (F_journal.records_offset + used - 16) Unix.SEEK_SET);
  ignore (Unix.write fd (Bytes.make 1 '\xff') 0 1);
  Unix.close fd;
  let o = F_journal.load ~path ~meta:jmeta in
  Alcotest.(check bool) "torn tail reported" true o.F_journal.torn_tail;
  Alcotest.(check int) "prefix survives" 2 (List.length o.F_journal.records);
  List.iteri
    (fun i r -> Alcotest.(check int) "prefix batch" i r.F_journal.r_batch)
    o.F_journal.records;
  F_journal.close o.F_journal.journal;
  Sys.remove path

(* Power loss on the file itself: the used-word reached the disk
   claiming the last record, but the file was cut part-way through that
   record's bytes. Load keeps the intact prefix, reports the torn tail,
   and heals it, so the re-admitted batch appends and reloads clean. *)
let test_journal_power_loss_tail () =
  let path = tmpfile "journal-power" in
  let j = F_journal.create ~path ~meta:jmeta () in
  List.iter (fun b -> F_journal.append j ~batch:b ~entries:(mk_entries b 3)) [ 0; 1 ];
  let prefix = F_journal.used_bytes j in
  F_journal.append j ~batch:2 ~entries:(mk_entries 2 3);
  let used = F_journal.used_bytes j in
  F_journal.close j;
  Unix.truncate path (F_journal.records_offset + prefix + ((used - prefix) / 2));
  let o = F_journal.load ~path ~meta:jmeta in
  Alcotest.(check bool) "torn tail reported" true o.F_journal.torn_tail;
  Alcotest.(check (list int)) "prefix kept" [ 0; 1 ]
    (List.map (fun r -> r.F_journal.r_batch) o.F_journal.records);
  Alcotest.(check int) "used-word retreats to the prefix" prefix
    (F_journal.used_bytes o.F_journal.journal);
  F_journal.append o.F_journal.journal ~batch:2 ~entries:(mk_entries 2 3);
  F_journal.close o.F_journal.journal;
  let o = F_journal.load ~path ~meta:jmeta in
  Alcotest.(check bool) "healed: no torn tail" false o.F_journal.torn_tail;
  Alcotest.(check (list int)) "re-appended record reloads" [ 0; 1; 2 ]
    (List.map (fun r -> r.F_journal.r_batch) o.F_journal.records);
  assert ((List.nth o.F_journal.records 2).F_journal.r_entries = mk_entries 2 3);
  F_journal.close o.F_journal.journal;
  Sys.remove path

(* [size] caps the file: an append that would cross it fails and
   writes nothing, and every earlier record still loads. *)
let test_journal_full () =
  let path = tmpfile "journal-full" in
  (* One-entry records of 48 bytes: two fit in 128, the third does not. *)
  let j = F_journal.create ~size:(F_journal.records_offset + 128) ~path ~meta:jmeta () in
  List.iter (fun b -> F_journal.append j ~batch:b ~entries:(mk_entries b 1)) [ 0; 1 ];
  Alcotest.(check int) "two records" 96 (F_journal.used_bytes j);
  (match F_journal.append j ~batch:2 ~entries:(mk_entries 2 1) with
  | exception Failure _ -> ()
  | () -> Alcotest.fail "append past size accepted");
  Alcotest.(check int) "used unchanged" 96 (F_journal.used_bytes j);
  Alcotest.(check int) "count unchanged" 2 (F_journal.record_count j);
  F_journal.close j;
  Alcotest.(check int) "nothing written past the cap" (F_journal.records_offset + 96)
    (Unix.stat path).Unix.st_size;
  let o = F_journal.load ~path ~meta:jmeta in
  Alcotest.(check bool) "no torn tail" false o.F_journal.torn_tail;
  Alcotest.(check (list int)) "earlier records load" [ 0; 1 ]
    (List.map (fun r -> r.F_journal.r_batch) o.F_journal.records);
  F_journal.close o.F_journal.journal;
  Sys.remove path

(* The journal is its file: creating a large one allocates no
   in-memory image of it. *)
let test_journal_create_lean () =
  let path = tmpfile "journal-lean" in
  let major () = (Gc.quick_stat ()).Gc.major_words in
  let before = major () in
  let j = F_journal.create ~size:(64 * 1024 * 1024) ~path ~meta:jmeta () in
  let grown = (major () -. before) *. float_of_int (Sys.word_size / 8) in
  F_journal.close j;
  Sys.remove path;
  if grown >= 1048576.0 then Alcotest.failf "create grew the major heap by %.0f bytes" grown

let test_journal_checkpoint_truncate () =
  let path = tmpfile "journal-ckpt" in
  (try Sys.remove path with Sys_error _ -> ());
  (try Sys.remove (path ^ ".ckpt") with Sys_error _ -> ());
  let j = F_journal.create ~path ~meta:jmeta () in
  List.iter (fun b -> F_journal.append j ~batch:b ~entries:(mk_entries b 2)) [ 0; 1 ];
  let sessions =
    [ { F_journal.ss_client = 5; ss_last_acked = 7; ss_window = [ (6, `Committed); (7, `Aborted) ] } ]
  in
  F_journal.write_checkpoint j ~batches:2 ~sessions ~image:(Bytes.of_string "IMAGE-BYTES");
  F_journal.truncate_to j ~batch:2;
  Alcotest.(check int) "truncated" 0 (F_journal.record_count j);
  F_journal.append j ~batch:2 ~entries:(mk_entries 2 4);
  F_journal.close j;
  let o = F_journal.load ~path ~meta:jmeta in
  (match o.F_journal.checkpoint with
  | None -> Alcotest.fail "checkpoint lost"
  | Some ck ->
      Alcotest.(check int) "covered batches" 2 ck.F_journal.ck_batches;
      assert (ck.F_journal.ck_sessions = sessions);
      assert (Bytes.to_string ck.F_journal.ck_image = "IMAGE-BYTES"));
  (match o.F_journal.records with
  | [ r ] ->
      Alcotest.(check int) "only the uncovered tail remains" 2 r.F_journal.r_batch;
      assert (r.F_journal.r_entries = mk_entries 2 4)
  | rs -> Alcotest.failf "expected 1 surviving record, got %d" (List.length rs));
  F_journal.close o.F_journal.journal;
  Sys.remove path;
  Sys.remove (path ^ ".ckpt")

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* The checkpoint encoder as it was before the writer streamed: the
   whole file concatenated in a Buffer, copied out, then copied again
   with the CRC trailer appended. The streamed file must be these exact
   bytes. *)
let concat_encode_checkpoint ~meta (ck : F_journal.checkpoint) =
  let buf = Buffer.create (Bytes.length ck.F_journal.ck_image + 1024) in
  Buffer.add_string buf "NVCKPT01";
  Buffer.add_int32_le buf (Int32.of_int (String.length meta));
  Buffer.add_string buf meta;
  Buffer.add_int64_le buf (Int64.of_int ck.F_journal.ck_batches);
  Buffer.add_int32_le buf (Int32.of_int (List.length ck.F_journal.ck_sessions));
  List.iter
    (fun s ->
      Buffer.add_int32_le buf (Int32.of_int s.F_journal.ss_client);
      Buffer.add_int64_le buf (Int64.of_int s.F_journal.ss_last_acked);
      Buffer.add_int32_le buf (Int32.of_int (List.length s.F_journal.ss_window));
      List.iter
        (fun (seq, o) ->
          Buffer.add_int64_le buf (Int64.of_int seq);
          Buffer.add_uint8 buf (match o with `Committed -> 0 | `Aborted -> 1))
        s.F_journal.ss_window)
    ck.F_journal.ck_sessions;
  Buffer.add_int64_le buf (Int64.of_int (Bytes.length ck.F_journal.ck_image));
  Buffer.add_bytes buf ck.F_journal.ck_image;
  let body = Buffer.to_bytes buf in
  let out = Bytes.create (Bytes.length body + 4) in
  Bytes.blit body 0 out 0 (Bytes.length body);
  Bytes.set_int32_le out (Bytes.length body) (Nv_util.Crc32c.bytes body 0 (Bytes.length body));
  Bytes.to_string out

let test_checkpoint_stream_matches_concat () =
  let path = tmpfile "journal-stream" in
  (try Sys.remove path with Sys_error _ -> ());
  let rng = Rng.create 17 in
  (* An odd-length image, so the trailer lands unaligned. *)
  let image = Bytes.init 100_003 (fun _ -> Char.chr (Rng.int rng 256)) in
  let sessions =
    [
      { F_journal.ss_client = 3; ss_last_acked = 9; ss_window = [ (8, `Aborted); (9, `Committed) ] };
      { F_journal.ss_client = 12; ss_last_acked = 0; ss_window = [] };
    ]
  in
  let j = F_journal.create ~path ~meta:jmeta () in
  F_journal.write_checkpoint j ~batches:41 ~sessions ~image;
  F_journal.close j;
  let expected =
    concat_encode_checkpoint ~meta:jmeta
      { F_journal.ck_batches = 41; ck_sessions = sessions; ck_image = image }
  in
  Alcotest.(check bool) "streamed file = concatenated encoding" true
    (String.equal expected (read_file (path ^ ".ckpt")));
  let o = F_journal.load ~path ~meta:jmeta in
  (match o.F_journal.checkpoint with
  | None -> Alcotest.fail "streamed checkpoint does not decode"
  | Some ck ->
      Alcotest.(check int) "batches" 41 ck.F_journal.ck_batches;
      assert (ck.F_journal.ck_sessions = sessions);
      assert (Bytes.equal ck.F_journal.ck_image image));
  F_journal.close o.F_journal.journal;
  Sys.remove path;
  Sys.remove (path ^ ".ckpt")

(* ------------------------------------------------------------------ *)
(* Exactly-once sessions                                               *)

let test_batcher_session_dedup () =
  let w = small_ycsb () in
  let cfg = F_batcher.config ~batch_target:4 ~deadline_ticks:2 () in
  let b = mk_batcher ~cfg spec_serial w in
  let results = ref [] in
  let c = F_batcher.connect b ~reply:(Some (fun r -> results := r :: !results)) in
  let id = F_batcher.client_id c in
  let rng = Rng.create 5 in
  let proc, args = w.W.gen_call rng in
  assert (F_batcher.submit b c ~req:1 ~proc ~args = `Admitted);
  (* Retried while still in flight: swallowed — the original reply will
     answer it, nothing runs twice. *)
  assert (F_batcher.submit b c ~req:1 ~proc ~args = `Duplicate);
  F_batcher.drain b;
  let outcome1 =
    match !results with
    | [ F_wire.Result { req = 1; outcome } ] -> outcome
    | rs -> Alcotest.failf "expected exactly one Result, got %d replies" (List.length rs)
  in
  Alcotest.(check int) "one admission" 1 (F_batcher.admitted b);
  (* Retried after the answer: replayed from the dedup window with the
     original outcome, not re-executed. *)
  (match F_batcher.submit b c ~req:1 ~proc ~args with
  | `Replayed o -> assert (o = outcome1)
  | _ -> Alcotest.fail "expected `Replayed");
  Alcotest.(check int) "replayed reply resent" 2 (List.length !results);
  Alcotest.(check int) "replayed counter" 1 (F_batcher.replayed_replies b);
  Alcotest.(check int) "still one admission" 1 (F_batcher.admitted b);
  Alcotest.(check int) "last acked" 1 (F_batcher.last_acked c);
  (* Resume: same session, window intact, reply channel swapped. *)
  let results2 = ref [] in
  let c2 = F_batcher.connect b ~id ~resume:true ~reply:(Some (fun r -> results2 := r :: !results2)) in
  Alcotest.(check int) "resumed last_acked" 1 (F_batcher.last_acked c2);
  (match F_batcher.submit b c2 ~req:1 ~proc ~args with
  | `Replayed o -> assert (o = outcome1)
  | _ -> Alcotest.fail "resume lost the dedup window");
  Alcotest.(check int) "replay lands on the new channel" 1 (List.length !results2);
  (* Non-resume reconnect resets the session: the window is gone and
     the same seq executes anew. *)
  let c3 = F_batcher.connect b ~id ~reply:(Some ignore) in
  Alcotest.(check int) "reset last_acked" 0 (F_batcher.last_acked c3);
  assert (F_batcher.submit b c3 ~req:1 ~proc ~args = `Admitted);
  F_batcher.drain b;
  Alcotest.(check int) "re-executed after reset" 2 (F_batcher.admitted b);
  Alcotest.(check int) "one session throughout" 1 (F_batcher.sessions b)

(* Last-Hello-wins takeover: when a second connection resumes a session,
   the first connection's late disconnect carries a stale owner token
   and must not sever the new reply channel; and a submit on a severed
   session admits without raising (the outcome lands in the dedup
   window for a later resume). *)
let test_batcher_takeover () =
  let w = small_ycsb () in
  let cfg = F_batcher.config ~batch_target:4 ~deadline_ticks:2 () in
  let b = mk_batcher ~cfg spec_serial w in
  let r1 = ref [] and r2 = ref [] in
  let c1 = F_batcher.connect b ~reply:(Some (fun r -> r1 := r :: !r1)) in
  let id = F_batcher.client_id c1 in
  let tok1 = F_batcher.owner_token c1 in
  let rng = Rng.create 3 in
  let proc, args = w.W.gen_call rng in
  let c2 = F_batcher.connect b ~id ~resume:true ~reply:(Some (fun r -> r2 := r :: !r2)) in
  assert (F_batcher.owner_token c2 <> tok1);
  (* The stale connection closes after the takeover: token mismatch,
     the live channel survives. *)
  F_batcher.disconnect ~token:tok1 b c1;
  assert (F_batcher.submit b c2 ~req:1 ~proc ~args = `Admitted);
  F_batcher.drain b;
  Alcotest.(check int) "live channel answered" 1 (List.length !r2);
  Alcotest.(check int) "stale channel silent" 0 (List.length !r1);
  (* A current-token disconnect does sever; a ghost submit on the
     severed session still admits — never raises — and its outcome is
     replayable after a resume. *)
  F_batcher.disconnect ~token:(F_batcher.owner_token c2) b c2;
  assert (F_batcher.submit b c2 ~req:2 ~proc ~args = `Admitted);
  F_batcher.drain b;
  Alcotest.(check int) "no reply while severed" 1 (List.length !r2);
  Alcotest.(check int) "ghost executed anyway" 2
    (F_batcher.committed b + F_batcher.aborted b);
  let r3 = ref [] in
  let c3 = F_batcher.connect b ~id ~resume:true ~reply:(Some (fun r -> r3 := r :: !r3)) in
  (match F_batcher.submit b c3 ~req:2 ~proc ~args with
  | `Replayed _ -> ()
  | _ -> Alcotest.fail "ghost outcome must replay after resume");
  Alcotest.(check int) "replay lands on the resumed channel" 1 (List.length !r3)

(* try_replay is the draining server's probe: answer acked retries from
   the window, leave in-flight seqs alone, admit nothing. *)
let test_batcher_try_replay () =
  let w = small_ycsb () in
  let cfg = F_batcher.config ~batch_target:4 ~deadline_ticks:2 () in
  let b = mk_batcher ~cfg spec_serial w in
  let results = ref [] in
  let c = F_batcher.connect b ~reply:(Some (fun r -> results := r :: !results)) in
  let rng = Rng.create 7 in
  let proc, args = w.W.gen_call rng in
  assert (F_batcher.submit b c ~req:1 ~proc ~args = `Admitted);
  assert (F_batcher.try_replay b c ~req:1 = `Inflight);
  F_batcher.drain b;
  let outcome =
    match !results with
    | [ F_wire.Result { req = 1; outcome } ] -> outcome
    | _ -> Alcotest.fail "expected one Result"
  in
  (match F_batcher.try_replay b c ~req:1 with
  | `Replayed o -> assert (o = outcome)
  | _ -> Alcotest.fail "expected `Replayed");
  Alcotest.(check int) "replay re-sent" 2 (List.length !results);
  Alcotest.(check int) "replayed counter" 1 (F_batcher.replayed_replies b);
  assert (F_batcher.try_replay b c ~req:9 = `New);
  Alcotest.(check int) "probe admits nothing" 1 (F_batcher.admitted b)

(* A journal too small for the offered load: once the unanswered
   calls' records would not fit, submits are answered
   [Rejected `Overloaded] and the loop runs on. Every admitted call
   executes — Aria's carryover too, since each call is journaled once —
   and replaying the journal reproduces the served state. *)
let test_batcher_journal_full spec () =
  let w =
    Nv_workloads.Ycsb.(
      make
        (with_contention `High
           { default with rows = 256; value_size = 64; update_bytes = 32; hot_rows = 8;
             ops_per_txn = 4 }))
  in
  let cfg = F_batcher.config ~batch_target:4 ~deadline_ticks:2 ~max_pending:64 () in
  let registry = F_proc.of_workload w in
  let path = tmpfile "journal-full" in
  let j = F_journal.create ~size:4096 ~path ~meta:jmeta () in
  let b =
    F_batcher.create ~cfg ~journal:j
      ~shards:(local_set (loaded_engine spec w) w)
      ~registry ~tables:w.W.tables ()
  in
  let clients = Array.init 3 (fun i -> mk_client ~seed:(70 + i) b) in
  let overloaded = ref 0 in
  for round = 0 to 39 do
    Array.iteri
      (fun i cl ->
        match submit_one b w cl ~req:(round + (i * 1000)) with
        | `Rejected `Overloaded -> incr overloaded
        | `Admitted -> ()
        | `Rejected _ | `Replayed _ | `Duplicate -> Alcotest.fail "unexpected submit outcome")
      clients;
    F_batcher.advance b 1
  done;
  F_batcher.drain b;
  Alcotest.(check bool) "calls past capacity refused" true (!overloaded > 0);
  Alcotest.(check bool) "the journal took batches first" true (F_batcher.batches_run b > 4);
  Alcotest.(check bool) "journal within its size" true
    (F_journal.used_bytes j <= F_journal.size j - F_journal.records_offset);
  Alcotest.(check int) "every admitted call ran or was refused" (F_batcher.admitted b)
    (F_batcher.committed b + F_batcher.aborted b + F_batcher.rejected b - !overloaded);
  Alcotest.(check int) "no admitted call refused unrun" (F_batcher.admitted b)
    (F_batcher.committed b + F_batcher.aborted b);
  Alcotest.(check int) "every call answered" 120
    (Array.fold_left (fun n cl -> n + List.length !(cl.results)) 0 clients);
  let records = journaled_batches j ~path in
  let b2 =
    F_batcher.create ~cfg ~shards:(local_set (loaded_engine spec w) w) ~registry
      ~tables:w.W.tables ()
  in
  F_batcher.recover b2 ~records ~sessions:[] ~batches_done:0;
  Alcotest.(check int64) "digest after replay" (F_batcher.state_digest b)
    (F_batcher.state_digest b2)

(* ------------------------------------------------------------------ *)
(* Crash-replay determinism: a journaled run, then a fresh engine fed
   the journal through Batcher.recover — digests, counters and the raw
   pmem byte image must all match (what --recover relies on).          *)

let test_batcher_journal_replay spec () =
  let w = small_ycsb () in
  let cfg = F_batcher.config ~batch_target:16 ~deadline_ticks:2 ~max_pending:4096 () in
  let registry = F_proc.of_workload w in
  let path = tmpfile "journal-replay" in
  let j = F_journal.create ~path ~meta:jmeta () in
  let b =
    F_batcher.create ~cfg ~journal:j
      ~shards:(local_set (loaded_engine spec w) w)
      ~registry ~tables:w.W.tables ()
  in
  let clients = Array.init 8 (fun i -> mk_client ~seed:(40 + i) b) in
  for round = 0 to 11 do
    Array.iteri (fun i cl -> ignore (submit_one b w cl ~req:(round + (i * 1000)))) clients;
    F_batcher.advance b 1
  done;
  F_batcher.drain b;
  let records = journaled_batches j ~path in
  assert (records <> []);
  let b2 =
    F_batcher.create ~cfg ~shards:(local_set (loaded_engine spec w) w) ~registry
      ~tables:w.W.tables ()
  in
  F_batcher.recover b2 ~records ~sessions:[] ~batches_done:0;
  Alcotest.(check int64) "digest after replay" (F_batcher.state_digest b)
    (F_batcher.state_digest b2);
  Alcotest.(check int) "batches after replay" (F_batcher.batches_run b)
    (F_batcher.batches_run b2);
  Alcotest.(check int) "admissions after replay" (F_batcher.admitted b) (F_batcher.admitted b2);
  Alcotest.(check bool) "pmem image identical after replay" true
    (Bytes.equal (pmem_image (F_batcher.engine b)) (pmem_image (F_batcher.engine b2)))

(* Checkpoint + truncate mid-run, keep going, "crash", then recover
   from the file: engine image from the checkpoint, tail from the
   journal — the composition must equal the uncrashed original.       *)
let test_restart_checkpoint_twin () =
  let w = small_ycsb () in
  let spec = spec_serial in
  let setup = Engine.setup ~epochs:64 ~epoch_txns:64 () in
  let registry = F_proc.of_workload w in
  let path = tmpfile "journal-twin" in
  (try Sys.remove path with Sys_error _ -> ());
  (try Sys.remove (path ^ ".ckpt") with Sys_error _ -> ());
  let mk_eng () =
    let packed = Engine.instantiate spec setup w in
    (match packed with Engine_intf.Packed ((module E), db) -> E.bulk_load db (w.W.load ()));
    packed
  in
  let cfg = F_batcher.config ~batch_target:8 ~deadline_ticks:2 ~max_pending:4096 () in
  let j = F_journal.create ~path ~meta:jmeta () in
  let b =
    F_batcher.create ~cfg ~journal:j ~shards:(local_set (mk_eng ()) w) ~registry
      ~tables:w.W.tables ()
  in
  let clients = Array.init 4 (fun i -> mk_client ~seed:(60 + i) b) in
  let round b clients r =
    Array.iteri (fun i cl -> ignore (submit_one b w cl ~req:(r + (i * 1000)))) clients;
    F_batcher.advance b 1
  in
  for r = 0 to 5 do
    round b clients r
  done;
  F_batcher.flush b;
  Alcotest.(check bool) "checkpoint written" true (F_batcher.checkpoint_now b);
  for r = 6 to 11 do
    round b clients r
  done;
  F_batcher.drain b;
  let digest_a = F_batcher.state_digest b in
  let image_a = pmem_image (F_batcher.engine b) in
  (* The "crash": reopen the durable artifacts, restore, replay. *)
  let o = F_journal.load ~path ~meta:jmeta in
  let boot = F_restart.boot spec setup w ~registry o in
  Alcotest.(check bool) "restored from the checkpoint" true boot.F_restart.from_checkpoint;
  assert (boot.F_restart.batches_done > 0);
  let b2 =
    F_batcher.create ~cfg ~shards:(local_set boot.F_restart.engine w) ~registry
      ~tables:w.W.tables ()
  in
  F_batcher.recover b2 ~records:o.F_journal.records ~sessions:boot.F_restart.sessions
    ~batches_done:boot.F_restart.batches_done;
  Alcotest.(check int64) "twin digest" digest_a (F_batcher.state_digest b2);
  Alcotest.(check bool) "twin pmem image" true
    (Bytes.equal image_a (pmem_image (F_batcher.engine b2)));
  Alcotest.(check int) "twin batch count" (F_batcher.batches_run b) (F_batcher.batches_run b2);
  F_journal.close o.F_journal.journal;
  F_journal.close j;
  Sys.remove path;
  Sys.remove (path ^ ".ckpt")

(* On-media compatibility across checksum kernels: a fixed journaled
   run with a mid-run checkpoint, whose journal and checkpoint files
   (length and CRC of every byte, engine image included) and recovered
   state were recorded with the byte-at-a-time CRC kernel. Matching
   bytes mean a file written by that kernel is this file, and the test
   then loads and recovers it. (The journal's CRC was recorded again
   when its magic became "NVJ2"; its length did not change.) *)
let test_restart_files_match_recorded () =
  let w = small_ycsb () in
  let spec = spec_serial in
  let setup = Engine.setup ~epochs:64 ~epoch_txns:64 () in
  let registry = F_proc.of_workload w in
  let path = tmpfile "journal-recorded" in
  (try Sys.remove path with Sys_error _ -> ());
  (try Sys.remove (path ^ ".ckpt") with Sys_error _ -> ());
  let cfg = F_batcher.config ~batch_target:8 ~deadline_ticks:2 ~max_pending:4096 () in
  let j = F_journal.create ~size:65536 ~path ~meta:jmeta () in
  let b =
    F_batcher.create ~cfg ~journal:j
      ~shards:(local_set (loaded_engine ~setup spec w) w)
      ~registry ~tables:w.W.tables ()
  in
  let clients = Array.init 4 (fun i -> mk_client ~seed:(60 + i) b) in
  let round r =
    Array.iteri (fun i cl -> ignore (submit_one b w cl ~req:(r + (i * 1000)))) clients;
    F_batcher.advance b 1
  in
  for r = 0 to 5 do
    round r
  done;
  F_batcher.flush b;
  Alcotest.(check bool) "checkpoint written" true (F_batcher.checkpoint_now b);
  for r = 6 to 11 do
    round r
  done;
  F_batcher.drain b;
  F_journal.close j;
  let file_is name ~len ~crc p =
    let s = read_file p in
    Alcotest.(check int) (name ^ " length") len (String.length s);
    Alcotest.(check int32) (name ^ " crc") crc (Nv_util.Crc32c.string s)
  in
  file_is "journal" ~len:1952 ~crc:0x96c19260l path;
  file_is "checkpoint" ~len:5153645 ~crc:0x48674bc7l (path ^ ".ckpt");
  let o = F_journal.load ~path ~meta:jmeta in
  let boot = F_restart.boot spec setup w ~registry o in
  Alcotest.(check bool) "restored from the checkpoint" true boot.F_restart.from_checkpoint;
  let b2 =
    F_batcher.create ~cfg ~shards:(local_set boot.F_restart.engine w) ~registry
      ~tables:w.W.tables ()
  in
  F_batcher.recover b2 ~records:o.F_journal.records ~sessions:boot.F_restart.sessions
    ~batches_done:boot.F_restart.batches_done;
  Alcotest.(check int64) "recovered digest" 0x0aa5ff647469c4b2L (F_batcher.state_digest b2);
  Alcotest.(check int) "recovered batches" 6 (F_batcher.batches_run b2);
  let image = pmem_image (F_batcher.engine b2) in
  Alcotest.(check int32) "recovered pmem crc" 0xee0e8914l
    (Nv_util.Crc32c.bytes image 0 (Bytes.length image));
  F_journal.close o.F_journal.journal;
  Sys.remove path;
  Sys.remove (path ^ ".ckpt")

(* ------------------------------------------------------------------ *)
(* Aria deferred carryover under sustained overload: conflicts defer,
   overload rejects, and through all of it every admitted call is
   answered exactly once and the carryover fully drains.               *)

let test_batcher_aria_overload_carryover () =
  let w =
    Nv_workloads.Ycsb.(
      make
        (with_contention `High
           { default with rows = 256; value_size = 64; update_bytes = 32; hot_rows = 8;
             ops_per_txn = 4 }))
  in
  let cfg = F_batcher.config ~batch_target:16 ~deadline_ticks:2 ~max_pending:32 () in
  let b = mk_batcher ~cfg spec_aria w in
  let clients = Array.init 8 (fun i -> mk_client ~seed:(80 + i) b) in
  let rejected = ref 0 in
  for round = 0 to 39 do
    Array.iteri
      (fun i cl ->
        for k = 0 to 2 do
          match submit_one b w cl ~req:((round * 3) + k + (i * 10_000)) with
          | `Admitted -> ()
          | `Rejected `Overloaded -> incr rejected
          | `Rejected `Unknown_proc | `Replayed _ | `Duplicate ->
              Alcotest.fail "unexpected submit result"
        done)
      clients;
    F_batcher.advance b 1
  done;
  Alcotest.(check bool) "conflicts actually deferred" true (F_batcher.deferred_total b > 0);
  Alcotest.(check bool) "overload actually rejected" true (!rejected > 0);
  F_batcher.drain b;
  Alcotest.(check int) "carryover fully drained" 0 (F_batcher.carryover_len b);
  Alcotest.(check int) "every admission answered"
    (F_batcher.admitted b)
    (F_batcher.committed b + F_batcher.aborted b);
  (* Exactly one answer per admitted request: deferral retries must not
     leak duplicate replies. *)
  Array.iter
    (fun cl ->
      let reqs =
        List.filter_map
          (function F_wire.Result { req; _ } -> Some req | _ -> None)
          !(cl.results)
      in
      Alcotest.(check int) "no duplicate replies" (List.length reqs)
        (List.length (List.sort_uniq compare reqs)))
    clients

(* ------------------------------------------------------------------ *)
(* Sockets end to end: a real server thread, a real multi-client load
   generator, zero protocol errors, clean shutdown. *)

let test_socket_end_to_end () =
  let w = small_ycsb () in
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "nvdb-test-%d.sock" (Unix.getpid ()))
  in
  if Sys.file_exists path then Sys.remove path;
  let engine = loaded_engine spec_serial w in
  let registry = F_proc.of_workload w in
  let scfg =
    F_server.config
      ~batcher:(F_batcher.config ~batch_target:32 ~deadline_ticks:2 ())
      ~tick_interval_s:0.001 (`Unix path)
  in
  let stats = ref None in
  let th =
    Thread.create
      (fun () ->
        stats :=
          Some (F_server.serve ~shards:(local_set engine w) ~registry ~tables:w.W.tables scfg))
      ()
  in
  (* Wait for the bind before pointing clients at it. *)
  let waited = ref 0 in
  while (not (Sys.file_exists path)) && !waited < 5000 do
    Thread.delay 0.001;
    incr waited
  done;
  let lcfg =
    F_loadgen.config ~clients:8 ~txns_per_client:40 ~seed:11 ~window:4 ~shutdown:true
      (`Unix path)
  in
  let lstats = F_loadgen.run lcfg w in
  Thread.join th;
  let sstats = match !stats with Some s -> s | None -> Alcotest.fail "server died" in
  Alcotest.(check int) "client protocol errors" 0 lstats.F_loadgen.protocol_errors;
  Alcotest.(check int) "server protocol errors" 0 sstats.F_server.protocol_errors;
  Alcotest.(check int) "all sent" (8 * 40) lstats.F_loadgen.sent;
  Alcotest.(check int) "all answered" (8 * 40)
    (lstats.F_loadgen.committed + lstats.F_loadgen.aborted + lstats.F_loadgen.rejected);
  Alcotest.(check int) "nothing rejected" 0 lstats.F_loadgen.rejected;
  Alcotest.(check int) "server saw all clients" 8 sstats.F_server.clients_served;
  Alcotest.(check int) "server committed everything" lstats.F_loadgen.committed
    sstats.F_server.committed;
  (* Every client got a digest with its goodbye. *)
  assert (List.length lstats.F_loadgen.digests = 8);
  assert (not (Sys.file_exists path))

(* should_stop (what SIGTERM/SIGINT toggle in nvdb serve): the select
   loop notices, drains, answers everyone and exits cleanly. *)
let test_server_should_stop () =
  let w = small_ycsb () in
  let path = tmpfile "stop.sock" in
  if Sys.file_exists path then Sys.remove path;
  let engine = loaded_engine spec_serial w in
  let registry = F_proc.of_workload w in
  let scfg =
    F_server.config
      ~batcher:(F_batcher.config ~batch_target:16 ~deadline_ticks:2 ())
      ~tick_interval_s:0.001 (`Unix path)
  in
  let stop = ref false in
  let stats = ref None in
  let th =
    Thread.create
      (fun () ->
        stats :=
          Some
            (F_server.serve
               ~should_stop:(fun () -> !stop)
               ~shards:(local_set engine w) ~registry ~tables:w.W.tables scfg))
      ()
  in
  let waited = ref 0 in
  while (not (Sys.file_exists path)) && !waited < 5000 do
    Thread.delay 0.001;
    incr waited
  done;
  let lcfg = F_loadgen.config ~clients:4 ~txns_per_client:20 ~seed:5 ~window:2 (`Unix path) in
  let lstats = F_loadgen.run lcfg w in
  stop := true;
  Thread.join th;
  let sstats = match !stats with Some s -> s | None -> Alcotest.fail "server died" in
  Alcotest.(check int) "client protocol errors" 0 lstats.F_loadgen.protocol_errors;
  Alcotest.(check int) "server protocol errors" 0 sstats.F_server.protocol_errors;
  Alcotest.(check int) "all answered" (4 * 20)
    (lstats.F_loadgen.committed + lstats.F_loadgen.aborted + lstats.F_loadgen.rejected);
  Alcotest.(check int) "server agrees on commits" lstats.F_loadgen.committed
    sstats.F_server.committed;
  Alcotest.(check bool) "socket removed on exit" false (Sys.file_exists path)

(* Serve [w] on a fresh unix socket from a thread until [stop] returns
   true (polled once per loop round); [client] runs once the socket
   exists. Returns the server's stats. *)
let serve_in_thread ?(batcher = F_batcher.config ()) w name ~stop client =
  let path = tmpfile name in
  if Sys.file_exists path then Sys.remove path;
  let engine = loaded_engine spec_serial w in
  let scfg = F_server.config ~batcher ~tick_interval_s:0.002 (`Unix path) in
  let stats = ref None in
  let th =
    Thread.create
      (fun () ->
        stats :=
          Some
            (F_server.serve ~should_stop:stop ~shards:(local_set engine w)
               ~registry:(F_proc.of_workload w) ~tables:w.W.tables scfg))
      ()
  in
  let waited = ref 0 in
  while (not (Sys.file_exists path)) && !waited < 5000 do
    Thread.delay 0.001;
    incr waited
  done;
  client path;
  Thread.join th;
  match !stats with Some s -> s | None -> Alcotest.fail "server died"

(* With nothing pending and no batch running, the loop sleeps up to its
   50 ms cap instead of waking on every 2 ms tick: half a second idle
   costs about ten rounds (a loop that wakes every tick makes about
   240). *)
let test_idle_server_sleeps () =
  let rounds = ref 0 in
  let t0 = Unix.gettimeofday () in
  let stop () =
    incr rounds;
    Unix.gettimeofday () -. t0 > 0.5
  in
  ignore (serve_in_thread (small_ycsb ()) "idle.sock" ~stop (fun _ -> ()));
  Alcotest.(check bool) (Printf.sprintf "%d idle rounds in 0.5 s < 40" !rounds) true (!rounds < 40)

(* An under-filled batch still closes at its deadline, 8 ticks of 2 ms
   after its call arrives: the loop wakes for it, not at the idle cap,
   and not earlier. *)
let test_deadline_wakes_the_loop () =
  let w = small_ycsb () in
  let batcher = F_batcher.config ~batch_target:256 ~deadline_ticks:8 () in
  let done_ = ref false in
  let lat = ref (Nv_util.Histogram.create ()) in
  ignore
    (serve_in_thread ~batcher w "deadline.sock"
       ~stop:(fun () -> !done_)
       (fun path ->
         let lstats =
           F_loadgen.run (F_loadgen.config ~clients:1 ~txns_per_client:10 ~seed:3 (`Unix path)) w
         in
         lat := lstats.F_loadgen.latency;
         done_ := true));
  let ms p = Nv_util.Histogram.percentile !lat p /. 1e6 in
  Alcotest.(check int) "all answered" 10 (Nv_util.Histogram.count !lat);
  (* The first tick after an arrival falls within one tick, so the
     deadline is at least 7 ticks away. *)
  Alcotest.(check bool) (Printf.sprintf "min %.1f ms >= 13 ms" (ms 0.0)) true (ms 0.0 >= 13.0);
  Alcotest.(check bool) (Printf.sprintf "p50 %.1f ms < 40 ms" (ms 50.0)) true (ms 50.0 < 40.0)

(* A host name that does not resolve is refused with a typed error
   before any socket or domain exists: no descriptor leaks, and the
   shard plane reports the peer down. *)
let test_unresolvable_host () =
  let module A = Nv_frontend.Address in
  let bad = `Tcp ("no-such-host.invalid", 9) in
  let open_fds () =
    if Sys.file_exists "/proc/self/fd" then Array.length (Sys.readdir "/proc/self/fd") else 0
  in
  let fds = open_fds () in
  let unresolved what f =
    match f () with
    | _ -> Alcotest.failf "%s: resolved an unresolvable host" what
    | exception A.Unresolved host -> Alcotest.(check string) what "no-such-host.invalid" host
  in
  unresolved "sockaddr" (fun () -> ignore (A.sockaddr bad));
  unresolved "connect" (fun () -> ignore (A.connect bad));
  unresolved "listen" (fun () -> ignore (A.listen ~backlog:1 bad));
  let w = small_ycsb () in
  unresolved "serve" (fun () ->
      ignore
        (F_server.serve ~shards:(local_set (loaded_engine spec_serial w) w)
           ~registry:(F_proc.of_workload w) ~tables:w.W.tables (F_server.config bad)));
  unresolved "loadgen" (fun () -> ignore (F_loadgen.run (F_loadgen.config bad) w));
  (match Nv_frontend.Shard_client.connect ~retry_timeout_s:30.0 bad with
  | _ -> Alcotest.fail "shard client resolved an unresolvable host"
  | exception Nv_frontend.Shard_client.Down _ -> ());
  Alcotest.(check int) "no descriptor leaked" fds (open_fds ());
  Alcotest.(check string) "a dotted address needs no lookup" "127.0.0.1"
    (match A.sockaddr (`Tcp ("127.0.0.1", 9)) with
    | Unix.ADDR_INET (a, 9) -> Unix.string_of_inet_addr a
    | _ -> "?")

(* ------------------------------------------------------------------ *)
(* Garbage on the served path: malformed frames are answered with
   Server_error and cost only the offending connection — the server
   keeps serving real clients and still answers Stats. Run against
   every engine behind the seam.                                       *)

let sock_counter = ref 0

let test_socket_garbage_resilience spec () =
  let w = small_ycsb () in
  incr sock_counter;
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "nvdb-fuzz-%d-%d.sock" (Unix.getpid ()) !sock_counter)
  in
  if Sys.file_exists path then Sys.remove path;
  let engine = loaded_engine spec w in
  let registry = F_proc.of_workload w in
  let scfg =
    F_server.config
      ~batcher:(F_batcher.config ~batch_target:32 ~deadline_ticks:2 ())
      ~tick_interval_s:0.001 (`Unix path)
  in
  let stats = ref None in
  let th =
    Thread.create
      (fun () ->
        stats :=
          Some (F_server.serve ~shards:(local_set engine w) ~registry ~tables:w.W.tables scfg))
      ()
  in
  let waited = ref 0 in
  while (not (Sys.file_exists path)) && !waited < 5000 do
    Thread.delay 0.001;
    incr waited
  done;
  let raw_connect () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX path);
    fd
  in
  let send_all fd b =
    let off = ref 0 in
    while !off < Bytes.length b do
      off := !off + Unix.write fd b !off (Bytes.length b - !off)
    done
  in
  let frame payload =
    let b = Bytes.create (4 + Bytes.length payload) in
    Bytes.set_int32_le b 0 (Int32.of_int (Bytes.length payload));
    Bytes.blit payload 0 b 4 (Bytes.length payload);
    b
  in
  (* Read every response until the server closes the connection. *)
  let read_responses fd =
    let reader = F_wire.Reader.create () in
    let buf = Bytes.create 4096 in
    let out = ref [] in
    let eof = ref false in
    while not !eof do
      match Unix.select [ fd ] [] [] 5.0 with
      | [], _, _ -> Alcotest.fail "server did not answer within 5s"
      | _ -> (
          match Unix.read fd buf 0 (Bytes.length buf) with
          | 0 -> eof := true
          | n ->
              F_wire.Reader.feed reader buf ~off:0 ~len:n;
              let continue = ref true in
              while !continue do
                match F_wire.Reader.next_payload reader with
                | None -> continue := false
                | Some p -> out := F_wire.decode_response p :: !out
              done)
    done;
    Unix.close fd;
    List.rev !out
  in
  (* 1. Unknown tag: answered Server_error, connection dropped. *)
  let fd = raw_connect () in
  send_all fd (frame (Bytes.of_string "\x7f\x01\x02"));
  (match read_responses fd with
  | [ F_wire.Server_error _ ] -> ()
  | other -> Alcotest.failf "unknown tag: expected one Server_error, got %d responses"
               (List.length other));
  (* 2. Oversized length prefix: dropped (Server_error best-effort). *)
  let fd = raw_connect () in
  let b = Bytes.create 4 in
  Bytes.set_int32_le b 0 (Int32.of_int (F_wire.max_frame + 1));
  send_all fd b;
  (match read_responses fd with
  | [] | [ F_wire.Server_error _ ] -> ()
  | _ -> Alcotest.fail "oversized prefix: unexpected responses");
  (* 3. Half a frame, then an abrupt close: no crash, no stuck state. *)
  let fd = raw_connect () in
  send_all fd (Bytes.sub (frame (Bytes.of_string "\x01\x02\x03\x04")) 0 5);
  Unix.close fd;
  (* 4. Stats needs no Hello and still works after the abuse. *)
  let fd = raw_connect () in
  send_all fd (F_wire.encode_request F_wire.Stats);
  let json =
    let reader = F_wire.Reader.create () in
    let buf = Bytes.create 65536 in
    let rec next () =
      match F_wire.Reader.next_payload reader with
      | Some p -> F_wire.decode_response p
      | None -> (
          match Unix.select [ fd ] [] [] 5.0 with
          | [], _, _ -> Alcotest.fail "no Stats_ok within 5s"
          | _ -> (
              match Unix.read fd buf 0 (Bytes.length buf) with
              | 0 -> Alcotest.fail "connection closed before Stats_ok"
              | n ->
                  F_wire.Reader.feed reader buf ~off:0 ~len:n;
                  next ()))
    in
    match next () with
    | F_wire.Stats_ok { json } -> json
    | _ -> Alcotest.fail "expected Stats_ok"
  in
  Unix.close fd;
  let contains s needle =
    let n = String.length needle and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "stats json has admission counters" true (contains json "\"admitted\"");
  Alcotest.(check bool) "stats json has per-procedure latencies" true (contains json "\"procs\"");
  (* 5. Real clients still get full service. *)
  let lcfg =
    F_loadgen.config ~clients:4 ~txns_per_client:25 ~seed:3 ~window:2 ~shutdown:true (`Unix path)
  in
  let lstats = F_loadgen.run lcfg w in
  Thread.join th;
  let sstats = match !stats with Some s -> s | None -> Alcotest.fail "server died" in
  Alcotest.(check int) "clients unharmed by the garbage" 0 lstats.F_loadgen.protocol_errors;
  Alcotest.(check int) "all answered" (4 * 25)
    (lstats.F_loadgen.committed + lstats.F_loadgen.aborted + lstats.F_loadgen.rejected);
  Alcotest.(check bool) "garbage was counted" true (sstats.F_server.protocol_errors >= 2);
  Alcotest.(check int) "real clients served" 4 sstats.F_server.clients_served

(* ------------------------------------------------------------------ *)
(* Raw-socket helpers for the reconnect/shutdown regression tests.     *)

let raw_dial path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  fd

let raw_send fd b =
  let off = ref 0 in
  while !off < Bytes.length b do
    off := !off + Unix.write fd b !off (Bytes.length b - !off)
  done

let raw_recv_one fd reader =
  let buf = Bytes.create 65536 in
  let rec next () =
    match F_wire.Reader.next_payload reader with
    | Some p -> F_wire.decode_response p
    | None -> (
        match Unix.select [ fd ] [] [] 5.0 with
        | [], _, _ -> Alcotest.fail "no response within 5s"
        | _ -> (
            match Unix.read fd buf 0 (Bytes.length buf) with
            | 0 -> Alcotest.fail "connection closed early"
            | n ->
                F_wire.Reader.feed reader buf ~off:0 ~len:n;
                next ()))
  in
  next ()

let raw_recv_until_eof fd reader =
  let buf = Bytes.create 65536 in
  let out = ref [] in
  let eof = ref false in
  while not !eof do
    match Unix.select [ fd ] [] [] 5.0 with
    | [], _, _ -> Alcotest.fail "server did not close within 5s"
    | _ -> (
        match Unix.read fd buf 0 (Bytes.length buf) with
        | 0 | (exception Unix.Unix_error (Unix.ECONNRESET, _, _)) -> eof := true
        | n ->
            F_wire.Reader.feed reader buf ~off:0 ~len:n;
            let continue = ref true in
            while !continue do
              match F_wire.Reader.next_payload reader with
              | None -> continue := false
              | Some p -> out := F_wire.decode_response p :: !out
            done)
  done;
  Unix.close fd;
  List.rev !out

(* A serving thread (over a fresh serial engine unless [engine] is
   given); returns the thread and what [serve] returned or raised. *)
let start_unix_server ?should_stop ?engine ?journal ?(batch_target = 8) w path =
  if Sys.file_exists path then Sys.remove path;
  let engine = match engine with Some e -> e | None -> loaded_engine spec_serial w in
  let registry = F_proc.of_workload w in
  let scfg =
    F_server.config
      ~batcher:(F_batcher.config ~batch_target ~deadline_ticks:2 ())
      ~tick_interval_s:0.001 (`Unix path)
  in
  let result = ref None in
  let th =
    Thread.create
      (fun () ->
        result :=
          Some
            (match
               F_server.serve ?should_stop ?journal ~shards:(local_set engine w) ~registry
                 ~tables:w.W.tables scfg
             with
            | s -> Ok s
            | exception e -> Error e))
      ()
  in
  let waited = ref 0 in
  while (not (Sys.file_exists path)) && !waited < 5000 do
    Thread.delay 0.001;
    incr waited
  done;
  (th, result)

let server_stats result =
  match !result with
  | Some (Ok s) -> s
  | Some (Error e) -> Alcotest.fail ("server raised " ^ Printexc.to_string e)
  | None -> Alcotest.fail "server thread left no result"

(* Session takeover at the socket level: two connections share one
   session id (last Hello wins), then the stale connection closes. The
   live connection's next Submit must be answered normally — the
   regression was the stale close severing the taken-over session and
   the Submit raising Invalid_argument out of the event loop, killing
   the server. The second Hello also claims a future protocol version:
   it must be clamped in Hello_ok, not rejected at decode. *)
let test_server_session_takeover () =
  let w = small_ycsb () in
  let path = tmpfile "takeover.sock" in
  let th, result = start_unix_server w path in
  let rng = Rng.create 21 in
  let proc, args = w.W.gen_call rng in
  let fd1 = raw_dial path in
  let rd1 = F_wire.Reader.create () in
  raw_send fd1
    (F_wire.encode_request
       (F_wire.Hello { client = 42; version = 2; resume = false; last_seq = 0 }));
  (match raw_recv_one fd1 rd1 with
  | F_wire.Hello_ok _ -> ()
  | _ -> Alcotest.fail "expected Hello_ok on the first connection");
  (* The reconnect, from the client's view: same session id, resume set,
     and a newer protocol version than the server speaks. *)
  let fd2 = raw_dial path in
  let rd2 = F_wire.Reader.create () in
  raw_send fd2
    (F_wire.encode_request
       (F_wire.Hello
          { client = 42; version = F_wire.protocol_version + 1; resume = true; last_seq = 0 }));
  (match raw_recv_one fd2 rd2 with
  | F_wire.Hello_ok { version; _ } ->
      Alcotest.(check int) "negotiated down to ours" F_wire.protocol_version version
  | _ -> Alcotest.fail "expected Hello_ok on the takeover connection");
  (* The stale connection's EOF reaches the server before the live
     connection's Submit. *)
  Unix.close fd1;
  Thread.delay 0.05;
  raw_send fd2 (F_wire.encode_request (F_wire.Submit { req = 1; proc; args }));
  (match raw_recv_one fd2 rd2 with
  | F_wire.Result { req = 1; _ } -> ()
  | _ -> Alcotest.fail "live connection must be answered after the stale close");
  raw_send fd2 (F_wire.encode_request F_wire.Bye);
  (match raw_recv_one fd2 rd2 with
  | F_wire.Bye_ok _ -> ()
  | _ -> Alcotest.fail "expected Bye_ok");
  raw_send fd2 (F_wire.encode_request F_wire.Shutdown);
  ignore (raw_recv_until_eof fd2 rd2);
  Thread.join th;
  let sstats = server_stats result in
  Alcotest.(check int) "no protocol errors" 0 sstats.F_server.protocol_errors;
  Alcotest.(check int) "one execution" 1
    (sstats.F_server.committed + sstats.F_server.aborted)

(* Exactly-once across graceful shutdown: a retransmit of an already
   acknowledged seq racing the stop signal must never be answered
   Rejected — whichever path handles it (live replay or the draining
   sweep), the dedup window answers with the original outcome; at worst
   the shutdown closes the connection unanswered and the client retries
   against the restarted server. *)
let test_server_drain_retransmit () =
  let w = small_ycsb () in
  let path = tmpfile "drain-retx.sock" in
  let stop = ref false in
  let th, result = start_unix_server ~should_stop:(fun () -> !stop) w path in
  let rng = Rng.create 23 in
  let proc, args = w.W.gen_call rng in
  let fd = raw_dial path in
  let rd = F_wire.Reader.create () in
  raw_send fd
    (F_wire.encode_request
       (F_wire.Hello { client = 9; version = 2; resume = false; last_seq = 0 }));
  (match raw_recv_one fd rd with
  | F_wire.Hello_ok _ -> ()
  | _ -> Alcotest.fail "expected Hello_ok");
  raw_send fd (F_wire.encode_request (F_wire.Submit { req = 1; proc; args }));
  let outcome =
    match raw_recv_one fd rd with
    | F_wire.Result { req = 1; outcome } -> outcome
    | _ -> Alcotest.fail "expected the original Result"
  in
  (* Race the retransmit against the stop signal. *)
  raw_send fd (F_wire.encode_request (F_wire.Submit { req = 1; proc; args }));
  stop := true;
  let late = raw_recv_until_eof fd rd in
  Thread.join th;
  List.iter
    (function
      | F_wire.Result { req = 1; outcome = o } ->
          if o <> outcome then Alcotest.fail "retransmit replayed a different outcome"
      | F_wire.Rejected { req = 1; _ } ->
          Alcotest.fail "acked seq answered Rejected during shutdown"
      | _ -> Alcotest.fail "unexpected late response")
    late;
  let sstats = server_stats result in
  Alcotest.(check int) "executed exactly once" 1
    (sstats.F_server.committed + sstats.F_server.aborted);
  Alcotest.(check int) "no protocol errors" 0 sstats.F_server.protocol_errors

(* ------------------------------------------------------------------ *)
(* The pipelined lifecycle: batches run on an engine domain while the
   next one is formed and journaled.                                   *)

module F_engine_domain = Nv_frontend.Engine_domain

(* An engine whose [run_batch] waits for a permit, so a test decides
   when the engine domain gets through a batch. *)
type gate = { g_mu : Mutex.t; g_cond : Condition.t; mutable permits : int }

let gate () = { g_mu = Mutex.create (); g_cond = Condition.create (); permits = 0 }

let grant ?(n = 1) g =
  Mutex.lock g.g_mu;
  g.permits <- g.permits + n;
  Condition.broadcast g.g_cond;
  Mutex.unlock g.g_mu

let gated g (Engine_intf.Packed ((module E), db)) =
  let module G = struct
    include E

    let run_batch db txns =
      Mutex.lock g.g_mu;
      while g.permits = 0 do
        Condition.wait g.g_cond g.g_mu
      done;
      g.permits <- g.permits - 1;
      Mutex.unlock g.g_mu;
      E.run_batch db txns
  end in
  Engine_intf.Packed ((module G), db)

(* An engine whose [run_batch] raises. *)
let exploding (Engine_intf.Packed ((module E), db)) =
  let module X = struct
    include E

    let run_batch _ _ = failwith "engine exploded"
  end in
  Engine_intf.Packed ((module X), db)

(* Whether the next tick may form a batch: the rule the batcher keeps,
   seen from outside. *)
let room b =
  match F_batcher.in_flight b with
  | 0 -> true
  | 1 -> not (F_shard_set.defers (F_batcher.shard_set b))
  | _ -> false

let outcomes_of clients =
  Array.to_list clients
  |> List.concat_map (fun cl ->
         List.map
           (function
             | F_wire.Result { req; outcome } -> (F_batcher.client_id cl.c, req, outcome)
             | _ -> Alcotest.fail "not a Result")
           !(cl.results))
  |> List.sort compare

(* One journaled run over a fixed call stream. Pipelined, every batch
   waits at the gate, so a tick forms the next batch while the previous
   one is still executing whenever the engine allows it; the loop
   frees the pipeline only when it has no room, so batches close at the
   same ticks as inline. *)
let pipeline_run ~pipelined spec (w : W.t) ~rounds =
  let cfg = F_batcher.config ~batch_target:16 ~deadline_ticks:2 ~max_pending:4096 () in
  let path = tmpfile (if pipelined then "pipeline-p" else "pipeline-i") in
  let j = F_journal.create ~path ~meta:jmeta () in
  let g = gate () in
  let engine = loaded_engine spec w in
  let engine = if pipelined then gated g engine else engine in
  let dom = if pipelined then Some (F_engine_domain.create ()) else None in
  let b =
    F_batcher.create ~cfg ~journal:j ?engine_domain:dom ~shards:(local_set engine w)
      ~registry:(F_proc.of_workload w) ~tables:w.W.tables ()
  in
  let clients = Array.init 8 (fun i -> mk_client ~seed:(50 + i) b) in
  let overlapped = ref 0 in
  for round = 0 to rounds - 1 do
    Array.iteri
      (fun i cl ->
        for k = 0 to 2 do
          ignore (submit_one b w cl ~req:((round * 10) + k + (i * 1000)))
        done)
      clients;
    while not (room b) do
      grant g;
      F_batcher.settle b
    done;
    F_batcher.advance b 1;
    if F_batcher.in_flight b = 2 then incr overlapped
  done;
  grant ~n:1_000_000 g;
  F_batcher.drain b;
  Option.iter F_engine_domain.stop dom;
  let digest = F_batcher.state_digest b in
  let image = pmem_image (F_batcher.engine b) in
  (outcomes_of clients, digest, image, journaled_batches j ~path, !overlapped, b)

let test_pipeline_equals_inline spec () =
  let w = small_ycsb () in
  let o_p, d_p, img_p, rec_p, overlapped, b = pipeline_run ~pipelined:true spec w ~rounds:24 in
  let o_i, d_i, img_i, rec_i, _, _ = pipeline_run ~pipelined:false spec w ~rounds:24 in
  Alcotest.(check int) "every call answered" (24 * 8 * 3) (List.length o_p);
  Alcotest.(check bool) "same outcome per (client, seq)" true (o_p = o_i);
  Alcotest.(check int64) "same digest" d_i d_p;
  Alcotest.(check bool) "same pmem image" true (Bytes.equal img_i img_p);
  Alcotest.(check bool) "same journal records" true (rec_p = rec_i);
  if F_shard_set.defers (F_batcher.shard_set b) then begin
    Alcotest.(check bool) "conflicts deferred" true (F_batcher.deferred_total b > 0);
    Alcotest.(check int) "a deferring engine never runs ahead" 0 overlapped
  end
  else Alcotest.(check bool) "batches formed while one executed" true (overlapped > 0)

(* A kill with batch N executing and N+1 journaled: the journal file at
   that instant, replayed through a fresh engine, reaches the digest
   of the run that went on to finish. SmallBank balances carry every
   batch forward, so a lost or doubled batch shows in the digest. *)
let test_pipeline_kill_mid_batch () =
  let w = small_smallbank () in
  let spec = spec_serial in
  let cfg = F_batcher.config ~batch_target:8 ~deadline_ticks:100 () in
  let registry = F_proc.of_workload w in
  let path = tmpfile "pipeline-kill" in
  let j = F_journal.create ~path ~meta:jmeta () in
  let g = gate () in
  let dom = F_engine_domain.create () in
  let b =
    F_batcher.create ~cfg ~journal:j ~engine_domain:dom
      ~shards:(local_set (gated g (loaded_engine spec w)) w)
      ~registry ~tables:w.W.tables ()
  in
  let clients = Array.init 4 (fun i -> mk_client ~seed:(90 + i) b) in
  let round r =
    Array.iteri
      (fun i cl ->
        ignore (submit_one b w cl ~req:((2 * r) + (i * 1000)));
        ignore (submit_one b w cl ~req:((2 * r) + 1 + (i * 1000))))
      clients;
    F_batcher.advance b 1
  in
  round 0;
  grant g;
  F_batcher.settle b;
  round 1;
  (* Batch 1 is executing (held at the gate), batch 2 formed and
     journaled behind it. *)
  round 2;
  Alcotest.(check int) "N executing, N+1 journaled" 2 (F_batcher.in_flight b);
  let crashed = In_channel.with_open_bin path In_channel.input_all in
  grant ~n:1_000 g;
  F_batcher.drain b;
  F_engine_domain.stop dom;
  let digest_live = F_batcher.state_digest b in
  Alcotest.(check int) "all three batches ran" 3 (F_batcher.batches_run b);
  F_journal.close j;
  Sys.remove path;
  let path2 = tmpfile "pipeline-kill-restart" in
  Out_channel.with_open_bin path2 (fun oc -> output_string oc crashed);
  let o = F_journal.load ~path:path2 ~meta:jmeta in
  Alcotest.(check int) "both records durable" 3 (List.length o.F_journal.records);
  let b2 =
    F_batcher.create ~cfg ~shards:(local_set (loaded_engine spec w) w) ~registry
      ~tables:w.W.tables ()
  in
  F_batcher.recover b2 ~records:o.F_journal.records ~sessions:[] ~batches_done:0;
  F_batcher.drain b2;
  F_journal.close o.F_journal.journal;
  Sys.remove path2;
  Alcotest.(check int64) "restart digest = crash-free digest" digest_live
    (F_batcher.state_digest b2)

let hello fd rd ~client =
  raw_send fd
    (F_wire.encode_request (F_wire.Hello { client; version = 2; resume = false; last_seq = 0 }));
  match raw_recv_one fd rd with
  | F_wire.Hello_ok _ -> ()
  | _ -> Alcotest.fail "expected Hello_ok"

(* An exception on the engine domain is re-raised when its batch lands:
   the server ends, its clients see the connection close instead of
   waiting forever, and the caller gets the exception. *)
let test_pipeline_engine_exception () =
  let w = small_ycsb () in
  let path = tmpfile "explode.sock" in
  let th, result = start_unix_server ~engine:(exploding (loaded_engine spec_serial w)) w path in
  let fd = raw_dial path in
  let rd = F_wire.Reader.create () in
  hello fd rd ~client:1;
  let proc, args = w.W.gen_call (Rng.create 3) in
  raw_send fd (F_wire.encode_request (F_wire.Submit { req = 1; proc; args }));
  Alcotest.(check int) "no reply, just the close" 0 (List.length (raw_recv_until_eof fd rd));
  Thread.join th;
  (match !result with
  | Some (Error (Failure msg)) -> Alcotest.(check string) "the engine's exception" "engine exploded" msg
  | Some (Error e) -> Alcotest.fail ("unexpected exception " ^ Printexc.to_string e)
  | Some (Ok _) -> Alcotest.fail "server returned normally"
  | None -> Alcotest.fail "server thread left no result");
  Alcotest.(check bool) "socket removed" false (Sys.file_exists path)

(* Every server spawns an engine domain and [finish] joins it: far more
   servers than the runtime has domain slots run one after another. *)
let test_pipeline_many_servers () =
  let w = small_ycsb () in
  let engine = loaded_engine spec_serial w in
  let path = tmpfile "cycles.sock" in
  let proc, args = w.W.gen_call (Rng.create 4) in
  for i = 1 to 200 do
    let th, result = start_unix_server ~engine w path in
    let fd = raw_dial path in
    let rd = F_wire.Reader.create () in
    hello fd rd ~client:i;
    raw_send fd (F_wire.encode_request (F_wire.Submit { req = 1; proc; args }));
    (match raw_recv_one fd rd with
    | F_wire.Result { req = 1; _ } -> ()
    | _ -> Alcotest.fail "expected the Result");
    raw_send fd (F_wire.encode_request F_wire.Shutdown);
    ignore (raw_recv_until_eof fd rd);
    Thread.join th;
    Alcotest.(check int) "one epoch per server" 1 (server_stats result).F_server.epochs
  done

(* A server over a unix socket runs its batches on the engine domain
   while the next batch is journaled. Replaying that journal inline on
   a fresh engine reaches the same digest and pmem image. *)
let test_pipeline_served_replay () =
  let w = small_ycsb () in
  let engine = loaded_engine spec_serial w in
  let jpath = tmpfile "served-journal" in
  let journal = F_journal.create ~path:jpath ~meta:jmeta () in
  let path = tmpfile "served.sock" in
  let th, result = start_unix_server ~batch_target:64 ~engine ~journal w path in
  let lstats =
    F_loadgen.run
      (F_loadgen.config ~clients:8 ~txns_per_client:64 ~seed:13 ~window:8 ~shutdown:true
         (`Unix path))
      w
  in
  Thread.join th;
  let sstats = server_stats result in
  Alcotest.(check int) "client protocol errors" 0 lstats.F_loadgen.protocol_errors;
  Alcotest.(check int) "all committed" (8 * 64) sstats.F_server.committed;
  let records = journaled_batches journal ~path:jpath in
  let b2 =
    F_batcher.create
      ~shards:(local_set (loaded_engine spec_serial w) w)
      ~registry:(F_proc.of_workload w) ~tables:w.W.tables ()
  in
  F_batcher.recover b2 ~records ~sessions:[] ~batches_done:0;
  Alcotest.(check int64) "replayed digest" sstats.F_server.digest (F_batcher.state_digest b2);
  Alcotest.(check bool) "replayed pmem image" true
    (Bytes.equal (pmem_image engine) (pmem_image (F_batcher.engine b2)))

let suites =
  [
    ( "frontend.wire",
      [
        Alcotest.test_case "round-trips every message" `Quick test_wire_roundtrip;
        Alcotest.test_case "reassembles fragmented reads" `Quick test_wire_partial;
        Alcotest.test_case "malformed input raises Protocol_error" `Quick test_wire_errors;
        Alcotest.test_case "legacy v1 Hello/Hello_ok still decode" `Quick test_wire_legacy_v1;
        Alcotest.test_case "fuzzed frames never crash the decoder" `Quick test_wire_fuzz;
      ] );
    ( "frontend.crashpoint",
      [ Alcotest.test_case "NVC_CRASHPOINT parsing and suppression" `Quick test_crashpoint_parse ]
    );
    ( "frontend.journal",
      [
        Alcotest.test_case "append/load round-trip, meta guard" `Quick test_journal_roundtrip;
        Alcotest.test_case "torn tail healed to the CRC-valid prefix" `Quick
          test_journal_torn_tail;
        Alcotest.test_case "power loss mid-record: prefix kept, healed, appends on" `Quick
          test_journal_power_loss_tail;
        Alcotest.test_case "append past size fails, earlier records load" `Quick
          test_journal_full;
        Alcotest.test_case "64 MiB create allocates no image of the file" `Quick
          test_journal_create_lean;
        Alcotest.test_case "checkpoint + truncate keep only the uncovered tail" `Quick
          test_journal_checkpoint_truncate;
        Alcotest.test_case "streamed checkpoint = concatenated encoding, decodes" `Quick
          test_checkpoint_stream_matches_concat;
      ] );
    ( "frontend.proc",
      [ Alcotest.test_case "registry round-trips generated calls" `Quick test_proc_registry ] );
    ( "frontend.session",
      List.concat_map
        (fun (name, spec) ->
          [
            Alcotest.test_case (name ^ ": empty flush is None") `Quick
              (test_session_empty_flush spec);
            Alcotest.test_case (name ^ ": results gated on the epoch") `Quick
              (test_session_result_gating spec);
            Alcotest.test_case (name ^ ": auto-flush at exactly epoch_target") `Quick
              (test_session_auto_flush_exact spec);
          ])
        session_engines );
    ( "frontend.batcher",
      [
        Alcotest.test_case "size target closes the batch" `Quick
          (test_batcher_size_close spec_serial);
        Alcotest.test_case "size target closes the batch (zen)" `Quick
          (test_batcher_size_close spec_zen);
        Alcotest.test_case "deadline closes an under-filled batch" `Quick
          test_batcher_deadline_close;
        Alcotest.test_case "bounded admission rejects explicitly" `Quick test_batcher_overload;
        Alcotest.test_case "disconnect mid-epoch still executes admitted txns" `Quick
          test_batcher_disconnect;
        Alcotest.test_case "served equals replayed (serial, 32 clients)" `Quick
          (test_batcher_determinism spec_serial);
        Alcotest.test_case "served equals replayed (aria, 32 clients)" `Quick
          (test_batcher_determinism spec_aria);
        Alcotest.test_case "session dedup: duplicate, replayed, resume, reset" `Quick
          test_batcher_session_dedup;
        Alcotest.test_case "takeover: stale disconnect keeps the live channel" `Quick
          test_batcher_takeover;
        Alcotest.test_case "try_replay probes the window without admitting" `Quick
          test_batcher_try_replay;
        Alcotest.test_case "aria carryover drains under sustained overload" `Quick
          test_batcher_aria_overload_carryover;
        Alcotest.test_case "full journal refuses, loop survives, replay matches" `Quick
          (test_batcher_journal_full spec_serial);
        Alcotest.test_case "full journal refuses, loop survives, replay matches (aria)" `Quick
          (test_batcher_journal_full spec_aria);
      ] );
    ( "frontend.recovery",
      [
        Alcotest.test_case "journal replay reproduces the run (serial)" `Quick
          (test_batcher_journal_replay spec_serial);
        Alcotest.test_case "journal replay reproduces the run (aria)" `Quick
          (test_batcher_journal_replay spec_aria);
        Alcotest.test_case "checkpoint + tail replay equals the uncrashed twin" `Quick
          test_restart_checkpoint_twin;
        Alcotest.test_case "journal + checkpoint files match recorded bytes, recover" `Quick
          test_restart_files_match_recorded;
      ] );
    ( "frontend.sockets",
      [
        Alcotest.test_case "serve + loadgen over a unix socket" `Quick test_socket_end_to_end;
        Alcotest.test_case "should_stop drains and exits cleanly" `Quick test_server_should_stop;
        Alcotest.test_case "an idle server sleeps between rounds" `Quick test_idle_server_sleeps;
        Alcotest.test_case "an under-filled batch closes at its deadline" `Quick
          test_deadline_wakes_the_loop;
        Alcotest.test_case "an unresolvable host is refused, not a crash" `Quick
          test_unresolvable_host;
        Alcotest.test_case "garbage frames cost only their connection (serial)" `Quick
          (test_socket_garbage_resilience spec_serial);
        Alcotest.test_case "garbage frames cost only their connection (aria)" `Quick
          (test_socket_garbage_resilience spec_aria);
        Alcotest.test_case "garbage frames cost only their connection (zen)" `Quick
          (test_socket_garbage_resilience spec_zen);
        Alcotest.test_case "session takeover survives the stale close" `Quick
          test_server_session_takeover;
        Alcotest.test_case "acked retransmit is never Rejected at shutdown" `Quick
          test_server_drain_retransmit;
      ] );
    ( "frontend.pipeline",
      [
        Alcotest.test_case "pipelined = inline: outcomes, digest, journal (serial)" `Quick
          (test_pipeline_equals_inline spec_serial);
        Alcotest.test_case "pipelined = inline: outcomes, digest, journal (aria)" `Quick
          (test_pipeline_equals_inline spec_aria);
        Alcotest.test_case "kill with N executing, N+1 journaled: restart digest" `Quick
          test_pipeline_kill_mid_batch;
        Alcotest.test_case "engine exception ends the server, clients see the close" `Quick
          test_pipeline_engine_exception;
        Alcotest.test_case "200 servers in one process join their engine domains" `Quick
          test_pipeline_many_servers;
        Alcotest.test_case "served over a socket = journal replay (digest, pmem)" `Quick
          test_pipeline_served_replay;
      ] );
  ]
