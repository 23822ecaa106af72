(* Multi-shard routed serving: wire v3 shard-plane codec, the two-round
   Route/Fence protocol over in-process members, the cross-shard-count
   determinism oracle (N-shard served state == 1-shard state),
   shard-journal recovery, idempotent epoch re-drives, and a
   router restart on its admission journal. *)

module F_wire = Nv_frontend.Wire
module F_proc = Nv_frontend.Proc
module F_shard = Nv_frontend.Shard
module F_shard_set = Nv_frontend.Shard_set
module F_journal = Nv_frontend.Journal
module F_batcher = Nv_frontend.Batcher
module Engine = Nv_harness.Engine
module W = Nv_workloads.Workload
module Rng = Nv_util.Rng

(* ------------------------------------------------------------------ *)
(* Wire v3: the shard plane round-trips                                *)

let shard_reads =
  [|
    { F_wire.sr_table = 0; sr_key = 3L; sr_value = Some (Bytes.of_string "abc") };
    { F_wire.sr_table = 1; sr_key = -1L; sr_value = None };
    { F_wire.sr_table = 255; sr_key = Int64.max_int; sr_value = Some Bytes.empty };
  |]

let shard_requests : F_wire.request list =
  [
    F_wire.Shard_hello { gen = 42; shard = 2; shards = 3; version = F_wire.protocol_version };
    F_wire.Route
      {
        epoch = 7;
        calls =
          [|
            { F_wire.rc_client = 1; rc_seq = 9; rc_call = Bytes.of_string "call-a" };
            { F_wire.rc_client = 0xFFFFFFFE; rc_seq = 0; rc_call = Bytes.empty };
          |];
        reads = shard_reads;
      };
    F_wire.Route { epoch = 1; calls = [||]; reads = [||] };
    F_wire.Fence { epoch = 7; reads = shard_reads };
    F_wire.Fence { epoch = 1; reads = [||] };
  ]

let shard_responses : F_wire.response list =
  [
    F_wire.Shard_hello_ok { version = 3; shard = 2; shards = 3; applied = 41 };
    F_wire.Route_reads { epoch = 7; reads = shard_reads; complete = true };
    F_wire.Route_reads { epoch = 1; reads = [||]; complete = false };
    F_wire.Fence_ok
      { epoch = 7; outcomes = [| `Committed; `Aborted; `Deferred |]; digest = -1L };
    F_wire.Fence_ok { epoch = 1; outcomes = [||]; digest = 0L };
  ]

let test_wire_shard_roundtrip () =
  List.iter
    (fun req ->
      let b = F_wire.encode_request req in
      let r = F_wire.Reader.create () in
      F_wire.Reader.feed r b ~off:0 ~len:(Bytes.length b);
      match F_wire.Reader.next_payload r with
      | None -> Alcotest.fail "no payload"
      | Some p -> assert (F_wire.decode_request p = req))
    shard_requests;
  List.iter
    (fun resp ->
      let b = F_wire.encode_response resp in
      let r = F_wire.Reader.create () in
      F_wire.Reader.feed r b ~off:0 ~len:(Bytes.length b);
      match F_wire.Reader.next_payload r with
      | None -> Alcotest.fail "no payload"
      | Some p -> assert (F_wire.decode_response p = resp))
    shard_responses

let test_wire_reads_roundtrip () =
  assert (F_wire.decode_reads (F_wire.encode_reads shard_reads) = shard_reads);
  assert (F_wire.decode_reads (F_wire.encode_reads [||]) = [||])

(* ------------------------------------------------------------------ *)
(* In-process clusters                                                 *)

let small_ycsb () =
  Nv_workloads.Ycsb.(
    make
      (with_contention `High
         { default with rows = 128; value_size = 32; update_bytes = 32; hot_rows = 8;
           ops_per_txn = 4 }))

(* Smallbank's Balance/WriteCheck read undeclared keys across two
   tables, so its reconnaissance genuinely needs >1 Route round — the
   iterated-discovery path the declared-reads YCSB never takes. *)
let small_bank () =
  Nv_workloads.Smallbank.(
    make
      {
        customers = 64;
        hot_customers = 8;
        hot_probability = 0.9;
        abort_probability = 0.1;
      })

(* [hook] is installed as the member engine's phase hook. *)
let mk_shard ?journal ?hook ~shard_id ~shards w =
  let spec = Engine.spec (Engine.Caracal Nvcaracal.Config.Nvcaracal) in
  let config = Engine.caracal_config (Engine.setup ~epochs:128 ~epoch_txns:64 ()) w spec in
  let db = Nvcaracal.Db.create ~config ~tables:w.W.tables () in
  Option.iter (Nvcaracal.Db.set_phase_hook db) hook;
  let engine = Nvcaracal.Engine_intf.Packed ((module Nvcaracal.Db.Serial_engine), db) in
  let registry = F_proc.of_workload w in
  let s = F_shard.create ~shard_id ~shards ?journal ~engine ~registry ~tables:w.W.tables () in
  F_shard.bulk_load s (w.W.load ());
  s

let mk_cluster ~shards w =
  let members = Array.init shards (fun i -> mk_shard ~shard_id:i ~shards w) in
  (members, F_shard_set.cluster (Array.map F_shard_set.in_process members))

(* A deterministic batch stream: same seed -> same calls, whatever the
   cluster size. *)
let gen_batches w ~seed ~batches ~batch_size =
  let rng = Rng.create seed in
  let registry = F_proc.of_workload w in
  Array.init batches (fun b ->
      Array.init batch_size (fun i ->
          let proc, args = w.W.gen_call rng in
          let txn =
            match F_proc.build registry ~proc ~args with
            | Ok t -> t
            | Error `Unknown_proc -> Alcotest.fail "unknown proc"
          in
          {
            F_shard_set.c_client = i mod 4;
            c_seq = (b * batch_size) + i;
            c_proc = proc;
            c_args = args;
            c_txn = txn;
          }))

let drive set batches = Array.map (fun batch -> F_shard_set.exec set batch) batches

(* The tentpole oracle: a routed 3-shard cluster and the 1-shard
   cluster (and the local single-engine seam) must produce identical
   verdict vectors and the same placement-independent digest. *)
let test_cluster_vs_single ?(mk_workload = small_ycsb) ~shards () =
  let w = mk_workload () in
  let batches = gen_batches w ~seed:7 ~batches:12 ~batch_size:24 in
  let _m1, one = mk_cluster ~shards:1 w in
  let _mn, many = mk_cluster ~shards w in
  let o1 = drive one batches in
  let on = drive many batches in
  Alcotest.(check int) "same batch count" (Array.length o1) (Array.length on);
  Array.iteri
    (fun i o ->
      if o <> on.(i) then Alcotest.failf "verdict vectors diverge at batch %d" i)
    o1;
  Alcotest.(check int64) "cluster digest is shard-count independent"
    (F_shard_set.digest one) (F_shard_set.digest many)

(* Shard-journal recovery: kill a shard (here: just forget it), rebuild
   it from its own journal alone, and the cluster digest must be what
   it was — input logging is each shard's whole durability story.

   Two inputs. [small_ycsb] rewrites whole values with bytes that depend
   only on (nonce, key), so its digest sees only each key's last writer
   and cannot notice a rebuild that lost an earlier batch. SmallBank's
   balances carry every committed transfer forward, so any lost batch
   moves the digest. *)
let shard_journal_recovery ~label w =
  let shards = 3 in
  let batches = gen_batches w ~seed:13 ~batches:10 ~batch_size:24 in
  let path i =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "nvdb-test-%d-%s-shard-journal%d" (Unix.getpid ()) label i)
  in
  let meta i = Printf.sprintf "shard%d" i in
  let journals = Array.init shards (fun i -> F_journal.create ~path:(path i) ~meta:(meta i) ()) in
  let members =
    Array.init shards (fun i -> mk_shard ~journal:journals.(i) ~shard_id:i ~shards w)
  in
  let set = F_shard_set.cluster (Array.map F_shard_set.in_process members) in
  let _ = drive set batches in
  let digest_before = F_shard_set.digest set in
  let applied_before = Array.map F_shard.applied members in
  (* Rebuild every member from scratch + its journal records. *)
  let members' =
    Array.init shards (fun i ->
        F_journal.close journals.(i);
        let o = F_journal.load ~path:(path i) ~meta:(meta i) in
        F_journal.close o.F_journal.journal;
        Sys.remove (path i);
        assert (not o.F_journal.torn_tail);
        assert (o.F_journal.records <> []);
        let s = mk_shard ~shard_id:i ~shards w in
        F_shard.recover s ~records:o.F_journal.records;
        s)
  in
  Array.iteri
    (fun i s ->
      Alcotest.(check int)
        (Printf.sprintf "%s: shard %d applied" label i)
        applied_before.(i) (F_shard.applied s))
    members';
  let set' = F_shard_set.cluster (Array.map F_shard_set.in_process members') in
  Alcotest.(check int64) (label ^ ": digest after journal-only rebuild") digest_before
    (F_shard_set.digest set');
  (* And the rebuilt cluster keeps serving: the next epoch runs. *)
  let more = gen_batches w ~seed:17 ~batches:1 ~batch_size:8 in
  let _ = drive set' more in
  ()

let test_shard_journal_recovery () =
  List.iter
    (fun (label, mk_workload) -> shard_journal_recovery ~label (mk_workload ()))
    [ ("ycsb", small_ycsb); ("smallbank", small_bank) ]

(* Idempotent re-drives: an applied epoch answers Route with the full
   historical read table and Fence with the cached verdicts — what a
   recovering router leans on. *)
let test_epoch_redrive () =
  let w = small_ycsb () in
  let shards = 3 in
  let members, set = mk_cluster ~shards w in
  let batches = gen_batches w ~seed:19 ~batches:3 ~batch_size:16 in
  let outcomes = drive set batches in
  Array.iter
    (fun s ->
      (* Re-route + re-fence every applied epoch on every member. *)
      for epoch = 1 to 3 do
        let reads, complete = F_shard.route s ~epoch ~calls:[||] ~reads:[||] in
        assert complete;
        let o, d = F_shard.fence s ~epoch ~reads in
        let expect : F_wire.shard_outcome array =
          Array.map
            (fun (x : [ `Committed | `Aborted | `Deferred ]) ->
              (x :> F_wire.shard_outcome))
            outcomes.(epoch - 1)
        in
        assert (o = expect);
        (* The cached digest is the shard's state as of that epoch:
           stable across re-drives, and equal to the live digest for
           the newest applied epoch. *)
        let o2, d2 = F_shard.fence s ~epoch ~reads in
        assert (o2 = o);
        Alcotest.(check int64)
          (Printf.sprintf "redrive digest stable (shard %d epoch %d)" (F_shard.shard_id s)
             epoch)
          d d2;
        if epoch = 3 then
          Alcotest.(check int64)
            (Printf.sprintf "final epoch digest is live (shard %d)" (F_shard.shard_id s))
            (F_shard.digest s) d;
        ignore reads
      done)
    members;
  (* An epoch gap is refused loudly. *)
  (match F_shard.route members.(0) ~epoch:6 ~calls:[||] ~reads:[||] with
  | _ -> Alcotest.fail "epoch gap accepted"
  | exception Failure _ -> ());
  (* A fenced generation is refused by handle. *)
  let hello gen =
    F_shard.handle members.(0)
      (F_wire.Shard_hello { gen; shard = 0; shards; version = F_wire.protocol_version })
  in
  (match hello 5 with F_wire.Shard_hello_ok _ -> () | _ -> Alcotest.fail "hello 5");
  (match hello 9 with F_wire.Shard_hello_ok _ -> () | _ -> Alcotest.fail "hello 9");
  match hello 5 with
  | F_wire.Server_error _ -> ()
  | _ -> Alcotest.fail "stale generation accepted"

(* Router restart, the standby story: the router dies mid-batch after
   journaling it, and a fresh batcher over the same surviving members
   replays the router journal. Records every member applied re-drive
   from history; the crashed batch, which some members applied and one
   did not, runs to completion. The crash is an exception out of the
   last member's engine at [Log_done], before that engine touches a row,
   so the member stays usable just as a shard process outlives its
   router. The result must equal a crash-free 1-shard run. SmallBank,
   because its balances accumulate: a lost or repeated transaction
   changes the digest, where small YCSB's whole-value overwrites can
   hide one. *)
exception Crash_now

let test_router_restart () =
  let w = small_bank () in
  let shards = 3 and crash_batch = 4 in
  let batches = gen_batches w ~seed:23 ~batches:6 ~batch_size:16 in
  let cfg = F_batcher.config ~batch_target:256 ~deadline_ticks:100 () in
  let registry = F_proc.of_workload w in
  let batcher ?journal set =
    F_batcher.create ~cfg ?journal ~shards:set ~registry ~tables:w.W.tables ()
  in
  (* One session, one flush per generated batch, and a target above
     any batch plus its carryover: every flush forms the same batch in
     every run, and nothing admitted is left unjournaled in a FIFO when
     the router dies. *)
  let serve b client lo hi =
    for i = lo to hi do
      Array.iter
        (fun (c : F_shard_set.call) ->
          match F_batcher.submit b client ~req:c.c_seq ~proc:c.c_proc ~args:c.c_args with
          | `Admitted -> ()
          | _ -> Alcotest.fail "call not admitted")
        batches.(i);
      F_batcher.flush b
    done
  in
  let oracle =
    let _m, set = mk_cluster ~shards:1 w in
    let b = batcher set in
    serve b (F_batcher.connect b ~reply:None) 0 (Array.length batches - 1);
    F_batcher.drain b;
    F_shard_set.digest set
  in
  let armed = ref false in
  let hook p =
    if !armed && p = Nvcaracal.Db.Log_done then begin
      armed := false;
      raise Crash_now
    end
  in
  let members =
    Array.init shards (fun i ->
        let hook = if i = shards - 1 then Some hook else None in
        mk_shard ?hook ~shard_id:i ~shards w)
  in
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "nvdb-test-%d-router-journal" (Unix.getpid ()))
  in
  let meta = "router" in
  let journal = F_journal.create ~path ~meta () in
  let b = batcher ~journal (F_shard_set.cluster (Array.map F_shard_set.in_process members)) in
  let client = F_batcher.connect b ~reply:None in
  serve b client 0 (crash_batch - 1);
  armed := true;
  (match serve b client crash_batch crash_batch with
  | () -> Alcotest.fail "expected the router to crash"
  | exception Crash_now -> ());
  F_journal.close journal;
  Alcotest.(check (list int)) "members left mid-epoch"
    [ crash_batch + 1; crash_batch + 1; crash_batch ]
    (Array.to_list (Array.map F_shard.applied members));
  (* Restart: a fresh batcher and shard set over the same members. *)
  let o = F_journal.load ~path ~meta in
  Alcotest.(check int) "crashed batch was journaled" (crash_batch + 1)
    (List.length o.F_journal.records);
  let set = F_shard_set.cluster (Array.map F_shard_set.in_process members) in
  let b = batcher ~journal:o.F_journal.journal set in
  F_batcher.recover b ~records:o.F_journal.records ~sessions:[] ~batches_done:0;
  Alcotest.(check int) "only the last record's deferrals stay pending"
    (F_batcher.carryover_len b) (F_batcher.pending b);
  serve b
    (F_batcher.connect ~id:(F_batcher.client_id client) ~resume:true b ~reply:None)
    (crash_batch + 1) (Array.length batches - 1);
  F_batcher.drain b;
  F_journal.close o.F_journal.journal;
  Sys.remove path;
  Alcotest.(check int64) "restarted cluster == crash-free 1-shard run" oracle
    (F_shard_set.digest set)

(* The placement hash is pinned (FNV combine of key hash and table id,
   mod members): every member, the router and [nvdb route] place keys
   with Routed.owner, and shard journals written under it must keep
   replaying onto the same owners. *)
let test_placement_hash_pinned () =
  for k = 0 to 200 do
    let key = Int64.of_int (k * 7919) in
    Alcotest.(check int)
      (Printf.sprintf "owner of %Ld" key)
      (Nv_util.Fnv.combine (Nv_util.Fnv.hash_int64 key) 0 mod 3)
      (Nvcaracal.Routed.owner ~shards:3 ~table:0 ~key)
  done

(* [connect ~retry_timeout_s:0.] dials once: an endpoint nobody serves
   fails at once with [Down] instead of being retried. *)
let test_connect_without_window_dials_once () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "nvdb-test-%d-nobody.sock" (Unix.getpid ()))
  in
  let t0 = Unix.gettimeofday () in
  (match Nv_frontend.Shard_client.connect ~retry_timeout_s:0.0 (`Unix path) with
  | c ->
      Nv_frontend.Shard_client.close c;
      Alcotest.fail "connected to an endpoint nobody serves"
  | exception Nv_frontend.Shard_client.Down _ -> ());
  let dt = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) (Printf.sprintf "failed in %.3f s < 1 s" dt) true (dt < 1.0)

(* Shards behind unix sockets, served by threads. One shard's server
   stops between two batches, as a killed process would: the router's
   next request finds it gone, redials it once with no retry window,
   and respawns it. The epoch that meets the dead shard must not wait
   out the router's 10 s connect window, and the cluster still ends in
   the 1-shard state. *)
let test_dead_shard_respawned_after_one_redial () =
  let w = small_ycsb () in
  let shards = 2 and kill_before = 3 in
  let batches = gen_batches w ~seed:5 ~batches:6 ~batch_size:24 in
  let _m1, one = mk_cluster ~shards:1 w in
  let o1 = drive one batches in
  let members = Array.init shards (fun i -> mk_shard ~shard_id:i ~shards w) in
  let path i =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "nvdb-test-%d-redial%d.sock" (Unix.getpid ()) i)
  in
  let start i =
    let stop = Atomic.make false in
    let th =
      Thread.create
        (fun () ->
          F_shard.serve members.(i) ~address:(`Unix (path i)) ~should_stop:(fun () ->
              Atomic.get stop))
        ()
    in
    (stop, th)
  in
  let servers = Array.init shards start in
  let kill i =
    let stop, th = servers.(i) in
    Atomic.set stop true;
    Thread.join th
  in
  let set =
    F_shard_set.cluster
      (Array.init shards (fun i ->
           F_shard_set.remote ~retry_timeout_s:10.0
             ~respawn:(fun () -> servers.(i) <- start i)
             ~gen:1 ~shard:i ~shards (`Unix (path i))))
  in
  Fun.protect
    ~finally:(fun () ->
      F_shard_set.close set;
      Array.iteri (fun i _ -> kill i) servers)
    (fun () ->
      Array.iteri
        (fun b batch ->
          if b = kill_before then kill 1;
          let t0 = Unix.gettimeofday () in
          let o = F_shard_set.exec set batch in
          let dt = Unix.gettimeofday () -. t0 in
          if o <> o1.(b) then Alcotest.failf "verdict vectors diverge at batch %d" b;
          if b = kill_before then
            Alcotest.(check bool)
              (Printf.sprintf "epoch after the kill took %.2f s < 5 s" dt)
              true (dt < 5.0))
        batches;
      Alcotest.(check int) "one respawn" 1 (F_shard_set.respawns set);
      Alcotest.(check int64) "digest = 1-shard digest" (F_shard_set.digest one)
        (F_shard_set.digest set))

let suites =
  [
    ( "cluster.wire",
      [
        Alcotest.test_case "shard-plane frames round-trip" `Quick test_wire_shard_roundtrip;
        Alcotest.test_case "reads blob round-trips (journal sentinel)" `Quick
          test_wire_reads_roundtrip;
      ] );
    ( "cluster.oracle",
      [
        Alcotest.test_case "3-shard == 1-shard (verdicts + digest)" `Quick
          (test_cluster_vs_single ~shards:3);
        Alcotest.test_case "2-shard == 1-shard (verdicts + digest)" `Quick
          (test_cluster_vs_single ~shards:2);
        Alcotest.test_case "3-shard == 1-shard (smallbank, undeclared reads)" `Quick
          (test_cluster_vs_single ~mk_workload:small_bank ~shards:3);
        Alcotest.test_case "placement hash agrees with Routed.owner" `Quick
          test_placement_hash_pinned;
      ] );
    ( "cluster.recovery",
      [
        Alcotest.test_case "shard journals alone rebuild the cluster" `Quick
          test_shard_journal_recovery;
        Alcotest.test_case "applied epochs re-drive idempotently" `Quick test_epoch_redrive;
        Alcotest.test_case "connect without a retry window dials once" `Quick
          test_connect_without_window_dials_once;
        Alcotest.test_case "a dead shard is respawned after one redial" `Quick
          test_dead_shard_respawned_after_one_redial;
        Alcotest.test_case "router restart re-drives a crashed batch" `Quick
          test_router_restart;
      ] );
  ]
