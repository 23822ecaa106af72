module Rng = Nv_util.Rng

type config = {
  exe : string;
  seed : int;
  iterations : int;
  clients : int;
  txns_per_client : int;
  checkpoint_every : int;
  workload : string;
  contention : string;
  engine : string;
  wseed : int;
  shards : int;
  dir : string option;
  keep : bool;
  timeout_s : float;
  log : string -> unit;
}

let config ?(seed = 1) ?(iterations = 25) ?(clients = 8) ?(txns_per_client = 200)
    ?(checkpoint_every = 0) ?(workload = "ycsb-tiny") ?(contention = "med")
    ?(engine = "nvcaracal") ?(wseed = 42) ?(shards = 1) ?dir ?(keep = false) ?timeout_s
    ?(log = fun _ -> ()) ~exe () =
  if iterations < 0 then invalid_arg "Chaos.config: iterations must be >= 0";
  if clients <= 0 then invalid_arg "Chaos.config: clients must be positive";
  if shards < 1 then invalid_arg "Chaos.config: shards must be >= 1";
  if shards > 1 && checkpoint_every > 0 then
    invalid_arg "Chaos.config: checkpointing is single-shard only (cluster recovery is replay)";
  let timeout_s =
    match timeout_s with Some t -> t | None -> 120.0 +. (10.0 *. float_of_int iterations)
  in
  { exe; seed; iterations; clients; txns_per_client; checkpoint_every; workload; contention;
    engine; wseed; shards; dir; keep; timeout_s; log }

type outcome = {
  crashes : int;  (** kill-9s observed (injected crashpoints that fired) *)
  recoveries : int;  (** server restarts with --recover *)
  sent : int;
  committed : int;
  aborted : int;
  rejected : int;
  reconnects : int;
  duplicates : int;  (** client-observed duplicate answers — 0 or the campaign fails *)
  failures : string list;
  artifacts : string option;  (** artifact directory, kept on failure (or [keep]) *)
}

(* The serving parameters every server generation runs with. The
   offline oracle must derive the exact same engine configuration, so
   they are fixed here rather than spread over two argv builders. *)
let batch_target = 64
let deadline_ticks = 4
let capacity = 200_000

(* Crashpoints with the count range each is armed with. [mid-epoch]
   fires per transaction, the others once per batch. *)
let points = [| ("post-admit", 8); ("post-journal", 8); ("mid-epoch", 384); ("pre-reply", 8) |]

let plan_of cfg =
  let rng = Rng.create cfg.seed in
  Array.init cfg.iterations (fun _ ->
      let point, bound = points.(Rng.int rng (Array.length points)) in
      (point, 1 + Rng.int rng bound))

(* Cluster campaigns kill shard processes instead: each plan entry is a
   SHARD:POINT:N spec. The whole plan is armed once, on the router, via
   NVC_SHARD_CRASHPOINT; the router consumes one spec per (re)spawn of
   the targeted shard, so a multi-spec plan cascades — a shard crashes,
   respawns armed with its next spec, and crashes again. All three
   points straddle the fence's durability boundary (before journaling,
   after journaling, after applying). *)
let shard_points = [| ("shard-fence", 8); ("shard-post-journal", 8); ("shard-applied", 8) |]

let shard_plan_of cfg =
  let rng = Rng.create cfg.seed in
  Array.init cfg.iterations (fun _ ->
      let point, bound = shard_points.(Rng.int rng (Array.length shard_points)) in
      (Rng.int rng cfg.shards, point, 1 + Rng.int rng bound))

(* ------------------------------------------------------------------ *)
(* Child processes                                                     *)

let base_env () =
  let drops = [ "NVC_CRASHPOINT="; "NVC_SHARD_CRASHPOINT=" ] in
  Array.of_list
    (List.filter
       (fun s ->
         not
           (List.exists
              (fun p -> String.length s >= String.length p && String.sub s 0 (String.length p) = p)
              drops))
       (Array.to_list (Unix.environment ())))

let spawn ?crashpoint ?shard_plan exe args ~out =
  let extra =
    (match crashpoint with
    | None -> []
    | Some (point, n) -> [ Printf.sprintf "NVC_CRASHPOINT=%s:%d" point n ])
    @
    match shard_plan with
    | None | Some [||] -> []
    | Some plan ->
        [
          "NVC_SHARD_CRASHPOINT="
          ^ String.concat ","
              (List.map
                 (fun (s, p, n) -> Printf.sprintf "%d:%s:%d" s p n)
                 (Array.to_list plan));
        ]
  in
  let env = Array.append (base_env ()) (Array.of_list extra) in
  let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let pid =
    Unix.create_process_env exe (Array.of_list (exe :: args)) env Unix.stdin fd fd
  in
  Unix.close fd;
  pid

let server_args cfg ~sock ~journal ~recover =
  [ "serve"; "--listen"; sock; "--workload"; cfg.workload; "--contention"; cfg.contention;
    "--engine"; cfg.engine; "--seed"; string_of_int cfg.wseed; "--journal"; journal;
    "--checkpoint-every"; string_of_int cfg.checkpoint_every; "--batch-target";
    string_of_int batch_target; "--deadline-ticks"; string_of_int deadline_ticks;
    "--capacity"; string_of_int capacity ]
  @ (if cfg.shards > 1 then [ "--shards"; string_of_int cfg.shards ] else [])
  @ (if recover then [ "--recover" ] else [])

let loadgen_args cfg ~sock =
  [ "loadgen"; "--listen"; sock; "--workload"; cfg.workload; "--contention"; cfg.contention;
    "--seed"; string_of_int cfg.wseed; "--clients"; string_of_int cfg.clients; "--txns";
    string_of_int cfg.txns_per_client; "--window"; "4"; "--reconnect"; "--retry-timeout";
    "60"; "--shutdown" ]

let send_shutdown sock =
  match Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error _ -> ()
  | fd -> (
      try
        Unix.connect fd (Unix.ADDR_UNIX sock);
        let frame = Wire.encode_request Wire.Shutdown in
        ignore (Unix.write fd frame 0 (Bytes.length frame));
        Unix.close fd
      with Unix.Unix_error _ -> ( try Unix.close fd with Unix.Unix_error _ -> ()))

let kill_quiet pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Output parsing                                                      *)

let counter_keys =
  [ "sent"; "committed"; "aborted"; "rejected"; "protocol errors"; "reconnects";
    "duplicates"; "replayed"; "state digest"; "pmem crc"; "shard respawns" ]

(* Parse "key   value" summary lines as printed by [nvdb serve] and
   [nvdb loadgen]; later occurrences win, so a log holding several
   server generations yields the final generation's numbers. *)
let parse_summary path =
  let tbl = Hashtbl.create 16 in
  (if Sys.file_exists path then
     let ic = open_in path in
     (try
        while true do
          let line = input_line ic in
          List.iter
            (fun key ->
              let kl = String.length key in
              if
                String.length line > kl
                && String.sub line 0 kl = key
                && String.length line > kl
                && line.[kl] = ' '
              then
                let v = String.trim (String.sub line kl (String.length line - kl)) in
                if v <> "" then Hashtbl.replace tbl key v)
            counter_keys
        done
      with End_of_file -> ());
     close_in ic);
  tbl

let int_of tbl key = Option.bind (Hashtbl.find_opt tbl key) int_of_string_opt

(* ------------------------------------------------------------------ *)
(* Offline oracle                                                      *)

(* Recompute the final state from the durable artifacts alone: reopen
   the journal (and checkpoint), boot an engine the way --recover
   does, replay the records, and fingerprint. A graceful server's
   parting digest/CRC must match — the determinism oracle extended
   across process crashes. *)
let oracle cfg ~journal_path =
  let w, growth = Nv_harness.Cli.resolve_workload cfg.workload cfg.contention in
  let spec = Nv_harness.Cli.resolve_engine cfg.engine in
  let spec = { spec with Nv_harness.Engine.crash_safe = true } in
  let setup =
    Nv_harness.Engine.setup
      ~epochs:((capacity / batch_target) + 1)
      ~epoch_txns:batch_target ~seed:cfg.wseed ~insert_growth:growth ()
  in
  let meta =
    Restart.meta ~workload:cfg.workload ~contention:cfg.contention ~engine:cfg.engine
      ~seed:cfg.wseed
  in
  let registry = Proc.of_workload w in
  let opened = Journal.load ~path:journal_path ~meta in
  let boot = Restart.boot spec setup w ~registry opened in
  let b =
    Batcher.create
      ~cfg:(Batcher.config ~batch_target ~deadline_ticks ())
      ~shards:
        (Shard_set.local ~engine:boot.Restart.engine
           ~tables:w.Nv_workloads.Workload.tables)
      ~registry ~tables:w.Nv_workloads.Workload.tables ()
  in
  Batcher.recover b ~records:opened.Journal.records ~sessions:boot.Restart.sessions
    ~batches_done:boot.Restart.batches_done;
  let digest = Batcher.state_digest b in
  let (Nvcaracal.Engine_intf.Packed ((module E), db)) = Batcher.engine b in
  let pm = E.pmem db in
  let crc = Nv_nvmm.Pmem.crc32c pm ~off:0 ~len:(Nv_nvmm.Pmem.size pm) in
  Journal.close opened.Journal.journal;
  (digest, crc)

(* The cluster counterpart: replay the ROUTER's journal through a
   1-member in-process cluster. The cluster digest is placement- and
   shard-count-independent by construction, so the 1-shard replay must
   land on the exact XOR digest the N-shard router printed when it
   exited — even though shards crashed and respawned all campaign long.
   No pmem CRC here: a cluster has no single persistent image. *)
let cluster_oracle cfg ~journal_path =
  let w, growth = Nv_harness.Cli.resolve_workload cfg.workload cfg.contention in
  let spec = Nv_harness.Cli.resolve_engine cfg.engine in
  let spec = { spec with Nv_harness.Engine.crash_safe = true } in
  let setup =
    Nv_harness.Engine.setup
      ~epochs:((capacity / batch_target) + 1)
      ~epoch_txns:batch_target ~seed:cfg.wseed ~insert_growth:growth ()
  in
  let meta =
    Restart.meta ~workload:cfg.workload ~contention:cfg.contention ~engine:cfg.engine
      ~seed:cfg.wseed
    ^ Printf.sprintf "#cluster%d" cfg.shards
  in
  let registry = Proc.of_workload w in
  let opened = Journal.load ~path:journal_path ~meta in
  let packed = Nv_harness.Engine.instantiate spec setup w in
  let shard =
    Shard.create ~shard_id:0 ~shards:1 ~engine:packed ~registry
      ~tables:w.Nv_workloads.Workload.tables ()
  in
  Shard.bulk_load shard (w.Nv_workloads.Workload.load ());
  let set = Shard_set.cluster [| Shard_set.in_process shard |] in
  let b =
    Batcher.create
      ~cfg:(Batcher.config ~batch_target ~deadline_ticks ())
      ~shards:set ~registry ~tables:w.Nv_workloads.Workload.tables ()
  in
  Batcher.recover b ~records:opened.Journal.records ~sessions:[] ~batches_done:0;
  let digest = Shard_set.digest set in
  Journal.close opened.Journal.journal;
  digest

(* ------------------------------------------------------------------ *)
(* Campaign                                                            *)

let run cfg =
  let dir =
    match cfg.dir with
    | Some d ->
        (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
        d
    | None ->
        let d =
          Filename.concat (Filename.get_temp_dir_name ())
            (Printf.sprintf "nvdb-chaos-%d" (Unix.getpid ()))
        in
        (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
        d
  in
  let sock = Filename.concat dir "nvdb.sock" in
  let journal_path = Filename.concat dir "journal" in
  let server_log = Filename.concat dir "server.log" in
  let loadgen_log = Filename.concat dir "loadgen.log" in
  let artifact_files =
    [ sock; journal_path; journal_path ^ ".ckpt"; server_log; loadgen_log ]
    @ (if cfg.shards > 1 then
         List.concat
           (List.init cfg.shards (fun i ->
                [
                  Printf.sprintf "%s.shard%d" sock i;
                  Printf.sprintf "%s.shard%d" journal_path i;
                ]))
       else [])
  in
  List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) artifact_files;
  let plan = if cfg.shards > 1 then [||] else plan_of cfg in
  let shard_plan = if cfg.shards > 1 then shard_plan_of cfg else [||] in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  let crashes = ref 0 and recoveries = ref 0 and plan_next = ref 0 in
  let next_crashpoint () =
    if !plan_next < Array.length plan then begin
      let cp = plan.(!plan_next) in
      incr plan_next;
      Some cp
    end
    else None
  in
  let start_server ~recover =
    if cfg.shards > 1 then begin
      (* One router generation carries the whole campaign: the shard
         crash plan is armed up front and the router's own supervisor
         respawns each victim with --recover. *)
      cfg.log
        (Printf.sprintf "router up (%s, %d shard crash specs over %d shards)"
           (if recover then "recover" else "fresh")
           (Array.length shard_plan) cfg.shards);
      spawn ~shard_plan cfg.exe (server_args cfg ~sock ~journal:journal_path ~recover)
        ~out:server_log
    end
    else begin
      let cp = next_crashpoint () in
      (match cp with
      | Some (p, n) ->
          cfg.log
            (Printf.sprintf "server up (%s, crashpoint %s:%d)"
               (if recover then "recover" else "fresh")
               p n)
      | None ->
          cfg.log
            (Printf.sprintf "server up (%s, no crashpoint)"
               (if recover then "recover" else "fresh")));
      spawn ?crashpoint:cp cfg.exe (server_args cfg ~sock ~journal:journal_path ~recover)
        ~out:server_log
    end
  in
  let server_pid = ref (start_server ~recover:false) in
  let loadgen_pid = spawn cfg.exe (loadgen_args cfg ~sock) ~out:loadgen_log in
  let deadline = Unix.gettimeofday () +. cfg.timeout_s in
  let server_exited = ref false and loadgen_done = ref false in
  let last_nudge = ref 0.0 in
  (try
     while not (!server_exited && !loadgen_done) do
       if Unix.gettimeofday () > deadline then begin
         fail "campaign timeout after %.0fs (crashes %d, plan %d/%d)" cfg.timeout_s !crashes
           !plan_next (Array.length plan);
         raise Exit
       end;
       (if not !server_exited then
          match Unix.waitpid [ Unix.WNOHANG ] !server_pid with
          | 0, _ -> ()
          | _, Unix.WSIGNALED s when s = Sys.sigkill && cfg.shards = 1 ->
              (* Cluster mode never falls here: crashpoints kill shard
                 processes, which the router respawns itself — a killed
                 ROUTER would be an external actor, and fails below. *)
              incr crashes;
              cfg.log (Printf.sprintf "server killed (crash %d)" !crashes);
              incr recoveries;
              server_pid := start_server ~recover:true
          | _, Unix.WEXITED 0 -> server_exited := true
          | _, Unix.WEXITED c ->
              fail "server exited with code %d (see %s)" c server_log;
              raise Exit
          | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) ->
              fail "server died on signal %d" s;
              raise Exit);
       (if not !loadgen_done then
          match Unix.waitpid [ Unix.WNOHANG ] loadgen_pid with
          | 0, _ -> ()
          | _, Unix.WEXITED 0 ->
              loadgen_done := true;
              last_nudge := Unix.gettimeofday ()
          | _, Unix.WEXITED c ->
              fail "loadgen exited with code %d (see %s)" c loadgen_log;
              raise Exit
          | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) ->
              fail "loadgen died on signal %d" s;
              raise Exit);
       (* The Shutdown that ends the campaign can die with a killed
          server generation; nudge the replacement until it exits. *)
       if !loadgen_done && not !server_exited then begin
         let now = Unix.gettimeofday () in
         if now -. !last_nudge > 2.0 then begin
           last_nudge := now;
           send_shutdown sock
         end
       end;
       Unix.sleepf 0.01
     done
   with Exit ->
     if not !server_exited then kill_quiet !server_pid;
     if not !loadgen_done then kill_quiet loadgen_pid);
  let lg = parse_summary loadgen_log in
  let sv = parse_summary server_log in
  let sent = Option.value ~default:0 (int_of lg "sent") in
  let committed = Option.value ~default:0 (int_of lg "committed") in
  let aborted = Option.value ~default:0 (int_of lg "aborted") in
  let rejected = Option.value ~default:0 (int_of lg "rejected") in
  let reconnects = Option.value ~default:0 (int_of lg "reconnects") in
  let duplicates = Option.value ~default:0 (int_of lg "duplicates") in
  let lg_errors = Option.value ~default:(-1) (int_of lg "protocol errors") in
  if !failures = [] then begin
    (* Exactly-once, client side. *)
    if lg_errors <> 0 then fail "loadgen protocol errors: %d" lg_errors;
    if duplicates <> 0 then fail "duplicate answers observed: %d" duplicates;
    if sent = 0 then fail "loadgen sent nothing";
    if committed + aborted + rejected <> sent then
      fail "unanswered calls: sent %d, answered %d" sent (committed + aborted + rejected);
    if cfg.shards > 1 then begin
      (* Cluster determinism oracle: the router journal replayed through
         a 1-member in-process cluster must reproduce the N-shard
         router's parting XOR digest, shard crashes and all. *)
      (match int_of sv "shard respawns" with
      | Some n ->
          crashes := n;
          recoveries := n
      | None -> fail "server log holds no shard-respawn count (see %s)" server_log);
      match Hashtbl.find_opt sv "state digest" with
      | None -> fail "server log holds no final digest (see %s)" server_log
      | Some d -> (
          match cluster_oracle cfg ~journal_path with
          | exception e -> fail "offline cluster replay failed: %s" (Printexc.to_string e)
          | digest ->
              let sd = Printf.sprintf "%Lx" digest in
              if not (String.equal d sd) then
                fail "cluster oracle: digest mismatch (router %s, 1-shard replay %s)" d sd)
    end
    else
      (* Determinism oracle: offline replay of the durable artifacts must
         reproduce the dying server's parting digest and pmem image CRC. *)
      match (Hashtbl.find_opt sv "state digest", Hashtbl.find_opt sv "pmem crc") with
      | None, _ | _, None -> fail "server log holds no final digest/CRC (see %s)" server_log
      | Some d, Some c -> (
          match oracle cfg ~journal_path with
          | exception e -> fail "offline replay failed: %s" (Printexc.to_string e)
          | digest, crc ->
              let sd = Printf.sprintf "%Lx" digest in
              let sc = Printf.sprintf "%08lx" crc in
              if not (String.equal d sd) then
                fail "pmem-image oracle: digest mismatch (server %s, replay %s)" d sd;
              if not (String.equal c sc) then
                fail "pmem-image oracle: CRC mismatch (server %s, replay %s)" c sc)
  end;
  let keep = cfg.keep || !failures <> [] in
  if not keep then begin
    List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) artifact_files;
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  end;
  {
    crashes = !crashes;
    recoveries = !recoveries;
    sent;
    committed;
    aborted;
    rejected;
    reconnects;
    duplicates;
    failures = List.rev !failures;
    artifacts = (if keep then Some dir else None);
  }
