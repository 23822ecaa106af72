(* nvdb: command-line driver for the NVCaracal reproduction.

   Subcommands:
     run      — run a benchmark workload on a chosen engine/design
     recover  — run, crash mid-epoch, recover, and report the breakdown
     mem      — run and print the DRAM/NVMM consumption breakdown
     serve    — serve the wire protocol on a socket, batching clients
     loadgen  — drive a running server with concurrent clients
     stats    — fetch a live statistics snapshot from a running server
     serve-sim — drive the serving pipeline deterministically in process
     chaos    — kill-9 a journaled server repeatedly and check recovery

   Examples:
     dune exec bin/nvdb.exe -- run --workload smallbank --contention high
     dune exec bin/nvdb.exe -- run --workload ycsb --engine zen --profile
     dune exec bin/nvdb.exe -- recover --workload tpcc --epochs 4
     dune exec bin/nvdb.exe -- serve --listen /tmp/nvdb.sock --stats-interval 1 &
     dune exec bin/nvdb.exe -- serve --journal /tmp/nvdb.journal --recover
     dune exec bin/nvdb.exe -- stats --listen /tmp/nvdb.sock
     dune exec bin/nvdb.exe -- loadgen --clients 32 --txns 100 --shutdown
     dune exec bin/nvdb.exe -- chaos --iterations 25 *)

open Cmdliner
module Runner = Nv_harness.Runner
module Cli = Nv_harness.Cli
module Config = Nvcaracal.Config
module Engine_intf = Nvcaracal.Engine_intf
module Wire = Nv_frontend.Wire

let ppf = Format.std_formatter

let print_result (r : Runner.result) =
  Format.fprintf ppf "workload        %s@." r.Runner.label;
  Format.fprintf ppf "transactions    %d (%d aborted)@." r.Runner.txns r.Runner.aborted;
  Format.fprintf ppf "simulated time  %.3f ms@." (r.Runner.sim_seconds *. 1e3);
  Format.fprintf ppf "throughput      %s@." (Nv_harness.Tablefmt.mtps r.Runner.throughput);
  Format.fprintf ppf "transient       %s of version writes stayed in DRAM@."
    (Nv_harness.Tablefmt.pct r.Runner.transient_frac);
  Format.fprintf ppf "gc              %d minor, %d major@." r.Runner.minor_gc r.Runner.major_gc;
  Format.fprintf ppf "cache           %d hits / %d misses@." r.Runner.cache_hits
    r.Runner.cache_misses;
  if r.Runner.log_bytes > 0 then
    Format.fprintf ppf "input log       %s@." (Nv_harness.Tablefmt.bytes r.Runner.log_bytes);
  Format.fprintf ppf "epoch latency   %a@." Nv_util.Histogram.pp r.Runner.epoch_latency;
  if r.Runner.last_epoch_phases <> [] then
    Format.fprintf ppf "phase breakdown %a@." Nvcaracal.Report.pp_phases
      r.Runner.last_epoch_phases

let run_cmd =
  let run workload contention engine epochs txns seed trace_file metrics_file trace_wall
      profile profile_out slow_epoch_ms =
    let w, growth = Cli.resolve_workload workload contention in
    let setup = Runner.setup ~epochs ~epoch_txns:txns ~seed ~insert_growth:growth () in
    let o =
      Cli.observability ~trace_wall ~profile ?profile_out ?slow_epoch_ms ~trace:trace_file
        ~metrics:metrics_file ()
    in
    let spec = Cli.resolve_engine engine in
    print_result
      (Runner.run ?tracer:o.Cli.tracer ?metrics:o.Cli.metrics ?profile:o.Cli.profile spec setup
         w);
    o.Cli.flush ()
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run a benchmark workload")
    Term.(
      const run $ Cli.workload $ Cli.contention $ Cli.engine $ Cli.epochs $ Cli.txns $ Cli.seed
      $ Cli.trace $ Cli.metrics $ Cli.trace_wall $ Cli.profile $ Cli.profile_out
      $ Cli.slow_epoch_ms)

let recover_cmd =
  let run workload contention epochs txns seed trace_file metrics_file =
    let w, growth = Cli.resolve_workload workload contention in
    let setup = Runner.setup ~epochs ~epoch_txns:txns ~seed ~insert_growth:growth () in
    let o = Cli.observability ~trace:trace_file ~metrics:metrics_file () in
    let { Runner.r_label; report } =
      Runner.run_recovery setup w ~crash_after_txns:(txns * 9 / 10) ?tracer:o.Cli.tracer
        ?metrics:o.Cli.metrics ()
    in
    Format.fprintf ppf "workload %s crashed mid-epoch and recovered:@." r_label;
    Format.fprintf ppf "%a@." Nvcaracal.Report.pp_recovery_report report;
    o.Cli.flush ()
  in
  Cmd.v
    (Cmd.info "recover" ~doc:"Crash a run mid-epoch and measure recovery")
    Term.(
      const run $ Cli.workload $ Cli.contention $ Cli.epochs $ Cli.txns $ Cli.seed
      $ Cli.trace $ Cli.metrics)

let mem_cmd =
  let run workload contention epochs txns seed =
    let w, growth = Cli.resolve_workload workload contention in
    let setup = Runner.setup ~epochs ~epoch_txns:txns ~seed ~insert_growth:growth () in
    let r = Runner.run_nvcaracal setup w ~variant:Config.Nvcaracal () in
    Format.fprintf ppf "%a@." Nvcaracal.Report.pp_mem_report r.Runner.mem
  in
  Cmd.v
    (Cmd.info "mem" ~doc:"Report DRAM/NVMM consumption for a workload")
    Term.(
      const run $ Cli.workload $ Cli.contention $ Cli.epochs $ Cli.txns $ Cli.seed)

let fuzz_cmd =
  let iters =
    Arg.(value & opt int 25 & info [ "iterations" ] ~docv:"N" ~doc:"Fuzz iterations.")
  in
  let faults_flag =
    let doc =
      "Fuzz through random media-fault models (torn lines, bit-rot, dead lines) and recover \
       in scrub mode, checking the damage report against the oracle."
    in
    Arg.(value & flag & info [ "faults" ] ~doc)
  in
  let diff_flag =
    let doc =
      "Differential fuzzing: run the same seeded batches through the NVCaracal and Zen \
       engines behind the shared engine interface and compare committed state."
    in
    Arg.(value & flag & info [ "diff" ] ~doc)
  in
  let run seed iterations faults diff =
    let outcome =
      Nv_harness.Fuzzer.run ~seed ~iterations ~faults ~diff
        ~log:(fun line -> Format.fprintf ppf "%s@." line)
        ()
    in
    Format.fprintf ppf "@.%d iterations, %d crashes injected, %d replays, %d failures@."
      outcome.Nv_harness.Fuzzer.iterations outcome.Nv_harness.Fuzzer.crashes_injected
      outcome.Nv_harness.Fuzzer.replays
      (List.length outcome.Nv_harness.Fuzzer.failures);
    if diff then
      Format.fprintf ppf "%d NVCaracal-vs-Zen differential iterations@."
        outcome.Nv_harness.Fuzzer.diffed
    else if faults then
      Format.fprintf ppf
        "%d faulted, %d mid-recovery crashes, %d salvage recoveries, %d detection-only@."
        outcome.Nv_harness.Fuzzer.faulted outcome.Nv_harness.Fuzzer.recrashes
        outcome.Nv_harness.Fuzzer.salvages outcome.Nv_harness.Fuzzer.detection_only;
    List.iter (fun f -> Format.fprintf ppf "FAILURE: %s@." f) outcome.Nv_harness.Fuzzer.failures;
    if outcome.Nv_harness.Fuzzer.failures <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "fuzz" ~doc:"Randomized crash-recovery fuzzing against an oracle")
    Term.(const run $ Cli.seed $ iters $ faults_flag $ diff_flag)

let scrub_cmd =
  let fault_arg =
    let doc = "Fault model for the crash: legal, torn, rot, or dead." in
    Arg.(value & opt string "rot" & info [ "fault" ] ~docv:"KIND" ~doc)
  in
  let run workload contention epochs txns seed fault =
    let w, growth = Cli.resolve_workload workload contention in
    let setup = Runner.setup ~epochs ~epoch_txns:txns ~seed ~insert_growth:growth () in
    let faults =
      let open Nv_nvmm.Pmem in
      match fault with
      | "legal" -> no_faults
      | "torn" -> { no_faults with torn_frac = 0.5 }
      | "rot" -> { no_faults with rot_lines = 4; rot_max_bits = 3 }
      | "dead" -> { no_faults with dead = 2 }
      | other -> failwith (Printf.sprintf "unknown fault kind %S" other)
    in
    match Runner.run_recovery setup w ~crash_after_txns:(txns * 9 / 10) ~faults () with
    | { Runner.r_label; report } ->
        Format.fprintf ppf "workload %s crashed with %s faults; scrub recovery:@." r_label
          fault;
        Format.fprintf ppf "%a@." Nvcaracal.Report.pp_recovery_report report
    | exception Nv_storage.Meta_region.Corrupt msg ->
        Format.fprintf ppf "UNRECOVERABLE: %s@." msg;
        exit 2
    | exception Failure msg ->
        (* E.g. a torn identity header dropped a row the crashed epoch's
           replay then needed: detected loudly, not salvageable. *)
        Format.fprintf ppf "UNRECOVERABLE: corruption broke deterministic replay: %s@." msg;
        exit 2
  in
  Cmd.v
    (Cmd.info "scrub"
       ~doc:"Crash through a media-fault model and recover with checksum scrubbing")
    Term.(
      const run $ Cli.workload $ Cli.contention $ Cli.epochs $ Cli.txns $ Cli.seed
      $ fault_arg)

(* ------------------------------------------------------------------ *)
(* Networked front end                                                 *)

(* [serve --shard-id I --shards N]: run as one member of a routed
   cluster, speaking the shard plane only. Routers spawn these; the
   journal (input log: every fence's calls plus merged read table) is
   the shard's own durability, replayed with no cluster round trip. *)
let serve_shard ~workload ~contention ~engine ~seed ~capacity ~batch_target ~journal_path
    ~recover ~journal_mb ~listen ~shards ~sid =
  let w, growth = Cli.resolve_workload workload contention in
  let spec = Cli.resolve_engine engine in
  let address = Cli.parse_address listen in
  let setup =
    Nv_harness.Engine.setup
      ~epochs:((capacity / batch_target) + 1)
      ~epoch_txns:batch_target ~seed ~insert_growth:growth ()
  in
  let registry = Nv_frontend.Proc.of_workload w in
  let meta =
    Nv_frontend.Restart.meta ~workload ~contention ~engine ~seed
    ^ Printf.sprintf "#shard%d/%d" sid shards
  in
  let packed = Nv_harness.Engine.instantiate spec setup w in
  let journal, records =
    match journal_path with
    | None -> (None, [])
    | Some path -> (
        match Nv_frontend.Journal.attach ~recover ~size:(journal_mb * 1024 * 1024) ~path ~meta with
        | `Created j -> (Some j, [])
        | `Loaded opened ->
            (Some opened.Nv_frontend.Journal.journal, opened.Nv_frontend.Journal.records))
  in
  let shard =
    Nv_frontend.Shard.create ~shard_id:sid ~shards ?journal ~engine:packed ~registry
      ~tables:w.Nv_workloads.Workload.tables ()
  in
  Nv_frontend.Shard.bulk_load shard (w.Nv_workloads.Workload.load ());
  if records <> [] then begin
    Nv_frontend.Shard.recover shard ~records;
    Format.fprintf ppf "nvdb shard %d/%d: replayed %d journaled fences@." sid shards
      (List.length records)
  end;
  let stop = ref false in
  let handler = Sys.Signal_handle (fun _ -> stop := true) in
  Sys.set_signal Sys.sigterm handler;
  Sys.set_signal Sys.sigint handler;
  Format.fprintf ppf "nvdb shard %d/%d: serving %s on %s (%s)@." sid shards
    w.Nv_workloads.Workload.name listen
    (Nv_harness.Engine.label spec w);
  Nv_frontend.Shard.serve shard ~address ~should_stop:(fun () -> !stop);
  Format.fprintf ppf "shard applied     %d@." (Nv_frontend.Shard.applied shard);
  Format.fprintf ppf "shard digest      %Lx@." (Nv_frontend.Shard.digest shard);
  match journal with
  | Some j ->
      Format.fprintf ppf "shard journal     %d records, %d bytes@."
        (Nv_frontend.Journal.record_count j)
        (Nv_frontend.Journal.used_bytes j);
      Nv_frontend.Journal.close j
  | None -> ()

(* [serve --shards N] (no --shard-id): the router. Spawns N shard
   processes, journals the global admission order, and serves the
   client plane by routing every batch as one two-round epoch across
   them. Recovery is records-only replay: sessions are not
   checkpointed (clients re-resume), and the shards answer re-driven
   epochs from their own recovered state. *)
let serve_router ~workload ~contention ~engine ~seed ~listen ~batch_target ~deadline
    ~max_pending ~capacity ~once ~stats_interval ~stats_out ~journal_path ~recover
    ~checkpoint_every ~journal_mb ~shards:n ~trace_file ~metrics_file =
  let journal_base =
    match journal_path with
    | Some p -> p
    | None ->
        failwith "nvdb serve: --shards > 1 requires --journal (cluster recovery is replay)"
  in
  if checkpoint_every > 0 then
    failwith "nvdb serve: --checkpoint-every is single-shard only (cluster recovery is replay)";
  let w, _growth = Cli.resolve_workload workload contention in
  let address = Cli.parse_address listen in
  let registry = Nv_frontend.Proc.of_workload w in
  let meta =
    Nv_frontend.Restart.meta ~workload ~contention ~engine ~seed
    ^ Printf.sprintf "#cluster%d" n
  in
  (* Generation = boot time in seconds. Shards refuse hellos older than
     the newest they have seen, so a zombie router loses its shards the
     moment a replacement says hello. *)
  let gen = int_of_float (Unix.time ()) land 0x3FFFFFFF in
  let shard_listen i =
    match address with
    | `Unix p -> Printf.sprintf "%s.shard%d" p i
    | `Tcp (h, port) -> Printf.sprintf "%s:%d" h (port + 1 + i)
  in
  (* Chaos plumbing: NVC_SHARD_CRASHPOINT holds comma-separated
     SHARD:POINT:N specs; each (re)spawn of shard I consumes the first
     spec targeting I and arms the child with a plain NVC_CRASHPOINT.
     The plan travels under a different name because Crashpoint reads
     NVC_CRASHPOINT eagerly at module init — the router itself must
     never arm. The queue is finite, so every campaign terminates. *)
  let crash_plan =
    ref
      (match Sys.getenv_opt "NVC_SHARD_CRASHPOINT" with
      | None -> []
      | Some s ->
          List.filter_map
            (fun spec ->
              match String.split_on_char ':' spec with
              | [ shard; point; count ] -> (
                  match (int_of_string_opt shard, int_of_string_opt count) with
                  | Some i, Some c -> Some (i, point, c)
                  | _ -> None)
              | _ -> None)
            (String.split_on_char ',' s))
  in
  let take_crashpoint i =
    let rec go acc = function
      | [] -> None
      | (s, p, c) :: rest when s = i ->
          crash_plan := List.rev_append acc rest;
          Some (p, c)
      | x :: rest -> go (x :: acc) rest
    in
    go [] !crash_plan
  in
  let child_env i =
    let keep s =
      not
        ((String.length s >= 15 && String.sub s 0 15 = "NVC_CRASHPOINT=")
        || (String.length s >= 21 && String.sub s 0 21 = "NVC_SHARD_CRASHPOINT="))
    in
    let base = List.filter keep (Array.to_list (Unix.environment ())) in
    match take_crashpoint i with
    | None -> Array.of_list base
    | Some (p, c) -> Array.of_list (base @ [ Printf.sprintf "NVC_CRASHPOINT=%s:%d" p c ])
  in
  let pids = Array.make n (-1) in
  let spawn_shard i =
    let sock = shard_listen i in
    (match address with
    | `Unix _ -> ( try Sys.remove sock with Sys_error _ -> ())
    | `Tcp _ -> ());
    let args =
      [
        Sys.executable_name; "serve"; "--shard-id"; string_of_int i; "--shards";
        string_of_int n; "--listen"; sock; "--workload"; workload; "--contention"; contention;
        "--engine"; engine; "--seed"; string_of_int seed;
        "--capacity"; string_of_int capacity; "--batch-target"; string_of_int batch_target;
        "--journal"; Printf.sprintf "%s.shard%d" journal_base i; "--journal-mb";
        string_of_int journal_mb; "--recover";
      ]
    in
    pids.(i) <-
      Unix.create_process_env Sys.executable_name (Array.of_list args) (child_env i) Unix.stdin
        Unix.stdout Unix.stderr
  in
  let respawn i () =
    (match Unix.waitpid [ Unix.WNOHANG ] pids.(i) with
    | 0, _ ->
        (* Unreachable but alive (wedged): kill it before respawning so
           two generations never share a socket. *)
        (try Unix.kill pids.(i) Sys.sigkill with Unix.Unix_error _ -> ());
        (try ignore (Unix.waitpid [] pids.(i)) with Unix.Unix_error _ -> ())
    | _ -> ()
    | exception Unix.Unix_error _ -> ());
    Format.fprintf ppf "nvdb: respawning shard %d@." i;
    spawn_shard i
  in
  for i = 0 to n - 1 do
    spawn_shard i
  done;
  let members =
    Array.init n (fun i ->
        Nv_frontend.Shard_set.remote ~retry_timeout_s:30.0 ~respawn:(respawn i) ~gen ~shard:i
          ~shards:n
          (Cli.parse_address (shard_listen i)))
  in
  let shard_set = Nv_frontend.Shard_set.cluster members in
  let journal, recovery =
    match
      Nv_frontend.Journal.attach ~recover ~size:(journal_mb * 1024 * 1024) ~path:journal_base
        ~meta
    with
    | `Created j -> (j, None)
    | `Loaded opened ->
        let records = opened.Nv_frontend.Journal.records in
        Format.fprintf ppf "nvdb: recovering router journal; re-driving %d batches%s@."
          (List.length records)
          (if opened.Nv_frontend.Journal.torn_tail then " (torn tail discarded)" else "");
        ( opened.Nv_frontend.Journal.journal,
          Some
            { Nv_frontend.Server.rec_records = records; rec_sessions = []; rec_batches_done = 0 }
        )
  in
  let stop = ref false in
  let handler = Sys.Signal_handle (fun _ -> stop := true) in
  Sys.set_signal Sys.sigterm handler;
  Sys.set_signal Sys.sigint handler;
  let o = Cli.observability ~trace:trace_file ~metrics:metrics_file () in
  Format.fprintf ppf "nvdb: routing %s on %s (%d shards, gen %d; batch %d, deadline %d ticks)@."
    w.Nv_workloads.Workload.name listen n gen batch_target deadline;
  let stats_oc =
    match stats_out with
    | Some file when stats_interval > 0.0 -> Some (open_out file)
    | _ -> None
  in
  let on_stats =
    if stats_interval > 0.0 then
      Some
        (fun json ->
          match stats_oc with
          | Some oc ->
              output_string oc json;
              output_char oc '\n';
              Stdlib.flush oc
          | None -> Format.fprintf ppf "%s@." json)
    else None
  in
  let stats =
    Nv_frontend.Server.serve ?tracer:o.Cli.tracer ?metrics:o.Cli.metrics ~journal ?recovery
      ~should_stop:(fun () -> !stop)
      ?on_stats ~shards:shard_set ~registry ~tables:w.Nv_workloads.Workload.tables
      (Nv_frontend.Server.config
         ~batcher:(Nv_frontend.Batcher.config ~batch_target ~deadline_ticks:deadline ?max_pending ())
         ~once ~stats_interval_s:stats_interval address)
  in
  (match stats_oc with Some oc -> close_out oc | None -> ());
  Format.fprintf ppf "clients served    %d@." stats.Nv_frontend.Server.clients_served;
  Format.fprintf ppf "admitted          %d@." stats.Nv_frontend.Server.admitted;
  Format.fprintf ppf "committed         %d@." stats.Nv_frontend.Server.committed;
  Format.fprintf ppf "aborted           %d@." stats.Nv_frontend.Server.aborted;
  Format.fprintf ppf "rejected          %d@." stats.Nv_frontend.Server.rejected;
  Format.fprintf ppf "replayed          %d@." stats.Nv_frontend.Server.replayed;
  Format.fprintf ppf "epochs            %d@." stats.Nv_frontend.Server.epochs;
  Format.fprintf ppf "protocol errors   %d@." stats.Nv_frontend.Server.protocol_errors;
  Format.fprintf ppf "state digest      %Lx@." stats.Nv_frontend.Server.digest;
  Format.fprintf ppf "journal records   %d@." (Nv_frontend.Journal.record_count journal);
  Format.fprintf ppf "journal bytes     %d@." (Nv_frontend.Journal.used_bytes journal);
  Format.fprintf ppf "shard respawns    %d@." (Nv_frontend.Shard_set.respawns shard_set);
  (* No pmem CRC line: the images live in the shard processes; the
     cluster oracle is the placement-independent state digest. *)
  Nv_frontend.Shard_set.close shard_set;
  Nv_frontend.Journal.close journal;
  Array.iter (fun pid -> try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ()) pids;
  Array.iter (fun pid -> try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()) pids;
  o.Cli.flush ();
  if stats.Nv_frontend.Server.protocol_errors > 0 then exit 3

let serve_cmd =
  let batch_target_arg =
    Arg.(
      value & opt int 256
      & info [ "batch-target" ] ~docv:"N" ~doc:"Close a batch at $(docv) admitted transactions.")
  in
  let deadline_arg =
    Arg.(
      value & opt int 8
      & info [ "deadline-ticks" ] ~docv:"N"
          ~doc:"Close an under-filled batch $(docv) event-loop rounds after its oldest arrival.")
  in
  let max_pending_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-pending" ] ~docv:"N"
          ~doc:
            "Admission bound: beyond $(docv) queued transactions submits are rejected as \
             overloaded (default 4x the batch target).")
  in
  let capacity_arg =
    Arg.(
      value & opt int 200_000
      & info [ "capacity" ] ~docv:"TXNS"
          ~doc:"Provision engine pools for $(docv) admitted transactions over the server's life.")
  in
  let once_flag =
    Arg.(
      value & flag
      & info [ "once" ]
          ~doc:"Exit after the first wave of clients has disconnected (instead of Shutdown).")
  in
  let stats_interval_arg =
    Arg.(
      value & opt float 0.0
      & info [ "stats-interval" ] ~docv:"SECS"
          ~doc:
            "Flush a live-statistics JSON line (the $(b,stats) snapshot) every $(docv) seconds \
             while serving; 0 disables the flush.")
  in
  let stats_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "stats-out" ] ~docv:"FILE"
          ~doc:
            "Append the periodic --stats-interval JSON lines to $(docv) instead of standard \
             output.")
  in
  let journal_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"FILE"
          ~doc:
            "Persist every formed batch to a CRC-guarded admission journal at $(docv) before \
             it runs. A crashed server restarted with $(b,--recover) replays it to reproduce \
             the exact pre-crash state.")
  in
  let recover_flag =
    Arg.(
      value & flag
      & info [ "recover" ]
          ~doc:
            "Reopen the --journal file (and its covering checkpoint, if any) and replay the \
             journaled batches before accepting connections.")
  in
  let checkpoint_arg =
    Arg.(
      value & opt int 0
      & info [ "checkpoint-every" ] ~docv:"BATCHES"
          ~doc:
            "Write a covering checkpoint (pmem image + session table) and truncate the journal \
             to it every $(docv) batches; 0 (default) never truncates — the journal keeps full \
             history.")
  in
  let journal_mb_arg =
    Arg.(
      value & opt int 8
      & info [ "journal-mb" ] ~docv:"MIB"
          ~doc:
            "Cap on a freshly created journal file: an append that would grow the file past it \
             fails (enable checkpointing to truncate the journal).")
  in
  let run workload contention engine seed listen batch_target deadline max_pending capacity
      once stats_interval stats_out journal_path recover checkpoint_every journal_mb shards_n
      shard_id trace_file metrics_file =
    match shard_id with
    | Some sid ->
        serve_shard ~workload ~contention ~engine ~seed ~capacity ~batch_target ~journal_path
          ~recover ~journal_mb ~listen ~shards:(max shards_n 1) ~sid
    | None when shards_n > 1 ->
        serve_router ~workload ~contention ~engine ~seed ~listen ~batch_target ~deadline
          ~max_pending ~capacity ~once ~stats_interval ~stats_out ~journal_path ~recover
          ~checkpoint_every ~journal_mb ~shards:shards_n ~trace_file ~metrics_file
    | None ->
    let w, growth = Cli.resolve_workload workload contention in
    let spec = Cli.resolve_engine engine in
    let address = Cli.parse_address listen in
    if checkpoint_every > 0 && journal_path = None then
      failwith "nvdb serve: --checkpoint-every requires --journal";
    if recover && journal_path = None then failwith "nvdb serve: --recover requires --journal";
    let batcher =
      Nv_frontend.Batcher.config ~batch_target ~deadline_ticks:deadline ?max_pending
        ~checkpoint_every ()
    in
    let setup =
      Nv_harness.Engine.setup
        ~epochs:((capacity / batch_target) + 1)
        ~epoch_txns:batch_target ~seed ~insert_growth:growth ()
    in
    let o = Cli.observability ~trace:trace_file ~metrics:metrics_file () in
    let registry = Nv_frontend.Proc.of_workload w in
    let meta = Nv_frontend.Restart.meta ~workload ~contention ~engine ~seed in
    let cold_start () =
      let (Engine_intf.Packed ((module E), db) as engine) =
        Nv_harness.Engine.instantiate spec setup w
      in
      E.bulk_load db (w.Nv_workloads.Workload.load ());
      engine
    in
    let journal, recovery, engine =
      match journal_path with
      | None -> (None, None, cold_start ())
      | Some path -> (
          match
            Nv_frontend.Journal.attach ~recover ~size:(journal_mb * 1024 * 1024) ~path ~meta
          with
          | `Created j ->
              if recover then
                Format.fprintf ppf "nvdb: --recover with no journal at %s; cold start@." path;
              (Some j, None, cold_start ())
          | `Loaded opened ->
              let boot = Nv_frontend.Restart.boot spec setup w ~registry opened in
              let replayable =
                List.length
                  (List.filter
                     (fun r ->
                       r.Nv_frontend.Journal.r_batch >= boot.Nv_frontend.Restart.batches_done)
                     opened.Nv_frontend.Journal.records)
              in
              Format.fprintf ppf "nvdb: recovering %s; replaying %d journaled batches%s@."
                (if boot.Nv_frontend.Restart.from_checkpoint then
                   Printf.sprintf "from checkpoint (%d batches covered)"
                     boot.Nv_frontend.Restart.batches_done
                 else "from cold image")
                replayable
                (if opened.Nv_frontend.Journal.torn_tail then " (torn tail discarded)" else "");
              ( Some opened.Nv_frontend.Journal.journal,
                Some
                  {
                    Nv_frontend.Server.rec_records = opened.Nv_frontend.Journal.records;
                    rec_sessions = boot.Nv_frontend.Restart.sessions;
                    rec_batches_done = boot.Nv_frontend.Restart.batches_done;
                  },
                boot.Nv_frontend.Restart.engine ))
    in
    let (Engine_intf.Packed ((module E), db)) = engine in
    E.set_observability ?tracer:o.Cli.tracer ?metrics:o.Cli.metrics db;
    (* Graceful stop on SIGTERM/SIGINT: the select loop notices the flag
       on its next round, drains, flushes, checkpoints (if on a cadence)
       and exits 0 — same path as a wire Shutdown. *)
    let stop = ref false in
    let handler = Sys.Signal_handle (fun _ -> stop := true) in
    Sys.set_signal Sys.sigterm handler;
    Sys.set_signal Sys.sigint handler;
    Format.fprintf ppf "nvdb: serving %s on %s (%s; batch %d, deadline %d ticks)@."
      w.Nv_workloads.Workload.name listen
      (Nv_harness.Engine.label spec w)
      batch_target deadline;
    let stats_oc =
      match stats_out with
      | Some file when stats_interval > 0.0 -> Some (open_out file)
      | _ -> None
    in
    let on_stats =
      if stats_interval > 0.0 then
        Some
          (fun json ->
            match stats_oc with
            | Some oc ->
                output_string oc json;
                output_char oc '\n';
                Stdlib.flush oc
            | None -> Format.fprintf ppf "%s@." json)
      else None
    in
    let stats =
      Nv_frontend.Server.serve ?tracer:o.Cli.tracer ?metrics:o.Cli.metrics ?journal ?recovery
        ~should_stop:(fun () -> !stop)
        ?on_stats
        ~shards:(Nv_frontend.Shard_set.local ~engine ~tables:w.Nv_workloads.Workload.tables)
        ~registry ~tables:w.Nv_workloads.Workload.tables
        (Nv_frontend.Server.config ~batcher ~once ~stats_interval_s:stats_interval address)
    in
    (match stats_oc with Some oc -> close_out oc | None -> ());
    Format.fprintf ppf "clients served    %d@." stats.Nv_frontend.Server.clients_served;
    Format.fprintf ppf "admitted          %d@." stats.Nv_frontend.Server.admitted;
    Format.fprintf ppf "committed         %d@." stats.Nv_frontend.Server.committed;
    Format.fprintf ppf "aborted           %d@." stats.Nv_frontend.Server.aborted;
    Format.fprintf ppf "rejected          %d@." stats.Nv_frontend.Server.rejected;
    Format.fprintf ppf "replayed          %d@." stats.Nv_frontend.Server.replayed;
    Format.fprintf ppf "epochs            %d@." stats.Nv_frontend.Server.epochs;
    Format.fprintf ppf "protocol errors   %d@." stats.Nv_frontend.Server.protocol_errors;
    Format.fprintf ppf "state digest      %Lx@." stats.Nv_frontend.Server.digest;
    (match journal with
    | Some j ->
        (* The parting fingerprints the chaos oracle replays toward:
           journal occupancy plus a CRC of the full pmem image. *)
        Format.fprintf ppf "journal records   %d@." (Nv_frontend.Journal.record_count j);
        Format.fprintf ppf "journal bytes     %d@." (Nv_frontend.Journal.used_bytes j);
        let pm = E.pmem db in
        Format.fprintf ppf "pmem crc          %08lx@."
          (Nv_nvmm.Pmem.crc32c pm ~off:0 ~len:(Nv_nvmm.Pmem.size pm));
        Nv_frontend.Journal.close j
    | None -> ());
    o.Cli.flush ();
    if stats.Nv_frontend.Server.protocol_errors > 0 then exit 3
  in
  Cmd.v
    (Cmd.info "serve" ~doc:"Serve the wire protocol on a socket, batching clients into epochs")
    Term.(
      const run $ Cli.workload $ Cli.contention $ Cli.engine $ Cli.seed $ Cli.listen
      $ batch_target_arg $ deadline_arg $ max_pending_arg $ capacity_arg $ once_flag
      $ stats_interval_arg $ stats_out_arg $ journal_arg $ recover_flag $ checkpoint_arg
      $ journal_mb_arg $ Cli.shards $ Cli.shard_id $ Cli.trace $ Cli.metrics)

let loadgen_cmd =
  let clients_arg =
    Arg.(value & opt int 8 & info [ "clients" ] ~docv:"N" ~doc:"Concurrent client connections.")
  in
  let txns_arg =
    Arg.(value & opt int 100 & info [ "txns" ] ~docv:"N" ~doc:"Transactions per client.")
  in
  let window_arg =
    Arg.(
      value & opt int 1
      & info [ "window" ] ~docv:"N"
          ~doc:"Max in-flight calls per client (1 = closed loop; large = open-loop overload).")
  in
  let think_arg =
    Arg.(
      value & opt int 0
      & info [ "think" ] ~docv:"TICKS" ~doc:"Think time in loop rounds after each completion.")
  in
  let shutdown_flag =
    Arg.(
      value & flag
      & info [ "shutdown" ] ~doc:"Ask the server to drain and exit once every client is done.")
  in
  let reconnect_flag =
    Arg.(
      value & flag
      & info [ "reconnect" ]
          ~doc:
            "Survive dropped connections: back off (jittered exponential), resume the session \
             and retransmit every unanswered call.")
  in
  let retry_timeout_arg =
    Arg.(
      value & opt float 30.0
      & info [ "retry-timeout" ] ~docv:"SECS"
          ~doc:"With --reconnect: fail a client once the server stays unreachable this long.")
  in
  let run workload contention seed listen router clients txns window think shutdown reconnect
      retry_timeout =
    let w, _growth = Cli.resolve_workload workload contention in
    (* Against a routed cluster, clients talk to the router only; the
       wire protocol is identical, so --router is just an address. *)
    let address = Cli.parse_address (Option.value ~default:listen router) in
    let cfg =
      Nv_frontend.Loadgen.config ~clients ~txns_per_client:txns ~seed ~window ~think_ticks:think
        ~shutdown ~reconnect ~retry_timeout_s:retry_timeout address
    in
    let stats = Nv_frontend.Loadgen.run cfg w in
    Format.fprintf ppf "sent              %d@." stats.Nv_frontend.Loadgen.sent;
    Format.fprintf ppf "committed         %d@." stats.Nv_frontend.Loadgen.committed;
    Format.fprintf ppf "aborted           %d@." stats.Nv_frontend.Loadgen.aborted;
    Format.fprintf ppf "rejected          %d@." stats.Nv_frontend.Loadgen.rejected;
    Format.fprintf ppf "protocol errors   %d@." stats.Nv_frontend.Loadgen.protocol_errors;
    Format.fprintf ppf "reconnects        %d@." stats.Nv_frontend.Loadgen.reconnects;
    Format.fprintf ppf "duplicates        %d@." stats.Nv_frontend.Loadgen.duplicates;
    let lat = stats.Nv_frontend.Loadgen.latency in
    if Nv_util.Histogram.count lat > 0 then
      Format.fprintf ppf "latency (wall)    p50 %.3f ms, p99 %.3f ms, max %.3f ms@."
        (Nv_util.Histogram.percentile lat 50.0 /. 1e6)
        (Nv_util.Histogram.percentile lat 99.0 /. 1e6)
        (Nv_util.Histogram.max_value lat /. 1e6);
    (match stats.Nv_frontend.Loadgen.digests with
    | d :: _ -> Format.fprintf ppf "state digest      %Lx@." d
    | [] -> ());
    if stats.Nv_frontend.Loadgen.protocol_errors > 0 then exit 3
  in
  Cmd.v
    (Cmd.info "loadgen" ~doc:"Drive a running nvdb server with concurrent clients")
    Term.(
      const run $ Cli.workload $ Cli.contention $ Cli.seed $ Cli.listen $ Cli.router
      $ clients_arg $ txns_arg $ window_arg $ think_arg $ shutdown_flag $ reconnect_flag
      $ retry_timeout_arg)

(* Interrogate a live server: one connection, one [Stats] frame, print
   the JSON snapshot it answers with. No [Hello] — monitoring must not
   count as a served client. *)
let stats_cmd =
  let connect_fd = function
    | `Unix path ->
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX path);
        fd
    | `Tcp (host, port) ->
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        let addr =
          try Unix.inet_addr_of_string host
          with _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)
        in
        Unix.connect fd (Unix.ADDR_INET (addr, port));
        fd
  in
  let run listen router =
    let listen = Option.value ~default:listen router in
    let address = Cli.parse_address listen in
    let fd =
      try connect_fd address
      with Unix.Unix_error (e, _, _) ->
        Format.eprintf "nvdb stats: cannot connect to %s: %s@." listen (Unix.error_message e);
        exit 1
    in
    let frame = Wire.encode_request Wire.Stats in
    let off = ref 0 in
    while !off < Bytes.length frame do
      off := !off + Unix.write fd frame !off (Bytes.length frame - !off)
    done;
    let reader = Wire.Reader.create () in
    let buf = Bytes.create 65536 in
    let rec next () =
      match Wire.Reader.next_payload reader with
      | Some payload -> Wire.decode_response payload
      | None -> (
          match Unix.read fd buf 0 (Bytes.length buf) with
          | 0 ->
              Format.eprintf "nvdb stats: server closed the connection before answering@.";
              exit 1
          | n ->
              Wire.Reader.feed reader buf ~off:0 ~len:n;
              next ())
    in
    (match next () with
    | Wire.Stats_ok { json } -> Format.fprintf ppf "%s@." json
    | _ ->
        Format.eprintf "nvdb stats: unexpected response to Stats@.";
        exit 3
    | exception Wire.Protocol_error msg ->
        Format.eprintf "nvdb stats: protocol error: %s@." msg;
        exit 3);
    try Unix.close fd with Unix.Unix_error _ -> ()
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Fetch a live statistics snapshot (JSON) from a running nvdb server")
    Term.(const run $ Cli.listen $ Cli.router)

(* Placement probe: where does a key live in an N-shard cluster? The
   hash is Nvcaracal.Routed.owner, the one the router and the shards
   share, so this answers "which process do I strace". *)
let route_cmd =
  let table_arg =
    Arg.(value & opt int 0 & info [ "table" ] ~docv:"ID" ~doc:"Table the keys belong to.")
  in
  let keys_arg =
    Arg.(value & pos_all string [] & info [] ~docv:"KEY" ~doc:"Keys (int64) to place.")
  in
  let run shards table keys =
    if shards < 1 then failwith "nvdb route: --shards must be >= 1";
    if keys = [] then failwith "nvdb route: give at least one key";
    List.iter
      (fun k ->
        match Int64.of_string_opt k with
        | None -> failwith (Printf.sprintf "nvdb route: bad key %S" k)
        | Some key ->
            Format.fprintf ppf "table %d key %Ld -> shard %d@." table key
              (Nvcaracal.Routed.owner ~shards ~table ~key))
      keys
  in
  Cmd.v
    (Cmd.info "route"
       ~doc:"Print which shard of an N-shard cluster owns each key (the placement hash)")
    Term.(const run $ Cli.shards $ table_arg $ keys_arg)

(* Deterministic serving-pipeline run: the socket server's Batcher
   driven in process by seeded synthetic clients with a manual tick
   clock. No sockets, no wall-clock-dependent control flow, so the
   admission counters, digest and metrics records are byte-stable —
   what scripts/golden_check.sh pins for the front end. *)
let serve_sim_cmd =
  let clients_arg =
    Arg.(value & opt int 8 & info [ "clients" ] ~docv:"N" ~doc:"Synthetic client streams.")
  in
  let txns_arg =
    Arg.(
      value & opt int 100
      & info [ "txns" ] ~docv:"N" ~doc:"Transactions per client (one per client per tick).")
  in
  let batch_target_arg =
    Arg.(
      value & opt int 128
      & info [ "batch-target" ] ~docv:"N" ~doc:"Close a batch at $(docv) admitted transactions.")
  in
  let deadline_arg =
    Arg.(
      value & opt int 4
      & info [ "deadline-ticks" ] ~docv:"N"
          ~doc:"Close an under-filled batch $(docv) ticks after its oldest arrival.")
  in
  let run workload contention engine seed clients txns batch_target deadline metrics_file =
    let w, growth = Cli.resolve_workload workload contention in
    let spec = Cli.resolve_engine engine in
    let o = Cli.observability ~trace:None ~metrics:metrics_file () in
    let setup =
      Nv_harness.Engine.setup
        ~epochs:((clients * txns / batch_target) + 2)
        ~epoch_txns:batch_target ~seed ~insert_growth:growth ()
    in
    let (Engine_intf.Packed ((module E), db) as engine) =
      Nv_harness.Engine.instantiate spec setup w
    in
    E.bulk_load db (w.Nv_workloads.Workload.load ());
    E.set_observability ?metrics:o.Cli.metrics db;
    let registry = Nv_frontend.Proc.of_workload w in
    let b =
      Nv_frontend.Batcher.create
        ~cfg:(Nv_frontend.Batcher.config ~batch_target ~deadline_ticks:deadline ())
        ?metrics:o.Cli.metrics
        ~shards:(Nv_frontend.Shard_set.local ~engine ~tables:w.Nv_workloads.Workload.tables)
        ~registry ~tables:w.Nv_workloads.Workload.tables ()
    in
    let rngs = Array.init clients (fun i -> Nv_util.Rng.create (seed + i)) in
    let handles =
      Array.init clients (fun _ -> Nv_frontend.Batcher.connect b ~reply:(Some ignore))
    in
    let rejected_submits = ref 0 in
    for round = 0 to txns - 1 do
      Array.iteri
        (fun i rng ->
          let proc, args = w.Nv_workloads.Workload.gen_call rng in
          match Nv_frontend.Batcher.submit b handles.(i) ~req:round ~proc ~args with
          | `Admitted | `Replayed _ | `Duplicate -> ()
          | `Rejected _ -> incr rejected_submits)
        rngs;
      Nv_frontend.Batcher.tick b
    done;
    Nv_frontend.Batcher.drain b;
    Format.fprintf ppf "clients           %d@." clients;
    Format.fprintf ppf "admitted          %d@." (Nv_frontend.Batcher.admitted b);
    Format.fprintf ppf "committed         %d@." (Nv_frontend.Batcher.committed b);
    Format.fprintf ppf "aborted           %d@." (Nv_frontend.Batcher.aborted b);
    Format.fprintf ppf "rejected          %d@." !rejected_submits;
    Format.fprintf ppf "deferred          %d@." (Nv_frontend.Batcher.deferred_total b);
    Format.fprintf ppf "epochs            %d@." (Nv_frontend.Batcher.epochs_run b);
    Format.fprintf ppf "state digest      %Lx@." (Nv_frontend.Batcher.state_digest b);
    o.Cli.flush ()
  in
  Cmd.v
    (Cmd.info "serve-sim"
       ~doc:
         "Drive the serving pipeline in process with seeded clients and a manual tick clock \
          (deterministic; used for front-end golden checks)")
    Term.(
      const run $ Cli.workload $ Cli.contention $ Cli.engine $ Cli.seed $ clients_arg
      $ txns_arg $ batch_target_arg $ deadline_arg $ Cli.metrics)

(* Kill-9 chaos campaign: serve + loadgen as child processes, a seeded
   plan of crashpoints, restart-with---recover supervision, then the
   exactly-once and pmem-image-oracle checks (see Nv_frontend.Chaos). *)
let chaos_cmd =
  let iters_arg =
    Arg.(
      value & opt int 25
      & info [ "iterations" ] ~docv:"N"
          ~doc:"Kill-9s to inject before letting the campaign finish gracefully.")
  in
  let seed_arg =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Crashpoint-plan seed.")
  in
  let clients_arg =
    Arg.(value & opt int 8 & info [ "clients" ] ~docv:"N" ~doc:"Load-generator clients.")
  in
  let txns_arg =
    Arg.(value & opt int 200 & info [ "txns" ] ~docv:"N" ~doc:"Transactions per client.")
  in
  let ckpt_arg =
    Arg.(
      value & opt int 0
      & info [ "checkpoint-every" ] ~docv:"BATCHES"
          ~doc:
            "Server checkpoint cadence. 0 recovers by full replay every restart (the strongest \
             oracle); positive values exercise the checkpoint+truncate path too.")
  in
  let workload_arg =
    Arg.(
      value & opt string "ycsb-tiny"
      & info [ "w"; "workload" ] ~docv:"NAME"
          ~doc:"Workload to serve (small ones restart much faster).")
  in
  let contention_arg =
    Arg.(value & opt string "med" & info [ "c"; "contention" ] ~docv:"LEVEL" ~doc:"Contention.")
  in
  let dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "dir" ] ~docv:"DIR"
          ~doc:"Artifact directory (socket, journal, process logs); default under TMPDIR.")
  in
  let keep_flag =
    Arg.(value & flag & info [ "keep" ] ~doc:"Keep the artifact directory even on success.")
  in
  let timeout_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "timeout" ] ~docv:"SECS"
          ~doc:"Campaign wall-clock deadline (default scales with --iterations).")
  in
  let run seed iterations clients txns checkpoint_every workload contention engine shards dir
      keep timeout =
    let cfg =
      Nv_frontend.Chaos.config ~seed ~iterations ~clients ~txns_per_client:txns
        ~checkpoint_every ~workload ~contention ~engine ~shards ?dir ~keep ?timeout_s:timeout
        ~log:(fun line -> Format.fprintf ppf "%s@." line)
        ~exe:Sys.executable_name ()
    in
    let o = Nv_frontend.Chaos.run cfg in
    Format.fprintf ppf "@.crashes           %d@." o.Nv_frontend.Chaos.crashes;
    Format.fprintf ppf "recoveries        %d@." o.Nv_frontend.Chaos.recoveries;
    Format.fprintf ppf "reconnects        %d@." o.Nv_frontend.Chaos.reconnects;
    Format.fprintf ppf "sent              %d@." o.Nv_frontend.Chaos.sent;
    Format.fprintf ppf "committed         %d@." o.Nv_frontend.Chaos.committed;
    Format.fprintf ppf "aborted           %d@." o.Nv_frontend.Chaos.aborted;
    Format.fprintf ppf "rejected          %d@." o.Nv_frontend.Chaos.rejected;
    Format.fprintf ppf "duplicates        %d@." o.Nv_frontend.Chaos.duplicates;
    (match o.Nv_frontend.Chaos.artifacts with
    | Some d -> Format.fprintf ppf "artifacts         %s@." d
    | None -> ());
    List.iter
      (fun f -> Format.fprintf ppf "FAILURE: %s@." f)
      o.Nv_frontend.Chaos.failures;
    if o.Nv_frontend.Chaos.failures <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Kill-9 a journaled server at seeded crashpoints, recover with --recover each time, \
          and check exactly-once semantics plus the pmem-image oracle. With --shards N, kill \
          shard processes of a routed cluster instead and check the cross-shard-count digest \
          oracle")
    Term.(
      const run $ seed_arg $ iters_arg $ clients_arg $ txns_arg $ ckpt_arg $ workload_arg
      $ contention_arg $ Cli.engine $ Cli.shards $ dir_arg $ keep_flag $ timeout_arg)

let () =
  let info =
    Cmd.info "nvdb" ~version:"1.0.0"
      ~doc:"NVCaracal: a deterministic database with NVMM storage (EuroSys'23 reproduction)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            run_cmd;
            recover_cmd;
            mem_cmd;
            fuzz_cmd;
            scrub_cmd;
            serve_cmd;
            loadgen_cmd;
            route_cmd;
            stats_cmd;
            serve_sim_cmd;
            chaos_cmd;
          ]))
