(* Served end-to-end benchmark: a real [Nv_frontend.Server.serve] in a
   child process, driven over two Unix-socket connections by one
   single-threaded generator speaking the wire protocol.

   Usage:
     dune exec servebench/main.exe                        # all workloads
     dune exec servebench/main.exe -- --workload tpcc --seed 7 --seconds 10
     dune exec servebench/main.exe -- --trace 1           # per-layer run
     bash servebench/run.sh --workload tpcc --seed 1 --seconds 10 --trace 0

   One workload run: warm the host up, start the server three to fifteen
   times (set-up time is their median; the last one serves), offer load for
   the warm-up and then the measured window, drain, say Bye on both
   connections (their state digests must agree), kill -9 the server,
   restart it from its journal and check that the recovered state
   digest equals the acknowledged one. The last line of standard output
   is one JSON object: correct, attempted, failed, and the end-to-end
   metrics (the per-layer metrics with --trace 1). README.md defines
   every metric. *)

module J = Nv_obs.Jsonx
module Clock = Nv_util.Clock

(* Server starts: up to [setup_repeats], at least three, fewer once
   they have taken [setup_budget_s]; the last one serves. Cheap starts
   are repeated more, so one slow stretch moves their median less: on
   the 2-vCPU VM this was calibrated on, a 0.2-s start took about 0.19 s
   or about 0.28 s with the host's speed, in stretches of several starts
   in a row. *)
let setup_repeats = 15
let setup_budget_s = 4.0

(* Run [f] until it has run [most] times, or at least [least] times
   and [budget_s] seconds; [f] returns the seconds it took. *)
let repeat ~least ~most ~budget_s f =
  let runs = Gen.Vec.create 0.0 in
  let spent = ref 0.0 in
  while
    Gen.Vec.length runs < most && (Gen.Vec.length runs < least || !spent < budget_s)
  do
    let s = f () in
    spent := !spent +. s;
    Gen.Vec.push runs s
  done;
  Gen.Vec.to_array runs

(* Time limits, seconds: a server that does not answer within these is
   counted as failed rather than waited for. *)
let start_timeout_s = 60.0
let drain_timeout_s = 30.0
let reply_timeout_s = 10.0
let checkpoint_timeout_s = 10.0

(* ------------------------------------------------------------------ *)
(* Child processes                                                     *)

let children : (int, unit) Hashtbl.t = Hashtbl.create 4

let rec reap pid =
  try ignore (Unix.waitpid [] pid) with
  | Unix.Unix_error (Unix.EINTR, _, _) -> reap pid
  | Unix.Unix_error _ -> ()

let stop pid =
  if Hashtbl.mem children pid then begin
    Hashtbl.remove children pid;
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    reap pid
  end

let alive pid =
  Hashtbl.mem children pid
  &&
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> true
  | _ | (exception Unix.Unix_error _) ->
      Hashtbl.remove children pid;
      false

let stop_all () = List.iter stop (Hashtbl.fold (fun pid () acc -> pid :: acc) children [])

let spawn ~log args =
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let pid =
    Unix.create_process Sys.executable_name
      (Array.append [| Sys.executable_name |] args)
      Unix.stdin fd fd
  in
  Unix.close fd;
  Hashtbl.replace children pid ();
  pid

let deadline s = Clock.now_ns () +. (s *. 1e9)
let remove f = try Sys.remove f with Sys_error _ -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

(* Host warm-up: spin every CPU for [host_warmup_s] before the first
   server starts. On the 2-vCPU VM this benchmark was calibrated on, a
   VM that has been idle for a while runs the engine up to 1.5x slower
   (p99 3x higher) for its first ten-odd seconds of load; a few seconds
   of full load beforehand removes that. *)
let host_warmup_s = 3.0

let spin_until t = while Clock.now_ns () < t do () done

let warm_host ~log =
  let until = deadline host_warmup_s in
  let burners =
    List.init
      (Domain.recommended_domain_count () - 1)
      (fun _ -> spawn ~log [| "--burn"; Printf.sprintf "%.0f" until |])
  in
  spin_until until;
  List.iter stop burners

(* ------------------------------------------------------------------ *)
(* End-to-end metrics                                                  *)

type result = {
  spec : Spec.t;
  problems : string list;  (** correctness violations; empty = correct *)
  attempted : int;
  failed : int;
  metrics : (string * string * float * int) list;  (** name, unit, value, samples *)
  info : (string * J.t) list;
}

(* What the server process did in the window, from /proc. *)
type server_usage = { cpu_s : float; io_bytes : float; rss_mb : float }

(* The tail metric is p90. On the 2-vCPU VM this was calibrated on, the
   p99 of the open loops is set by a handful of slow fsyncs and host
   stalls per run; over ten runs it spread by 0.22-0.36 on
   smallbank-light, where p90 spread by 0.08-0.12. p99 and p99.9 are
   still reported, in the results file. *)
let e2e_metrics (g : Gen.t) ~w0 ~w1 ~usage ~setups =
  let window_s = (w1 -. w0) /. 1e9 in
  let replied_in_window i =
    let r = Gen.Vec.get g.Gen.reply i in
    r >= w0 && r < w1
  in
  let commits = Gen.count g (fun i -> Gen.Vec.get g.Gen.outcome i = Gen.Committed && replied_in_window i) in
  let lat = Gen.latencies g w0 w1 in
  let per_commit x = x /. float_of_int commits in
  [
    ("setup_s", "s", Pct.median setups, Array.length setups);
    ("tput_tps", "1/s", float_of_int commits /. window_s, commits);
    ("p50_ms", "ms", Pct.nearest_rank lat 50.0, Array.length lat);
    ("p90_ms", "ms", Pct.nearest_rank lat 90.0, Array.length lat);
    ("cpu_ms_per_ktxn", "ms", per_commit (usage.cpu_s *. 1e6), commits);
    ("rss_mb", "MB", usage.rss_mb, 1);
    ("disk_bytes_per_txn", "B", per_commit usage.io_bytes, commits);
  ]

(* ------------------------------------------------------------------ *)
(* One workload run                                                    *)

type measured = {
  g : Gen.t;
  w0 : float;
  w1 : float;
  usage : server_usage;
  client_cpu_s : float;
  setups : float array;
  recover_s : float;
  stats_json : string option;  (** traced runs: the server's Stats at the end *)
}

let run_workload ~(spec : Spec.t) ~seed ~seconds ~trace ~work_dir ~trace_dir =
  let dir = Filename.concat work_dir spec.Spec.name in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Array.iter (fun f -> remove (Filename.concat dir f)) (Sys.readdir dir);
  let file = Filename.concat dir in
  let sock = file "s.sock" and journal = file "journal" and dump = file "engine.dump" in
  let log = file "server.log" in
  let capacity = Spec.capacity spec ~run_s:(Spec.warmup_s +. seconds) in
  let w, _ = Spec.workload spec in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let start ~recover ~traced ~conns ~first_id =
    remove sock;
    let t0 = Clock.now_ns () in
    let pid =
      spawn ~log
        (Array.concat
           [
             [| "--child"; spec.Spec.name; "--listen"; sock; "--journal"; journal;
                "--capacity"; string_of_int capacity |];
             (if recover then [| "--recover" |] else [||]);
             (if traced then [| "--trace-out"; dump |] else [||]);
           ])
    in
    let until = deadline start_timeout_s in
    let fds =
      Array.init conns (fun _ -> Gen.connect sock ~deadline:until ~alive:(fun () -> alive pid))
    in
    let g = Gen.create ~traced ~seed w fds in
    if not (Gen.hello g ~first_id ~deadline:until) then failwith "no Hello_ok";
    (pid, g, (Clock.now_ns () -. t0) /. 1e9)
  in
  (* A restart after kill -9 must recover exactly the acknowledged
     state: its Stats digest is compared with the Bye_ok digest. *)
  let restart ~acked =
    let pid, g, s = start ~recover:true ~traced:false ~conns:1 ~first_id:(Spec.connections + 1) in
    let json = Gen.stats g ~deadline:(deadline reply_timeout_s) in
    Gen.close g;
    stop pid;
    (match Option.bind json (fun j -> J.member "state_digest" (J.of_string j)) with
    | None -> problem "restarted server reported no state digest"
    | Some d ->
        let r = Int64.of_string ("0x" ^ J.to_str d) in
        if Some r <> acked then
          problem "recovered digest %016Lx <> acknowledged %s" r
            (match acked with Some a -> Printf.sprintf "%016Lx" a | None -> "(none)"));
    s
  in
  let serving = ref None in
  let measure () =
    warm_host ~log;
    let fresh ~traced =
      remove journal;
      start ~recover:false ~traced ~conns:Spec.connections ~first_id:1
    in
    let trial_setups =
      repeat ~least:2 ~most:(setup_repeats - 1) ~budget_s:setup_budget_s (fun () ->
          let pid, g, s = fresh ~traced:false in
          Gen.close g;
          stop pid;
          s)
    in
    let pid, g, s = fresh ~traced:trace in
    serving := Some (pid, g);
    let setups = Array.append trial_setups [| s |] in
    let mode = spec.Spec.mode in
    let t_start = Clock.now_ns () in
    Gen.drive g mode ~start:t_start ~until:(t_start +. (Spec.warmup_s *. 1e9));
    let w0 = Clock.now_ns () in
    if trace then Unix.kill pid Sys.sigusr1;
    let cpu0 = Procfs.cpu_s pid and io0 = Procfs.write_bytes pid in
    let self0 = Procfs.self_cpu_s () in
    Gen.drive g mode ~start:t_start ~until:(w0 +. (seconds *. 1e9));
    let w1 = Clock.now_ns () in
    let usage =
      {
        cpu_s = Procfs.cpu_s pid -. cpu0;
        io_bytes = Procfs.write_bytes pid -. io0;
        rss_mb = Procfs.peak_rss_mb pid;
      }
    in
    let client_cpu_s = Procfs.self_cpu_s () -. self0 in
    (* A checkpointing server is killed just after a checkpoint lands
       (its file is renamed into place), so every restart replays the
       same short journal tail instead of a random share of the
       cadence. *)
    if spec.Spec.checkpoint_every > 0 then begin
      let ckpt () = try Some (Unix.stat (journal ^ ".ckpt")).Unix.st_ino with Unix.Unix_error _ -> None in
      let before = ckpt () and until = deadline checkpoint_timeout_s in
      while ckpt () = before && Clock.now_ns () < until do
        Gen.drive g mode ~start:t_start ~until:(deadline 0.005)
      done;
      if ckpt () = before then problem "no checkpoint within %.0f s" checkpoint_timeout_s
    end;
    let unanswered = Gen.drain g ~deadline:(deadline drain_timeout_s) in
    if unanswered > 0 then problem "%d calls unanswered after %.0f s" unanswered drain_timeout_s;
    let stats_json =
      if not trace then None
      else begin
        Unix.kill pid Sys.sigusr2;
        if not (Gen.wait_until g ~deadline:(deadline drain_timeout_s) (fun () -> Sys.file_exists dump))
        then failwith "engine dump not written";
        Gen.stats g ~deadline:(deadline reply_timeout_s)
      end
    in
    let acked =
      match Gen.bye g ~deadline:(deadline reply_timeout_s) with
      | Some d :: rest when List.for_all (( = ) (Some d)) rest -> Some d
      | _ ->
          problem "Bye_ok digests differ or are missing";
          None
    in
    if Array.exists (fun c -> not c.Gen.alive) g.Gen.conns then
      problem "connection dropped: the server died";
    Gen.close g;
    stop pid;
    let recover_s = restart ~acked in
    if g.Gen.protocol_errors > 0 then problem "%d protocol errors" g.Gen.protocol_errors;
    if g.Gen.server_errors > 0 then problem "%d Server_error replies" g.Gen.server_errors;
    if g.Gen.duplicates > 0 then problem "%d duplicate answers" g.Gen.duplicates;
    { g; w0; w1; usage; client_cpu_s; setups; recover_s; stats_json }
  in
  let outcome =
    try Some (measure ())
    with Failure msg | Sys_error msg | Unix.Unix_error (_, _, msg) ->
      problem "run aborted: %s" msg;
      None
  in
  stop_all ();
  let result =
    match outcome with
    | None ->
        (* Whatever was attempted failed, at least one operation. *)
        let attempted = match !serving with Some (_, g) -> max 1 (Gen.requests g) | None -> 1 in
        { spec; problems = List.rev !problems; attempted; failed = attempted; metrics = []; info = [] }
    | Some m ->
        let g = m.g in
        let n = Gen.requests g in
        let window_s = (m.w1 -. m.w0) /. 1e9 in
        let failed = Gen.count g (fun i -> not (Gen.answered g i)) in
        let replied =
          Gen.count g (fun i ->
              let r = Gen.Vec.get g.Gen.reply i in
              Gen.answered g i && r >= m.w0 && r < m.w1)
        in
        (match spec.Spec.mode with
        | Spec.Open rate when float_of_int replied /. window_s < 0.99 *. rate ->
            problem "backlog: %.0f answers/s against %.0f offered" (float_of_int replied /. window_s) rate
        | _ -> ());
        (* How late calls left is reported, not checked: sharing the two
           CPUs with the server's domains, the generator waits out batches
           and host scheduling, up to 42 ms at p99 on a contended host.
           Latency is timed from the due time, so it includes the wait. *)
        let late_ms_p99 = Pct.nearest_rank (Gen.lateness g m.w0 m.w1) 99.0 in
        let metrics = e2e_metrics g ~w0:m.w0 ~w1:m.w1 ~usage:m.usage ~setups:m.setups in
        let lat = Gen.latencies g m.w0 m.w1 in
        let floats a = J.List (Array.to_list (Array.map (fun s -> J.Float s) a)) in
        let info =
          [
            ("mode", J.String (Spec.mode_label spec));
            ("window_s", J.Float window_s);
            ("setup_s_runs", floats m.setups);
            ("recover_s", J.Float m.recover_s);
            ( "abort_frac",
              J.Float (float_of_int (Gen.count g (fun i -> Gen.Vec.get g.Gen.outcome i = Gen.Aborted)) /. float_of_int n) );
            ("failed_frac", J.Float (float_of_int failed /. float_of_int n));
            ("rejected", J.Int g.Gen.rejected);
            ("p99_ms", J.Float (Pct.nearest_rank lat 99.0));
            ("p999_ms", J.Float (Pct.nearest_rank lat 99.9));
            ("late_ms_p99", J.Float late_ms_p99);
            ("capacity", J.Int capacity);
          ]
        in
        let problems () = List.rev !problems in
        if not trace then { spec; problems = problems (); attempted = n; failed; metrics; info }
        else begin
          mkdir_p trace_dir;
          let e2e =
            ("p999_ms", Pct.nearest_rank lat 99.9)
            :: ("recover_s", m.recover_s)
            :: ("late_ms_p99", late_ms_p99)
            :: List.map (fun (name, _, v, _) -> (name, v)) metrics
          in
          let layers =
            Layers.compute ~spec ~g ~w0:m.w0 ~w1:m.w1 ~client_cpu_s:m.client_cpu_s ~dump
              ~stats_json:(Option.value m.stats_json ~default:"{}")
              ~journal ~e2e
              ~trace_file:(Filename.concat trace_dir ("trace-" ^ spec.Spec.name ^ ".json"))
          in
          (* The request decomposition must add up to what the client saw. *)
          let client_mean = Pct.mean lat in
          let req_sum =
            List.fold_left
              (fun acc (name, _, v) ->
                if List.mem name [ "req.pre_engine_ms.mean"; "req.engine_ms.mean"; "req.post_engine_ms.mean" ]
                then acc +. v
                else acc)
              0.0 layers
          in
          let req_sum_error = Float.abs (req_sum -. client_mean) /. client_mean in
          if not (req_sum_error <= 0.01) then
            problem "req.* means sum to %.3f ms, the client mean is %.3f ms" req_sum client_mean;
          let info =
            info
            @ [
                ("client_mean_ms", J.Float client_mean);
                ("req_mean_sum_ms", J.Float req_sum);
                ("req_sum_error", J.Float req_sum_error);
              ]
          in
          Out_channel.with_open_bin
            (Filename.concat trace_dir ("layers-" ^ spec.Spec.name ^ ".json"))
            (fun oc ->
              output_string oc
                (J.to_string
                   (J.Assoc
                      (("workload", J.String spec.Spec.name)
                      :: ("info", J.Assoc info)
                      :: List.map
                           (fun (name, unit_, v) ->
                             (name, J.Assoc [ ("value", J.Float v); ("unit", J.String unit_) ]))
                           layers))));
          remove dump;
          {
            spec;
            problems = problems ();
            attempted = n;
            failed;
            metrics = List.map (fun (name, u, v) -> (name, u, v, Array.length lat)) layers;
            info;
          }
        end
  in
  List.iter remove [ sock; journal; journal ^ ".ckpt" ];
  result

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)

let print_result r =
  Printf.printf "[%s] %s\n" r.spec.Spec.name (Spec.mode_label r.spec);
  List.iter
    (fun (name, unit_, v, k) -> Printf.printf "  %-40s %14.4f %-8s (n=%d)\n" name v unit_ k)
    r.metrics;
  List.iter (fun (k, v) -> Printf.printf "  %-40s %s\n" k (J.to_string v)) r.info;
  Printf.printf "  attempted %d, failed %d, %s\n" r.attempted r.failed
    (if r.problems = [] then "checks passed" else "CHECKS FAILED: " ^ String.concat "; " r.problems);
  flush stdout

(* The result line: one workload's metrics by name, or, over several
   workloads, "<workload>.<metric>". *)
let summary_line results =
  let name r m = if List.length results = 1 then m else r.spec.Spec.name ^ "." ^ m in
  J.to_string
    (J.Assoc
       [
         ("correct", J.Bool (List.for_all (fun r -> r.problems = []) results));
         ("attempted", J.Int (List.fold_left (fun acc r -> acc + r.attempted) 0 results));
         ("failed", J.Int (List.fold_left (fun acc r -> acc + r.failed) 0 results));
         ( "metrics",
           J.Assoc
             (List.concat_map
                (fun r ->
                  List.map
                    (fun (m, unit_, v, _) ->
                      (name r m, J.Assoc [ ("value", J.Float v); ("unit", J.String unit_) ]))
                    r.metrics)
                results) );
       ])

let write_out file ~seed ~seconds ~trace ~work_dir results =
  let result_json r =
    J.Assoc
      [
        ("workload", J.String r.spec.Spec.name);
        ("why", J.String r.spec.Spec.why);
        ("correct", J.Bool (r.problems = []));
        ("problems", J.List (List.map (fun p -> J.String p) r.problems));
        ("attempted", J.Int r.attempted);
        ("failed", J.Int r.failed);
        ( "metrics",
          J.Assoc
            (List.map
               (fun (name, unit_, v, k) ->
                 ( name,
                   J.Assoc [ ("value", J.Float v); ("unit", J.String unit_); ("samples", J.Int k) ] ))
               r.metrics) );
        ("info", J.Assoc r.info);
      ]
  in
  let json =
    J.Assoc
      [
        ("host_cpus", J.Int (Domain.recommended_domain_count ()));
        ("ocaml_version", J.String Sys.ocaml_version);
        ("journal_fs", J.String (Procfs.fs_type work_dir));
        ("seed", J.Int seed);
        ("seconds", J.Float seconds);
        ("warmup_s", J.Float Spec.warmup_s);
        ("trace", J.Bool trace);
        ( "server",
          J.Assoc
            [
              ("engine", J.String Spec.engine);
              ("jobs", J.Int Spec.jobs);
              ("connections", J.Int Spec.connections);
              ("batch_target", J.Int Spec.batch_target);
              ("deadline_ticks", J.Int Spec.deadline_ticks);
              ("tick_interval_s", J.Float Spec.tick_interval_s);
              ("max_pending", J.Int Spec.max_pending);
              ("journal_mb", J.Int Spec.journal_mb);
              ("fsync", J.String "every batch");
            ] );
        ("results", J.List (List.map result_json results));
      ]
  in
  mkdir_p (Filename.dirname file);
  Out_channel.with_open_bin file (fun oc -> output_string oc (J.to_string json ^ "\n"))

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)

let bench workloads ~seed ~seconds ~trace ~work_dir ~trace_dir ~out =
  let specs =
    match workloads with
    | [] -> Spec.all
    | names ->
        List.map
          (fun n ->
            match Spec.find n with
            | Some s -> s
            | None ->
                Printf.eprintf "unknown workload %S (known: %s)\n" n
                  (String.concat ", " (List.map (fun s -> s.Spec.name) Spec.all));
                exit 2)
          names
  in
  if seconds <= 0.0 then begin
    prerr_endline "--seconds must be positive";
    exit 2
  end;
  mkdir_p work_dir;
  Printf.printf "servebench: %d connections, --jobs %d, journal on %s, host_cpus %d\n%!"
    Spec.connections Spec.jobs (Procfs.fs_type work_dir) (Domain.recommended_domain_count ());
  let results =
    List.map
      (fun spec ->
        let r = run_workload ~spec ~seed ~seconds ~trace ~work_dir ~trace_dir in
        print_result r;
        r)
      specs
  in
  write_out out ~seed ~seconds ~trace ~work_dir results;
  print_endline (summary_line results);
  if List.exists (fun r -> r.problems <> []) results then exit 1

let () =
  let open Cmdliner in
  let workloads =
    Arg.(
      value & opt_all string []
      & info [ "workload" ] ~docv:"NAME"
          ~doc:
            "Run workload $(docv) (repeatable; default: ycsb-large, smallbank-light, tpcc and \
             smallbank-ckpt).")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Seed of the generated call streams.")
  in
  let seconds =
    Arg.(value & opt float 10.0 & info [ "seconds" ] ~docv:"S" ~doc:"Length of the measured window.")
  in
  let trace =
    Arg.(
      value & opt int 0
      & info [ "trace" ] ~docv:"0|1"
          ~doc:"1: instrument the layers and report per-layer metrics instead of end-to-end ones.")
  in
  let work_dir =
    Arg.(
      value & opt string "_build/servebench"
      & info [ "work-dir" ] ~docv:"DIR" ~doc:"Sockets, journals, server logs and results.")
  in
  let trace_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-dir" ] ~docv:"DIR"
          ~doc:
            "Where --trace 1 writes layers-<workload>.json and trace-<workload>.json (default \
             WORK-DIR/trace).")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"Results JSON (default WORK-DIR/serve.json).")
  in
  (* Internal modes: the bench starts itself as a server child or as a
     CPU burner for the host warm-up. *)
  let child = Arg.(value & opt (some string) None & info [ "child" ] ~doc:"(internal)") in
  let listen = Arg.(value & opt string "" & info [ "listen" ] ~doc:"(internal)") in
  let journal = Arg.(value & opt string "" & info [ "journal" ] ~doc:"(internal)") in
  let capacity = Arg.(value & opt int 200_000 & info [ "capacity" ] ~doc:"(internal)") in
  let recover = Arg.(value & flag & info [ "recover" ] ~doc:"(internal)") in
  let trace_out = Arg.(value & opt (some string) None & info [ "trace-out" ] ~doc:"(internal)") in
  let burn = Arg.(value & opt (some float) None & info [ "burn" ] ~doc:"(internal)") in
  let main workloads seed seconds trace work_dir trace_dir out child listen journal capacity recover
      trace_out burn =
    match (child, burn) with
    | _, Some until -> spin_until until
    | Some name, None -> (
        match Spec.find name with
        | Some spec -> Child.run ~spec ~listen ~journal ~capacity ~recover ~trace_out
        | None -> failwith ("unknown workload " ^ name))
    | None, None ->
        let stop_signal = Sys.Signal_handle (fun _ -> exit 2) in
        Sys.set_signal Sys.sigint stop_signal;
        Sys.set_signal Sys.sigterm stop_signal;
        Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
        at_exit stop_all;
        let trace_dir = Option.value trace_dir ~default:(Filename.concat work_dir "trace") in
        let out = Option.value out ~default:(Filename.concat work_dir "serve.json") in
        bench workloads ~seed ~seconds ~trace:(trace = 1) ~work_dir ~trace_dir ~out
  in
  let cmd =
    Cmd.v
      (Cmd.info "servebench" ~doc:"Served end-to-end benchmark of the journaled NVCaracal server")
      Term.(
        const main $ workloads $ seed $ seconds $ trace $ work_dir $ trace_dir $ out
        $ child $ listen $ journal $ capacity $ recover $ trace_out $ burn)
  in
  exit (Cmd.eval cmd)
