open Cmdliner
module W = Nv_workloads.Workload

let workload =
  let doc = "Benchmark: ycsb, ycsb-smallrow, smallbank, or tpcc." in
  Arg.(value & opt string "ycsb" & info [ "w"; "workload" ] ~docv:"NAME" ~doc)

let contention =
  let doc = "Contention level: low, med (YCSB only), or high." in
  Arg.(value & opt string "low" & info [ "c"; "contention" ] ~docv:"LEVEL" ~doc)

let epochs =
  Arg.(value & opt int 8 & info [ "epochs" ] ~docv:"N" ~doc:"Number of epochs to run.")

let txns =
  Arg.(value & opt int 1000 & info [ "txns" ] ~docv:"N" ~doc:"Transactions per epoch.")

let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Workload seed.")

(* servebench's server child still calls this with 1; the engine runs
   on one domain. *)
let set_jobs jobs = if jobs <> 1 then invalid_arg "Cli.set_jobs: the engine runs on one domain"

let engine =
  let doc =
    "Engine or design variant: nvcaracal, all-nvmm, hybrid, no-logging, all-dram, wal, aria, \
     or zen."
  in
  Arg.(value & opt string "nvcaracal" & info [ "e"; "engine" ] ~docv:"ENGINE" ~doc)

let trace =
  let doc = "Record simulated-time spans and write a Perfetto/Chrome trace to $(docv)." in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let metrics =
  let doc = "Write per-epoch metric snapshots (JSON lines) to $(docv)." in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

let trace_wall =
  let doc =
    "With $(b,--trace): also capture the host monotonic clock on every span, exported as a \
     second \"(wall time)\" clock domain next to the simulated one. Wall readings vary run to \
     run — leave this off when comparing traces byte for byte."
  in
  Arg.(value & flag & info [ "trace-wall" ] ~doc)

let profile =
  let doc =
    "Profile where host time and allocation actually go: per-phase wall time and GC word \
     deltas, printed as a table after the run."
  in
  Arg.(value & flag & info [ "profile" ] ~doc)

let profile_out =
  let doc = "Write the profile snapshot (phases, slow epochs, domains) as JSON to $(docv)." in
  Arg.(value & opt (some string) None & info [ "profile-out" ] ~docv:"FILE" ~doc)

let slow_epoch_ms =
  let doc =
    "Log any epoch whose wall time exceeds $(docv) milliseconds, with its per-phase \
     breakdown (implies profiling)."
  in
  Arg.(value & opt (some float) None & info [ "slow-epoch-ms" ] ~docv:"MS" ~doc)

let listen =
  let doc =
    "Serving endpoint: a Unix-domain socket path, or $(b,HOST:PORT) / $(b,PORT) for TCP."
  in
  Arg.(value & opt string "/tmp/nvdb.sock" & info [ "l"; "listen" ] ~docv:"ADDR" ~doc)

let shards =
  let doc =
    "Serve as an $(docv)-shard cluster: spawn $(docv) shard engine processes, hash-route \
     every key, and run each batch as one epoch-fenced two-round transaction across them. \
     1 (default) is classic single-shard serving."
  in
  Arg.(value & opt int 1 & info [ "shards" ] ~docv:"N" ~doc)

let shard_id =
  let doc =
    "(internal) Run as shard $(docv) of a $(b,--shards) cluster, speaking the shard plane \
     on $(b,--listen). Routers spawn these; invoking one by hand is only useful for \
     debugging."
  in
  Arg.(value & opt (some int) None & info [ "shard-id" ] ~docv:"I" ~doc)

let router =
  let doc =
    "Address of the cluster router to drive (overrides $(b,--listen)); clients of a routed \
     cluster talk to the router only."
  in
  Arg.(value & opt (some string) None & info [ "router" ] ~docv:"ADDR" ~doc)

let parse_address s =
  match String.rindex_opt s ':' with
  | Some i ->
      let host = String.sub s 0 i in
      let port = String.sub s (i + 1) (String.length s - i - 1) in
      (match int_of_string_opt port with
      | Some p -> `Tcp ((if host = "" then "127.0.0.1" else host), p)
      | None -> failwith (Printf.sprintf "bad port in address %S" s))
  | None -> (
      match int_of_string_opt s with
      | Some p -> `Tcp ("127.0.0.1", p)
      | None -> `Unix s)

let resolve_engine name =
  match Engine.of_string name with
  | Some spec -> spec
  | None -> failwith (Printf.sprintf "unknown engine %S" name)

let resolve_workload name contention =
  let level3 =
    match contention with
    | "low" -> `Low
    | "med" | "medium" -> `Medium
    | "high" -> `High
    | other -> failwith (Printf.sprintf "unknown contention %S" other)
  in
  let level2 = match level3 with `Medium -> `High | (`Low | `High) as l -> l in
  match name with
  | "ycsb" -> (Nv_workloads.Ycsb.(make (with_contention level3 default)), 0 (* insert growth *))
  (* A few-hundred-row YCSB for fast process-restart cycles: the chaos
     harness cold-starts (and re-bulk-loads) the server dozens of times
     per campaign, so load time dominates everything else. *)
  | "ycsb-tiny" ->
      ( Nv_workloads.Ycsb.(
          make
            (with_contention level3
               { default with rows = 512; value_size = 64; update_bytes = 64; hot_rows = 32;
                 ops_per_txn = 4 })),
        0 )
  | "ycsb-smallrow" -> (Nv_workloads.Ycsb.(make (smallrow (with_contention level3 default))), 0)
  | "smallbank" -> (Nv_workloads.Smallbank.(make (with_contention level2 default)), 0)
  | "tpcc" -> (Nv_workloads.Tpcc.(make (with_contention level2 default)), 15)
  | other -> failwith (Printf.sprintf "unknown workload %S" other)

type obs = {
  tracer : Nv_obs.Tracer.t option;
  metrics : Nv_obs.Metrics.t option;
  profile : Nv_obs.Profile.t option;
  flush : unit -> unit;
}

(* Build the sinks requested on the command line; [flush] writes the
   files / prints the tables once the run completed. *)
let observability ?(prog = "nvdb") ?(ppf = Format.std_formatter) ?(trace_wall = false)
    ?(profile = false) ?profile_out ?slow_epoch_ms ~trace:trace_file ~metrics:metrics_file () =
  let tracer = match trace_file with None -> None | Some _ -> Some (Nv_obs.Tracer.create ()) in
  (match tracer with
  | Some tr when trace_wall -> Nv_obs.Tracer.set_wall_clock tr (Some Nv_util.Clock.now_ns)
  | _ -> ());
  let metrics =
    match metrics_file with None -> None | Some _ -> Some (Nv_obs.Metrics.create ())
  in
  let profiler =
    if profile || profile_out <> None || slow_epoch_ms <> None then begin
      let slow_threshold_ns = Option.map (fun ms -> ms *. 1e6) slow_epoch_ms in
      let on_slow (se : Nv_obs.Profile.slow_epoch) =
        Format.eprintf "%s: slow epoch %d: %.2f ms wall (%s)@." prog se.Nv_obs.Profile.epoch
          (se.Nv_obs.Profile.wall_ns /. 1e6)
          (String.concat ", "
             (List.map
                (fun (name, ns) -> Printf.sprintf "%s %.2f ms" name (ns /. 1e6))
                se.Nv_obs.Profile.phases))
      in
      Some (Nv_obs.Profile.create ?slow_threshold_ns ~on_slow ())
    end
    else None
  in
  let write what f file =
    try f file
    with Sys_error msg ->
      Format.eprintf "%s: cannot write %s file: %s@." prog what msg;
      exit 1
  in
  let flush () =
    (match (trace_file, tracer) with
    | Some file, Some tr ->
        write "trace" (Nv_obs.Trace_export.write_file tr) file;
        Format.fprintf ppf "wrote %d trace events to %s (open in ui.perfetto.dev)@."
          (Nv_obs.Tracer.event_count tr) file
    | _ -> ());
    (match (metrics_file, metrics) with
    | Some file, Some m ->
        write "metrics" (Nv_obs.Metrics.write_jsonl m) file;
        Format.fprintf ppf "wrote %d epoch metric records to %s@."
          (List.length (Nv_obs.Metrics.records m))
          file
    | _ -> ());
    match profiler with
    | None -> ()
    | Some p ->
        if profile then Format.fprintf ppf "@,%a@." Nv_obs.Profile.pp_table p;
        (match profile_out with
        | Some file ->
            write "profile"
              (fun file ->
                let oc = open_out file in
                Fun.protect
                  ~finally:(fun () -> close_out oc)
                  (fun () ->
                    output_string oc (Nv_obs.Jsonx.to_string (Nv_obs.Profile.to_json p));
                    output_char oc '\n'))
              file;
            Format.fprintf ppf "wrote profile snapshot to %s@." file
        | None -> ())
  in
  { tracer; metrics; profile = profiler; flush }
