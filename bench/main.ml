(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (simulated-time results), plus an optional Bechamel
   microbenchmark suite measuring the host-level cost of the hot
   engine building blocks.

   Usage:
     dune exec bench/main.exe                 # all tables and figures
     dune exec bench/main.exe -- --only fig7  # one experiment
     dune exec bench/main.exe -- --list       # list experiment ids
     dune exec bench/main.exe -- --micro      # Bechamel microbenches *)

let ppf = Format.std_formatter

(* Host wall-clock from the monotonic clock (immune to NTP steps and
   clock slews mid-run, unlike [Unix.gettimeofday]). *)
let wall_now () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

let list_experiments () =
  List.iter
    (fun (id, desc, _) -> Format.fprintf ppf "%-8s %s@." id desc)
    Nv_harness.Experiments.all

(* The shared observability sinks behind --trace/--metrics/--profile
   (Nv_harness.Cli), installed into the Runner defaults so every
   experiment reports into them; the returned flush writes the
   collected data out after the selected experiments ran. *)
let setup_observability ~trace_file ~metrics_file ~trace_wall ~profile ~profile_out
    ~slow_epoch_ms =
  let o =
    Nv_harness.Cli.observability ~prog:"nvcaracal-bench" ~trace_wall ~profile ?profile_out
      ?slow_epoch_ms ~trace:trace_file ~metrics:metrics_file ()
  in
  (match o.Nv_harness.Cli.tracer with
  | Some tr -> Nv_harness.Runner.default_tracer := tr
  | None -> ());
  (match o.Nv_harness.Cli.metrics with
  | Some m -> Nv_harness.Runner.default_metrics := m
  | None -> ());
  (match o.Nv_harness.Cli.profile with
  | Some p -> Nv_harness.Runner.default_profile := p
  | None -> ());
  o.Nv_harness.Cli.flush

let run_experiments only =
  let selected =
    match only with
    | [] -> Nv_harness.Experiments.all
    | ids ->
        List.filter_map
          (fun id ->
            match List.find_opt (fun (i, _, _) -> i = id) Nv_harness.Experiments.all with
            | Some e -> Some e
            | None ->
                Format.fprintf ppf "unknown experiment %S (try --list)@." id;
                exit 2)
          ids
  in
  Format.fprintf ppf
    "NVCaracal reproduction — simulated-time results (scaled datasets; see DESIGN.md)@.";
  List.iter
    (fun (id, desc, run) ->
      Format.fprintf ppf "@.[%s] %s@." id desc;
      let t0 = wall_now () in
      run ppf;
      Format.fprintf ppf "(%s took %.1fs wall)@." id (wall_now () -. t0))
    selected

(* Write the headline fig5/fig8 metrics as a JSON snapshot; the
   committed copy (BENCH_pr3.json) documents the throughputs a clean
   checkout reproduces, since all numbers are simulated-time and
   deterministic. *)
let write_snapshot file =
  let metrics = Nv_harness.Experiments.snapshot () in
  let oc = open_out file in
  output_string oc "{\n";
  List.iteri
    (fun i (name, v) ->
      Printf.fprintf oc "  %S: %.3f%s\n" name v
        (if i = List.length metrics - 1 then "" else ","))
    metrics;
  output_string oc "}\n";
  close_out oc;
  Format.fprintf ppf "wrote %d benchmark metrics to %s@." (List.length metrics) file

(* ------------------------------------------------------------------ *)
(* Wall-clock scaling of the domain pool: run the headline workloads
   at --jobs 1, 2 and 4 and record host wall-clock seconds. The
   committed copy (BENCH_pr8.json) documents the scaling a clean
   checkout reproduces. Simulated-time results are byte-identical at
   any width, so committed counts and simulated time are asserted
   equal across widths as a sanity check — and every workload must
   report wide_execs > 0 at jobs >= 2 with its default configuration:
   SmallBank (undeclared reads) and TPC-C (generated inserts, dynamic
   write sets, deletes, counters) used to gate out of the wide path
   and must not silently do so again.

   Each width reports its own speedup over jobs=1; the headline is the
   widest width the host has cores for, since a width past
   [host_cpus] measures oversubscription, not scaling. *)

let parallel_snapshot file =
  let module W = Nv_workloads.Workload in
  let module Db = Nvcaracal.Db in
  let module Engine = Nv_harness.Engine in
  let widths = [ 1; 2; 4 ] in
  let run_once (w : W.t) (s : Engine.setup) jobs =
    let saved = !Engine.default_jobs in
    Engine.default_jobs := jobs;
    Fun.protect ~finally:(fun () -> Engine.default_jobs := saved) @@ fun () ->
    let config = Engine.caracal_config s w (Engine.spec (Engine.Caracal Nvcaracal.Config.Nvcaracal)) in
    let db = Db.create ~config ~tables:w.W.tables () in
    Db.bulk_load db (w.W.load ());
    let rng = Nv_util.Rng.create s.Engine.seed in
    let batches = Array.init s.Engine.epochs (fun _ -> w.W.gen_batch rng s.Engine.epoch_txns) in
    let t0 = wall_now () in
    Array.iter (fun b -> ignore (Db.run_epoch db b)) batches;
    let wall = wall_now () -. t0 in
    (wall, Db.committed_txns db, Db.total_time_ns db, (Db.introspect db).wide_execs)
  in
  let cases =
    [
      ( "ycsb-default",
        Nv_workloads.Ycsb.make Nv_workloads.Ycsb.default,
        Nv_harness.Runner.setup ~epochs:6 ~epoch_txns:6000 () );
      ( "smallbank",
        Nv_workloads.Smallbank.make Nv_workloads.Smallbank.default,
        Nv_harness.Runner.setup ~epochs:8 ~epoch_txns:6000 ~row_size:128 () );
      ( "tpcc",
        Nv_workloads.Tpcc.make Nv_workloads.Tpcc.default,
        Nv_harness.Runner.setup ~epochs:6 ~epoch_txns:1500 ~insert_growth:15 () );
    ]
  in
  let host_cpus = Domain.recommended_domain_count () in
  let headline_jobs =
    List.fold_left (fun acc j -> if j <= host_cpus then max acc j else acc) 1 widths
  in
  let rows =
    List.map
      (fun (name, w, s) ->
        let runs = List.map (fun jobs -> (jobs, run_once w s jobs)) widths in
        let _, (_, c1, sim1, _) = List.hd runs in
        List.iter
          (fun (jobs, (_, c, sim, wide)) ->
            if c <> c1 || sim <> sim1 then (
              Format.eprintf
                "nvcaracal-bench: %s diverged at jobs=%d (%d vs %d txns, %g vs %g ns)@." name
                jobs c c1 sim sim1;
              exit 1);
            if jobs > 1 && wide = 0 then (
              Format.eprintf
                "nvcaracal-bench: %s never ran wide at jobs=%d — a serial gate has regressed@."
                name jobs;
              exit 1))
          runs;
        let wall jobs = let w, _, _, _ = List.assoc jobs runs in w in
        let wide jobs = let _, _, _, n = List.assoc jobs runs in n in
        Format.fprintf ppf
          "%-14s jobs=1 %6.2fs   jobs=2 %6.2fs   jobs=4 %6.2fs   speedup x2 %.2fx  x4 %.2fx   \
           wide epochs %d/%d@."
          name (wall 1) (wall 2) (wall 4)
          (wall 1 /. wall 2) (wall 1 /. wall 4)
          (wide 2) (wide 4);
        (name, runs, c1))
      cases
  in
  Format.fprintf ppf "headline speedup: jobs=%d (the widest width within host_cpus = %d)@."
    headline_jobs host_cpus;
  let oc = open_out file in
  Printf.fprintf oc
    "{\n  \"jobs_compared\": [1, 2, 4],\n  \"host_cpus\": %d,\n  \"headline_jobs\": %d,\n  \
     \"workloads\": [\n"
    host_cpus headline_jobs;
  List.iteri
    (fun i (name, runs, committed) ->
      let wall jobs = let w, _, _, _ = List.assoc jobs runs in w in
      let wide jobs = let _, _, _, n = List.assoc jobs runs in n in
      Printf.fprintf oc
        "    { \"name\": %S, \"jobs1_wall_s\": %.3f, \"jobs2_wall_s\": %.3f, \
         \"jobs4_wall_s\": %.3f, \"speedup_jobs2\": %.2f, \"speedup_jobs4\": %.2f, \
         \"speedup\": %.2f, \"committed_txns\": %d, \
         \"wide_epochs_jobs2\": %d, \"wide_epochs_jobs4\": %d }%s\n"
        name (wall 1) (wall 2) (wall 4)
        (wall 1 /. wall 2) (wall 1 /. wall 4)
        (wall 1 /. wall headline_jobs)
        committed (wide 2) (wide 4)
        (if i = List.length rows - 1 then "" else ",")
    )
    rows;
  output_string oc "  ]\n}\n";
  close_out oc;
  Format.fprintf ppf "wrote %d workload scaling records to %s@." (List.length rows) file

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks: host-level costs of hot primitives.       *)

let micro () =
  let open Bechamel in
  let stats () = Nv_nvmm.Stats.create Nv_nvmm.Memspec.default in
  let pmem_write_cs =
    let p = Nv_nvmm.Pmem.create ~size:(1 lsl 20) () in
    let s = stats () in
    let i = ref 0 in
    Test.make ~name:"pmem.set_i64+flush (crash-safe)"
      (Staged.stage (fun () ->
           let off = !i land 0xFFFF8 in
           incr i;
           Nv_nvmm.Pmem.set_i64 p off 42L;
           Nv_nvmm.Pmem.flush p s ~off ~len:8;
           (* Periodic fence so dirty-line state doesn't grow without
              bound across iterations. *)
           if !i land 0xFFF = 0 then Nv_nvmm.Pmem.fence p s))
  in
  (* One value write's persistence cycle on a crash-safe region: 16
     dirty lines tracked, captured by clwb and retired by the fence. *)
  let pmem_blit_cs =
    let p = Nv_nvmm.Pmem.create ~size:(1 lsl 20) () in
    let s = stats () in
    let src = Bytes.make 1000 'v' in
    let i = ref 0 in
    Test.make ~name:"pmem.blit 1000 B+flush+fence (crash-safe)"
      (Staged.stage (fun () ->
           let off = (!i land 0x3FF) * 1024 in
           incr i;
           Nv_nvmm.Pmem.blit_to p ~src ~src_off:0 ~dst_off:off ~len:1000;
           Nv_nvmm.Pmem.flush p s ~off ~len:1000;
           Nv_nvmm.Pmem.fence p s))
  in
  let hash_index =
    let h = Nv_index.Hash_index.create ~initial_capacity:(1 lsl 16) () in
    let s = stats () in
    for k = 0 to 40_000 do
      Nv_index.Hash_index.insert h s (Int64.of_int k) k
    done;
    let i = ref 0 in
    Test.make ~name:"hash_index.find"
      (Staged.stage (fun () ->
           incr i;
           ignore (Nv_index.Hash_index.find h s (Int64.of_int (!i mod 40_000)))))
  in
  let ordered_index =
    let o = Nv_index.Ordered_index.create () in
    let s = stats () in
    for k = 0 to 40_000 do
      Nv_index.Ordered_index.insert o s (Int64.of_int k) k
    done;
    let i = ref 0 in
    Test.make ~name:"ordered_index.find"
      (Staged.stage (fun () ->
           incr i;
           ignore (Nv_index.Ordered_index.find o s (Int64.of_int (!i mod 40_000)))))
  in
  let version_append =
    let s = stats () in
    let store = Nvcaracal.Version_array.create_store ~nvmm_resident:false () in
    Test.make ~name:"version_array.append x16"
      (Staged.stage (fun () ->
           Nvcaracal.Version_array.reset store;
           let va = Nvcaracal.Version_array.create store in
           for seq = 0 to 15 do
             Nvcaracal.Version_array.append store va s (Nvcaracal.Sid.make ~epoch:2 ~seq)
           done))
  in
  let btree_index =
    let b = Nv_index.Btree_index.create () in
    let s = stats () in
    for k = 0 to 40_000 do
      Nv_index.Btree_index.insert b s (Int64.of_int k) k
    done;
    let i = ref 0 in
    Test.make ~name:"btree_index.find"
      (Staged.stage (fun () ->
           incr i;
           ignore (Nv_index.Btree_index.find b s (Int64.of_int (!i mod 40_000)))))
  in
  let zipf =
    let z = Nv_util.Zipf.create ~n:1_000_000 ~theta:0.99 in
    let rng = Nv_util.Rng.create 7 in
    Test.make ~name:"zipf.sample" (Staged.stage (fun () -> ignore (Nv_util.Zipf.sample z rng)))
  in
  let crc32c size len =
    let b = Bytes.init len (fun i -> Char.chr (i land 0xFF)) in
    Test.make ~name:("crc32c " ^ size)
      (Staged.stage (fun () -> ignore (Nv_util.Crc32c.bytes b 0 len)))
  in
  (* The final write of a 1000-byte pool value: SID, pointer, then the
     slot checksum over the value in place, on 1024 rows in turn with a
     fence per round (one epoch's worth of dirty header lines). *)
  let prow_set_version =
    let rows = 1024 and row_size = 256 in
    let values = rows * row_size in
    let p = Nv_nvmm.Pmem.create ~size:(values + (rows * 1024)) () in
    let s = stats () in
    for r = 0 to rows - 1 do
      Nv_storage.Prow.init p s ~base:(r * row_size) ~key:(Int64.of_int r) ~table:0;
      Nv_nvmm.Pmem.fill p ~off:(values + (r * 1024)) ~len:1000 (Char.chr (r land 0xFF))
    done;
    Nv_nvmm.Pmem.fence p s;
    let i = ref 0 in
    Test.make ~name:"prow.set_version 1000 B (crash-safe)"
      (Staged.stage (fun () ->
           let r = !i land (rows - 1) in
           incr i;
           Nv_storage.Prow.set_version p s ~base:(r * row_size) ~slot:`V2
             ~sid:!i
             ~ptr:(Nv_storage.Vptr.pool ~off:(values + (r * 1024)) ~len:1000)
             ();
           if r = rows - 1 then Nv_nvmm.Pmem.fence p s))
  in
  let tests =
    Test.make_grouped ~name:"nvcaracal-micro"
      [
        pmem_write_cs;
        pmem_blit_cs;
        hash_index;
        ordered_index;
        btree_index;
        version_append;
        zipf;
        crc32c "1 KiB" 1024;
        crc32c "1 MiB" (1 lsl 20);
        prow_set_version;
      ]
  in
  let benchmark () =
    let instances = Toolkit.Instance.[ monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
    let raw = Benchmark.all cfg instances tests in
    List.map (fun i -> Analyze.all (Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]) i raw)
      instances
    |> Analyze.merge (Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]) instances
  in
  let results = benchmark () in
  Hashtbl.iter
    (fun measure tbl ->
      Format.fprintf ppf "@.%s:@." measure;
      Hashtbl.iter
        (fun name result ->
          match Bechamel.Analyze.OLS.estimates result with
          | Some [ est ] -> Format.fprintf ppf "  %-32s %10.1f ns/run@." name est
          | _ -> Format.fprintf ppf "  %-32s (no estimate)@." name)
        tbl)
    results

(* ------------------------------------------------------------------ *)

let () =
  let open Cmdliner in
  let only =
    Arg.(value & opt_all string [] & info [ "only" ] ~docv:"ID" ~doc:"Run only experiment $(docv).")
  in
  let list_flag = Arg.(value & flag & info [ "list" ] ~doc:"List experiment ids and exit.") in
  let micro_flag =
    Arg.(value & flag & info [ "micro" ] ~doc:"Run Bechamel microbenchmarks instead.")
  in
  let trace_file = Nv_harness.Cli.trace in
  let metrics_file = Nv_harness.Cli.metrics in
  let snapshot_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "snapshot" ] ~docv:"FILE"
          ~doc:
            "Write the headline fig5/fig8 metrics (deterministic simulated-time numbers) as \
             JSON to $(docv) and exit.")
  in
  let parallel_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "parallel-snapshot" ] ~docv:"FILE"
          ~doc:
            "Measure wall-clock scaling of the engine's domain pool (jobs 1 vs 4 on the \
             headline workloads), write the results as JSON to $(docv) and exit.")
  in
  let jobs_arg = Nv_harness.Cli.jobs in
  let main only list_it micro_it trace_file metrics_file trace_wall profile profile_out
      slow_epoch_ms snapshot_file parallel_file jobs =
    Nv_harness.Cli.set_jobs jobs;
    if list_it then list_experiments ()
    else if micro_it then micro ()
    else
      match (snapshot_file, parallel_file) with
      | Some file, _ -> write_snapshot file
      | None, Some file -> parallel_snapshot file
      | None, None ->
          let flush_obs =
            setup_observability ~trace_file ~metrics_file ~trace_wall ~profile ~profile_out
              ~slow_epoch_ms
          in
          run_experiments only;
          flush_obs ()
  in
  let cmd =
    Cmd.v
      (Cmd.info "nvcaracal-bench" ~doc:"Regenerate the paper's tables and figures")
      Term.(
        const main $ only $ list_flag $ micro_flag $ trace_file $ metrics_file
        $ Nv_harness.Cli.trace_wall $ Nv_harness.Cli.profile $ Nv_harness.Cli.profile_out
        $ Nv_harness.Cli.slow_epoch_ms $ snapshot_file $ parallel_file $ jobs_arg)
  in
  exit (Cmd.eval cmd)
