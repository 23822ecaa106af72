(* Harness tests: the runner produces sane measurements at small scale
   and the headline orderings of the paper hold directionally. *)

module Runner = Nv_harness.Runner
module Config = Nvcaracal.Config
module Ycsb = Nv_workloads.Ycsb
module Smallbank = Nv_workloads.Smallbank
module Tpcc = Nv_workloads.Tpcc

let tiny_ycsb level =
  Ycsb.make
    (Ycsb.with_contention level { Ycsb.default with Ycsb.rows = 2000; hot_rows = 64 })

let tiny_smallbank level =
  Smallbank.make
    (Smallbank.with_contention level { Smallbank.default with Smallbank.customers = 2000 })

let setup = Runner.setup ~epochs:4 ~epoch_txns:300 ()

(* The engine runs on one domain; servebench's server child still asks
   for a width, and only 1 is accepted. *)
let test_set_jobs_one_only () =
  Nv_harness.Cli.set_jobs 1;
  List.iter
    (fun jobs ->
      match Nv_harness.Cli.set_jobs jobs with
      | () -> Alcotest.failf "set_jobs %d accepted" jobs
      | exception Invalid_argument _ -> ())
    [ 0; 2; 4; -1 ]

let test_runner_basics () =
  let r = Runner.run_nvcaracal setup (tiny_ycsb `Medium) ~variant:Config.Nvcaracal () in
  Alcotest.(check int) "txns" 1200 r.Runner.txns;
  Alcotest.(check int) "all committed" 1200 r.Runner.committed;
  Alcotest.(check bool) "time advanced" true (r.Runner.sim_seconds > 0.0);
  Alcotest.(check bool) "throughput positive" true (r.Runner.throughput > 0.0);
  Alcotest.(check bool) "logging recorded" true (r.Runner.log_bytes > 0);
  Alcotest.(check int) "epoch latencies" 4 (Nv_util.Histogram.count r.Runner.epoch_latency)

let test_variant_ordering () =
  let w = tiny_ycsb `High in
  let run variant = (Runner.run_nvcaracal setup w ~variant ()).Runner.throughput in
  let nv = run Config.Nvcaracal in
  let all_nvmm = run Config.All_nvmm in
  let all_dram = run Config.All_dram in
  Alcotest.(check bool) "all-NVMM slowest" true (all_nvmm < nv);
  Alcotest.(check bool) "all-DRAM fastest" true (nv < all_dram)

let test_zen_crossover () =
  (* Directional check of the Figure 5 shape at tiny scale: NVCaracal's
     advantage over Zen must grow with contention. *)
  let ratio level =
    let w = tiny_ycsb level in
    let nv = Runner.run_nvcaracal setup w ~variant:Config.Nvcaracal () in
    let zen = Runner.run_zen setup w () in
    nv.Runner.throughput /. zen.Runner.throughput
  in
  let low = ratio `Low and high = ratio `High in
  Alcotest.(check bool)
    (Printf.sprintf "advantage grows with contention (%.2f -> %.2f)" low high)
    true (high > low)

let test_transient_fraction_tracks_contention () =
  let frac level =
    (Runner.run_nvcaracal setup (tiny_ycsb level) ~variant:Config.Nvcaracal ())
      .Runner.transient_frac
  in
  Alcotest.(check bool) "low < high" true (frac `Low < frac `High)

let test_logging_overhead_sign () =
  let w = tiny_smallbank `Low in
  let nv = Runner.run_nvcaracal setup w ~variant:Config.Nvcaracal () in
  let nolog = Runner.run_nvcaracal setup w ~variant:Config.No_logging () in
  Alcotest.(check bool) "logging costs something" true
    (nolog.Runner.throughput >= nv.Runner.throughput)

let test_recovery_runs () =
  let w = tiny_smallbank `Low in
  let { Runner.report; _ } = Runner.run_recovery setup w ~crash_after_txns:200 () in
  Alcotest.(check bool) "scanned the dataset" true
    (report.Nvcaracal.Report.scanned_rows >= 4000);
  Alcotest.(check int) "replayed one epoch" 300 report.Nvcaracal.Report.replayed_txns;
  Alcotest.(check bool) "no scrub without faults" false report.Nvcaracal.Report.scrubbed

(* With a fault model the crash goes through it and recovery runs the
   verification scan. A torn identity header may break the crashed
   epoch's replay; that must fail loudly, never recover silently. *)
let test_recovery_with_faults ?(may_break_replay = false) faults () =
  let w = tiny_smallbank `Low in
  match Runner.run_recovery setup w ~crash_after_txns:200 ~faults () with
  | { Runner.report; _ } ->
      let open Nvcaracal.Report in
      Alcotest.(check bool) "scrubbed" true report.scrubbed;
      Alcotest.(check int) "replayed the crashed epoch unless its log was dropped"
        (if report.log_dropped then 0 else 300)
        report.replayed_txns;
      if faults = Nv_nvmm.Pmem.no_faults then
        Alcotest.(check int) "no damage on a legal image" 0 (List.length report.damage)
  | exception Failure _ when may_break_replay -> ()

let test_tpcc_through_runner () =
  let w = Tpcc.make { Tpcc.default with Tpcc.warehouses = 1; customers_per_district = 10; items = 50 } in
  let setup = Runner.setup ~epochs:3 ~epoch_txns:200 ~insert_growth:15 () in
  let r = Runner.run_nvcaracal setup w ~variant:Config.Nvcaracal () in
  Alcotest.(check bool) "tpcc committed most txns" true (r.Runner.committed > 500);
  Alcotest.(check bool) "tpcc inserts grew NVMM" true
    (r.Runner.mem.Nvcaracal.Report.nvmm_rows > 0)

let test_experiment_registry () =
  Alcotest.(check int) "13 experiments" 13 (List.length Nv_harness.Experiments.all);
  (* Configuration tables print without running workloads. *)
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  List.iter
    (fun (id, _, run) ->
      if String.length id >= 5 && String.sub id 0 5 = "table" then run ppf)
    Nv_harness.Experiments.all;
  Format.pp_print_flush ppf ();
  Alcotest.(check bool) "tables render" true (Buffer.length buf > 200)

let test_fuzzer_clean () =
  let outcome = Nv_harness.Fuzzer.run ~seed:2024 ~iterations:8 () in
  Alcotest.(check (list string)) "no failures" [] outcome.Nv_harness.Fuzzer.failures;
  Alcotest.(check int) "all crashed" 8 outcome.Nv_harness.Fuzzer.crashes_injected;
  Alcotest.(check bool) "some replays" true (outcome.Nv_harness.Fuzzer.replays > 0)

let suites =
  [
    ( "harness",
      [
        Alcotest.test_case "runner basics" `Quick test_runner_basics;
        Alcotest.test_case "Cli.set_jobs accepts only 1" `Quick test_set_jobs_one_only;
        Alcotest.test_case "variant ordering" `Quick test_variant_ordering;
        Alcotest.test_case "zen crossover" `Quick test_zen_crossover;
        Alcotest.test_case "transient fraction" `Quick test_transient_fraction_tracks_contention;
        Alcotest.test_case "logging overhead" `Quick test_logging_overhead_sign;
        Alcotest.test_case "recovery runs" `Quick test_recovery_runs;
        Alcotest.test_case "recovery with legal faults" `Quick
          (test_recovery_with_faults Nv_nvmm.Pmem.no_faults);
        Alcotest.test_case "recovery with torn lines" `Quick
          (test_recovery_with_faults ~may_break_replay:true
             { Nv_nvmm.Pmem.no_faults with torn_frac = 0.5 });
        Alcotest.test_case "recovery with bit rot" `Quick
          (test_recovery_with_faults
             { Nv_nvmm.Pmem.no_faults with rot_lines = 4; rot_max_bits = 3 });
        Alcotest.test_case "recovery with dead lines" `Quick
          (test_recovery_with_faults { Nv_nvmm.Pmem.no_faults with dead = 2 });
        Alcotest.test_case "tpcc runner" `Quick test_tpcc_through_runner;
        Alcotest.test_case "experiment registry" `Quick test_experiment_registry;
        Alcotest.test_case "fuzzer clean" `Slow test_fuzzer_clean;
      ] );
  ]
