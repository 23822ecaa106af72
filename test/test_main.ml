(* Aggregates all suites into one alcotest runner. *)

let () =
  Alcotest.run "nvcaracal"
    (List.concat
       [
         Test_util.suites;
         Test_nvmm.suites;
         Test_storage.suites;
         Test_index.suites;
         Test_core.suites;
         Test_recovery.suites;
         Test_workloads.suites;
         Test_zen.suites;
         Test_harness.suites;
         Test_units_extra.suites;
         Test_faults.suites;
         Test_aria.suites;
         Test_routed.suites;
         Test_merge.suites;
         Test_determinism.suites;
         Test_obs.suites;
         Test_engine_conf.suites;
         Test_frontend.suites;
         Test_cluster.suites;
       ])
