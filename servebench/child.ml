(* The server under test. The bench re-executes itself in this mode, so
   the server is a process of its own (its own heap, domains and /proc
   accounting), configured the way [nvdb serve --journal] configures
   one.

   With a trace file the child also records per-layer data: a wrapper
   around the engine's [run_batch] logs every batch (monotonic start and
   end, the FNV hash of each transaction's input, the epoch's cache and
   version counters), and an [Nv_obs.Profile] times the epoch phases.
   SIGUSR1 starts the recording; SIGUSR2 writes it to the trace file
   (first line a JSON summary, then one line per batch:
   "start_ns end_ns n hash...") through a rename, so the bench sees
   the file whole or not at all. *)

module Engine_intf = Nvcaracal.Engine_intf
module Report = Nvcaracal.Report
module Profile = Nv_obs.Profile
module J = Nv_obs.Jsonx
module Fe = Nv_frontend

type recorder = {
  profile : Profile.t;
  batches : Buffer.t;
  mutable active : bool;
  mutable counters0 : Nv_nvmm.Stats.counters;
  mutable txns : int;
  mutable epochs : Report.epoch_stats;  (** counters summed over the recorded batches *)
}

let log_batch r ~t0 ~t1 (txns : Nvcaracal.Txn.t array) (stats : Report.epoch_stats option) =
  let b = r.batches in
  Buffer.add_string b (Printf.sprintf "%.0f %.0f %d" t0 t1 (Array.length txns));
  Array.iter
    (fun (txn : Nvcaracal.Txn.t) ->
      Buffer.add_char b ' ';
      Buffer.add_string b
        (string_of_int (Nv_util.Fnv.hash_string (Bytes.unsafe_to_string txn.Nvcaracal.Txn.input))))
    txns;
  Buffer.add_char b '\n';
  r.txns <- r.txns + Array.length txns;
  Option.iter (fun s -> r.epochs <- Report.merge_epoch_stats r.epochs s) stats

(* The engine seam the batcher calls, timed from outside: [run_batch]
   is wrapped, everything else is the engine's own. *)
let traced r (Engine_intf.Packed ((module E), db)) =
  let module T = struct
    include E

    let run_batch db txns =
      let t0 = Nv_util.Clock.now_ns () in
      let ((stats, _) as out) = E.run_batch db txns in
      let t1 = Nv_util.Clock.now_ns () in
      if r.active then log_batch r ~t0 ~t1 txns stats;
      out
  end in
  Engine_intf.Packed ((module T), db)

(* Attach a recorder: its profiler goes into the engine, and the
   returned engine wraps [run_batch]. *)
let instrument (Engine_intf.Packed ((module E), db) as engine) =
  let r =
    {
      profile = Profile.create ();
      batches = Buffer.create (1 lsl 20);
      active = false;
      counters0 = E.counters_total db;
      txns = 0;
      epochs = Report.zero_epoch_stats;
    }
  in
  E.set_observability ~profile:r.profile db;
  (r, traced r engine)

let mark r (Engine_intf.Packed ((module E), db)) =
  Profile.reset r.profile;
  Buffer.clear r.batches;
  r.counters0 <- E.counters_total db;
  r.txns <- 0;
  r.epochs <- Report.zero_epoch_stats;
  r.active <- true

let summary r (Engine_intf.Packed ((module E), db)) =
  let c0 = r.counters0 and c1 = E.counters_total db in
  let mem = E.mem_report db in
  let phases =
    List.map
      (fun (name, (s : Profile.phase_stat)) ->
        J.Assoc
          [
            ("name", J.String name);
            ("calls", J.Int s.Profile.calls);
            ("wall_ns", J.Float s.Profile.wall_ns);
            ("minor_words", J.Float s.Profile.minor_words);
          ])
      (Profile.stats r.profile)
  in
  J.Assoc
    [
      ("epochs", J.Int (Profile.epochs r.profile));
      ("phases", J.List phases);
      ("txns", J.Int r.txns);
      ("cache_hits", J.Int r.epochs.Report.cache_hits);
      ("cache_misses", J.Int r.epochs.Report.cache_misses);
      ("evicted", J.Int r.epochs.Report.evicted);
      ("transient_writes", J.Int r.epochs.Report.transient_only_writes);
      ("version_writes", J.Int r.epochs.Report.version_writes);
      ("flushes", J.Int (c1.Nv_nvmm.Stats.flushes - c0.Nv_nvmm.Stats.flushes));
      ( "nvmm_block_writes",
        J.Int (c1.Nv_nvmm.Stats.nvmm_block_writes - c0.Nv_nvmm.Stats.nvmm_block_writes) );
      ("dram_cache_bytes", J.Int mem.Report.dram_cache);
      ("dram_index_bytes", J.Int mem.Report.dram_index);
      ("nvmm_values_bytes", J.Int mem.Report.nvmm_values);
      ("pmem_bytes", J.Int (Nv_nvmm.Pmem.size (E.pmem db)));
    ]

let dump r engine path =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  output_string oc (J.to_string (summary r engine));
  output_char oc '\n';
  Buffer.output_buffer oc r.batches;
  close_out oc;
  Sys.rename tmp path;
  r.active <- false

let run ~(spec : Spec.t) ~listen ~journal:path ~capacity ~recover ~trace_out =
  Nv_harness.Cli.set_jobs Spec.jobs;
  let w, growth = Spec.workload spec in
  let engine_spec =
    { (Nv_harness.Cli.resolve_engine Spec.engine) with Nv_harness.Engine.crash_safe = true }
  in
  let batcher =
    Fe.Batcher.config ~batch_target:Spec.batch_target ~deadline_ticks:Spec.deadline_ticks
      ~max_pending:Spec.max_pending ~checkpoint_every:spec.Spec.checkpoint_every ()
  in
  let setup =
    Nv_harness.Engine.setup
      ~epochs:((capacity / Spec.batch_target) + 1)
      ~epoch_txns:Spec.batch_target ~seed:Spec.server_seed ~insert_growth:growth
      ~cache_entries:spec.Spec.cache_entries ()
  in
  let registry = Fe.Proc.of_workload w in
  let meta = Spec.journal_meta spec in
  let journal, recovery, engine =
    if recover then
      let opened = Fe.Journal.load ~path ~meta in
      let boot = Fe.Restart.boot engine_spec setup w ~registry opened in
      ( opened.Fe.Journal.journal,
        Some
          {
            Fe.Server.rec_records = opened.Fe.Journal.records;
            rec_sessions = boot.Fe.Restart.sessions;
            rec_batches_done = boot.Fe.Restart.batches_done;
          },
        boot.Fe.Restart.engine )
    else
      let j = Fe.Journal.create ~size:(Spec.journal_mb * 1024 * 1024) ~path ~meta () in
      let (Engine_intf.Packed ((module E), db) as engine) =
        Nv_harness.Engine.instantiate engine_spec setup w
      in
      E.bulk_load db (w.Nv_workloads.Workload.load ());
      (j, None, engine)
  in
  (* A server whose bench died must not outlive it. *)
  let parent = Unix.getppid () in
  let orphaned () = Unix.getppid () <> parent in
  let should_stop, engine =
    match trace_out with
    | None -> (orphaned, engine)
    | Some out ->
        let r, engine = instrument engine in
        let want_mark = ref false and want_dump = ref false in
        Sys.set_signal Sys.sigusr1 (Sys.Signal_handle (fun _ -> want_mark := true));
        Sys.set_signal Sys.sigusr2 (Sys.Signal_handle (fun _ -> want_dump := true));
        (* The serving loop polls [should_stop] once per select round:
           the one safe point to act on the signals. *)
        let poll () =
          if !want_mark then begin
            want_mark := false;
            mark r engine
          end;
          if !want_dump then begin
            want_dump := false;
            dump r engine out
          end;
          orphaned ()
        in
        (poll, engine)
  in
  let tables = w.Nv_workloads.Workload.tables in
  ignore
    (Fe.Server.serve ~journal ?recovery ~should_stop
       ~shards:(Fe.Shard_set.local ~engine ~tables)
       ~registry ~tables
       (Fe.Server.config ~batcher ~tick_interval_s:Spec.tick_interval_s (`Unix listen)))
