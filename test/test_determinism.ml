(* Run-to-run determinism: the same seeded run, repeated in one process
   after an unrelated run, must be byte-identical in its epoch reports,
   committed state, pmem image, trace, metrics and recovery. Anything
   an engine keeps outside its [Db.t] (per-domain scratch buffers,
   module-level tables, counters) would show up here as a difference
   between the first run and the repeat. The crash legs also check that
   replaying the crashed epoch reaches the state of the uncrashed run. *)

open Nvcaracal
module Engine = Nv_harness.Engine
module Runner = Nv_harness.Runner
module Ycsb = Nv_workloads.Ycsb
module W = Nv_workloads.Workload
module Tracer = Nv_obs.Tracer
module Pmem = Nv_nvmm.Pmem

let tiny_ycsb = Ycsb.make { Ycsb.default with Ycsb.rows = 2000; hot_rows = 64 }
let setup = Runner.setup ~epochs:4 ~epoch_txns:240 ()

let digest_table db ~table =
  let rows = ref [] in
  Db.iter_committed db ~table (fun key data -> rows := (key, Bytes.to_string data) :: !rows);
  let rows = List.sort compare !rows in
  Digest.to_hex
    (Digest.string
       (String.concat ";"
          (List.map (fun (k, v) -> Printf.sprintf "%Ld=%s" k (Digest.string v)) rows)))

let digest_pmem db =
  let pmem = Db.pmem db in
  Digest.to_hex (Digest.bytes (Pmem.read_bytes pmem ~off:0 ~len:(Pmem.size pmem)))

(* Everything observable about one run, folded to comparable values. *)
type fingerprint = {
  reports : string list;  (** pp_epoch_stats per epoch, oldest first *)
  committed : int;
  time_ns : float;
  table_digest : string;  (** committed keys and values, sorted *)
  pmem_digest : string;  (** every byte of the NVMM arena *)
  state_digest : int64;
  trace : Tracer.event list;
  metrics : string;
  recovery : string;  (** recovery report + recovered digests; "" when n/a *)
}

let fingerprint ?(trace = []) ?(metrics = "") ?(recovery = "") db reports =
  {
    reports = List.rev reports;
    committed = Db.committed_txns db;
    time_ns = Db.total_time_ns db;
    table_digest = digest_table db ~table:0;
    pmem_digest = digest_pmem db;
    state_digest = Db.state_digest db;
    trace;
    metrics;
    recovery;
  }

let check_identical what (base : fingerprint) (fp : fingerprint) =
  let tag s = Printf.sprintf "%s repeat: %s" what s in
  Alcotest.(check (list string)) (tag "epoch reports") base.reports fp.reports;
  Alcotest.(check int) (tag "committed") base.committed fp.committed;
  Alcotest.(check (float 0.0)) (tag "simulated time") base.time_ns fp.time_ns;
  Alcotest.(check string) (tag "committed state") base.table_digest fp.table_digest;
  Alcotest.(check string) (tag "pmem bytes") base.pmem_digest fp.pmem_digest;
  Alcotest.(check int64) (tag "state digest") base.state_digest fp.state_digest;
  Alcotest.(check string) (tag "metrics jsonl") base.metrics fp.metrics;
  Alcotest.(check string) (tag "recovery") base.recovery fp.recovery;
  Alcotest.(check int) (tag "trace event count") (List.length base.trace)
    (List.length fp.trace);
  (* [compare], not [=]: events carry wall-clock fields that are [nan]
     when no wall clock is installed, and [nan = nan] is false while
     [compare nan nan = 0]. *)
  Alcotest.(check bool) (tag "trace events byte-identical") true (compare base.trace fp.trace = 0)

(* A run of a different shape between the first run and its repeat, so
   state left behind by one database would reach the next. *)
let disturb () =
  let w = Ycsb.make { Ycsb.default with Ycsb.rows = 700; hot_rows = 8 } in
  let s = Runner.setup ~epochs:2 ~epoch_txns:90 () in
  let config =
    Engine.caracal_config s w (Engine.spec ~persistent_index:true (Engine.Caracal Config.Nvcaracal))
  in
  let db = Db.create ~config ~tables:w.W.tables () in
  Db.bulk_load db (w.W.load ());
  let rng = Nv_util.Rng.create 99 in
  for _ = 1 to s.Runner.epochs do
    ignore (Db.run_epoch db (w.W.gen_batch rng s.Runner.epoch_txns))
  done

let check_repeat what run =
  let base = run () in
  disturb ();
  check_identical what base (run ())

(* One serial-engine run with the committed-value cache and the tracer
   live. *)
let run_serial_engine () =
  let w = tiny_ycsb in
  let config = Engine.caracal_config setup w (Engine.spec (Engine.Caracal Config.Nvcaracal)) in
  let db = Db.create ~config ~tables:w.W.tables () in
  let tracer = Tracer.create ~txn_sample:4 () in
  Db.set_observability ~tracer ~name:"determinism-test" db;
  Db.bulk_load db (w.W.load ());
  let rng = Nv_util.Rng.create setup.Runner.seed in
  let reports = ref [] in
  for _ = 1 to setup.Runner.epochs do
    let st = Db.run_epoch db (w.W.gen_batch rng setup.Runner.epoch_txns) in
    reports := Format.asprintf "%a" Report.pp_epoch_stats st :: !reports
  done;
  fingerprint ~trace:(Tracer.events tracer) db !reports

let run_aria_engine () =
  let w = tiny_ycsb in
  let config = Engine.caracal_config setup w (Engine.spec Engine.Caracal_aria) in
  let db = Db.create ~config ~tables:w.W.tables () in
  Db.bulk_load db (w.W.load ());
  let rng = Nv_util.Rng.create setup.Runner.seed in
  let reports = ref [] in
  let deferred = ref [||] in
  for _ = 1 to setup.Runner.epochs do
    let batch = Array.append !deferred (w.W.gen_batch rng setup.Runner.epoch_txns) in
    let st, d = Db.run_epoch_aria db batch in
    deferred := d;
    reports := Format.asprintf "%a" Report.pp_epoch_stats st :: !reports
  done;
  fingerprint db !reports

let test_serial_engine_determinism () =
  let base = run_serial_engine () in
  Alcotest.(check bool) "trace recorded" true (base.trace <> []);
  disturb ();
  check_identical "serial-cc" base (run_serial_engine ())

let test_aria_engine_determinism () = check_repeat "aria-cc" run_aria_engine

(* --- Routed runs over in-process members. --- *)

let run_partitioned () =
  let c = Test_routed.mk_cluster () in
  let committed = ref 0 in
  for seed = 1 to 5 do
    committed := !committed + Test_routed.run_with_retry c (Test_routed.gen_batch seed 40)
  done;
  ( Test_routed.balances c,
    !committed,
    Array.fold_left (fun acc db -> acc +. Db.total_time_ns db) 0.0 c.Test_routed.dbs )

let test_partition_determinism () =
  let b0, c0, t0 = run_partitioned () in
  disturb ();
  let b1, c1, t1 = run_partitioned () in
  Alcotest.(check (list int64)) "balances" b0 b1;
  Alcotest.(check int) "committed" c0 c1;
  Alcotest.(check (float 0.0)) "time" t0 t1

(* --- Crash + recovery through the runner. --- *)

let run_recovery () =
  let r = Runner.run_recovery setup tiny_ycsb ~crash_after_txns:120 () in
  Format.asprintf "%a" Report.pp_recovery_report r.Runner.report

let test_recovery_determinism () =
  let base = run_recovery () in
  disturb ();
  Alcotest.(check string) "recovery report" base (run_recovery ())

(* --- Shapes: configurations that exercise the effect journal's
   kinds (cache fills, counters, tombstones, inserts, metrics, the
   persistent index), each repeated, and the crash-capable ones crashed
   mid-epoch and recovered. --- *)

exception Crash_now_shape

type shape = {
  sh_name : string;
  sh_tables : Table.t list;
  sh_config : unit -> Config.t;
  sh_load : unit -> (int * int64 * bytes) Seq.t;
  sh_gen : epoch:int -> Nv_util.Rng.t -> int -> Txn.t array;
  sh_metrics : bool;
  sh_rebuild : (bytes -> Txn.t) option;  (** [Some] adds a crash+recover leg *)
}

let shape_epochs = 3
let shape_txns = 160
let shape_setup = Runner.setup ~epochs:shape_epochs ~epoch_txns:shape_txns ()

(* [crash]: during epoch [shape_epochs + 1], raise at the 40th
   transaction's execution, crash and recover; otherwise run that epoch
   to the end. Either way the state reached is the one after epoch
   [shape_epochs + 1]. *)
let run_shape ~crash sh =
  let config = sh.sh_config () in
  let db = Db.create ~config ~tables:sh.sh_tables () in
  let tracer = Tracer.create ~txn_sample:8 () in
  let metrics = if sh.sh_metrics then Nv_obs.Metrics.create () else Nv_obs.Metrics.null in
  Db.set_observability ~tracer ~metrics ~name:sh.sh_name db;
  Db.bulk_load db (sh.sh_load ());
  let rng = Nv_util.Rng.create 7 in
  let reports = ref [] in
  for e = 1 to shape_epochs do
    let st = Db.run_epoch db (sh.sh_gen ~epoch:e rng shape_txns) in
    reports := Format.asprintf "%a" Report.pp_epoch_stats st :: !reports
  done;
  let trace = Tracer.events tracer in
  let metrics = if sh.sh_metrics then Nv_obs.Metrics.to_jsonl metrics else "" in
  let last = sh.sh_gen ~epoch:(shape_epochs + 1) rng shape_txns in
  match (sh.sh_rebuild, crash) with
  | Some rebuild, true ->
      let fp = fingerprint ~trace ~metrics db !reports in
      Db.set_phase_hook db (fun p -> if p = Db.Exec_txn 40 then raise Crash_now_shape);
      let crashed = try ignore (Db.run_epoch db last); false with Crash_now_shape -> true in
      Alcotest.(check bool) (sh.sh_name ^ ": crashed mid-epoch") true crashed;
      let image = Db.crash db ~rng:(Nv_util.Rng.create 11) in
      let db2, report = Db.recover ~config ~tables:sh.sh_tables ~pmem:image ~rebuild () in
      ( fp,
        ( Format.asprintf "%a" Report.pp_recovery_report report,
          digest_table db2 ~table:0,
          digest_pmem db2 ) )
  | _ ->
      let fp = fingerprint ~trace ~metrics db !reports in
      ignore (Db.run_epoch db last);
      (fp, ("", digest_table db ~table:0, digest_pmem db))

let check_shape sh =
  let run () =
    let fp, (report, table, pmem) = run_shape ~crash:true sh in
    ({ fp with recovery = Printf.sprintf "%s/%s/%s" report table pmem }, table)
  in
  let base, recovered = run () in
  disturb ();
  check_identical sh.sh_name base (fst (run ()));
  if sh.sh_rebuild <> None then begin
    let _, (_, uncrashed, _) = run_shape ~crash:false sh in
    Alcotest.(check string) (sh.sh_name ^ ": recovered state = uncrashed state") uncrashed
      recovered
  end

let ycsb_shape ?(crash = false) ?(persistent_index = false) ?(metrics = false) name =
  let w = tiny_ycsb in
  {
    sh_name = name;
    sh_tables = w.W.tables;
    sh_config =
      (fun () ->
        Engine.caracal_config shape_setup w
          (Engine.spec ~persistent_index (Engine.Caracal Config.Nvcaracal)));
    sh_load = w.W.load;
    sh_gen = (fun ~epoch:_ rng n -> w.W.gen_batch rng n);
    sh_metrics = metrics;
    sh_rebuild = (if crash then Some w.W.rebuild else None);
  }

let balance_bytes = Test_routed.balance_bytes

(* Counter draws serialize through their predecessors, so a workload
   mixing counter draws with cross-transaction reads is a sharp
   ordering test. *)
let shape_rows = 384

let ctr_txn ~key ~peer ~idx =
  Txn.make ~input:Bytes.empty ~write_set:[ Txn.Update { table = 0; key } ] (fun ctx ->
      let v = ctx.Txn.Ctx.counter_next ~idx in
      let p =
        match ctx.Txn.Ctx.read ~table:0 ~key:peer with
        | Some b -> Bytes.get_int64_le b 0
        | None -> 0L
      in
      ctx.Txn.Ctx.write ~table:0 ~key (balance_bytes (Int64.add v p)))

let counters_shape =
  {
    sh_name = "counters";
    sh_tables = [ Table.make ~id:0 ~name:"rows" () ];
    sh_config =
      (fun () ->
        Config.make ~cores:4 ~rows_per_core:2048 ~values_per_core:2048
          ~freelist_capacity:4096 ~n_counters:4 ());
    sh_load =
      (fun () -> Seq.init shape_rows (fun i -> (0, Int64.of_int i, balance_bytes 100L)));
    sh_gen =
      (fun ~epoch:_ rng n ->
        Array.init n (fun _ ->
            let key = Int64.of_int (Nv_util.Rng.int rng shape_rows) in
            let peer = Int64.of_int (Nv_util.Rng.int rng shape_rows) in
            ctr_txn ~key ~peer ~idx:(Nv_util.Rng.int rng 4)));
    sh_metrics = false;
    sh_rebuild = None;
  }

(* Delete-heavy, crash-safe: tombstones are journaled effects, and the
   input encoding makes the batch replayable after a crash. *)
let dd_enc tag key v =
  let b = Bytes.create 17 in
  Bytes.set_uint8 b 0 tag;
  Bytes.set_int64_le b 1 key;
  Bytes.set_int64_le b 9 v;
  b

let dd_del key =
  Txn.make ~input:(dd_enc 0 key 0L) ~write_set:[ Txn.Delete { table = 0; key } ]
    (fun ctx -> ctx.Txn.Ctx.delete ~table:0 ~key)

let dd_ins key v =
  Txn.make ~input:(dd_enc 1 key v)
    ~write_set:[ Txn.Insert { table = 0; key; data = None } ]
    (fun ctx -> ctx.Txn.Ctx.write ~table:0 ~key (balance_bytes v))

let dd_upd key v =
  Txn.make ~input:(dd_enc 2 key v) ~write_set:[ Txn.Update { table = 0; key } ]
    (fun ctx ->
      let cur =
        match ctx.Txn.Ctx.read ~table:0 ~key with
        | Some b -> Bytes.get_int64_le b 0
        | None -> 0L
      in
      ctx.Txn.Ctx.write ~table:0 ~key (balance_bytes (Int64.add cur v)))

let dd_rebuild input =
  let key = Bytes.get_int64_le input 1 and v = Bytes.get_int64_le input 9 in
  match Bytes.get_uint8 input 0 with
  | 0 -> dd_del key
  | 1 -> dd_ins key v
  | _ -> dd_upd key v

let pick_distinct rng ~bound m =
  let seen = Hashtbl.create m in
  let rec go acc k =
    if k = 0 then List.rev acc
    else
      let v = Nv_util.Rng.int rng bound in
      if Hashtbl.mem seen v then go acc k
      else begin
        Hashtbl.add seen v ();
        go (v :: acc) (k - 1)
      end
  in
  go [] m

let deletes_shape =
  {
    sh_name = "delete-heavy";
    sh_tables = [ Table.make ~id:0 ~name:"rows" () ];
    sh_config =
      (fun () ->
        Config.make ~cores:4 ~rows_per_core:2048 ~values_per_core:2048
          ~freelist_capacity:4096 ());
    sh_load =
      (fun () -> Seq.init shape_rows (fun i -> (0, Int64.of_int i, balance_bytes 100L)));
    sh_gen =
      (fun ~epoch rng n ->
        (* The insert step precedes execution, so a key deleted this
           epoch can only be re-inserted next epoch: epoch [e] deletes
           the set derived from [e] and re-inserts the set derived from
           [e - 1], with updates on untouched keys filling the batch.
           The sets come from an epoch-seeded rng, keeping the
           generator stateless (the crash leg replays epoch N+1). *)
        let m = n / 4 in
        let dd_set e =
          if e < 1 then []
          else pick_distinct (Nv_util.Rng.create (7000 + e)) ~bound:shape_rows m
        in
        let prev = dd_set (epoch - 1) and cur = dd_set epoch in
        let inss =
          List.map
            (fun k -> dd_ins (Int64.of_int k) (Int64.of_int (Nv_util.Rng.int rng 1000)))
            prev
        in
        let dels = List.map (fun k -> dd_del (Int64.of_int k)) cur in
        let avoid = prev @ cur in
        let fill =
          List.init (n - List.length inss - m) (fun _ ->
              let rec pick () =
                let k = Nv_util.Rng.int rng shape_rows in
                if List.mem k avoid then pick () else k
              in
              dd_upd (Int64.of_int (pick ())) (Int64.of_int (Nv_util.Rng.int rng 1000)))
        in
        Array.of_list (inss @ dels @ fill));
    sh_metrics = false;
    sh_rebuild = Some dd_rebuild;
  }

let test_crash_safe_shape () = check_shape (ycsb_shape ~crash:true "crash-safe")

let test_pindex_shape () =
  check_shape (ycsb_shape ~crash:true ~persistent_index:true "persistent-index")

let test_metrics_shape () = check_shape (ycsb_shape ~metrics:true "metrics-enabled")
let test_counters_shape () = check_shape counters_shape
let test_deletes_shape () = check_shape deletes_shape

let suites =
  [
    ( "determinism",
      [
        Alcotest.test_case "serial CC determinism across runs" `Slow
          test_serial_engine_determinism;
        Alcotest.test_case "aria CC determinism across runs" `Slow
          test_aria_engine_determinism;
        Alcotest.test_case "partitioned determinism across runs" `Slow
          test_partition_determinism;
        Alcotest.test_case "recovery determinism across runs" `Slow
          test_recovery_determinism;
        Alcotest.test_case "crash-safe shape repeats and recovers" `Slow
          test_crash_safe_shape;
        Alcotest.test_case "persistent-index shape repeats and recovers" `Slow
          test_pindex_shape;
        Alcotest.test_case "metrics-enabled shape repeats" `Slow test_metrics_shape;
        Alcotest.test_case "counters shape repeats" `Slow test_counters_shape;
        Alcotest.test_case "delete-heavy shape repeats and recovers" `Slow
          test_deletes_shape;
      ] );
  ]
