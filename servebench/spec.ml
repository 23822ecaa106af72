(* The served workloads and the one server configuration they share.

   The server is configured the way [nvdb serve --journal] configures
   it; only the workload, the engine cache cap and the checkpoint
   cadence differ between workloads. Every number here is part of the
   benchmark's definition: changing one changes what is measured. *)

type mode =
  | Closed of int  (** requests kept in flight per connection *)
  | Open of float  (** total offered rate, txn/s, spread over the connections *)

type t = {
  name : string;
  why : string;
  workload : string;  (** [Nv_harness.Cli] workload name *)
  mode : mode;
  cache_entries : int;  (** engine DRAM cache cap; 0 = the whole dataset *)
  checkpoint_every : int;  (** batches between checkpoints; 0 = never *)
}

let all =
  [
    {
      name = "ycsb-large";
      workload = "ycsb";
      (* 50k rows x 1000 B against a 15,625-entry cache: the paper's
         Table 4 ratio (cache = 31% of the dataset). Closed loop, so
         every batch closes full and engine work dominates. One batch
         in flight per connection: with 384, about half the replies
         waited one extra batch, the median fell between the two modes,
         and p50 and p99 varied by 13-22% from run to run (10% and 4%
         at 256, for the same throughput). *)
      mode = Closed 256;
      cache_entries = 15_625;
      checkpoint_every = 0;
      why = "YCSB RMW on a dataset 3.2x the DRAM cache, closed loop: engine work and evictions dominate";
    };
    {
      name = "smallbank-light";
      workload = "smallbank";
      (* Batches close on the deadline, so latency is batching, tick
         and fsync; the engine is nearly idle. *)
      mode = Open 500.0;
      cache_entries = 0;
      checkpoint_every = 0;
      why = "SmallBank open loop at 500 txn/s: batcher, journal fsync and server loop dominate; the engine is idle";
    };
    {
      name = "tpcc";
      workload = "tpcc";
      (* Far below capacity, so batches close on the deadline and a
         slow host second does not queue calls behind it. On a
         contended 2-CPU host with two engine domains, p50 and p99
         spread by 43% and 84% from run to run at 1000 txn/s, by 17% and
         45% at 750, and by 13% and 23% at 500. *)
      mode = Open 500.0;
      cache_entries = 0;
      checkpoint_every = 0;
      why = "TPC-C open loop at 500 txn/s: inserts, index growth, range reads and aborts; about 2.5x SmallBank's server CPU per call";
    };
    {
      name = "smallbank-ckpt";
      workload = "smallbank";
      (* Background work: a checkpoint of the whole pmem image plus a
         journal truncation every 100 batches. *)
      mode = Closed 384;
      cache_entries = 0;
      checkpoint_every = 100;
      why = "SmallBank closed loop with a checkpoint every 100 batches: background image writes and journal truncation";
    };
  ]

let find name = List.find_opt (fun s -> s.name = name) all

(* Shared server and client configuration. *)
let connections = 2

(* One engine domain. With two, the server's domains and the generator
   oversubscribe a 2-CPU host: whenever one domain is descheduled the
   other waits for it (epoch barriers, stop-the-world minor GCs), and
   run-to-run spread was two to three times wider (ycsb-large
   throughput 17% against 8%, smallbank-ckpt 50% against 17%). *)
let jobs = 1
let batch_target = 256
let deadline_ticks = 8
let tick_interval_s = 0.002

(* Load offered before the measured window, then discarded. *)
let warmup_s = 2.0
let max_pending = 1024
let journal_mb = 64
let engine = "nvcaracal"
let contention = "low"

(* The engine's workload seed. Fixed, so every run serves the same
   dataset; the benchmark's --seed only seeds the generated calls. *)
let server_seed = 42

(* Engine pools are provisioned for the transactions one run admits
   ([nvdb serve --capacity]): TPC-C's insert allowance (15 rows per
   transaction, about three times what it inserts) scales with it, and
   the 200k default costs TPC-C 1.5 GB of resident memory. Open loops
   admit a known number; closed loops keep the default. *)
let capacity t ~run_s =
  match t.mode with
  | Open rate -> max 20_000 (int_of_float (rate *. run_s))
  | Closed _ -> 200_000

(* The journal's meta string: a restart refuses a journal written
   under another configuration. *)
let journal_meta t =
  Nv_frontend.Restart.meta ~workload:t.name ~contention ~engine ~seed:server_seed

(* The workload and its insert growth (rows per transaction). *)
let workload t = Nv_harness.Cli.resolve_workload t.workload contention

let mode_label t =
  match t.mode with
  | Closed n -> Printf.sprintf "closed loop, %d x %d in flight" connections n
  | Open r -> Printf.sprintf "open loop, %.0f txn/s over %d connections" r connections
