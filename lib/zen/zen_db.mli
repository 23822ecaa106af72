(** Zen: a log-free NVMM OLTP engine, the state-of-the-art comparator
    of paper section 6.3 (after Liu et al., VLDB 2021).

    Zen persists {e every} committed update as a fresh NVMM record with
    per-record commit metadata; there is no input log, no checkpoint
    phase and no epoch batching. A bounded DRAM cache of hot tuples
    absorbs repeated reads. The contrasts the paper measures:

    - Zen writes every update to NVMM, regardless of contention, while
      NVCaracal writes one persistent version per row per epoch — so
      NVCaracal pulls ahead as contention rises;
    - Zen needs no logging, so it wins at low contention where almost
      every NVCaracal update is final anyway and the log is pure
      overhead;
    - Zen's recovery scans the record arenas more than once and scales
      with capacity, while NVCaracal scans rows once and replays one
      bounded epoch.

    Transactions use the same {!Nvcaracal.Txn} descriptors as the
    deterministic engine, so identical workload generators drive both.
    Zen executes them serially per batch (it is not deterministic; the
    batch is just a driver convenience). Dynamic write sets are not
    supported — the paper likewise omits TPC-C for Zen. *)

type config = {
  cores : int;
  record_size : int;  (** Table 4: 1024 for YCSB, 32 for SmallBank *)
  cache_entries : int;
  slots_per_core : int;
  spec : Nv_nvmm.Memspec.t;
}

val default_config : config

type t

val create : config:config -> tables:Nvcaracal.Table.t list -> unit -> t
val bulk_load : t -> (int * int64 * bytes) Seq.t -> unit

val exec_batch : t -> Nvcaracal.Txn.t array -> unit
(** Execute transactions one by one, committing each. *)

val last_batch_outcomes : t -> [ `Committed | `Aborted | `Deferred ] array
(** Per-transaction outcome of the last [exec_batch], in batch order.
    Zen commits per transaction and never defers, so entries are
    [`Committed] or [`Aborted] only. *)

val counters_total : t -> Nv_nvmm.Stats.counters
(** Aggregate access counters across all cores (diagnostics). *)

val committed_txns : t -> int
val aborted_txns : t -> int
val total_time_ns : t -> float

val read_committed : t -> table:int -> key:int64 -> bytes option
val iter_committed : t -> table:int -> (int64 -> bytes -> unit) -> unit

val mem_report : t -> Nvcaracal.Report.mem_report

type recovery_report = {
  scan1_ns : float;
  scan2_ns : float;
  total_ns : float;
  live_rows : int;
  scanned_slots : int;
}

val recover :
  config:config -> tables:Nvcaracal.Table.t list -> pmem:Nv_nvmm.Pmem.t -> unit ->
  t * recovery_report
(** Rebuild from the record arenas alone: pass 1 finds the latest
    committed version of every key, pass 2 rebuilds the index and the
    DRAM free lists. *)

val pmem : t -> Nv_nvmm.Pmem.t

val crash :
  ?faults:Nv_nvmm.Pmem.fault_model -> t -> rng:Nv_util.Rng.t -> Nv_nvmm.Pmem.t
(** Tear the arena to a crash image and return it; the engine must not
    be used afterwards. *)

val set_observability :
  ?tracer:Nv_obs.Tracer.t ->
  ?metrics:Nv_obs.Metrics.t ->
  ?profile:Nv_obs.Profile.t ->
  ?name:string ->
  t ->
  unit
(** Accepted and ignored: Zen has no epoch phases or per-epoch reports
    to instrument. Exists so backend-generic harness code can attach
    sinks unconditionally. *)

(** Zen behind the shared {!Nvcaracal.Engine_intf.S} seam: [run_batch]
    executes the batch serially with per-commit durability and returns
    neither an epoch report nor deferrals; [recover] rebuilds from the
    record arenas and ignores [rebuild]. *)
module Engine : Nvcaracal.Engine_intf.S with type t = t and type config = config
