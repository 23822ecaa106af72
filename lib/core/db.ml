(* The public façade of the NVCaracal engine. The implementation lives
   in the layered modules: {!Epoch} (state + shared substrate),
   {!Cc_serial} / {!Cc_aria} (the two concurrency-control strategies),
   {!Gc} (major collection) and {!Recovery} (crash + recover). This
   module re-exports the stable surface and packages both CC modes as
   {!Engine_intf.S} instances. *)

type t = Epoch.t

type phase = Epoch.phase =
  | Log_done
  | Insert_done
  | Gc_pass1_done
  | Gc_done
  | Append_done
  | Exec_txn of int
  | Exec_done
  | Checkpointed

type recovery_phase = Epoch.recovery_phase =
  | Rec_meta_recovered
  | Rec_log_loaded
  | Rec_scan_done
  | Rec_replay_done

let create = Epoch.create
let config = Epoch.config
let tables = Epoch.tables
let pmem = Epoch.pmem
let epoch = Epoch.epoch
let bulk_load = Epoch.bulk_load

let run_epoch t txns =
  if not t.Epoch.loaded then invalid_arg "Db.run_epoch: call bulk_load first";
  fst (Cc_serial.run t txns)

let run_epoch_aria t txns =
  if not t.Epoch.loaded then invalid_arg "Db.run_epoch_aria: call bulk_load first";
  Cc_aria.run t txns

let last_epoch_outcomes = Epoch.last_epoch_outcomes
let last_batch_outcomes = Epoch.last_batch_outcomes
let read_committed = Epoch.read_committed
let iter_committed = Epoch.iter_committed
let mem_report = Epoch.mem_report
let committed_txns = Epoch.committed_txns
let aborted_txns = Epoch.aborted_txns
let total_time_ns = Epoch.total_time_ns
let counter_value = Epoch.counter_value
let debug_row = Epoch.debug_row
let counters_total = Epoch.counters_total
let set_observability = Epoch.set_observability
let set_phase_hook = Epoch.set_phase_hook
let crash = Recovery.crash

let state_digest t =
  Engine_intf.digest_committed ~tables:(Array.to_list (tables t)) ~iter:(fun ~table f ->
      iter_committed t ~table f)
let recover = Recovery.recover

(* ------------------------------------------------------------------ *)
(* Engine instances                                                    *)

(* Shared by both CC modes; only [name] and [run_batch] differ. *)
module Engine_common = struct
  type nonrec t = t
  type config = Config.t

  let create = create
  let bulk_load = bulk_load
  let read_committed = read_committed
  let iter_committed = iter_committed
  let committed_txns = committed_txns
  let aborted_txns = aborted_txns
  let total_time_ns = total_time_ns

  let state_digest = state_digest
  let mem_report = mem_report
  let counters_total = counters_total
  let set_observability = set_observability
  let last_batch_outcomes = last_batch_outcomes
  let pmem = pmem
  let crash = crash
end

module Serial_engine : Engine_intf.S with type t = t and type config = Config.t = struct
  include Engine_common

  let name = "nvcaracal"
  let defers = false
  let run_batch t txns = (Some (run_epoch t txns), [||])

  let recover ~config ~tables ~pmem ~rebuild () =
    fst (recover ~config ~tables ~pmem ~rebuild ~replay_mode:`Caracal ())
end

module Aria_engine : Engine_intf.S with type t = t and type config = Config.t = struct
  include Engine_common

  let name = "aria"
  let defers = true

  let run_batch t txns =
    let stats, deferred = run_epoch_aria t txns in
    (Some stats, deferred)

  let recover ~config ~tables ~pmem ~rebuild () =
    fst (recover ~config ~tables ~pmem ~rebuild ~replay_mode:`Aria ())
end
