(** Crash-restart wiring: from a reopened {!Journal} to a serving
    engine.

    [nvdb serve --recover] (and the chaos harness's reference replays)
    use this to stand an engine back up: {!boot} restores from the
    covering checkpoint when one exists — the saved pmem image becomes
    a cleanly-crashed region for the engine's own recovery — or
    cold-starts a fresh bulk-loaded engine otherwise. The caller then
    attaches the journal to a {!Batcher} and feeds the journal's
    records to {!Batcher.recover}, which replays the tail in admission
    order; deterministic replay makes the result bit-identical to the
    crashed server's pmem image. *)

type boot = {
  engine : Nvcaracal.Engine_intf.packed;
  batches_done : int;  (** batches the engine image already covers *)
  sessions : Journal.session_state list;  (** checkpointed dedup windows *)
  from_checkpoint : bool;
}

val meta : workload:string -> contention:string -> engine:string -> seed:int -> string
(** The canonical journal meta string. {!Journal.load} refuses a
    journal whose meta differs, so a restart with the wrong workload,
    engine or seed fails loudly instead of replaying garbage. *)

val boot :
  Nv_harness.Engine.spec ->
  Nv_harness.Engine.setup ->
  Nv_workloads.Workload.t ->
  registry:Proc.t ->
  Journal.opened ->
  boot
(** Build the starting engine for a recovery. The spec/setup/workload
    must be the ones the journal's meta fingerprints (the crashed
    server's). *)
