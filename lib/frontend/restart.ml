module Pmem = Nv_nvmm.Pmem
module W = Nv_workloads.Workload

type boot = {
  engine : Nvcaracal.Engine_intf.packed;
  batches_done : int;
  sessions : Journal.session_state list;
  from_checkpoint : bool;
}

let meta ~workload ~contention ~engine ~seed =
  Printf.sprintf "workload=%s contention=%s engine=%s seed=%d" workload contention engine seed

(* Rebuild a serving engine from a reopened journal. With a covering
   checkpoint, the saved pmem image is installed as a cleanly-crashed
   region and the engine recovers from it (sessions come along); with
   none, a fresh engine is built and bulk-loaded exactly as [serve]
   would at cold start. Either way the caller then feeds
   [opened.records] to {!Batcher.recover}, which replays the journaled
   tail — the composition reproduces the crashed server's state. *)
let boot spec setup (w : W.t) ~registry (opened : Journal.opened) =
  let rebuild = Proc.rebuild registry in
  match opened.Journal.checkpoint with
  | Some ck ->
      let image = ck.Journal.ck_image in
      let pmem = Pmem.of_image image in
      let engine = Nv_harness.Engine.recover spec setup w ~pmem ~rebuild in
      {
        engine;
        batches_done = ck.Journal.ck_batches;
        sessions = ck.Journal.ck_sessions;
        from_checkpoint = true;
      }
  | None ->
      let (Nvcaracal.Engine_intf.Packed ((module E), db) as engine) =
        Nv_harness.Engine.instantiate spec setup w
      in
      E.bulk_load db (w.W.load ());
      { engine; batches_done = 0; sessions = []; from_checkpoint = false }
