(** Crash and recovery (paper section 4.5; scrub/salvage per
    docs/FAULTS.md).

    Recovery reconstructs engine state from the NVMM bytes alone:
    reload allocator and counter checkpoints (keeping the crashed
    epoch's durable GC frees as a dedup set), read back the crashed
    epoch's input log, rebuild the DRAM index — eagerly by scanning
    allocated row slots and repairing the three torn version states of
    section 4.5, or lazily through the persistent index — and
    deterministically replay the crashed epoch through the CC strategy
    that produced it. *)

(** Tear the region to a crash image and return it; the engine state
    must not be used afterwards. Without [faults] the image is a random
    {e legal} one; with a {!Nv_nvmm.Pmem.fault_model} it additionally
    suffers torn lines, bit-rot and dead lines. *)
val crash :
  ?faults:Nv_nvmm.Pmem.fault_model -> Epoch.t -> rng:Nv_util.Rng.t -> Nv_nvmm.Pmem.t

(** Reconstruct engine state from a (crashed) region. [rebuild]
    deserializes a logged input record back into its transaction;
    [replay_mode] picks the {!Cc_intf.S} instance that replays the
    crashed epoch; [scrub] verifies every persistent checksum and
    salvages what fails. See {!Db.recover} for the full contract. *)
val recover :
  config:Config.t ->
  tables:Table.t list ->
  pmem:Nv_nvmm.Pmem.t ->
  rebuild:(bytes -> Txn.t) ->
  ?replay_mode:[ `Caracal | `Aria ] ->
  ?phase_hook:(Epoch.phase -> unit) ->
  ?recovery_hook:(Epoch.recovery_phase -> unit) ->
  ?scrub:bool ->
  ?tracer:Nv_obs.Tracer.t ->
  ?metrics:Nv_obs.Metrics.t ->
  unit ->
  Epoch.t * Report.recovery_report
