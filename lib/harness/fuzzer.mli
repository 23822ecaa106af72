(** Randomized crash-recovery fuzzing.

    Each iteration builds a database from a randomly-chosen workload
    and configuration (design toggles, index implementation, persistent
    index on/off), runs a few epochs, injects a crash at a random phase
    of a random epoch with a random crash image, recovers, and compares
    the recovered state — table by table — against an oracle database
    that executed the same batches without crashing. Any mismatch is a
    correctness bug.

    With [~faults:true] each iteration instead crashes through a random
    media-fault model (legal image, torn lines, bit-rot, dead lines —
    see {!Nv_nvmm.Pmem.fault_model}), sometimes crashes {e again} in
    the middle of recovery, and recovers with [~scrub:true]. The oracle
    comparison then accounts for what the scrub loudly reported: keys
    listed in the damage report are excluded, a dropped log shrinks the
    oracle by the crashed epoch, and corruption the scrub can only
    detect (destroyed row identity, unreadable epoch record) is
    verified by the report alone. Silent divergence is always a
    failure.

    With [~diff:true] each iteration instead runs the same seeded
    batches through the deterministic NVCaracal engine {e and} through
    Zen via the shared {!Nvcaracal.Engine_intf.S} seam, comparing
    committed state and commit counts — a differential check that the
    two backends agree on what a serial-order batch means. Restricted
    to YCSB and SmallBank (Zen supports neither dynamic write sets nor
    persistent counters).

    Exposed as `nvdb fuzz`; the test suite runs a handful of
    iterations, the CLI as many as you like. *)

type outcome = {
  iterations : int;
  crashes_injected : int;
  replays : int;  (** iterations whose crashed epoch was replayed *)
  faulted : int;  (** iterations that injected media faults *)
  recrashes : int;  (** crashes injected in the middle of recovery *)
  salvages : int;  (** recoveries that repaired, salvaged or reported corruption *)
  detection_only : int;  (** iterations verified by the damage report alone *)
  diffed : int;  (** iterations that cross-checked NVCaracal against Zen *)
  failures : string list;  (** human-readable mismatch descriptions *)
}

val run :
  seed:int ->
  iterations:int ->
  ?faults:bool ->
  ?diff:bool ->
  ?log:(string -> unit) ->
  unit ->
  outcome
(** Deterministic for a given [seed]. [faults] (default false) switches
    every iteration to the media-fault campaign; [diff] (default false)
    to the NVCaracal-vs-Zen differential campaign ([diff] wins if both
    are set). [log] receives one line per iteration. *)
