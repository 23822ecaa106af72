(** Seeded kill-9 chaos campaigns against a real served instance.

    A campaign runs [nvdb serve] (journaled) and a
    reconnecting [nvdb loadgen] as child processes, arms each server
    generation with one {!Nv_util.Crashpoint} drawn from a seeded plan
    ([NVC_CRASHPOINT=point:n]), and supervises: every SIGKILL death is
    answered by a restart with [--recover] and the next plan entry,
    until the plan is exhausted and the run completes gracefully.

    Two properties are then checked. {e Exactly-once}: the load
    generator — which retries every unacknowledged call across
    reconnects — must see zero duplicate answers and exactly one
    outcome per call sent. {e Pmem-image oracle}: replaying the durable
    artifacts (journal + optional checkpoint) offline, in-process, must
    reproduce the final server generation's parting state digest and
    pmem CRC — determinism extended across process crashes
    (docs/FAULTS.md).

    Everything a campaign touches lives in one artifact directory
    (socket, journal, both process logs), removed on success and kept
    on failure for post-mortem.

    With [shards > 1] the campaign turns on the routed cluster instead:
    one router generation serves the whole run, the seeded plan becomes
    shard-targeted crash specs ([NVC_SHARD_CRASHPOINT=shard:point:n],
    points straddling each fence's journal/apply boundary), and the
    router's own supervisor answers every shard kill-9 with a respawn
    under [--recover]. The oracle becomes the cross-shard-count
    determinism check: the router journal replayed through a 1-member
    in-process cluster must reproduce the N-shard router's parting XOR
    digest (no pmem CRC — a cluster has no single persistent image). *)

type config = private {
  exe : string;  (** the nvdb binary to spawn, normally [Sys.executable_name] *)
  seed : int;  (** crashpoint-plan seed *)
  iterations : int;  (** kill-9s to inject before letting the run finish *)
  clients : int;
  txns_per_client : int;
  checkpoint_every : int;  (** server checkpoint cadence; 0 = replay-only recovery *)
  workload : string;
  contention : string;
  engine : string;
  wseed : int;  (** workload seed *)
  shards : int;  (** 1 = classic single-shard campaign; >1 = routed cluster *)
  dir : string option;  (** artifact directory; default under [TMPDIR] *)
  keep : bool;  (** keep artifacts even on success *)
  timeout_s : float;
  log : string -> unit;  (** progress callback (crash/restart events) *)
}

val config :
  ?seed:int ->
  ?iterations:int ->
  ?clients:int ->
  ?txns_per_client:int ->
  ?checkpoint_every:int ->
  ?workload:string ->
  ?contention:string ->
  ?engine:string ->
  ?wseed:int ->
  ?shards:int ->
  ?dir:string ->
  ?keep:bool ->
  ?timeout_s:float ->
  ?log:(string -> unit) ->
  exe:string ->
  unit ->
  config
(** Defaults: seed 1, 25 iterations, 8 clients x 200 txns, no
    checkpoints, ycsb-tiny/med on nvcaracal with workload seed 42, one
    shard, timeout scaled to the iteration count. Raises
    [Invalid_argument] for [shards > 1] with [checkpoint_every > 0]
    (cluster recovery is journal replay, never a checkpoint image). *)

type outcome = {
  crashes : int;  (** kill-9s that actually fired *)
  recoveries : int;  (** [--recover] restarts performed *)
  sent : int;
  committed : int;
  aborted : int;
  rejected : int;
  reconnects : int;
  duplicates : int;  (** client-observed duplicate answers — any is a failure *)
  failures : string list;  (** empty iff the campaign passed *)
  artifacts : string option;  (** artifact directory when kept *)
}

val run : config -> outcome
(** Run one campaign to completion. Never raises on check failures —
    they are reported in [outcome.failures]; spawn/system errors may
    still raise. *)
