(** The execution seam between the batcher and "the database": one
    engine in this process, or N shards behind the shard plane.

    The batcher forms deterministic global batches and calls {!exec};
    whether that batch runs as a single-engine epoch ({!local}) or as a
    two-round routed epoch across a cluster ({!cluster}) is this
    module's business. Single-shard serving is literally the [N = 1]
    case of the same seam, which is what keeps the two paths honest
    against each other.

    Routed execution: bump the cluster epoch and run it through the
    {!Nvcaracal.Routed.run_epoch} router loop, with each member reached
    by a direct call ({!in_process}) or over its socket ({!remote});
    see {!Shard} for the shard half.

    Remote members are supervised: a dead connection is retried, then
    the member's [respawn] callback is invoked (kill-9 failover) and
    the idempotent Route/Fence rounds are simply re-asked. *)

type call = {
  c_client : int;  (** session id *)
  c_seq : int;  (** client sequence number *)
  c_proc : string;
  c_args : bytes;
  c_txn : Nvcaracal.Txn.t;  (** built transaction (local fast path) *)
}

type member
type t

val local : engine:Nvcaracal.Engine_intf.packed -> tables:Nvcaracal.Table.t list -> t
(** The single-engine case: {!exec} is exactly [run_batch] +
    [last_batch_outcomes]. *)

val in_process : Shard.t -> member
(** A member living in this process (tests, the chaos replay oracle). *)

val remote :
  ?retry_timeout_s:float ->
  ?respawn:(unit -> unit) ->
  gen:int ->
  shard:int ->
  shards:int ->
  Shard_client.address ->
  member
(** A member behind a socket. [gen] is this router's generation (sent
    in every handshake; shards fence older generations). [respawn] is
    invoked when the member stays unreachable after a reconnect
    attempt — typically "fork the shard process again with
    [--recover]". *)

val cluster : member array -> t
(** Members in shard-id order. Raises [Invalid_argument] when empty. *)

val exec : t -> call array -> [ `Committed | `Aborted | `Deferred ] array
(** Run one deterministic batch to its verdict vector, in batch order.
    Local: one engine epoch. Cluster: one two-round routed epoch,
    surviving member crashes via respawn + idempotent replay. Raises
    [Failure] when a member stays unreachable or verdict vectors
    diverge. *)

val defers : t -> bool
(** Whether {!exec} may answer [`Deferred]: the local engine's
    [defers], and always for a cluster (routed epochs defer cross-shard
    conflicts). *)

val digest : t -> int64
(** Local: the engine's FNV-chain state digest (the value golden
    outputs pin, {!Nv_harness.Engine.state_digest}). Cluster: XOR of
    every member's per-row digest — placement-independent, equal for
    equal committed state at {e any} shard count, which is the
    cross-shard determinism oracle. *)

val total_time_ns : t -> float
(** Simulated time: the engine's clock (local), or the max over
    in-process members (cluster; remote clocks are out of reach). *)

val shards : t -> int
val local_engine : t -> Nvcaracal.Engine_intf.packed option
(** [Some engine] only for {!local} sets — checkpointing and pmem
    oracles need the real engine and do not exist in cluster mode. *)

val epoch : t -> int
(** Cluster epoch counter (0 for local sets). *)

val set_epoch : t -> int -> unit
(** Seed the cluster epoch (router recovery replays records 0..n and
    must continue from n). Raises [Invalid_argument] on local sets. *)

val respawns : t -> int
(** Cumulative remote-member respawns — the cluster chaos campaign's
    crash counter. *)

val close : t -> unit
(** Drop remote connections (the processes are the supervisor's to
    reap). *)
