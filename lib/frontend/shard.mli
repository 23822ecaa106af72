(** One member of a routed multi-shard cluster: the shard-plane
    executor behind {!Wire.Route}/{!Wire.Fence}.

    The protocol itself — placement, reconnaissance, the fenced
    execution and its verdict rule, the owned apply and the XOR digest —
    is {!Nvcaracal.Routed}; a shard wraps one {!Nvcaracal.Routed} member
    with what serving it over a transport needs.

    Durability is input-logging: the fence journals the global batch
    plus the merged read table (a sentinel entry) {e before} applying,
    so {!recover} replays the shard's journal through the exact live
    path with no cluster round trip. Applied epochs stay answerable:
    re-[Route]/re-[Fence] of an applied epoch return the cached full
    read table and verdicts, which is what lets a recovering router (or
    a respawned peer) re-drive an epoch some members already applied.
    The history that backs this idempotency is kept in memory,
    unbounded — a deliberate simplification documented in
    docs/CLUSTER.md. *)

type t

val sentinel_client : int
(** The reserved session id ([0xFFFFFFFF]) under which a fence's merged
    read table is journaled alongside the epoch's calls. *)

val create :
  shard_id:int ->
  shards:int ->
  ?journal:Journal.t ->
  engine:Nvcaracal.Engine_intf.packed ->
  registry:Proc.t ->
  tables:Nvcaracal.Table.t list ->
  unit ->
  t
(** Wrap a fresh engine as shard [shard_id] of [shards]. With [journal],
    every fence is persisted before it applies. Raises
    [Invalid_argument] on an out-of-range [shard_id]. *)

val bulk_load : t -> (int * int64 * bytes) Seq.t -> unit
(** Load the workload's rows, keeping only the ones this shard owns. *)

val recover : t -> records:Journal.record list -> unit
(** Replay a reopened shard journal into a fresh, bulk-loaded shard:
    each record re-runs its fence (calls + sentinel read table) through
    the live execution path, reproducing applied state and refilling
    the idempotency history. Armed crashpoints stay quiet during
    replay. Raises [Failure] on a gap or a record without its
    sentinel. *)

val route :
  t ->
  epoch:int ->
  calls:Wire.routed_call array ->
  reads:Wire.shard_read array ->
  Wire.shard_read array * bool
(** Round one: {!Nvcaracal.Routed.route} for the next epoch. For an
    already-applied epoch, return the epoch's {e full} merged read table
    from history with [true] (idempotent re-route). Raises [Failure] on
    an epoch gap. *)

val fence : t -> epoch:int -> reads:Wire.shard_read array -> Wire.shard_outcome array * int64
(** Round two: {!Nvcaracal.Routed.fence}, journaling the epoch before
    it applies; returns the verdict vector plus the owned-state digest.
    Idempotent for applied epochs (cached answer). *)

val handle : t -> Wire.request -> Wire.response
(** Dispatch one shard-plane request ([Shard_hello]/[Route]/[Fence]);
    errors become [Server_error]. [Shard_hello] validates the claimed
    identity and fences router generations: once a newer generation has
    said hello, older generations are refused. *)

val serve : t -> address:Address.t -> should_stop:(unit -> bool) -> unit
(** Synchronous shard server: accept connections, require [Shard_hello]
    first, serve the shard plane until [should_stop ()]. A connection
    whose generation is superseded mid-flight is fenced (its frames are
    refused), so a zombie router cannot drive the shard after a
    failover. Removes a Unix socket path on exit. *)

val digest : t -> int64
(** The member's XOR row digest ({!Nvcaracal.Routed.digest}). *)

val shard_id : t -> int

val applied : t -> int
(** Highest epoch durably applied (0 before the first fence). *)

val engine : t -> Nvcaracal.Engine_intf.packed
