(** Primary/replica replication by input-log shipping.

    Deterministic databases replicate by shipping each epoch's
    transaction inputs and serial order, not its effects (paper
    sections 1 and 2.2, after SLOG/Calvin): the replica replays the
    batch with the same deterministic concurrency control and reaches
    a bit-identical committed state. The epoch's input record is tiny
    compared to redo traffic, and no two-phase commit is needed.

    This module wires two {!Db} instances together: the primary
    executes a batch, the serialized inputs are appended to a
    ship queue, and the replica consumes them — synchronously ([sync])
    or with a configurable apply lag. Failover promotes the replica
    after draining the queue; epochs whose inputs were shipped are
    never lost, and the promoted database continues from the same
    committed state the primary had. *)

type t

val create :
  config:Config.t ->
  tables:Table.t list ->
  rebuild:(bytes -> Txn.t) ->
  unit ->
  t
(** A serial-CC pair. Primary and replica share the configuration and
    schema; [rebuild] deserializes a logged input
    back into its transaction (the same function {!Db.recover} uses). *)

val bulk_load : t -> (int * int64 * bytes) Seq.t -> unit
(** Load both sides (initial state is shipped out of band, as when
    seeding a new replica from a checkpoint). *)

val submit : t -> Txn.t array -> Report.epoch_stats
(** Execute one batch on the primary ({!Db.run_epoch}) and enqueue its
    input record for the replica. *)

val replica_lag : t -> int
(** Shipped-but-unapplied epochs. *)

val sync : t -> ?upto:int -> unit -> unit
(** Apply up to [upto] queued epochs on the replica (default: all). *)

val shipped_bytes : t -> int
(** Total input-record bytes shipped so far. *)

val primary_db : t -> Db.t
val replica_db : t -> Db.t
(** Direct access (e.g. serving stale reads from the replica). *)

val failover_db : t -> Db.t
(** Drain the queue and promote the replica: returns a database equal
    to the primary's last submitted state, ready to execute epochs.
    Every shipped-but-unapplied epoch is applied before promotion, so
    failover racing an in-flight shipment never loses an epoch. The
    pair must not be used afterwards. *)

val states_equal : t -> bool
(** True when primary and the fully-synced replica agree on every
    table's committed contents (testing/verification; drains the
    queue). *)
