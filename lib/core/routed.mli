(** Deterministic multi-shard execution without two-phase commit: the
    transport-free core of the routed Route/Fence protocol.

    The paper's introduction argues, after Calvin, that because the
    serial order is fixed before execution and transactions cannot
    abort for concurrency reasons, a batch commits across shards with
    {e no} two-phase commit: every member independently reaches the
    same decisions. This module is that argument in code, used as-is by
    the served cluster ([Nv_frontend.Shard]/[Shard_set], which add
    journaling, idempotent re-drives and sockets) and by in-process
    clusters ({!exec}: the fuzzer, examples and tests).

    Every member owns the keys the placement hash ({!owner}) assigns it
    and sees the {e whole} batch of every epoch. An epoch runs in two
    rounds:

    + {b Route} (iterable): a reconnaissance pass discovers the owned
      keys the epoch touches — declared write sets for free, undeclared
      reads by speculative execution against owned committed state and
      the partial read table merged so far — and answers with their
      committed values plus a completeness flag.
    + {b Fence}: with the final merged read table every read resolves,
      so each member re-executes the batch, decides each transaction's
      fate with the Aria-style reservation rule — identically
      everywhere, no voting — and commits its owned slice of the writes
      as one blind-write batch.

    {!run_epoch} is the router loop over per-member closures: direct
    calls for in-process members, sockets for remote ones. *)

(** {1 Placement and the apply codec} *)

val owner : shards:int -> table:int -> key:int64 -> int
(** The placement hash: which of [shards] members owns [(table, key)]
    (FNV combine of the key hash and the table id, mod [shards]). *)

val apply_txn_of_input : bytes -> Txn.t
(** A member commits its owned writes as blind-write transactions, one
    per key, each with its write set declared (so any engine variant
    runs them) and a self-describing input record
    ([table:u32][key:i64][len:u32][value]). This rebuilds one from that
    record: the [rebuild] a member engine's crash recovery replays its
    input log with. *)

(** {1 Read tables and verdicts} *)

type read = { sr_table : int; sr_key : int64; sr_value : bytes option }
(** One entry of an epoch's read table: the committed value of
    [(sr_table, sr_key)] at epoch start. [sr_value = None] is a live
    answer — "that key has no committed row" — distinct from the key
    being absent from the table. *)

type outcome = [ `Committed | `Aborted | `Deferred ]
(** Per-transaction verdict, in batch order. [`Deferred] transactions
    lost a reservation to an earlier one and are returned for
    resubmission. *)

(** {1 Members} *)

type 'c t
(** One member's state: its engine, its placement, the highest applied
    epoch and the reconnaissance cache between Route and Fence. ['c] is
    the call representation the batch arrives as; the member turns each
    call into a transaction with the [rebuild] it was created with. *)

val create :
  shard_id:int ->
  shards:int ->
  applied:int ->
  rebuild:('c -> Txn.t) ->
  engine:Engine_intf.packed ->
  tables:Table.t list ->
  'c t
(** Member [shard_id] of [shards] over [engine], whose state already
    includes every epoch up to [applied] (0 for a fresh engine).
    @raise Invalid_argument on an out-of-range [shard_id]. *)

val shard_id : 'c t -> int
val shards : 'c t -> int

val applied : 'c t -> int
(** Highest applied epoch (0 before the first fence). *)

val engine : 'c t -> Engine_intf.packed

val bulk_load : 'c t -> (int * int64 * bytes) Seq.t -> unit
(** Load the initial rows, keeping only the ones this member owns. *)

val read_committed : 'c t -> table:int -> key:int64 -> bytes option
(** Committed value of an owned key. *)

val digest : 'c t -> int64
(** XOR over committed rows of per-row hashes: order- and
    placement-independent, so XOR-ing every member's digest yields a
    cluster fingerprint comparable across member counts. *)

val route : 'c t -> epoch:int -> calls:'c array -> reads:read array -> read array * bool
(** Round one, for the next epoch ([applied + 1]): a reconnaissance
    pass against [reads], the partially merged table so far (empty on
    the first pass). Returns this member's owned reads, sorted by
    (table, key), and whether the pass resolved every remote read it
    attempted; when false, the router must merge and route again.
    Repeat routes of one epoch reuse the rebuilt transactions.
    @raise Failure on any other epoch. *)

val fence : 'c t -> epoch:int -> reads:read array -> persist:('c array -> unit) -> outcome array
(** Round two: re-execute the routed epoch under the merged read table,
    call [persist] with the epoch's calls (the durability hook: it runs
    after the verdicts are known and before anything is applied), then
    apply the owned slice of the committed writes.
    @raise Failure without a matching {!route}, or when a read reaches
    a remote key reconnaissance never discovered (control flow
    depending on remote values — see docs/CLUSTER.md). *)

val replay : 'c t -> epoch:int -> calls:'c array -> reads:read array -> outcome array
(** Re-apply the next epoch from its durable record — its calls and
    final read table — through the same execution path as {!fence},
    with no reconnaissance. @raise Failure on an epoch gap. *)

(** {1 The router} *)

type peer = {
  route : read array -> read array * bool;
  fence : read array -> outcome array;
}
(** One member as the router sees it for one epoch: {!route} and
    {!fence} with the epoch and its calls already bound. *)

val run_epoch : epoch:int -> peer array -> outcome array
(** Drive one epoch across every member: iterate Route, merging the
    answers into one read table (duplicate keys must agree), until
    every member's pass is complete or nothing new was learned; then
    Fence everyone with the final table and check that every verdict
    vector is identical. Agreement is a theorem of determinism, so a
    divergence is corruption, not a vote.
    @raise Failure on disagreeing reads, divergent verdicts, or
    reconnaissance that does not converge. *)

val exec : 'c t array -> epoch:int -> 'c array -> outcome array
(** {!run_epoch} over in-process members called directly, with no
    persistence: an in-process cluster's whole epoch. *)
