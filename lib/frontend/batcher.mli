(** The epoch batcher: multi-client admission, deterministic batch
    forming, checkpoint-gated reply delivery, and exactly-once
    sessions.

    This is the serving pipeline's core, kept free of sockets so tests
    drive it directly. Clients connect with a reply callback and submit
    framed procedure calls; the batcher keeps one FIFO per client,
    closes a batch when the {e size target} is reached or the
    {e deadline} (in ticks of the caller's event loop) expires, runs it
    as one engine epoch, and only then — after the epoch's checkpoint —
    fires the replies (paper section 6.2.3). Admission is bounded:
    beyond [max_pending] queued transactions, or once an attached
    journal could not hold every unanswered call's records plus this
    one, a submit is answered [Rejected `Overloaded], never silently
    dropped; an admitted call always fits its record.

    Every batch goes through one lifecycle: {e form} (carryover first,
    then the FIFOs) → {e journal} → {e launch} → {e land} → {e reply}.
    Without an {!Engine_domain.t}, launch runs the batch inline and it
    lands at once. With one, launch hands it to the engine domain and a
    later {!tick} lands it; meanwhile the next batch may be formed and
    journaled, provided the running batch cannot defer (see
    {!Shard_set.defers}). Reads of engine state wait for a batch
    boundary ({!at_boundary}).

    Clients are {e sessions}, not connections: a session keeps its
    per-seq dedup window and last-acked sequence number across
    disconnects, so a reconnecting client that retries an
    already-answered call gets the original outcome back instead of a
    second execution. Admission is a determinism commitment — once a
    call is in a batch it executes even if the submitter vanishes; only
    the reply is dropped (and its outcome recorded for a later retry).

    Batch forming is deterministic given queue contents: engine-deferred
    carryover first (original serial order), then round-robin over the
    per-client FIFOs in client-id order. With a {!Journal.t} attached,
    each formed batch's new calls are persisted {e before} it runs, so
    replaying the journaled batches (each led by the previous one's
    deferrals) through a fresh engine must reproduce the same
    committed state — the end-to-end determinism check — and
    {!recover} replays a reopened journal through the same execution
    path, reproducing the crashed server's pmem image bit for bit. The
    batcher itself keeps no history of past batches. *)

type t
type client

type config = private {
  batch_target : int;  (** close the batch at this many transactions *)
  deadline_ticks : int;  (** ... or this many ticks after the oldest arrival *)
  max_pending : int;  (** admission bound across all clients *)
  dedup_window : int;  (** acked outcomes remembered per session *)
  checkpoint_every : int;  (** checkpoint+truncate cadence in batches; 0 = never *)
}

val config :
  ?batch_target:int ->
  ?deadline_ticks:int ->
  ?max_pending:int ->
  ?dedup_window:int ->
  ?checkpoint_every:int ->
  unit ->
  config
(** Defaults: target 256, deadline 8 ticks, [max_pending] 4x target,
    dedup window 4096, no automatic checkpoints. Raises
    [Invalid_argument] on non-positive values or
    [max_pending < batch_target]. *)

val create :
  ?cfg:config ->
  ?tracer:Nv_obs.Tracer.t ->
  ?metrics:Nv_obs.Metrics.t ->
  ?journal:Journal.t ->
  ?engine_domain:Engine_domain.t ->
  shards:Shard_set.t ->
  registry:Proc.t ->
  tables:Nvcaracal.Table.t list ->
  unit ->
  t
(** Wrap an execution seam — {!Shard_set.local} for one loaded engine
    (the classic single-shard server), {!Shard_set.cluster} for routed
    multi-shard serving; the batcher is identical either way. [metrics]
    (if enabled) gains queue-depth gauges plus queue-wait, batch-size,
    epoch-execution and checkpoint-to-reply histograms under the
    [frontend.] prefix. [checkpoint_every > 0] without a [journal], or
    on a cluster-backed set (whose durability is each shard's own
    journal, never one pmem image), raises [Invalid_argument]. With
    [engine_domain], batches run there and the engine belongs to that
    domain while one executes; without, they run inline. *)

val connect : ?id:int -> ?resume:bool -> t -> reply:(Wire.response -> unit) option -> client
(** Attach to a session. Without [id] a fresh unused id is assigned.
    With [id] and [resume] set, an existing session is resumed — dedup
    window and last-acked intact, reply channel swapped. With [resume]
    unset (default) a known id is {e reset}: new generation, empty
    window, replies for its older entries suppressed. [reply] receives
    the session's [Result]/[Rejected] messages ([None] for
    fire-and-forget). *)

val disconnect : ?token:int -> t -> client -> unit
(** Drop the reply channel. The session itself persists: admitted
    transactions still execute in their epoch and their outcomes land
    in the dedup window, ready for a resumed retry. With [token] (from
    {!owner_token} at attach time), the channel is dropped only if this
    attach still owns it — a stale connection closing after a
    last-Hello-wins takeover must not sever the new connection. *)

val owner_token : client -> int
(** Identifies the current attach of this session; changes on every
    {!connect} that targets it. Pass it back to {!disconnect} so only
    the owning connection can drop the reply channel. *)

val submit :
  t ->
  client ->
  req:int ->
  proc:string ->
  args:bytes ->
  [ `Admitted
  | `Rejected of [ `Overloaded | `Unknown_proc ]
  | `Replayed of [ `Committed | `Aborted ]
  | `Duplicate ]
(** Submit one call under client sequence number [req]. If [req] is in
    the session's dedup window the stored outcome is re-sent
    ([`Replayed]); if it is still in flight nothing is sent
    ([`Duplicate] — the original reply will answer it); otherwise it is
    admitted into the FIFO or rejected, with the rejection also sent on
    the reply channel. A disconnected session admits normally — replies
    are dropped, outcomes still land in the dedup window for a resumed
    retry. *)

val try_replay :
  t -> client -> req:int -> [ `Replayed of [ `Committed | `Aborted ] | `Inflight | `New ]
(** Non-admitting probe (used while a server drains): a [req] in the
    dedup window replays its original outcome on the reply channel; an
    in-flight [req] is left to the reply its admission already owes;
    only [`New] means the caller should reject. *)

val tick : t -> unit
(** Advance the batcher's clock one tick, then {!poll}. *)

val poll : t -> unit
(** Land the executing batch if the engine domain finished it (replies
    fire), then close and launch the open batch once the size target is
    met or the deadline has expired with transactions pending, if the
    pipeline has room. The clock does not move. Batches never close
    inside {!submit}, so admissions between two polls pile up to
    [max_pending]. An exception the engine raised is re-raised here,
    when its batch lands. *)

val flush : t -> unit
(** Close and launch the open batch now, if non-empty (first waiting
    for a running batch to land when the pipeline is full). Inline, the
    batch has landed on return. *)

val drain : t -> unit
(** Run batches until nothing is pending or executing (deferred
    transactions are resubmitted until they commit); what [Shutdown]
    triggers. *)

val in_flight : t -> int
(** Formed batches that have not landed: 0, 1 (executing on the engine
    domain), or 2 (one executing, the next formed and journaled). Always
    0 inline. *)

val settle : t -> unit
(** Block until the executing batch (if any) lands; the batch formed
    ahead of it then launches. *)

val at_boundary : t -> (unit -> unit) -> unit
(** Run [f] where no batch executes: now when none does, else once the
    executing batch has landed, before the next one launches. Every
    read of engine state — digests, pmem images — made
    while serving goes through here. *)

val checkpoint_now : t -> bool
(** Wait for executing batches to land, then write a covering
    checkpoint (engine pmem image + session table of exactly
    {!batches_run} batches) and truncate the journal to it. A no-op
    returning [false] without a journal, on a cluster-backed set (no
    single pmem image exists), or while conflict-deferred carryover is
    outstanding — truncation must never orphan a deferred call whose
    bytes live only in the journal. *)

val recover :
  t ->
  records:Journal.record list ->
  sessions:Journal.session_state list ->
  batches_done:int ->
  unit
(** Replay a reopened journal into a {e fresh} batcher whose engine
    already covers [batches_done] batches (0 for a fresh engine, the
    checkpoint's count for a restored one). Records below
    [batches_done] are skipped; the rest must be gapless and run
    through the live batch path, so the resulting pmem image matches an
    uncrashed run's. Each batch is the previous one's deferrals
    followed by the record's calls, and runs inline. [sessions] (from
    the checkpoint) seed the dedup windows; replayed outcomes re-ack on
    top. The final batch's deferrals become live carryover. *)

val client_id : client -> int
val outstanding : client -> int
(** Admitted-but-unanswered transactions of this client (what [Bye]
    waits on). *)

val last_acked : client -> int
(** Highest sequence number acknowledged to this session. *)

val shard_set : t -> Shard_set.t

val engine : t -> Nvcaracal.Engine_intf.packed
(** The local engine of a {!Shard_set.local}-backed batcher. Raises
    [Invalid_argument] on a cluster-backed one — checkpointing and
    pmem oracles have no single engine to reach there. While a batch
    executes the engine belongs to the engine domain: read it at a
    batch boundary ({!at_boundary}). *)

val journal : t -> Journal.t option
val pending : t -> int

val queued : t -> int
(** Pending entries still in per-session FIFOs (excludes carryover). *)

val carryover_len : t -> int
(** Conflict-deferred entries that will lead the next batch. *)

val epochs_run : t -> int

val batches_run : t -> int
(** Batches executed since creation, replay included. *)

val admitted : t -> int
val committed : t -> int
val aborted : t -> int
val rejected : t -> int

val replayed_replies : t -> int
(** Retries answered from a session dedup window. *)

val deferred_total : t -> int
(** Cumulative conflict-victim deferrals (an entry deferred twice
    counts twice). *)

val sessions : t -> int
(** Sessions known to the batcher (connected or not). *)

val current_tick : t -> int

val proc_latencies : t -> (string * Nv_util.Histogram.t) list
(** Admission-to-reply {e wall-clock} latency per procedure (ns),
    sorted by procedure name. Host-time readings, so they live outside
    the metrics registry (whose records must stay deterministic); the
    server publishes them through the [Stats] wire message. *)

val state_digest : t -> int64
(** {!Shard_set.digest} of the committed state: the engine's FNV-chain
    digest on a local set, the XOR cluster digest on a routed one.
    Raises [Invalid_argument] while a batch executes ({!in_flight}). *)
