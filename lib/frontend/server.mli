(** The serving loop: {!Wire} frames over Unix-domain or TCP sockets,
    feeding one {!Batcher}.

    Two domains. The I/O loop is non-blocking and [Unix.select]-driven
    — every select round is one batcher tick, so the batch deadline is
    measured in event-loop rounds — and it reads, admits, forms and
    journals batches and writes replies. Each journaled batch runs on
    an {!Engine_domain}, which owns the engine while it executes; its
    wake pipe sits in the select read set, so a finished batch lands
    (and its replies go out) in the round it finishes. The next batch
    may be formed and journaled meanwhile unless the engine defers.
    Everything that reads engine state — [Bye_ok] digests, [Stats]
    snapshots, the periodic stats flush, the [should_stop] poll and
    checkpoints — waits for a batch boundary ({!Batcher.at_boundary}).
    Malformed frames and out-of-order requests are
    counted as protocol errors, answered with [Server_error] (flushed,
    not fire-and-forget), and cost the offending connection — never the
    server. A [Shutdown] request, or [should_stop] turning true
    (SIGTERM/SIGINT in [nvdb serve]), drains every admitted transaction,
    answers stragglers [Rejected `Overloaded], writes a covering
    checkpoint when a journal is attached, joins the engine domain and
    exits cleanly. An exception the engine raises ends the server: it
    is re-raised from {!serve} once its batch lands, after the engine
    domain is joined and every connection closed. *)

type address = [ `Unix of string | `Tcp of string * int ]

type config = private {
  address : address;
  batcher : Batcher.config;
  tick_interval_s : float;  (** wall time per batcher deadline tick *)
  once : bool;  (** exit once all clients of a first wave disconnected *)
  stats_interval_s : float;
      (** period of the [on_stats] live-stats flush; 0 (default)
          disables it *)
}

val config :
  ?batcher:Batcher.config ->
  ?tick_interval_s:float ->
  ?once:bool ->
  ?stats_interval_s:float ->
  address ->
  config

type recovery = {
  rec_records : Journal.record list;  (** journaled batches to replay *)
  rec_sessions : Journal.session_state list;  (** checkpointed sessions *)
  rec_batches_done : int;  (** batches the engine image already covers *)
}
(** What [--recover] feeds {!serve}: the replayable remains of a
    crashed run (see {!Restart.boot} and {!Batcher.recover}). *)

type stats = {
  clients_served : int;
  admitted : int;
  committed : int;
  aborted : int;
  rejected : int;
  replayed : int;  (** retries answered from session dedup windows *)
  epochs : int;
  protocol_errors : int;
  digest : int64;  (** committed-state digest at exit *)
}

val serve :
  ?tracer:Nv_obs.Tracer.t ->
  ?metrics:Nv_obs.Metrics.t ->
  ?journal:Journal.t ->
  ?recovery:recovery ->
  ?should_stop:(unit -> bool) ->
  ?on_stats:(string -> unit) ->
  shards:Shard_set.t ->
  registry:Proc.t ->
  tables:Nvcaracal.Table.t list ->
  config ->
  stats
(** Bind, serve until [Shutdown] / [should_stop] (or, with [once], until
    the first wave of clients has disconnected), drain, and report.
    [should_stop] is polled once per loop round while no batch
    executes (else when the executing one lands), so it may read
    engine state.
    [shards] is the execution seam: {!Shard_set.local} over a loaded
    engine for classic single-shard serving, {!Shard_set.cluster} to
    route every batch across a multi-shard deployment — the serving
    loop is identical either way. With [journal], every formed batch is
    persisted before it runs; with [recovery], the journaled tail is
    replayed through the batcher before the first connection is
    accepted.

    A [Stats] request on any connection (no [Hello] needed) is answered
    with a [Stats_ok] JSON snapshot: uptime, connection, session and
    admission counters, epoch rate, per-procedure wall-latency
    percentiles (p50/p99/p999) — plus,
    on journaled servers only, the journal occupancy, committed-state
    digest and — single-shard only; a cluster's images live in the
    shard processes — the full pmem-image CRC (hex strings; the chaos
    oracle).
    [on_stats] (with [stats_interval_s > 0]) additionally receives that
    snapshot periodically — one JSON line per interval, ready for a
    JSONL log. *)
