(** Multi-client load generator: N concurrent wire-protocol clients in
    one [Unix.select] loop.

    Each client draws a deterministic call stream from the workload's
    mix ([gen_call], seeded [seed + client_id]) and runs closed-loop:
    at most [window] calls in flight, with an optional think time
    (loop rounds) after each completion. [window] large relative to the
    server's admission bound turns the generator into an open-loop
    overload source — how the backpressure path is exercised. Rejected
    calls are counted, not resubmitted.

    With [reconnect], a dropped connection is not fatal: the client
    backs off (jittered exponential, 20 ms doubling to a 500 ms cap,
    from a jitter stream separate from the call stream) and resumes its
    session — same id, [resume] set — then retransmits every
    unanswered call. Answers for seqs already counted are tallied as
    [duplicates] (zero is the exactly-once check); a server that stays
    unreachable past [retry_timeout_s] fails the client. *)

type config = private {
  address : Address.t;
  clients : int;
  txns_per_client : int;
  seed : int;
  window : int;  (** max in-flight calls per client (closed loop = 1) *)
  think_ticks : int;  (** loop rounds to pause after each completion *)
  shutdown : bool;  (** send [Shutdown] once every client is done *)
  reconnect : bool;  (** survive dropped connections by resuming *)
  retry_timeout_s : float;  (** give up after this long disconnected *)
}

val config :
  ?clients:int ->
  ?txns_per_client:int ->
  ?seed:int ->
  ?window:int ->
  ?think_ticks:int ->
  ?shutdown:bool ->
  ?reconnect:bool ->
  ?retry_timeout_s:float ->
  Address.t ->
  config
(** Defaults: 8 clients x 100 txns, seed 42, window 1, no think time,
    no shutdown, no reconnect, 30 s retry timeout. *)

type stats = {
  sent : int;  (** unique calls generated (retransmissions not counted) *)
  committed : int;
  aborted : int;
  rejected : int;
  protocol_errors : int;
  reconnects : int;  (** successful session resumptions *)
  duplicates : int;
      (** answers for already-answered seqs — must be 0 for a server
          honouring exactly-once *)
  digests : int64 list;  (** per-client [Bye_ok] digests, client order *)
  latency : Nv_util.Histogram.t;
      (** client-observed submit-to-answer wall latency (ns), merged
          across clients; one sample per answered call (results and
          rejections both count — the client waited either way) *)
}

val run : config -> Nv_workloads.Workload.t -> stats
(** Connect, drive every client to completion (Bye/Bye_ok), optionally
    ask the server to shut down, and report aggregate outcomes.
    @raise Address.Unresolved if the server's host does not resolve. *)
