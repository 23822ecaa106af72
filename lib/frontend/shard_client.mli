(** The router's side of the shard plane: a blocking framed client for
    one shard connection.

    Failure taxonomy matters here: {!Down} means the {e peer} is gone or
    babbling (socket error, EOF, protocol violation) — the caller should
    reconnect, possibly respawning the shard, and retry the idempotent
    round. A [Server_error] reply travels as [Failure] instead: the
    connection is healthy but the shard refused (fenced generation,
    missing reconnaissance state), which calls for re-driving the
    protocol, not the process. *)

exception Down of string
(** The shard is unreachable or the connection broke mid-request. *)

type t

val connect : ?retry_timeout_s:float -> Address.t -> t
(** Connect, retrying a refused/missing endpoint until the deadline
    (default 10 s) — a freshly (re)spawned shard needs a moment to
    bind. @raise Down once the deadline passes, or at once if the host
    does not resolve. *)

val close : t -> unit

val hello : t -> gen:int -> shard:int -> shards:int -> int
(** Handshake as router generation [gen]; validates the shard's
    identity echo and returns its highest applied epoch.
    @raise Down on transport failure or identity mismatch,
    [Failure] if the shard refuses (older generation). *)

val route :
  t ->
  epoch:int ->
  calls:Wire.routed_call array ->
  reads:Wire.shard_read array ->
  Wire.shard_read array * bool
(** Round one (iterable): ship the epoch's global batch plus the
    partial merged read table so far, get the shard's owned reads (or,
    for an applied epoch, its full cached read table) and whether its
    reconnaissance pass resolved every remote read — [false] asks for
    another round with a richer table. *)

val fence : t -> epoch:int -> reads:Wire.shard_read array -> Wire.shard_outcome array * int64
(** Round two: ship the merged read table, get the verdict vector and
    owned-state digest. *)
