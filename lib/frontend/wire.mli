(** The client/server wire protocol: length-prefixed binary frames.

    Every message is one frame, [[u32_le payload_len][payload]], whose
    payload begins with a one-byte tag. Integers are little-endian.
    Submit carries a framed procedure call; its [(proc, args)] tail is
    exactly what the registry logs ({!Proc.encode_call}), so wire
    capture, input log and replay agree byte for byte.

    Decoders raise {!Protocol_error} on malformed input — servers count
    these and drop the offending connection, they never crash. *)

exception Protocol_error of string

val max_frame : int
(** Upper bound on a payload's size (1 MiB); larger length prefixes are
    protocol errors. *)

val protocol_version : int
(** The protocol version this build speaks (3). Version 1 frames
    (label-only [Hello], bare [Hello_ok]) are still decoded, and a
    [Hello] claiming a {e higher} version is accepted too — the server
    clamps to its own version in [Hello_ok] (min of both sides), so
    future clients can connect and negotiate down. Version 3 adds the
    {e shard plane} ([Shard_hello]/[Route]/[Fence] and their replies):
    router-to-shard traffic for epoch-aligned multi-shard serving.
    Every pre-v3 frame is encoded byte-identically, and a v2 peer
    never sees a shard-plane tag. *)

type routed_call = { rc_client : int; rc_seq : int; rc_call : bytes }
(** One globally-sequenced transaction inside a [Route] frame:
    originating session id, the client's sequence number (together the
    exactly-once identity), and the encoded procedure call
    ({!Proc.encode_call} layout). *)

type shard_read = Nvcaracal.Routed.read = {
  sr_table : int;
  sr_key : int64;
  sr_value : bytes option;
}
(** One remote-read answer ({!Nvcaracal.Routed.read}). *)

type shard_outcome = Nvcaracal.Routed.outcome
(** Per-transaction verdict a shard reports at the fence. Every shard
    must report the identical vector — the router asserts it. *)

type request =
  | Hello of { client : int; version : int; resume : bool; last_seq : int }
      (** First message on a connection. [client] is the caller-chosen
          {e session id}: reconnecting with the same id and [resume]
          set resumes the session (per-seq dedup window intact), while
          [resume] unset resets it. [last_seq] is the highest sequence
          number this client saw acknowledged (informational; the
          server answers with its own view). Version 1 encodes only
          [client] and implies [resume = false], [last_seq = 0]. *)
  | Submit of { req : int; proc : string; args : bytes }
      (** Call a stored procedure. [req] is the client's {e sequence
          number} for the call (start at 1, increase monotonically);
          the matching [Result]/[Rejected] echoes it, and the server's
          per-session dedup window keys on it, so a retry after
          reconnect returns the original outcome instead of
          re-executing. *)
  | Bye  (** Graceful close: answered with [Bye_ok] once all of this
             connection's admitted transactions have been answered. *)
  | Shutdown
      (** Ask the server to drain every queued transaction and exit. *)
  | Stats
      (** Ask for a live statistics snapshot. Allowed at any point on a
          connection (before [Hello] too: monitoring tools need not
          register as clients). *)
  | Shard_hello of { gen : int; shard : int; shards : int; version : int }
      (** Router-to-shard handshake. [gen] is the router's generation
          number: a shard remembers the highest it has seen and
          rejects handshakes from older generations, fencing off a
          zombie router after failover. [shard]/[shards] state which
          member of how many the router believes it is addressing —
          the shard verifies both. *)
  | Route of { epoch : int; calls : routed_call array; reads : shard_read array }
      (** Round one (possibly iterated): the epoch's complete global
          batch, in the one serial order every shard must agree on,
          plus the partially merged read table so far ([reads] is empty
          on the first pass). The shard executes a reconnaissance pass
          — local reads answered live, remote reads answered from
          [reads] or left unresolved — and replies [Route_reads] with
          the values it owns and whether its pass saw every remote
          value it needed ([complete]). The router repeats Route with a
          richer table until every shard is complete, then fences.
          Re-routing an applied epoch is answered from history — Route
          is idempotent. *)
  | Fence of { epoch : int; reads : shard_read array }
      (** Round two: the merged read table from every shard's
          [Route_reads]. With all remote reads resolved each shard
          re-executes deterministically, reserves, applies its owned
          writes, and replies [Fence_ok]. *)

type reject_reason = [ `Overloaded | `Unknown_proc | `Bad_frame ]

type response =
  | Hello_ok of { version : int; last_acked : int }
      (** Handshake answer: the negotiated protocol version (min of the
          client's and the server's) and the highest sequence number
          the server has acknowledged for this session — after a
          resume, everything above it should be retransmitted. *)
  | Result of { req : int; outcome : [ `Committed | `Aborted ] }
      (** Sent only after the transaction's epoch is checkpointed. *)
  | Rejected of { req : int; reason : reject_reason }
      (** Explicit rejection — admission control never drops silently. *)
  | Bye_ok of { digest : int64 }
      (** Connection closed; [digest] fingerprints the committed state
          at that instant (equal runs give equal digests). *)
  | Server_error of string
  | Stats_ok of { json : string }
      (** Answer to [Stats]: one JSON object — uptime, client and
          admission counters, epoch rate, per-procedure wall-clock
          latency percentiles (see
          docs/OBSERVABILITY.md for the schema). JSON rather than a
          binary layout: the snapshot is for humans and scripts, not
          the hot path, and the schema can grow without a protocol
          bump. *)
  | Shard_hello_ok of { version : int; shard : int; shards : int; applied : int }
      (** Handshake answer: the shard's protocol version, its identity
          echo, and the highest epoch it has durably applied — the
          router resumes routing from [applied + 1]. *)
  | Route_reads of { epoch : int; reads : shard_read array; complete : bool }
      (** Round-one reply: the values this shard owns among the
          epoch's reads, sorted by (table, key). [complete] is false
          when the reconnaissance pass hit a remote read the supplied
          partial table could not answer — the router must route
          again with the merged table before fencing. *)
  | Fence_ok of { epoch : int; outcomes : shard_outcome array; digest : int64 }
      (** Round-two reply: the per-transaction verdict vector (one
          entry per routed call, in batch order — identical on every
          shard) and the shard's owned-state digest contribution
          (XOR-combinable across shards). *)

val no_req : int
(** The request token used when a rejection cannot name a request
    (malformed frame): [0xFFFFFFFF]. *)

val encode_request : request -> bytes
(** Full frame, ready to write. *)

val encode_response : response -> bytes

val decode_request : bytes -> request
(** Decode one payload (as yielded by {!Reader.next_payload}).
    @raise Protocol_error on malformed input. *)

val decode_response : bytes -> response

val encode_reads : shard_read array -> bytes
(** The bare read-table layout ([[u32 n]] then per read
    [[u32 table][i64 key][u8 present][u32 len][bytes]]), without a
    frame around it. A shard journals its fence's merged reads in this
    form (as a sentinel journal entry), so crash recovery re-executes
    the epoch from the journal alone — no cluster round trip. *)

val decode_reads : bytes -> shard_read array
(** Inverse of {!encode_reads}. @raise Protocol_error on malformed
    input. *)

(** Incremental frame extraction over a byte stream: feed whatever the
    socket yielded, pop complete payloads. *)
module Reader : sig
  type t

  val create : unit -> t

  val feed : t -> bytes -> off:int -> len:int -> unit
  (** Append [len] bytes of [src] starting at [off]. *)

  val next_payload : t -> bytes option
  (** The next complete frame's payload, or [None] until more bytes
      arrive. @raise Protocol_error on an invalid length prefix. *)
end
