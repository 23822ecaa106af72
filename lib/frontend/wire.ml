exception Protocol_error of string

let max_frame = 1 lsl 20
let protocol_version = 3

type routed_call = { rc_client : int; rc_seq : int; rc_call : bytes }
type shard_read = Nvcaracal.Routed.read = {
  sr_table : int;
  sr_key : int64;
  sr_value : bytes option;
}

type shard_outcome = Nvcaracal.Routed.outcome

type request =
  | Hello of { client : int; version : int; resume : bool; last_seq : int }
  | Submit of { req : int; proc : string; args : bytes }
  | Bye
  | Shutdown
  | Stats
  | Shard_hello of { gen : int; shard : int; shards : int; version : int }
  | Route of { epoch : int; calls : routed_call array; reads : shard_read array }
  | Fence of { epoch : int; reads : shard_read array }

type reject_reason = [ `Overloaded | `Unknown_proc | `Bad_frame ]

type response =
  | Hello_ok of { version : int; last_acked : int }
  | Result of { req : int; outcome : [ `Committed | `Aborted ] }
  | Rejected of { req : int; reason : reject_reason }
  | Bye_ok of { digest : int64 }
  | Server_error of string
  | Stats_ok of { json : string }
  | Shard_hello_ok of { version : int; shard : int; shards : int; applied : int }
  | Route_reads of { epoch : int; reads : shard_read array; complete : bool }
  | Fence_ok of { epoch : int; outcomes : shard_outcome array; digest : int64 }

let no_req = 0xFFFFFFFF

(* Tags. Requests are 0x0x, responses 0x8x. The 0x06..0x08 / 0x87..0x89
   block is the v3 shard plane: a v2 peer never sees these tags (the
   router only routes to shards that answered Shard_hello_ok with
   version >= 3), and every pre-v3 frame is encoded byte-identically. *)
let tag_hello = 0x01
let tag_submit = 0x02
let tag_bye = 0x03
let tag_shutdown = 0x04
let tag_stats = 0x05
let tag_shard_hello = 0x06
let tag_route = 0x07
let tag_fence = 0x08
let tag_hello_ok = 0x81
let tag_result = 0x82
let tag_rejected = 0x83
let tag_bye_ok = 0x84
let tag_server_error = 0x85
let tag_stats_ok = 0x86
let tag_shard_hello_ok = 0x87
let tag_route_reads = 0x88
let tag_fence_ok = 0x89

let err fmt = Printf.ksprintf (fun s -> raise (Protocol_error s)) fmt

let add_u32 buf v =
  if v < 0 || v > 0xFFFFFFFF then err "u32 out of range: %d" v;
  Buffer.add_int32_le buf (Int32.of_int v)

let get_u32 b off = Int32.to_int (Bytes.get_int32_le b off) land 0xFFFFFFFF

(* Remote-read tables travel in two frames (Fence, Route_reads) with
   one layout: [u32 n] then per read [u32 table][i64 key][u8 present]
   [u32 len][len bytes]. An absent value ([present] = 0, len omitted)
   is a live answer — "that key has no committed row" — distinct from
   the key not appearing at all. *)
let add_reads b reads =
  add_u32 b (Array.length reads);
  Array.iter
    (fun { sr_table; sr_key; sr_value } ->
      add_u32 b sr_table;
      Buffer.add_int64_le b sr_key;
      match sr_value with
      | None -> Buffer.add_uint8 b 0
      | Some v ->
          Buffer.add_uint8 b 1;
          add_u32 b (Bytes.length v);
          Buffer.add_bytes b v)
    reads

let need payload n =
  if Bytes.length payload < n then err "truncated payload: %d < %d" (Bytes.length payload) n

let get_reads payload off =
  need payload (off + 4);
  let n = get_u32 payload off in
  let pos = ref (off + 4) in
  let reads = Array.make n { sr_table = 0; sr_key = 0L; sr_value = None } in
  for i = 0 to n - 1 do
    need payload (!pos + 13);
    let sr_table = get_u32 payload !pos in
    let sr_key = Bytes.get_int64_le payload (!pos + 4) in
    (match Bytes.get_uint8 payload (!pos + 12) with
    | 0 ->
        pos := !pos + 13;
        reads.(i) <- { sr_table; sr_key; sr_value = None }
    | 1 ->
        need payload (!pos + 17);
        let len = get_u32 payload (!pos + 13) in
        need payload (!pos + 17 + len);
        let v = Bytes.sub payload (!pos + 17) len in
        pos := !pos + 17 + len;
        reads.(i) <- { sr_table; sr_key; sr_value = Some v }
    | f -> err "bad read-present flag %d" f)
  done;
  (reads, !pos)

(* The bare read-table codec, exported for the shard journal: a fence's
   merged reads are journaled as a sentinel entry so recovery can
   re-execute the epoch without re-contacting the cluster. *)
let encode_reads reads =
  let b = Buffer.create 64 in
  add_reads b reads;
  Buffer.to_bytes b

let decode_reads payload = fst (get_reads payload 0)

(* A frame is [u32_le payload_len][payload]; the payload starts with a
   one-byte tag. [frame] seals a tagged body into a full frame. *)
let frame tag body =
  let payload_len = 1 + Buffer.length body in
  if payload_len > max_frame then err "frame too large: %d" payload_len;
  let buf = Buffer.create (4 + payload_len) in
  Buffer.add_int32_le buf (Int32.of_int payload_len);
  Buffer.add_uint8 buf tag;
  Buffer.add_buffer buf body;
  Buffer.to_bytes buf

let encode_request = function
  | Hello { client; version; resume; last_seq } ->
      (* Version 1 frames carried only the client label; the v2 tail
         adds protocol version, a resume flag and the last sequence
         number the client saw acknowledged, enabling exactly-once
         session resumption after reconnect. *)
      let b = Buffer.create 17 in
      add_u32 b client;
      add_u32 b version;
      Buffer.add_uint8 b (if resume then 1 else 0);
      if last_seq < 0 then err "negative last_seq %d" last_seq;
      Buffer.add_int64_le b (Int64.of_int last_seq);
      frame tag_hello b
  | Submit { req; proc; args } ->
      let n = String.length proc in
      if n = 0 || n > 255 then err "procedure name length %d" n;
      let b = Buffer.create (5 + n + Bytes.length args) in
      add_u32 b req;
      Buffer.add_uint8 b n;
      Buffer.add_string b proc;
      Buffer.add_bytes b args;
      frame tag_submit b
  | Bye -> frame tag_bye (Buffer.create 0)
  | Shutdown -> frame tag_shutdown (Buffer.create 0)
  | Stats -> frame tag_stats (Buffer.create 0)
  | Shard_hello { gen; shard; shards; version } ->
      let b = Buffer.create 16 in
      add_u32 b gen;
      add_u32 b shard;
      add_u32 b shards;
      add_u32 b version;
      frame tag_shard_hello b
  | Route { epoch; calls; reads } ->
      let b = Buffer.create 256 in
      add_u32 b epoch;
      add_u32 b (Array.length calls);
      Array.iter
        (fun { rc_client; rc_seq; rc_call } ->
          add_u32 b rc_client;
          add_u32 b rc_seq;
          add_u32 b (Bytes.length rc_call);
          Buffer.add_bytes b rc_call)
        calls;
      add_reads b reads;
      frame tag_route b
  | Fence { epoch; reads } ->
      let b = Buffer.create 256 in
      add_u32 b epoch;
      add_reads b reads;
      frame tag_fence b

let reason_code = function `Overloaded -> 0 | `Unknown_proc -> 1 | `Bad_frame -> 2

let reason_of_code = function
  | 0 -> `Overloaded
  | 1 -> `Unknown_proc
  | 2 -> `Bad_frame
  | c -> err "unknown reject reason %d" c

let encode_response = function
  | Hello_ok { version; last_acked } ->
      let b = Buffer.create 12 in
      add_u32 b version;
      if last_acked < 0 then err "negative last_acked %d" last_acked;
      Buffer.add_int64_le b (Int64.of_int last_acked);
      frame tag_hello_ok b
  | Result { req; outcome } ->
      let b = Buffer.create 5 in
      add_u32 b req;
      Buffer.add_uint8 b (match outcome with `Committed -> 0 | `Aborted -> 1);
      frame tag_result b
  | Rejected { req; reason } ->
      let b = Buffer.create 5 in
      add_u32 b req;
      Buffer.add_uint8 b (reason_code reason);
      frame tag_rejected b
  | Bye_ok { digest } ->
      let b = Buffer.create 8 in
      Buffer.add_int64_le b digest;
      frame tag_bye_ok b
  | Server_error msg ->
      let b = Buffer.create (String.length msg) in
      Buffer.add_string b msg;
      frame tag_server_error b
  | Stats_ok { json } ->
      let b = Buffer.create (String.length json) in
      Buffer.add_string b json;
      frame tag_stats_ok b
  | Shard_hello_ok { version; shard; shards; applied } ->
      let b = Buffer.create 16 in
      add_u32 b version;
      add_u32 b shard;
      add_u32 b shards;
      add_u32 b applied;
      frame tag_shard_hello_ok b
  | Route_reads { epoch; reads; complete } ->
      let b = Buffer.create 256 in
      add_u32 b epoch;
      Buffer.add_uint8 b (if complete then 1 else 0);
      add_reads b reads;
      frame tag_route_reads b
  | Fence_ok { epoch; outcomes; digest } ->
      let b = Buffer.create (13 + Array.length outcomes) in
      add_u32 b epoch;
      Buffer.add_int64_le b digest;
      add_u32 b (Array.length outcomes);
      Array.iter
        (fun o ->
          Buffer.add_uint8 b
            (match o with `Committed -> 0 | `Aborted -> 1 | `Deferred -> 2))
        outcomes;
      frame tag_fence_ok b

let decode_request payload =
  need payload 1;
  let tag = Bytes.get_uint8 payload 0 in
  if tag = tag_hello then begin
    need payload 5;
    let client = get_u32 payload 1 in
    if Bytes.length payload = 5 then
      (* Legacy v1 Hello: label only, no session semantics. *)
      Hello { client; version = 1; resume = false; last_seq = 0 }
    else begin
      need payload 18;
      (* Any version >= 1 decodes: a future v3 client must be able to
         reach the server and negotiate down (the Hello_ok replies with
         min(client, server)). Unknown tail bytes are ignored — newer
         Hellos may only append fields. *)
      let version = get_u32 payload 5 in
      if version < 1 then err "unsupported protocol version %d" version;
      let resume =
        match Bytes.get_uint8 payload 9 with
        | 0 -> false
        | 1 -> true
        | f -> err "bad resume flag %d" f
      in
      let last_seq = Int64.to_int (Bytes.get_int64_le payload 10) in
      if last_seq < 0 then err "negative last_seq";
      Hello { client; version; resume; last_seq }
    end
  end
  else if tag = tag_submit then begin
    need payload 6;
    let req = get_u32 payload 1 in
    let n = Bytes.get_uint8 payload 5 in
    if n = 0 then err "empty procedure name";
    need payload (6 + n);
    let proc = Bytes.sub_string payload 6 n in
    let args = Bytes.sub payload (6 + n) (Bytes.length payload - 6 - n) in
    Submit { req; proc; args }
  end
  else if tag = tag_bye then Bye
  else if tag = tag_shutdown then Shutdown
  else if tag = tag_stats then Stats
  else if tag = tag_shard_hello then begin
    need payload 17;
    Shard_hello
      {
        gen = get_u32 payload 1;
        shard = get_u32 payload 5;
        shards = get_u32 payload 9;
        version = get_u32 payload 13;
      }
  end
  else if tag = tag_route then begin
    need payload 9;
    let epoch = get_u32 payload 1 in
    let n = get_u32 payload 5 in
    let pos = ref 9 in
    let calls = Array.make n { rc_client = 0; rc_seq = 0; rc_call = Bytes.empty } in
    for i = 0 to n - 1 do
      need payload (!pos + 12);
      let rc_client = get_u32 payload !pos in
      let rc_seq = get_u32 payload (!pos + 4) in
      let len = get_u32 payload (!pos + 8) in
      need payload (!pos + 12 + len);
      let rc_call = Bytes.sub payload (!pos + 12) len in
      pos := !pos + 12 + len;
      calls.(i) <- { rc_client; rc_seq; rc_call }
    done;
    let reads, _ = get_reads payload !pos in
    Route { epoch; calls; reads }
  end
  else if tag = tag_fence then begin
    need payload 5;
    let epoch = get_u32 payload 1 in
    let reads, _ = get_reads payload 5 in
    Fence { epoch; reads }
  end
  else err "unknown request tag 0x%02x" tag

let decode_response payload =
  need payload 1;
  let tag = Bytes.get_uint8 payload 0 in
  if tag = tag_hello_ok then begin
    if Bytes.length payload = 1 then
      (* Legacy v1 Hello_ok: bare acknowledgement. *)
      Hello_ok { version = 1; last_acked = 0 }
    else begin
      need payload 13;
      let version = get_u32 payload 1 in
      let last_acked = Int64.to_int (Bytes.get_int64_le payload 5) in
      if last_acked < 0 then err "negative last_acked";
      Hello_ok { version; last_acked }
    end
  end
  else if tag = tag_result then begin
    need payload 6;
    let req = get_u32 payload 1 in
    match Bytes.get_uint8 payload 5 with
    | 0 -> Result { req; outcome = `Committed }
    | 1 -> Result { req; outcome = `Aborted }
    | c -> err "unknown outcome code %d" c
  end
  else if tag = tag_rejected then begin
    need payload 6;
    Rejected { req = get_u32 payload 1; reason = reason_of_code (Bytes.get_uint8 payload 5) }
  end
  else if tag = tag_bye_ok then begin
    need payload 9;
    Bye_ok { digest = Bytes.get_int64_le payload 1 }
  end
  else if tag = tag_server_error then
    Server_error (Bytes.sub_string payload 1 (Bytes.length payload - 1))
  else if tag = tag_stats_ok then
    Stats_ok { json = Bytes.sub_string payload 1 (Bytes.length payload - 1) }
  else if tag = tag_shard_hello_ok then begin
    need payload 17;
    Shard_hello_ok
      {
        version = get_u32 payload 1;
        shard = get_u32 payload 5;
        shards = get_u32 payload 9;
        applied = get_u32 payload 13;
      }
  end
  else if tag = tag_route_reads then begin
    need payload 6;
    let epoch = get_u32 payload 1 in
    let complete =
      match Bytes.get_uint8 payload 5 with
      | 0 -> false
      | 1 -> true
      | f -> err "bad complete flag %d" f
    in
    let reads, _ = get_reads payload 6 in
    Route_reads { epoch; reads; complete }
  end
  else if tag = tag_fence_ok then begin
    need payload 17;
    let epoch = get_u32 payload 1 in
    let digest = Bytes.get_int64_le payload 5 in
    let n = get_u32 payload 13 in
    need payload (17 + n);
    let outcomes =
      Array.init n (fun i ->
          match Bytes.get_uint8 payload (17 + i) with
          | 0 -> `Committed
          | 1 -> `Aborted
          | 2 -> `Deferred
          | c -> err "unknown shard outcome code %d" c)
    in
    Fence_ok { epoch; outcomes; digest }
  end
  else err "unknown response tag 0x%02x" tag

module Reader = struct
  (* Unconsumed bytes are [buf.[start .. len-1]]. Taking a frame only
     advances [start]; [feed] moves the remainder to the front once, so
     a read holding many frames costs one move, not one per frame. *)
  type t = { mutable buf : bytes; mutable start : int; mutable len : int }

  let create () = { buf = Bytes.create 4096; start = 0; len = 0 }

  let feed t src ~off ~len =
    let live = t.len - t.start in
    let need = live + len in
    if Bytes.length t.buf < need then begin
      let cap = ref (Bytes.length t.buf) in
      while !cap < need do
        cap := !cap * 2
      done;
      let b = Bytes.create !cap in
      Bytes.blit t.buf t.start b 0 live;
      t.buf <- b
    end
    else if t.start > 0 then Bytes.blit t.buf t.start t.buf 0 live;
    t.start <- 0;
    Bytes.blit src off t.buf live len;
    t.len <- need

  let next_payload t =
    if t.len - t.start < 4 then None
    else
      let plen = get_u32 t.buf t.start in
      if plen = 0 || plen > max_frame then err "bad frame length %d" plen
      else if t.len - t.start < 4 + plen then None
      else begin
        let payload = Bytes.sub t.buf (t.start + 4) plen in
        t.start <- t.start + 4 + plen;
        if t.start = t.len then begin
          t.start <- 0;
          t.len <- 0
        end;
        Some payload
      end
end
