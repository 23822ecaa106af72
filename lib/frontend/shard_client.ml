exception Down of string

type t = { fd : Unix.file_descr; reader : Wire.Reader.t }

let down fmt = Printf.ksprintf (fun s -> raise (Down s)) fmt

(* A shard being (re)spawned takes a moment to bind; retry inside the
   deadline rather than pushing every boot race onto the caller. A host
   that does not resolve is no boot race: it is down at once. *)
let connect ?(retry_timeout_s = 10.0) address =
  let deadline = Unix.gettimeofday () +. retry_timeout_s in
  let rec go () =
    match Address.connect address with
    | fd -> { fd; reader = Wire.Reader.create () }
    | exception Address.Unresolved host -> down "connect: cannot resolve host %s" host
    | exception Unix.Unix_error (e, _, _) ->
        if Unix.gettimeofday () >= deadline then
          down "connect: %s" (Unix.error_message e)
        else begin
          Unix.sleepf 0.05;
          go ()
        end
  in
  go ()

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let send t frame =
  let len = Bytes.length frame in
  let off = ref 0 in
  try
    while !off < len do
      match Unix.write t.fd frame !off (len - !off) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | n -> off := !off + n
    done
  with Unix.Unix_error (e, _, _) -> down "write: %s" (Unix.error_message e)

let recv t =
  let buf = Bytes.create 65536 in
  let rec go () =
    match Wire.Reader.next_payload t.reader with
    | Some payload -> (
        match Wire.decode_response payload with
        | Wire.Server_error msg ->
            (* The connection is healthy; the shard refused the
               request. Distinct from [Down] so callers can tell a dead
               peer from a fenced or state-missing one. *)
            failwith msg
        | resp -> resp
        | exception Wire.Protocol_error msg -> down "protocol: %s" msg)
    | None -> (
        match Unix.read t.fd buf 0 (Bytes.length buf) with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
        | exception Unix.Unix_error (e, _, _) -> down "read: %s" (Unix.error_message e)
        | 0 -> down "connection closed by shard"
        | n ->
            (try Wire.Reader.feed t.reader buf ~off:0 ~len:n
             with Wire.Protocol_error msg -> down "protocol: %s" msg);
            go ())
  in
  go ()

let request t req =
  send t (Wire.encode_request req);
  recv t

let hello t ~gen ~shard ~shards =
  match
    request t (Wire.Shard_hello { gen; shard; shards; version = Wire.protocol_version })
  with
  | Wire.Shard_hello_ok { shard = s; shards = n; applied; _ } when s = shard && n = shards ->
      applied
  | Wire.Shard_hello_ok { shard = s; shards = n; _ } ->
      down "hello: shard says it is %d/%d, wanted %d/%d" s n shard shards
  | _ -> down "hello: unexpected response"

let route t ~epoch ~calls ~reads =
  match request t (Wire.Route { epoch; calls; reads }) with
  | Wire.Route_reads { epoch = e; reads; complete } when e = epoch -> (reads, complete)
  | Wire.Route_reads { epoch = e; _ } -> down "route: answered for epoch %d, not %d" e epoch
  | _ -> down "route: unexpected response"

let fence t ~epoch ~reads =
  match request t (Wire.Fence { epoch; reads }) with
  | Wire.Fence_ok { epoch = e; outcomes; digest } when e = epoch -> (outcomes, digest)
  | Wire.Fence_ok { epoch = e; _ } -> down "fence: answered for epoch %d, not %d" e epoch
  | _ -> down "fence: unexpected response"
