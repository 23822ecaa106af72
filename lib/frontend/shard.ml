module Routed = Nvcaracal.Routed

(* The sentinel session id under which a fence's merged read table is
   journaled (encodable: Journal round-trips client ids as u32). Real
   sessions are non-negative OCaml ints well below it. *)
let sentinel_client = 0xFFFFFFFF

type history_entry = {
  h_reads : Wire.shard_read array;  (** the epoch's full merged read table *)
  h_outcomes : Wire.shard_outcome array;
  h_digest : int64;
}

type t = {
  member : Wire.routed_call Routed.t;
  journal : Journal.t option;
  mutable router_gen : int;
  history : (int, history_entry) Hashtbl.t;
}

let create ~shard_id ~shards ?journal ~engine ~registry ~tables () =
  let rebuild (c : Wire.routed_call) = Proc.rebuild registry c.Wire.rc_call in
  {
    member = Routed.create ~shard_id ~shards ~applied:0 ~rebuild ~engine ~tables;
    journal;
    router_gen = 0;
    history = Hashtbl.create 256;
  }

let shard_id t = Routed.shard_id t.member
let applied t = Routed.applied t.member
let engine t = Routed.engine t.member
let bulk_load t rows = Routed.bulk_load t.member rows
let digest t = Routed.digest t.member

let record_history t ~epoch ~reads ~outcomes =
  let entry = { h_reads = reads; h_outcomes = outcomes; h_digest = digest t } in
  Hashtbl.replace t.history epoch entry;
  entry

(* Applied epochs stay answerable from history: a recovering router (or
   a respawned peer) re-drives an epoch some members already applied. *)
let applied_entry t ~what epoch =
  match Hashtbl.find_opt t.history epoch with
  | Some h -> h
  | None ->
      failwith
        (Printf.sprintf "Shard.%s: epoch %d already applied and not in history" what epoch)

let route t ~epoch ~calls ~reads =
  if epoch <= applied t then
    (* Idempotent re-route: answer with the epoch's FULL merged read
       table. A recovering router merges these with fresh members'
       owned answers, so members that already applied the epoch supply
       the epoch-start values nobody can re-read from committed
       state. *)
    ((applied_entry t ~what:"route" epoch).h_reads, true)
  else Routed.route t.member ~epoch ~calls ~reads

(* Journal BEFORE applying: after a kill-9 between the two, the
   journaled record replays to the same applied state. The merged read
   table rides along as a sentinel entry so replay needs no cluster
   round trip. *)
let persist t ~epoch ~reads calls =
  Nv_util.Crashpoint.hit "shard-fence";
  match t.journal with
  | None -> ()
  | Some j ->
      let entries =
        Array.to_list
          (Array.map
             (fun (c : Wire.routed_call) ->
               { Journal.j_client = c.Wire.rc_client; j_seq = c.rc_seq; j_call = c.rc_call })
             calls)
        @ [ { Journal.j_client = sentinel_client; j_seq = epoch;
              j_call = Wire.encode_reads reads } ]
      in
      Journal.append j ~batch:epoch ~entries;
      Nv_util.Crashpoint.hit "shard-post-journal"

let fence t ~epoch ~reads =
  if epoch <= applied t then
    (* Idempotent: the epoch is already durable; hand back its cached
       verdicts and digest. *)
    let h = applied_entry t ~what:"fence" epoch in
    (h.h_outcomes, h.h_digest)
  else begin
    let outcomes = Routed.fence t.member ~epoch ~reads ~persist:(persist t ~epoch ~reads) in
    let h = record_history t ~epoch ~reads ~outcomes in
    Nv_util.Crashpoint.hit "shard-applied";
    (outcomes, h.h_digest)
  end

(* --- Crash recovery ---------------------------------------------------

   Replay the shard's own journal: each record is one fence (the global
   batch plus its sentinel read table), re-executed through the exact
   live path. The engine starts fresh and bulk-loaded, so replay
   reproduces the applied state and refills the history table Route
   consults for idempotent answers. *)

let recover t ~records =
  Nv_util.Crashpoint.suppress @@ fun () ->
  List.iter
    (fun (r : Journal.record) ->
      let epoch = r.Journal.r_batch in
      if epoch > applied t then begin
        let sentinels, calls =
          List.partition (fun (e : Journal.entry) -> e.Journal.j_client = sentinel_client)
            r.Journal.r_entries
        in
        let reads =
          match sentinels with
          | [ s ] -> Wire.decode_reads s.Journal.j_call
          | _ -> failwith "Shard.recover: record lacks its fence-reads sentinel"
        in
        let calls =
          Array.of_list
            (List.map
               (fun (e : Journal.entry) ->
                 { Wire.rc_client = e.Journal.j_client; rc_seq = e.j_seq; rc_call = e.j_call })
               calls)
        in
        let outcomes = Routed.replay t.member ~epoch ~calls ~reads in
        ignore (record_history t ~epoch ~reads ~outcomes)
      end)
    records

(* --- Wire dispatch ----------------------------------------------------

   One shard-plane request in, one response out; errors become
   [Server_error] frames (the router treats route/fence errors as fatal
   for the connection and re-drives via respawn + idempotent replay). *)

let handle t (req : Wire.request) : Wire.response =
  match req with
  | Wire.Shard_hello { gen; shard; shards; version } ->
      if shard <> shard_id t || shards <> Routed.shards t.member then
        Wire.Server_error
          (Printf.sprintf "shard identity mismatch: you want %d/%d, I am %d/%d" shard shards
             (shard_id t) (Routed.shards t.member))
      else if gen < t.router_gen then
        Wire.Server_error
          (Printf.sprintf "fenced: router generation %d superseded by %d" gen t.router_gen)
      else begin
        t.router_gen <- gen;
        Wire.Shard_hello_ok
          {
            version = min version Wire.protocol_version;
            shard = shard_id t;
            shards = Routed.shards t.member;
            applied = applied t;
          }
      end
  | Wire.Route { epoch; calls; reads } -> (
      try
        let reads, complete = route t ~epoch ~calls ~reads in
        Wire.Route_reads { epoch; reads; complete }
      with Failure msg | Invalid_argument msg -> Wire.Server_error msg)
  | Wire.Fence { epoch; reads } -> (
      try
        let outcomes, digest = fence t ~epoch ~reads in
        Wire.Fence_ok { epoch; outcomes; digest }
      with Failure msg | Invalid_argument msg -> Wire.Server_error msg)
  | Wire.Hello _ | Wire.Submit _ | Wire.Bye | Wire.Shutdown | Wire.Stats ->
      Wire.Server_error "client-plane frame on a shard endpoint"

(* --- The shard server loop --------------------------------------------

   A small synchronous select loop: the only peer that matters is the
   one live router, frames are request/response, and the deterministic
   work happens inside [handle]. Each connection must open with
   [Shard_hello]; a connection whose generation has been superseded is
   fenced off — its Route/Fence frames are refused, so a zombie router
   that lost a failover race cannot drive the shard. *)

type conn = { fd : Unix.file_descr; reader : Wire.Reader.t; mutable gen : int option }

let bind_listen = function
  | `Unix path ->
      if Sys.file_exists path then Sys.remove path;
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd 16;
      fd
  | `Tcp (host, port) ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      let addr =
        try Unix.inet_addr_of_string host
        with _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)
      in
      Unix.bind fd (Unix.ADDR_INET (addr, port));
      Unix.listen fd 16;
      fd

let write_all fd b =
  let len = Bytes.length b in
  let off = ref 0 in
  while !off < len do
    match Unix.write fd b !off (len - !off) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | n -> off := !off + n
  done

let serve t ~address ~should_stop =
  if not Sys.win32 then Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let listen_fd = bind_listen address in
  let conns : (Unix.file_descr, conn) Hashtbl.t = Hashtbl.create 4 in
  let close_conn c =
    Hashtbl.remove conns c.fd;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  in
  let respond c (resp : Wire.response) =
    try write_all c.fd (Wire.encode_response resp)
    with Unix.Unix_error _ -> close_conn c
  in
  let dispatch c payload =
    match Wire.decode_request payload with
    | Wire.Shard_hello { gen; _ } as req ->
        let resp = handle t req in
        (match resp with Wire.Shard_hello_ok _ -> c.gen <- Some gen | _ -> ());
        respond c resp
    | req -> (
        match c.gen with
        | Some g when g >= t.router_gen -> respond c (handle t req)
        | Some _ -> respond c (Wire.Server_error "fenced: a newer router generation took over")
        | None -> respond c (Wire.Server_error "shard-plane frame before Shard_hello"))
  in
  let handle_readable c =
    let buf = Bytes.create 65536 in
    match Unix.read c.fd buf 0 (Bytes.length buf) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error _ -> close_conn c
    | 0 -> close_conn c
    | n -> (
        Wire.Reader.feed c.reader buf ~off:0 ~len:n;
        try
          let continue = ref true in
          while !continue && Hashtbl.mem conns c.fd do
            match Wire.Reader.next_payload c.reader with
            | None -> continue := false
            | Some payload -> dispatch c payload
          done
        with Wire.Protocol_error msg ->
          respond c (Wire.Server_error msg);
          close_conn c)
  in
  while not (should_stop ()) do
    let reads = listen_fd :: Hashtbl.fold (fun fd _ acc -> fd :: acc) conns [] in
    let readable, _, _ =
      try Unix.select reads [] [] 0.05
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    List.iter
      (fun fd ->
        if fd = listen_fd then (
          match Unix.accept listen_fd with
          | exception Unix.Unix_error _ -> ()
          | cfd, _ ->
              Hashtbl.replace conns cfd
                { fd = cfd; reader = Wire.Reader.create (); gen = None })
        else
          match Hashtbl.find_opt conns fd with
          | Some c -> handle_readable c
          | None -> ())
      readable
  done;
  Hashtbl.iter (fun _ c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) conns;
  (try Unix.close listen_fd with Unix.Unix_error _ -> ());
  match address with
  | `Unix path -> ( try Sys.remove path with Sys_error _ -> ())
  | `Tcp _ -> ()
