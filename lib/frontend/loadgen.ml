module Rng = Nv_util.Rng

type config = {
  address : Address.t;
  clients : int;
  txns_per_client : int;
  seed : int;
  window : int;
  think_ticks : int;
  shutdown : bool;
  reconnect : bool;
  retry_timeout_s : float;
}

let config ?(clients = 8) ?(txns_per_client = 100) ?(seed = 42) ?(window = 1)
    ?(think_ticks = 0) ?(shutdown = false) ?(reconnect = false) ?(retry_timeout_s = 30.0)
    address =
  if clients <= 0 then invalid_arg "Loadgen.config: clients must be positive";
  if window <= 0 then invalid_arg "Loadgen.config: window must be positive";
  if retry_timeout_s <= 0.0 then invalid_arg "Loadgen.config: retry_timeout_s must be positive";
  { address; clients; txns_per_client; seed; window; think_ticks; shutdown; reconnect;
    retry_timeout_s }

type stats = {
  sent : int;
  committed : int;
  aborted : int;
  rejected : int;
  protocol_errors : int;
  reconnects : int;
  duplicates : int;
  digests : int64 list;  (** per-client [Bye_ok] digests, client order *)
  latency : Nv_util.Histogram.t;  (** client-observed submit-to-answer wall ns *)
}

type phase = Backoff | Awaiting_hello | Running | Awaiting_bye | Done

exception Conn_lost

type client = {
  id : int;
  mutable fd : Unix.file_descr option;  (** [None] while disconnected *)
  mutable reader : Wire.Reader.t;
  rng : Rng.t;
  brng : Rng.t;
      (** backoff jitter — a separate stream, so reconnects never
          perturb the deterministic call stream drawn from [rng] *)
  mutable phase : phase;
  mutable sent : int;  (** unique calls generated; also the last seq used *)
  mutable inflight : int;
  mutable think : int;  (** ticks to wait before the next send *)
  mutable committed : int;
  mutable aborted : int;
  mutable rejected : int;
  mutable errors : int;
  mutable digest : int64;
  unacked : (int, string * bytes) Hashtbl.t;
      (** seq -> call, kept until answered; what a resume retransmits *)
  mutable max_acked : int;  (** highest seq seen answered (Hello's last_seq) *)
  mutable reconnects : int;
  mutable duplicates : int;  (** answers for already-answered seqs *)
  mutable connected_once : bool;
  mutable attempts : int;  (** consecutive failed (re)connect attempts *)
  mutable wake_at : float;  (** wall s of the next reconnect attempt *)
  mutable down_since : float;  (** wall s the connection dropped; -1 while up *)
  sent_wall : (int, float) Hashtbl.t;  (** in-flight seq -> wall ns at send *)
  latency : Nv_util.Histogram.t;  (** submit-to-answer wall ns, this client *)
}


let write_all fd b =
  let len = Bytes.length b in
  let off = ref 0 in
  while !off < len do
    match Unix.write fd b !off (len - !off) with
    | n -> off := !off + n
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
        ignore (Unix.select [] [ fd ] [] 0.05)
    | exception Unix.Unix_error _ -> raise Conn_lost
  done

let send c req =
  match c.fd with None -> raise Conn_lost | Some fd -> write_all fd (Wire.encode_request req)

(* Each client draws its own deterministic call stream: seed+id, so a
   rerun against the same server replays identical submissions. The
   backoff stream is salted differently — jitter must not advance the
   call stream. *)
let make_client cfg i =
  {
    id = i;
    fd = None;
    reader = Wire.Reader.create ();
    rng = Rng.create (cfg.seed + i);
    brng = Rng.create (cfg.seed + i + 0x5bac0ff);
    phase = Backoff;
    sent = 0;
    inflight = 0;
    think = 0;
    committed = 0;
    aborted = 0;
    rejected = 0;
    errors = 0;
    digest = 0L;
    unacked = Hashtbl.create 16;
    max_acked = 0;
    reconnects = 0;
    duplicates = 0;
    connected_once = false;
    attempts = 0;
    wake_at = 0.0;
    down_since = Unix.gettimeofday ();
    sent_wall = Hashtbl.create 16;
    latency = Nv_util.Histogram.create ();
  }

let backoff_base_s = 0.02
let backoff_max_s = 0.5

(* Jittered exponential backoff: 2^attempts steps of the base, capped,
   scaled by a uniform [0.5, 1.5) factor so a fleet of clients does not
   reconnect in lockstep against a restarting server. *)
let schedule_backoff c =
  let exp = min c.attempts 6 in
  let d = Float.min backoff_max_s (backoff_base_s *. float_of_int (1 lsl exp)) in
  c.wake_at <- Unix.gettimeofday () +. (d *. (0.5 +. Rng.float c.brng));
  c.attempts <- c.attempts + 1

let close_fd c =
  (match c.fd with
  | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
  | None -> ());
  c.fd <- None

let fatal c =
  close_fd c;
  c.errors <- c.errors + 1;
  c.phase <- Done

(* The connection dropped (EOF, EPIPE, reset). Without [reconnect]
   that is fatal, as before; with it, the client backs off and will
   resume its session. *)
let lose_conn cfg c =
  close_fd c;
  if cfg.reconnect && c.phase <> Done then begin
    if c.down_since < 0.0 then c.down_since <- Unix.gettimeofday ();
    c.phase <- Backoff;
    schedule_backoff c
  end
  else fatal c

let observe_latency c req =
  match Hashtbl.find_opt c.sent_wall req with
  | Some t0 ->
      Hashtbl.remove c.sent_wall req;
      Nv_util.Histogram.add c.latency (Nv_util.Clock.now_ns () -. t0)
  | None -> ()

(* (Re)connect and say Hello. The first connection starts the session;
   later ones resume it, advertising the highest acknowledged seq. *)
let try_reconnect cfg c =
  if c.connected_once && not cfg.reconnect then fatal c
  else if Unix.gettimeofday () -. c.down_since > cfg.retry_timeout_s then fatal c
  else
    match Address.connect cfg.address with
    | exception Unix.Unix_error _ -> schedule_backoff c
    | fd -> (
        Unix.set_nonblock fd;
        c.fd <- Some fd;
        c.reader <- Wire.Reader.create ();
        if c.connected_once then c.reconnects <- c.reconnects + 1;
        c.phase <- Awaiting_hello;
        try
          send c
            (Wire.Hello
               {
                 client = c.id;
                 version = Wire.protocol_version;
                 resume = c.connected_once;
                 last_seq = c.max_acked;
               })
        with Conn_lost -> lose_conn cfg c)

(* Closed-loop pump: keep [window] calls in flight, pausing
   [think_ticks] loop rounds after each completion. A rejected call
   counts as answered — the generator does not resubmit, it reports. *)
let pump cfg (w : Nv_workloads.Workload.t) c =
  if c.phase = Running then begin
    if c.think > 0 then c.think <- c.think - 1
    else begin
      while c.sent < cfg.txns_per_client && c.inflight < cfg.window do
        (* Sequence numbers are 1-based: seq 0 is the "nothing acked
           yet" sentinel in the handshake. The call is committed to
           [unacked] — its seq burned — BEFORE the write is attempted:
           if [send] loses the connection the retransmit path owns
           delivery, and this seq must never be reused for a different
           call (the server's dedup window would answer both). *)
        let seq = c.sent + 1 in
        let proc, args = w.gen_call c.rng in
        Hashtbl.replace c.unacked seq (proc, args);
        Hashtbl.replace c.sent_wall seq (Nv_util.Clock.now_ns ());
        c.sent <- c.sent + 1;
        c.inflight <- c.inflight + 1;
        send c (Wire.Submit { req = seq; proc; args })
      done;
      if c.sent >= cfg.txns_per_client && Hashtbl.length c.unacked = 0 then begin
        send c Wire.Bye;
        c.phase <- Awaiting_bye
      end
    end
  end

let answered cfg c req =
  if Hashtbl.mem c.unacked req then begin
    Hashtbl.remove c.unacked req;
    c.inflight <- max 0 (c.inflight - 1);
    if req > c.max_acked then c.max_acked <- req;
    c.think <- cfg.think_ticks;
    observe_latency c req;
    true
  end
  else begin
    (* Exactly-once check, client side: a second answer for a seq we
       already counted would be a duplicate execution surfacing. *)
    c.duplicates <- c.duplicates + 1;
    false
  end

let on_response cfg (c : client) (resp : Wire.response) =
  match (resp, c.phase) with
  | Wire.Hello_ok { last_acked = _; _ }, Awaiting_hello ->
      c.connected_once <- true;
      c.down_since <- -1.0;
      c.attempts <- 0;
      (* Retransmit every unanswered call, oldest first. Already-acked
         seqs come back from the server's dedup window with their
         original outcome; still-in-flight ones are absorbed silently
         and answered once their batch lands. *)
      let seqs =
        List.sort compare (Hashtbl.fold (fun s _ acc -> s :: acc) c.unacked [])
      in
      List.iter
        (fun seq ->
          let proc, args = Hashtbl.find c.unacked seq in
          Hashtbl.replace c.sent_wall seq (Nv_util.Clock.now_ns ());
          send c (Wire.Submit { req = seq; proc; args }))
        seqs;
      c.inflight <- List.length seqs;
      c.phase <- Running
  | Wire.Result { req; outcome }, (Running | Awaiting_bye) ->
      if answered cfg c req then (
        match outcome with
        | `Committed -> c.committed <- c.committed + 1
        | `Aborted -> c.aborted <- c.aborted + 1)
  | Wire.Rejected { req; _ }, (Running | Awaiting_bye) ->
      if answered cfg c req then c.rejected <- c.rejected + 1
  | Wire.Bye_ok { digest }, Awaiting_bye ->
      c.digest <- digest;
      c.phase <- Done;
      close_fd c
  | Wire.Server_error _, _ -> fatal c
  | _ -> fatal c

let drain_input cfg c =
  match c.fd with
  | None -> ()
  | Some fd -> (
      let buf = Bytes.create 65536 in
      match Unix.read fd buf 0 (Bytes.length buf) with
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
      | exception Unix.Unix_error _ -> lose_conn cfg c
      | 0 -> if c.phase <> Done then lose_conn cfg c
      | n -> (
          Wire.Reader.feed c.reader buf ~off:0 ~len:n;
          try
            let continue = ref true in
            while !continue && c.phase <> Done && c.phase <> Backoff do
              match Wire.Reader.next_payload c.reader with
              | None -> continue := false
              | Some payload -> on_response cfg c (Wire.decode_response payload)
            done
          with
          | Wire.Protocol_error _ -> fatal c
          | Conn_lost -> lose_conn cfg c))

let run cfg (w : Nv_workloads.Workload.t) =
  (* A peer that dies mid-conversation (a crash-injected server, say)
     turns our next write into SIGPIPE; demote it to EPIPE so the
     reconnect path sees [Conn_lost] instead of the process dying. *)
  if not Sys.win32 then Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let clients = Array.init cfg.clients (fun i -> make_client cfg i) in
  (* Without reconnect the first connect is eager and failures raise,
     as before; with it, even the first connect retries with backoff
     (the server may still be binding — or recovering). *)
  Array.iter
    (fun c ->
      if cfg.reconnect then try_reconnect cfg c
      else begin
        let fd = Address.connect cfg.address in
        Unix.set_nonblock fd;
        c.fd <- Some fd;
        c.phase <- Awaiting_hello;
        send c
          (Wire.Hello
             { client = c.id; version = Wire.protocol_version; resume = false; last_seq = 0 })
      end)
    clients;
  let all_done () = Array.for_all (fun c -> c.phase = Done) clients in
  while not (all_done ()) do
    let now = Unix.gettimeofday () in
    Array.iter (fun c -> if c.phase = Backoff && now >= c.wake_at then try_reconnect cfg c) clients;
    let fds =
      Array.to_list clients
      |> List.filter_map (fun c ->
             match (c.phase, c.fd) with Done, _ | Backoff, _ | _, None -> None | _, Some fd -> Some fd)
    in
    let timeout =
      if Array.exists (fun c -> c.phase = Backoff) clients then 0.005 else 0.01
    in
    let readable, _, _ =
      try Unix.select fds [] [] timeout with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    Array.iter
      (fun c ->
        match c.fd with
        | Some fd when c.phase <> Done && List.mem fd readable -> drain_input cfg c
        | _ -> ())
      clients;
    Array.iter (fun c -> try pump cfg w c with Conn_lost -> lose_conn cfg c) clients
  done;
  if cfg.shutdown then begin
    match Address.connect cfg.address with
    | exception Unix.Unix_error _ -> ()
    | fd ->
        (try write_all fd (Wire.encode_request Wire.Shutdown) with Conn_lost -> ());
        (try Unix.close fd with Unix.Unix_error _ -> ())
  end;
  let sum f = Array.fold_left (fun acc c -> acc + f c) 0 clients in
  {
    sent = sum (fun c -> c.sent);
    committed = sum (fun c -> c.committed);
    aborted = sum (fun c -> c.aborted);
    rejected = sum (fun c -> c.rejected);
    protocol_errors = sum (fun c -> c.errors);
    reconnects = sum (fun c -> c.reconnects);
    duplicates = sum (fun c -> c.duplicates);
    digests = Array.to_list (Array.map (fun c -> c.digest) clients);
    latency =
      Array.fold_left
        (fun acc c -> Nv_util.Histogram.merge acc c.latency)
        (Nv_util.Histogram.create ()) clients;
  }
