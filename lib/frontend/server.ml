type config = {
  address : Address.t;
  batcher : Batcher.config;
  tick_interval_s : float;
  once : bool;
  stats_interval_s : float;
}

let config ?(batcher = Batcher.config ()) ?(tick_interval_s = 0.002) ?(once = false)
    ?(stats_interval_s = 0.0) address =
  if not (tick_interval_s > 0.0) then invalid_arg "Server.config: tick_interval_s must be positive";
  { address; batcher; tick_interval_s; once; stats_interval_s }

type recovery = {
  rec_records : Journal.record list;
  rec_sessions : Journal.session_state list;
  rec_batches_done : int;
}

type stats = {
  clients_served : int;
  admitted : int;
  committed : int;
  aborted : int;
  rejected : int;
  replayed : int;
  epochs : int;
  protocol_errors : int;
  digest : int64;
}

(* Per-connection state: an incremental frame reader in, the encoded
   reply frames out, back to back in one buffer so a round writes them
   with one call, and the batcher client once Hello arrived. [closing]
   marks a connection being flushed for the last time — no more reads;
   closed once the buffer drains (or the peer drops). *)
type conn = {
  fd : Unix.file_descr;
  reader : Wire.Reader.t;
  mutable out : bytes;
  mutable out_len : int;  (** bytes of [out] queued *)
  mutable out_off : int;  (** bytes of [out] already written *)
  mutable client : Batcher.client option;
  mutable owner : int;  (** {!Batcher.owner_token} at this conn's Hello *)
  mutable said_bye : bool;
  mutable closing : bool;
  mutable dead : bool;
}

type t = {
  cfg : config;
  batcher : Batcher.t;
  engine : Engine_domain.t;  (** where batches run; its pipe wakes [select] *)
  listen_fd : Unix.file_descr;
  rbuf : bytes;  (** one read buffer for every connection *)
  conns : (Unix.file_descr, conn) Hashtbl.t;
  mutable served : int;
  mutable protocol_errors : int;
  mutable shutdown : bool;
  mutable draining : bool;  (** graceful stop: no new admissions *)
  start_wall : float;  (** host wall ns at creation (uptime base) *)
  on_stats : (string -> unit) option;  (** periodic live-stats sink *)
  mutable last_stats : float;  (** wall ns of the last periodic flush *)
  mutable next_tick : float;  (** wall ns at which the next deadline tick is due *)
  mutable stop_poll : bool;  (** a [should_stop] poll waits for a batch boundary *)
}

let create ?tracer ?metrics ?journal ?on_stats ~shards ~registry ~tables (cfg : config) =
  (* Bound first: an address that cannot be bound (or resolved) fails
     before any domain is started. *)
  let listen_fd = Address.listen ~backlog:64 cfg.address in
  Unix.set_nonblock listen_fd;
  let engine = Engine_domain.create () in
  let batcher =
    Batcher.create ~cfg:cfg.batcher ?tracer ?metrics ?journal ~engine_domain:engine ~shards
      ~registry ~tables ()
  in
  let now = Nv_util.Clock.now_ns () in
  {
    cfg;
    batcher;
    engine;
    listen_fd;
    rbuf = Bytes.create 65536;
    conns = Hashtbl.create 64;
    served = 0;
    protocol_errors = 0;
    shutdown = false;
    draining = false;
    start_wall = now;
    on_stats;
    last_stats = now;
    next_tick = now +. (cfg.tick_interval_s *. 1e9);
    stop_poll = false;
  }

let push t conn resp =
  ignore t;
  if not conn.dead then begin
    let frame = Wire.encode_response resp in
    let len = Bytes.length frame in
    if conn.out_len + len > Bytes.length conn.out then begin
      let live = conn.out_len - conn.out_off in
      let grown =
        if live + len > Bytes.length conn.out then
          Bytes.create (max (live + len) (2 * Bytes.length conn.out))
        else conn.out
      in
      Bytes.blit conn.out conn.out_off grown 0 live;
      conn.out <- grown;
      conn.out_off <- 0;
      conn.out_len <- live
    end;
    Bytes.blit frame 0 conn.out conn.out_len len;
    conn.out_len <- conn.out_len + len
  end

let has_output conn = conn.out_off < conn.out_len

let close_conn t conn =
  if not conn.dead then begin
    conn.dead <- true;
    (* Token-gated: if another connection has since taken this session
       over (last Hello wins), its reply channel must survive our
       close. *)
    (match conn.client with
    | Some c -> Batcher.disconnect ~token:conn.owner t.batcher c
    | None -> ());
    Hashtbl.remove t.conns conn.fd;
    (try Unix.close conn.fd with Unix.Unix_error _ -> ())
  end

(* Write every queued frame in one call, or as much as the socket
   takes. A partial write resumes at [out_off] next round; EINTR
   retries immediately; EAGAIN waits for the next select round. A
   [closing] connection is closed once its buffer drains. *)
let rec handle_writable t conn =
  if conn.dead then ()
  else if not (has_output conn) then begin
    if conn.closing then close_conn t conn
  end
  else
    match Unix.write conn.fd conn.out conn.out_off (conn.out_len - conn.out_off) with
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> handle_writable t conn
    | exception Unix.Unix_error _ -> close_conn t conn
    | n ->
        conn.out_off <- conn.out_off + n;
        if not (has_output conn) then begin
          conn.out_off <- 0;
          conn.out_len <- 0;
          if conn.closing then close_conn t conn
        end

(* A protocol error costs the connection, but the error frame should
   still reach the peer: queue it, stop reading, and let the write path
   flush-then-close instead of blindly writing into a possibly-full
   socket. *)
let protocol_error t conn msg =
  t.protocol_errors <- t.protocol_errors + 1;
  push t conn (Wire.Server_error msg);
  conn.closing <- true;
  handle_writable t conn

let digest t = Batcher.state_digest t.batcher

(* Live statistics snapshot: serving counters and per-procedure wall
   latency percentiles, as one JSON object. Everything here is
   monitoring-grade — wall-clock readings — and never feeds the
   deterministic metrics registry. It reads engine state (digest, pmem
   CRC), so callers run it at a batch boundary. *)
let live_stats_json t =
  let module J = Nv_obs.Jsonx in
  let module H = Nv_util.Histogram in
  let uptime_s = (Nv_util.Clock.now_ns () -. t.start_wall) /. 1e9 in
  let lat_json (proc, h) =
    let ms p = H.percentile h p /. 1e6 in
    ( proc,
      J.Assoc
        [
          ("count", J.Int (H.count h));
          ("mean_ms", J.Float (H.mean h /. 1e6));
          ("p50_ms", J.Float (ms 50.0));
          ("p99_ms", J.Float (ms 99.0));
          ("p999_ms", J.Float (ms 99.9));
          ("max_ms", J.Float (H.max_value h /. 1e6));
        ] )
  in
  let procs =
    List.filter (fun (_, h) -> H.count h > 0) (Batcher.proc_latencies t.batcher)
  in
  let shards = Batcher.shard_set t.batcher in
  (* The durability block appears only on journaled servers: the state
     digest and full-image CRC are the chaos harness's oracle inputs,
     and pricing the image scan into every plain [Stats] poll would be
     waste. The pmem CRC exists only with a local engine; a cluster's
     images live in the shard processes, so its oracle is the
     (placement-independent) state digest alone. *)
  let durability =
    match Batcher.journal t.batcher with
    | None -> []
    | Some j ->
        let pmem_crc =
          match Shard_set.local_engine shards with
          | None -> []
          | Some (Nvcaracal.Engine_intf.Packed ((module E), db)) ->
              let pm = E.pmem db in
              let crc = Nv_nvmm.Pmem.crc32c pm ~off:0 ~len:(Nv_nvmm.Pmem.size pm) in
              [ ("pmem_crc", J.String (Printf.sprintf "%08lx" crc)) ]
        in
        [
          ( "journal",
            J.Assoc
              [
                ("records", J.Int (Journal.record_count j));
                ("bytes", J.Int (Journal.used_bytes j));
                ("base_batch", J.Int (Journal.base_batch j));
                ("batches_run", J.Int (Batcher.batches_run t.batcher));
              ] );
          ("state_digest", J.String (Printf.sprintf "%016Lx" (digest t)));
        ]
        @ pmem_crc
  in
  J.to_string
    (J.Assoc
       ([
          ("uptime_s", J.Float uptime_s);
          ("clients_connected", J.Int (Hashtbl.length t.conns));
          ("clients_served", J.Int t.served);
          ("sessions", J.Int (Batcher.sessions t.batcher));
          ("admitted", J.Int (Batcher.admitted t.batcher));
          ("committed", J.Int (Batcher.committed t.batcher));
          ("aborted", J.Int (Batcher.aborted t.batcher));
          ("rejected", J.Int (Batcher.rejected t.batcher));
          ("replayed_replies", J.Int (Batcher.replayed_replies t.batcher));
          ("deferred", J.Int (Batcher.deferred_total t.batcher));
          ("pending", J.Int (Batcher.pending t.batcher));
          ("epochs", J.Int (Batcher.epochs_run t.batcher));
          ( "epoch_rate_per_s",
            J.Float
              (if uptime_s > 0.0 then float_of_int (Batcher.epochs_run t.batcher) /. uptime_s
               else 0.0) );
          ("protocol_errors", J.Int t.protocol_errors);
          ("procs", J.Assoc (List.map lat_json procs));
        ]
       @ durability))

(* Bye completes only once every admitted transaction of the
   connection has been answered; then the client sees a state digest
   covering everything it was told about, read at the next batch
   boundary. *)
let maybe_finish_bye t conn =
  match conn.client with
  | Some c when conn.said_bye && Batcher.outstanding c = 0 ->
      conn.said_bye <- false;
      Batcher.at_boundary t.batcher (fun () ->
          push t conn (Wire.Bye_ok { digest = digest t }))
  | _ -> ()

let handle_request t conn (req : Wire.request) =
  match (req, conn.client) with
  | Wire.Hello _, Some _ -> protocol_error t conn "duplicate Hello"
  | Wire.Hello { client; version; resume; last_seq = _ }, None ->
      (* The client named its session id: a resume reattaches to the
         session (dedup window intact) and the Hello_ok's [last_acked]
         tells it what to retransmit; a non-resume resets the id. If
         another live connection holds the same session, the session's
         reply channel moves here — last Hello wins. *)
      let version = min version Wire.protocol_version in
      let c =
        Batcher.connect t.batcher ~id:client ~resume
          ~reply:(Some (fun r -> push t conn r))
      in
      conn.client <- Some c;
      conn.owner <- Batcher.owner_token c;
      t.served <- t.served + 1;
      push t conn (Wire.Hello_ok { version; last_acked = Batcher.last_acked c })
  | Wire.Submit _, None -> protocol_error t conn "Submit before Hello"
  | Wire.Submit { req; _ }, Some client when t.draining -> (
      (* Graceful stop: the dedup window still answers first, so a
         retransmit of an already-committed seq gets its original
         outcome (exactly-once survives the shutdown window) and an
         in-flight seq keeps the reply its admission owes. Only
         genuinely new work gets an explicit Overloaded, never silence —
         it will retry against the restarted server. *)
      match Batcher.try_replay t.batcher client ~req with
      | `Replayed _ | `Inflight -> ()
      | `New -> push t conn (Wire.Rejected { req; reason = `Overloaded }))
  | Wire.Submit { req; proc; args }, Some client ->
      if conn.said_bye then protocol_error t conn "Submit after Bye"
      else ignore (Batcher.submit t.batcher client ~req ~proc ~args)
  | Wire.Bye, None -> protocol_error t conn "Bye before Hello"
  | Wire.Bye, Some _ ->
      conn.said_bye <- true;
      maybe_finish_bye t conn
  | Wire.Shutdown, _ -> t.shutdown <- true
  (* Stats needs no Hello: monitoring tools connect, ask, disconnect. *)
  | Wire.Stats, _ ->
      Batcher.at_boundary t.batcher (fun () ->
          push t conn (Wire.Stats_ok { json = live_stats_json t }))
  (* The shard plane is router-to-shard traffic ({!Shard.serve} owns
     it); on the client endpoint it is as malformed as a bad tag. *)
  | Wire.(Shard_hello _ | Route _ | Fence _), _ ->
      protocol_error t conn "shard-plane frame on a client endpoint"

let handle_readable t conn =
  if conn.closing then ()
  else
    let buf = t.rbuf in
    match Unix.read conn.fd buf 0 (Bytes.length buf) with
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error _ -> close_conn t conn
    | 0 ->
        (* EOF. Anything left in the reader is a half frame the peer
           abandoned — admitted work still runs (determinism
           commitment), the partial garbage is simply dropped. *)
        close_conn t conn
    | n -> (
        Wire.Reader.feed conn.reader buf ~off:0 ~len:n;
        try
          let continue = ref true in
          while !continue && not conn.dead && not conn.closing do
            match Wire.Reader.next_payload conn.reader with
            | None -> continue := false
            | Some payload -> handle_request t conn (Wire.decode_request payload)
          done
        with Wire.Protocol_error msg -> protocol_error t conn msg)

let accept_new t =
  let continue = ref true in
  while !continue do
    match Unix.accept t.listen_fd with
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
        continue := false
    | fd, _ ->
        Unix.set_nonblock fd;
        Hashtbl.replace t.conns fd
          {
            fd;
            reader = Wire.Reader.create ();
            out = Bytes.create 4096;
            out_len = 0;
            out_off = 0;
            client = None;
            owner = 0;
            said_bye = false;
            closing = false;
            dead = false;
          }
  done

(* Engine-state reads the loop makes on its own — the periodic stats
   flush and the [should_stop] poll (an embedder's hook may read the
   engine too) — wait for a batch boundary, and at most one of each is
   pending. *)
let poll_stop t should_stop =
  if not t.stop_poll then begin
    t.stop_poll <- true;
    Batcher.at_boundary t.batcher (fun () ->
        t.stop_poll <- false;
        if should_stop () then t.shutdown <- true)
  end

(* Wall ns at which the next periodic stats flush is due, if any. *)
let stats_due t =
  match t.on_stats with
  | Some _ when t.cfg.stats_interval_s > 0.0 -> Some (t.last_stats +. (t.cfg.stats_interval_s *. 1e9))
  | Some _ | None -> None

let periodic_stats t =
  match (t.on_stats, stats_due t) with
  | Some f, Some due ->
      let now = Nv_util.Clock.now_ns () in
      if now >= due then begin
        (* Stamped now, so a batch still running does not queue a
           second flush behind this one. *)
        t.last_stats <- now;
        Batcher.at_boundary t.batcher (fun () -> f (live_stats_json t))
      end
  | _ -> ()

(* Collected first: a failed write closes its connection, which removes
   it from [conns]. *)
let write_pending t =
  Hashtbl.fold (fun _ c acc -> if has_output c then c :: acc else acc) t.conns []
  |> List.iter (handle_writable t)

(* The deadline that closes an under-filled batch counts ticks of
   [tick_interval_s] wall time, however many rounds client frames or a
   landing batch add in between. While calls are pending, [select] wakes
   for every tick and a round counts at most one, due [tick_interval_s]
   after the round that counted the last; so a tick lasts the interval
   plus the loop's wake-up lag, as it always has, and batches keep their
   sizes. (Sleeping through to the deadline on a fixed grid closed them
   3% smaller and phase-locked a 2 ms-paced open loop to the grid.) *)
let tick_ns t = t.cfg.tick_interval_s *. 1e9

(* With nothing pending no tick matters, so [select] sleeps until the
   next stats flush or this cap. Frames, a landing batch (the engine
   domain's pipe) and writable sockets wake it on their own; the cap
   bounds how long a [should_stop] poll (an orphan check, a signal flag)
   waits when nothing else happens. *)
let idle_cap_s = 0.05

let select_timeout t =
  let now = Nv_util.Clock.now_ns () in
  let wake =
    if Batcher.pending t.batcher > 0 then t.next_tick else now +. (idle_cap_s *. 1e9)
  in
  let wake = match stats_due t with Some due -> Float.min wake due | None -> wake in
  Float.max 0.0 ((wake -. now) /. 1e9)

let step t =
  let reads =
    Engine_domain.wake_fd t.engine :: t.listen_fd
    :: Hashtbl.fold (fun fd c acc -> if c.closing then acc else fd :: acc) t.conns []
  in
  let writes =
    Hashtbl.fold (fun fd c acc -> if has_output c then fd :: acc else acc) t.conns []
  in
  let readable, _, _ =
    try Unix.select reads writes [] (select_timeout t)
    with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
  in
  (* Ticks slept through with nothing pending are counted before this
     round's frames are admitted, on the same schedule, so the first
     tick after an arrival falls where a loop that woke for every tick
     would have counted it. *)
  let now = Nv_util.Clock.now_ns () in
  if Batcher.pending t.batcher = 0 && now >= t.next_tick then begin
    let missed = 1 + int_of_float ((now -. t.next_tick) /. tick_ns t) in
    t.next_tick <- t.next_tick +. (float_of_int missed *. tick_ns t);
    Batcher.advance t.batcher missed
  end;
  if List.mem t.listen_fd readable then accept_new t;
  List.iter
    (fun fd ->
      match Hashtbl.find_opt t.conns fd with
      | Some conn -> handle_readable t conn
      | None -> ())
    readable;
  (* Every round lands a batch the engine domain finished (its pipe woke
     this round), so the replies it queued go out below, in this same
     round. *)
  let now = Nv_util.Clock.now_ns () in
  if now >= t.next_tick then begin
    t.next_tick <- now +. tick_ns t;
    Batcher.advance t.batcher 1
  end
  else Batcher.advance t.batcher 0;
  periodic_stats t;
  Hashtbl.iter (fun _ conn -> maybe_finish_bye t conn) t.conns;
  write_pending t

let stats t =
  {
    clients_served = t.served;
    admitted = Batcher.admitted t.batcher;
    committed = Batcher.committed t.batcher;
    aborted = Batcher.aborted t.batcher;
    rejected = Batcher.rejected t.batcher;
    replayed = Batcher.replayed_replies t.batcher;
    epochs = Batcher.epochs_run t.batcher;
    protocol_errors = t.protocol_errors;
    digest = 0L;
  }

(* Push every queued frame out, waiting (bounded) for sockets to drain:
   the final Result/Bye_ok/Rejected frames of a graceful stop should
   reach their clients even if a buffer was momentarily full. *)
let flush_all t ~deadline_s =
  let t0 = Unix.gettimeofday () in
  let pending () =
    Hashtbl.fold (fun fd c acc -> if has_output c then fd :: acc else acc) t.conns []
  in
  let rec loop () =
    match pending () with
    | [] -> ()
    | fds ->
        if Unix.gettimeofday () -. t0 < deadline_s then begin
          let _, writable, _ =
            try Unix.select [] fds [] 0.05
            with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
          in
          List.iter
            (fun fd ->
              match Hashtbl.find_opt t.conns fd with
              | Some conn -> handle_writable t conn
              | None -> ())
            writable;
          loop ()
        end
  in
  loop ()

let close_all t =
  let conns = Hashtbl.fold (fun _ c acc -> c :: acc) t.conns [] in
  List.iter (fun c -> close_conn t c) conns;
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  match t.cfg.address with
  | `Unix path -> ( try Sys.remove path with Sys_error _ -> ())
  | `Tcp _ -> ()

let finish t =
  (* Graceful stop: sweep any already-received requests (Submits are
     answered Overloaded in draining mode), drain everything admitted
     (the batch executing included), push the final replies, checkpoint
     if journaled, join the engine domain, close up. *)
  t.draining <- true;
  Hashtbl.iter (fun _ conn -> handle_readable t conn) t.conns;
  Batcher.drain t.batcher;
  Hashtbl.iter (fun _ conn -> maybe_finish_bye t conn) t.conns;
  flush_all t ~deadline_s:1.0;
  (* The covering checkpoint makes the journal's truncation point
     durable, so a subsequent --recover replays only what this run had
     not yet checkpointed. Only on a checkpointing cadence, though: a
     zero-cadence journal deliberately keeps full history, which the
     chaos oracle replays end to end. *)
  if t.cfg.batcher.Batcher.checkpoint_every > 0 then ignore (Batcher.checkpoint_now t.batcher);
  (match t.on_stats with
  | Some f when t.cfg.stats_interval_s > 0.0 -> f (live_stats_json t)
  | Some _ | None -> ());
  Engine_domain.stop t.engine;
  close_all t;
  let d = digest t in
  { (stats t) with digest = d }

(* A failure out of the loop — an engine exception re-raised as its
   batch lands, or one of the loop's own — ends the server: the engine
   domain is joined (after the batch it may still be running) and every
   connection closed, so clients see the server go instead of hanging,
   and the exception reaches the caller. *)
let abort t =
  (try Engine_domain.stop t.engine with _ -> ());
  close_all t

let serve ?tracer ?metrics ?journal ?recovery ?should_stop ?on_stats ~shards ~registry
    ~tables cfg =
  (* Clients can vanish between select and write; take EPIPE on the
     write path (handled as a dropped connection) over SIGPIPE. *)
  if not Sys.win32 then Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let t = create ?tracer ?metrics ?journal ?on_stats ~shards ~registry ~tables cfg in
  match
    (match recovery with
    | Some r ->
        Batcher.recover t.batcher ~records:r.rec_records ~sessions:r.rec_sessions
          ~batches_done:r.rec_batches_done
    | None -> ());
    let finished = ref false in
    while not !finished do
      step t;
      Option.iter (poll_stop t) should_stop;
      if t.shutdown then finished := true
      else if t.cfg.once && t.served > 0 && Hashtbl.length t.conns = 0 then finished := true
    done;
    finish t
  with
  | stats -> stats
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      abort t;
      Printexc.raise_with_backtrace e bt
