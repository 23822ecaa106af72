(* The load generator: one single-threaded [Unix.select] loop over a
   fixed set of Unix-socket connections, speaking [Wire] directly.

   Every call gets a request id in send order; per id the generator
   keeps when it was due, when it was sent, when its reply arrived and
   how it ended. An open loop sends call i at [start + i / rate]
   whatever the server is doing, round-robin over the connections, and
   times it from that due time; a closed loop keeps a fixed number of
   calls in flight per connection and times each from its send. *)

module Wire = Nv_frontend.Wire
module Clock = Nv_util.Clock

module Vec = struct
  type 'a t = { mutable a : 'a array; mutable n : int }

  let create dummy = { a = Array.make 1024 dummy; n = 0 }

  let push v x =
    if v.n = Array.length v.a then begin
      let b = Array.make (2 * v.n) x in
      Array.blit v.a 0 b 0 v.n;
      v.a <- b
    end;
    v.a.(v.n) <- x;
    v.n <- v.n + 1

  let length v = v.n
  let get v i = v.a.(i)
  let set v i x = v.a.(i) <- x
  let to_array v = Array.sub v.a 0 v.n
end

type outcome = Pending | Committed | Aborted | Failed

type conn = {
  fd : Unix.file_descr;
  reader : Wire.Reader.t;
  rng : Nv_util.Rng.t;
  mutable obuf : Bytes.t;
  mutable olen : int;
  mutable ooff : int;
  ids : int Vec.t;  (** sequence number - 1 -> request id *)
  mutable inflight : int;
  mutable alive : bool;
  mutable hello_ok : bool;
  mutable bye_digest : int64 option;
}

(* Traced runs keep up to this many request frames and responses for
   the offline wire timing. *)
let recorded_max = 20_000

type t = {
  w : Nv_workloads.Workload.t;
  conns : conn array;
  traced : bool;  (** record call hashes, frames and responses *)
  due : float Vec.t;
  sent : float Vec.t;
  reply : float Vec.t;
  outcome : outcome Vec.t;
  hash : int Vec.t;
  proc : string Vec.t;
  frames : bytes Vec.t;
  responses : Wire.response Vec.t;
  mutable next_open : int;  (** open loop: index of the next scheduled call *)
  mutable rejected : int;
  mutable server_errors : int;
  mutable protocol_errors : int;
  mutable duplicates : int;
  mutable stats_json : string option;
  rbuf : Bytes.t;
}

let create ?(traced = false) ~seed w fds =
  {
    w;
    conns =
      Array.mapi
        (fun i fd ->
          Unix.set_nonblock fd;
          {
            fd;
            reader = Wire.Reader.create ();
            (* One call stream per connection, from the bench seed. *)
            rng = Nv_util.Rng.create ((seed * 7919) + i);
            obuf = Bytes.create 65536;
            olen = 0;
            ooff = 0;
            ids = Vec.create 0;
            inflight = 0;
            alive = true;
            hello_ok = false;
            bye_digest = None;
          })
        fds;
    traced;
    due = Vec.create 0.0;
    sent = Vec.create 0.0;
    reply = Vec.create 0.0;
    outcome = Vec.create Pending;
    hash = Vec.create 0;
    proc = Vec.create "";
    frames = Vec.create Bytes.empty;
    responses = Vec.create (Wire.Bye_ok { digest = 0L });
    next_open = 0;
    rejected = 0;
    server_errors = 0;
    protocol_errors = 0;
    duplicates = 0;
    stats_json = None;
    rbuf = Bytes.create 65536;
  }

let requests t = Vec.length t.outcome

let answered t i = match Vec.get t.outcome i with Committed | Aborted -> true | Pending | Failed -> false

let count t f = Seq.fold_left (fun acc i -> if f i then acc + 1 else acc) 0 (Seq.init (requests t) Fun.id)

(* Sorted [stamp - due] (ms) over the calls due in [a, b) that [keep]. *)
let since_due t a b ~keep stamp =
  Seq.init (requests t) Fun.id
  |> Seq.filter_map (fun i ->
         let due = Vec.get t.due i in
         if keep i && due >= a && due < b then Some ((Vec.get stamp i -. due) /. 1e6) else None)
  |> Array.of_seq |> Pct.sorted

(* Latencies of the answered calls: open loops from the due time,
   closed loops from the send (their due time). *)
let latencies t a b = since_due t a b ~keep:(answered t) t.reply

(* Lateness: how long after its due time each call was handed to the
   socket. Zero for closed loops, whose calls are due when sent. *)
let lateness t a b = since_due t a b ~keep:(fun _ -> true) t.sent

(* Connect to a server that may still be loading: retry until it
   listens, it dies, or [deadline] (monotonic ns) passes. *)
let rec connect path ~deadline ~alive =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> fd
  | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED | Unix.EAGAIN), _, _) ->
      Unix.close fd;
      if not (alive ()) then failwith "server exited before listening";
      if Clock.now_ns () > deadline then failwith "server did not listen in time";
      Unix.sleepf 0.002;
      connect path ~deadline ~alive

let close t = Array.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) t.conns

let enqueue c frame =
  let len = Bytes.length frame in
  if c.olen + len > Bytes.length c.obuf then begin
    let live = c.olen - c.ooff in
    let b = Bytes.create (max (Bytes.length c.obuf) (2 * (live + len))) in
    Bytes.blit c.obuf c.ooff b 0 live;
    c.obuf <- b;
    c.olen <- live;
    c.ooff <- 0
  end;
  Bytes.blit frame 0 c.obuf c.olen len;
  c.olen <- c.olen + len

let fail_pending t c =
  for s = 0 to Vec.length c.ids - 1 do
    let id = Vec.get c.ids s in
    if Vec.get t.outcome id = Pending then Vec.set t.outcome id Failed
  done;
  c.inflight <- 0

(* A dropped connection means the server died or cut us off: every
   call still owed an answer on it has failed. *)
let drop t c =
  if c.alive then begin
    c.alive <- false;
    (try Unix.close c.fd with Unix.Unix_error _ -> ());
    fail_pending t c
  end

let flush t c =
  let rec go () =
    if c.alive && c.ooff < c.olen then
      match Unix.single_write c.fd c.obuf c.ooff (c.olen - c.ooff) with
      | n ->
          c.ooff <- c.ooff + n;
          go ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | exception Unix.Unix_error _ -> drop t c
  in
  go ();
  if c.ooff = c.olen then begin
    c.ooff <- 0;
    c.olen <- 0
  end

let send_frame t c frame =
  if c.alive then begin
    enqueue c frame;
    flush t c
  end

let answer t c ~seq now outcome =
  if seq < 1 || seq > Vec.length c.ids then t.protocol_errors <- t.protocol_errors + 1
  else
    let id = Vec.get c.ids (seq - 1) in
    if Vec.get t.outcome id <> Pending then t.duplicates <- t.duplicates + 1
    else begin
      Vec.set t.outcome id outcome;
      Vec.set t.reply id now;
      c.inflight <- c.inflight - 1
    end

let on_response t c now (resp : Wire.response) =
  if t.traced && Vec.length t.responses < recorded_max then Vec.push t.responses resp;
  match resp with
  | Wire.Hello_ok _ -> c.hello_ok <- true
  | Wire.Result { req; outcome = `Committed } -> answer t c ~seq:req now Committed
  | Wire.Result { req; outcome = `Aborted } -> answer t c ~seq:req now Aborted
  | Wire.Rejected { req; _ } ->
      t.rejected <- t.rejected + 1;
      answer t c ~seq:req now Failed
  | Wire.Bye_ok { digest } -> c.bye_digest <- Some digest
  | Wire.Stats_ok { json } -> t.stats_json <- Some json
  | Wire.Server_error _ ->
      t.server_errors <- t.server_errors + 1;
      drop t c
  | Wire.(Shard_hello_ok _ | Route_reads _ | Fence_ok _) ->
      t.protocol_errors <- t.protocol_errors + 1;
      drop t c

let read t c =
  match Unix.read c.fd t.rbuf 0 (Bytes.length t.rbuf) with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error _ -> drop t c
  | 0 -> drop t c
  | n -> (
      let now = Clock.now_ns () in
      Wire.Reader.feed c.reader t.rbuf ~off:0 ~len:n;
      try
        let continue = ref true in
        while !continue && c.alive do
          match Wire.Reader.next_payload c.reader with
          | None -> continue := false
          | Some payload -> on_response t c now (Wire.decode_response payload)
        done
      with Wire.Protocol_error _ ->
        t.protocol_errors <- t.protocol_errors + 1;
        drop t c)

(* One select round: wait up to [timeout_s] for replies or writable
   sockets, then read and write what is ready. *)
let step t ~timeout_s =
  let live = List.filter (fun c -> c.alive) (Array.to_list t.conns) in
  let reads = List.map (fun c -> c.fd) live in
  let writes = List.filter_map (fun c -> if c.ooff < c.olen then Some c.fd else None) live in
  let readable, writable, _ =
    try Unix.select reads writes [] (Float.max 0.0 timeout_s)
    with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
  in
  List.iter (fun c -> if c.alive && List.memq c.fd readable then read t c) live;
  List.iter (fun c -> if List.memq c.fd writable then flush t c) live

let send_call t c ~due =
  let proc, args = t.w.Nv_workloads.Workload.gen_call c.rng in
  let seq = Vec.length c.ids + 1 in
  let id = requests t in
  let now = Clock.now_ns () in
  Vec.push t.due due;
  Vec.push t.sent now;
  Vec.push t.reply nan;
  Vec.push t.proc proc;
  Vec.push t.hash
    (if t.traced then
       Nv_util.Fnv.hash_string
         (Bytes.unsafe_to_string (Nv_frontend.Proc.encode_call ~proc ~args))
     else 0);
  Vec.push c.ids id;
  if c.alive then begin
    let frame = Wire.encode_request (Wire.Submit { req = seq; proc; args }) in
    if t.traced && Vec.length t.frames < recorded_max then Vec.push t.frames frame;
    Vec.push t.outcome Pending;
    c.inflight <- c.inflight + 1;
    enqueue c frame
  end
  else Vec.push t.outcome Failed

(* Wait, select round by select round, until [ready ()] or [deadline]
   (monotonic ns); true when ready. *)
let wait_until t ~deadline ready =
  while (not (ready ())) && Clock.now_ns () < deadline do
    step t ~timeout_s:0.005
  done;
  ready ()

let hello t ~first_id ~deadline =
  Array.iteri
    (fun i c ->
      send_frame t c
        (Wire.encode_request
           (Wire.Hello
              { client = first_id + i; version = Wire.protocol_version; resume = false; last_seq = 0 })))
    t.conns;
  wait_until t ~deadline (fun () -> Array.for_all (fun c -> c.hello_ok || not c.alive) t.conns)
  && Array.for_all (fun c -> c.alive) t.conns

(* Offer load until [until] (monotonic ns). [start] anchors the open
   loop's schedule, so consecutive calls continue one timetable. *)
let drive t (mode : Spec.mode) ~start ~until =
  let n = Array.length t.conns in
  match mode with
  | Spec.Open rate ->
      let period = 1e9 /. rate in
      let due i = start +. (float_of_int i *. period) in
      let rec loop () =
        let now = Clock.now_ns () in
        if now < until then begin
          while due t.next_open <= now && due t.next_open < until do
            send_call t t.conns.(t.next_open mod n) ~due:(due t.next_open);
            t.next_open <- t.next_open + 1
          done;
          Array.iter (flush t) t.conns;
          step t ~timeout_s:(Float.min 0.005 ((Float.min (due t.next_open) until -. now) /. 1e9));
          loop ()
        end
      in
      loop ()
  | Spec.Closed window ->
      let rec loop () =
        let now = Clock.now_ns () in
        if now < until then begin
          Array.iter
            (fun c ->
              while c.alive && c.inflight < window do
                send_call t c ~due:(Clock.now_ns ())
              done;
              flush t c)
            t.conns;
          step t ~timeout_s:(Float.min 0.005 ((until -. now) /. 1e9));
          loop ()
        end
      in
      loop ()

let outstanding t = Array.fold_left (fun acc c -> if c.alive then acc + c.inflight else acc) 0 t.conns

(* Stop offering load and wait for every answer; whatever is still
   unanswered at [deadline] has failed. Returns how many calls that is. *)
let drain t ~deadline =
  ignore (wait_until t ~deadline (fun () -> outstanding t = 0));
  let unanswered = outstanding t in
  Array.iter (fun c -> if c.inflight > 0 then fail_pending t c) t.conns;
  unanswered

let bye t ~deadline =
  Array.iter (fun c -> send_frame t c (Wire.encode_request Wire.Bye)) t.conns;
  ignore
    (wait_until t ~deadline (fun () ->
         Array.for_all (fun c -> c.bye_digest <> None || not c.alive) t.conns));
  Array.to_list (Array.map (fun c -> c.bye_digest) t.conns)

let stats t ~deadline =
  t.stats_json <- None;
  send_frame t t.conns.(0) (Wire.encode_request Wire.Stats);
  ignore (wait_until t ~deadline (fun () -> t.stats_json <> None || not t.conns.(0).alive));
  t.stats_json
