type t = {
  mu : Mutex.t;
  cond : Condition.t;
  mutable job : (unit -> unit) option;  (** handed over, not yet taken *)
  mutable running : bool;  (** started by [run], not yet finished *)
  mutable busy : bool;  (** started by [run], not yet reported by [poll]/[wait] *)
  mutable quit : bool;
  mutable domain : unit Domain.t option;
  mutable escaped : exn option;  (** a job's exception the job failed to catch *)
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  mutable closed : bool;
}

let create () =
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  {
    mu = Mutex.create ();
    cond = Condition.create ();
    job = None;
    running = false;
    busy = false;
    quit = false;
    domain = None;
    escaped = None;
    wake_r;
    wake_w;
    closed = false;
  }

let wake_fd t = t.wake_r

(* One byte per finished job. A full pipe already holds a wake-up, so
   EAGAIN is as good as a write. *)
let wake t =
  try ignore (Unix.single_write t.wake_w (Bytes.make 1 '!') 0 1)
  with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()

let drain_pipe t =
  let buf = Bytes.create 64 in
  let rec go () =
    match Unix.read t.wake_r buf 0 64 with
    | 64 -> go ()
    | _ -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  in
  go ()

let rec loop t =
  Mutex.lock t.mu;
  while t.job = None && not t.quit do
    Condition.wait t.cond t.mu
  done;
  match t.job with
  | None -> Mutex.unlock t.mu
  | Some job ->
      t.job <- None;
      Mutex.unlock t.mu;
      let escaped = match job () with () -> None | exception e -> Some e in
      Mutex.lock t.mu;
      (match escaped with Some _ when t.escaped = None -> t.escaped <- escaped | _ -> ());
      t.running <- false;
      Condition.broadcast t.cond;
      Mutex.unlock t.mu;
      (* After [running] clears: a poller that drained the pipe before
         this byte still sees the job finished, at worst one spurious
         wake-up later. *)
      wake t;
      loop t

let run t job =
  Mutex.lock t.mu;
  if t.busy || t.quit then begin
    Mutex.unlock t.mu;
    invalid_arg "Engine_domain.run: a job is running, or the domain was stopped"
  end;
  t.job <- Some job;
  t.running <- true;
  t.busy <- true;
  Condition.broadcast t.cond;
  Mutex.unlock t.mu;
  if t.domain = None then t.domain <- Some (Domain.spawn (fun () -> loop t))

let poll t =
  if not t.busy then false
  else begin
    (* Drain first, then look: a job finishing after the look writes a
       fresh byte, so the next select still wakes. *)
    drain_pipe t;
    Mutex.lock t.mu;
    let finished = not t.running in
    Mutex.unlock t.mu;
    if finished then t.busy <- false;
    finished
  end

let wait t =
  if t.busy then begin
    Mutex.lock t.mu;
    while t.running do
      Condition.wait t.cond t.mu
    done;
    Mutex.unlock t.mu;
    drain_pipe t;
    t.busy <- false
  end

let stop t =
  if not t.closed then begin
    wait t;
    Mutex.lock t.mu;
    t.quit <- true;
    Condition.broadcast t.cond;
    Mutex.unlock t.mu;
    Option.iter Domain.join t.domain;
    t.domain <- None;
    t.closed <- true;
    (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
    (try Unix.close t.wake_w with Unix.Unix_error _ -> ());
    Option.iter raise t.escaped
  end
