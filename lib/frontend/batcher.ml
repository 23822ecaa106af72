module Engine_intf = Nvcaracal.Engine_intf
module Metrics = Nv_obs.Metrics
module Tracer = Nv_obs.Tracer
module Pmem = Nv_nvmm.Pmem
module Txn = Nvcaracal.Txn

type config = {
  batch_target : int;
  deadline_ticks : int;
  max_pending : int;
  dedup_window : int;
  checkpoint_every : int;
}

let config ?(batch_target = 256) ?(deadline_ticks = 8) ?max_pending ?(dedup_window = 4096)
    ?(checkpoint_every = 0) () =
  if batch_target <= 0 then invalid_arg "Batcher.config: batch_target must be positive";
  if deadline_ticks <= 0 then invalid_arg "Batcher.config: deadline_ticks must be positive";
  if dedup_window <= 0 then invalid_arg "Batcher.config: dedup_window must be positive";
  if checkpoint_every < 0 then invalid_arg "Batcher.config: checkpoint_every must be >= 0";
  let max_pending = match max_pending with Some m -> m | None -> 4 * batch_target in
  if max_pending < batch_target then
    invalid_arg "Batcher.config: max_pending must be >= batch_target";
  { batch_target; deadline_ticks; max_pending; dedup_window; checkpoint_every }

type entry = {
  e_client : int;
  e_req : int;  (** the client's sequence number for this call *)
  e_gen : int;  (** session generation at admission; replies need a match *)
  e_txn : Nvcaracal.Txn.t;
  e_call : string * bytes;
  e_submit_tick : int;
  e_wall : float;  (** host wall ns at admission (latency accounting only) *)
  mutable e_close_tick : int;  (** tick of the first batch that included it; -1 until then *)
}

(* A client is a session, not a connection: it survives disconnects so
   a reconnect with [resume] finds its dedup window and last-acked seq
   intact. [gen] counts fresh (non-resume) restarts of the id; replies
   for entries admitted under an older generation are suppressed. *)
type client = {
  id : int;
  mutable gen : int;
  mutable reply : (Wire.response -> unit) option;  (** [None] while disconnected *)
  mutable owner : int;  (** bumped per attach; stale connections hold old tokens *)
  q : entry Queue.t;
  mutable outstanding : int;  (** admitted, not yet replied (current gen) *)
  mutable last_acked : int;  (** highest acknowledged seq *)
  window : (int, [ `Committed | `Aborted ]) Hashtbl.t;  (** acked seq -> outcome *)
  order : int Queue.t;  (** window eviction order (ack order) *)
  inflight : (int, unit) Hashtbl.t;  (** admitted seqs awaiting their outcome *)
}

(* A formed, journaled batch on its way through the engine. [f_result]
   is written by whichever domain executes the batch and read by the
   I/O loop only after the engine domain reported the job finished. *)
type flight = {
  f_batch : entry array;
  f_calls : Shard_set.call array;
  mutable f_result : result;
}

and result =
  | Running
  | Ran of [ `Committed | `Aborted | `Deferred ] array * float  (** outcomes, simulated ns *)
  | Failed of exn * Printexc.raw_backtrace

type t = {
  cfg : config;
  shards : Shard_set.t;
  domain : Engine_domain.t option;  (** [None]: batches run inline in [launch] *)
  registry : Proc.t;
  tables : Nvcaracal.Table.t list;
  tracer : Tracer.t;
  journal : Journal.t option;
  clients : (int, client) Hashtbl.t;
  mutable next_client : int;
  mutable carryover : entry list;  (** engine-deferred; lead the next batch *)
  mutable pending_total : int;  (** queued plus carryover: calls no formed batch holds *)
  mutable executing : int;  (** calls in formed batches that have not landed *)
  mutable reserved : int;  (** journal bytes of admitted calls no record holds yet *)
  mutable flight : flight option;  (** the batch the engine domain is running *)
  mutable ahead : flight option;  (** formed and journaled while [flight] runs *)
  boundary : (unit -> unit) Queue.t;  (** engine-state reads waiting for [flight] to land *)
  mutable next_batch : int;  (** number the next formed batch is journaled under *)
  mutable tick : int;
  mutable open_since : int;  (** tick the oldest pending txn arrived; -1 when idle *)
  mutable epochs : int;
  mutable batches_run : int;  (** total batches executed, replayed ones included *)
  mutable last_checkpoint : int;  (** batches covered by the last durable checkpoint *)
  mutable admitted : int;
  mutable committed : int;
  mutable aborted : int;
  mutable rejected : int;
  mutable replayed : int;  (** retries answered from the dedup window *)
  mutable deferred_total : int;  (** conflict-victim deferrals, cumulative *)
  (* Per-procedure admission-to-reply wall latency. Deliberately NOT in
     the Metrics registry: registry records must stay deterministic for
     the golden checks, and these are host-time readings. Served to
     monitoring via the Stats wire message instead. *)
  lat_by_proc : (string, Nv_util.Histogram.t) Hashtbl.t;
  m_depth : Metrics.gauge;
  m_queue_wait : Metrics.histogram;
  m_batch_size : Metrics.histogram;
  m_exec_ns : Metrics.histogram;
  m_reply_ticks : Metrics.histogram;
  m_rejected : Metrics.counter;
}

let create ?(cfg = config ()) ?(tracer = Tracer.null) ?(metrics = Metrics.null) ?journal
    ?engine_domain ~shards ~registry ~tables () =
  if cfg.checkpoint_every > 0 && journal = None then
    invalid_arg "Batcher.create: checkpoint_every needs a journal";
  if cfg.checkpoint_every > 0 && Shard_set.local_engine shards = None then
    (* A checkpoint is one engine's pmem image; a routed cluster has no
       such image here — its durability is each shard's own journal. *)
    invalid_arg "Batcher.create: checkpointing is single-shard only (cluster mode replays)";
  {
    cfg;
    shards;
    domain = engine_domain;
    registry;
    tables;
    tracer;
    journal;
    clients = Hashtbl.create 64;
    next_client = 0;
    carryover = [];
    pending_total = 0;
    executing = 0;
    reserved = 0;
    flight = None;
    ahead = None;
    boundary = Queue.create ();
    next_batch = 0;
    tick = 0;
    open_since = -1;
    epochs = 0;
    batches_run = 0;
    last_checkpoint = 0;
    admitted = 0;
    committed = 0;
    aborted = 0;
    rejected = 0;
    replayed = 0;
    deferred_total = 0;
    lat_by_proc = Hashtbl.create 16;
    m_depth = Metrics.gauge metrics "frontend.queue_depth";
    m_queue_wait = Metrics.histogram metrics "frontend.queue_wait_ticks";
    m_batch_size = Metrics.histogram metrics "frontend.batch_size";
    m_exec_ns = Metrics.histogram metrics "frontend.epoch_exec_ns";
    m_reply_ticks = Metrics.histogram metrics "frontend.checkpoint_to_reply_ticks";
    m_rejected = Metrics.counter metrics "frontend.rejected";
  }

let shard_set t = t.shards

let engine t =
  match Shard_set.local_engine t.shards with
  | Some e -> e
  | None -> invalid_arg "Batcher.engine: cluster-backed batcher has no local engine"

let pending t = t.pending_total
let epochs_run t = t.epochs
let admitted t = t.admitted
let committed t = t.committed
let aborted t = t.aborted
let rejected t = t.rejected
let replayed_replies t = t.replayed
let current_tick t = t.tick
let deferred_total t = t.deferred_total
let batches_run t = t.batches_run
let journal t = t.journal
let sessions t = Hashtbl.length t.clients
let carryover_len t = List.length t.carryover

let queued t =
  Hashtbl.fold (fun _ c acc -> acc + Queue.length c.q) t.clients 0

let proc_latencies t =
  List.sort
    (fun (a, _) (b, _) -> compare a b)
    (Hashtbl.fold (fun proc h acc -> (proc, h) :: acc) t.lat_by_proc [])
let client_id c = c.id
let outstanding c = c.outstanding
let last_acked c = c.last_acked

let fresh_session id reply =
  {
    id;
    gen = 0;
    reply;
    owner = 0;
    q = Queue.create ();
    outstanding = 0;
    last_acked = 0;
    window = Hashtbl.create 64;
    order = Queue.create ();
    inflight = Hashtbl.create 16;
  }

let connect ?id ?(resume = false) t ~reply =
  let id =
    match id with
    | Some i ->
        if i < 0 then invalid_arg "Batcher.connect: negative client id";
        i
    | None ->
        while Hashtbl.mem t.clients t.next_client do
          t.next_client <- t.next_client + 1
        done;
        let i = t.next_client in
        t.next_client <- i + 1;
        i
  in
  match Hashtbl.find_opt t.clients id with
  | Some c when resume ->
      c.reply <- reply;
      c.owner <- c.owner + 1;
      c
  | Some c ->
      (* A fresh (non-resume) start on a known id resets the session:
         new generation, empty dedup state. Entries admitted under the
         old generation still execute (admission is a determinism
         commitment) but their replies are suppressed. *)
      c.gen <- c.gen + 1;
      c.reply <- reply;
      c.owner <- c.owner + 1;
      Hashtbl.reset c.window;
      Queue.clear c.order;
      Hashtbl.reset c.inflight;
      c.last_acked <- 0;
      c.outstanding <- 0;
      c
  | None ->
      let c = fresh_session id reply in
      Hashtbl.replace t.clients id c;
      c

(* A disconnect never cancels admitted work, and it no longer forgets
   the session either: the dedup window must survive so a reconnect
   with [resume] gets exactly-once semantics. Only the reply channel
   drops — and only if it still belongs to the disconnecting attach:
   last-Hello-wins takeover means a stale connection's late close must
   not clobber the channel the session's live connection just
   installed. *)
let owner_token c = c.owner

let disconnect ?token _t c =
  match token with
  | Some tok when tok <> c.owner -> ()
  | Some _ | None -> c.reply <- None

let send c resp = match c.reply with Some f -> f resp | None -> ()

let depth_gauge t = Metrics.set_gauge t.m_depth (float_of_int t.pending_total)

(* Journal reservation, so that [Journal.append] never fails on a call
   already admitted. A call is journaled once, in the record of the
   first batch that holds it, so admission reserves its entry bytes
   until that record is written. Every batch writes one record and
   answers its first call (a deferral needs an earlier conflicting call
   in the same batch), so the unanswered calls bound the records still
   to come. *)
let reserve t sign e = t.reserved <- t.reserved + (sign * Journal.entry_bytes e.e_txn.Txn.input)

(* Room for every unjournaled call plus [txn], and a record for each
   unanswered call plus [txn]. *)
let journal_admits t (txn : Txn.t) =
  match t.journal with
  | None -> true
  | Some j ->
      t.reserved + Journal.entry_bytes txn.Txn.input
      + ((t.pending_total + t.executing + 1) * Journal.record_overhead)
      <= Journal.free_bytes j

let reject t c req (reason : [ `Overloaded | `Unknown_proc ]) =
  t.rejected <- t.rejected + 1;
  Metrics.add t.m_rejected 1;
  send c (Wire.Rejected { req; reason = (reason :> Wire.reject_reason) });
  `Rejected reason

(* Record an acknowledged outcome in the session's dedup window. *)
let ack t c seq outcome =
  Hashtbl.remove c.inflight seq;
  if not (Hashtbl.mem c.window seq) then begin
    Hashtbl.replace c.window seq outcome;
    Queue.push seq c.order;
    if Queue.length c.order > t.cfg.dedup_window then begin
      let oldest = Queue.pop c.order in
      Hashtbl.remove c.window oldest
    end
  end;
  if seq > c.last_acked then c.last_acked <- seq

(* Reply to one finished entry; fires only once the entry's batch has
   landed, after its epoch was checkpointed. *)
let reply_entry t e (outcome : [ `Committed | `Aborted ]) =
  (match outcome with
  | `Committed -> t.committed <- t.committed + 1
  | `Aborted -> t.aborted <- t.aborted + 1);
  Metrics.observe t.m_queue_wait (float_of_int (e.e_close_tick - e.e_submit_tick));
  Metrics.observe t.m_reply_ticks (float_of_int (t.tick - e.e_close_tick));
  (let proc = fst e.e_call in
   let h =
     match Hashtbl.find_opt t.lat_by_proc proc with
     | Some h -> h
     | None ->
         let h = Nv_util.Histogram.create () in
         Hashtbl.add t.lat_by_proc proc h;
         h
   in
   Nv_util.Histogram.add h (Nv_util.Clock.now_ns () -. e.e_wall));
  match Hashtbl.find_opt t.clients e.e_client with
  | None -> ()
  | Some c ->
      if e.e_gen = c.gen then begin
        c.outstanding <- c.outstanding - 1;
        ack t c e.e_req outcome;
        send c (Wire.Result { req = e.e_req; outcome })
      end

(* ------------------------------------------------------------------ *)
(* The batch lifecycle: form -> journal -> launch -> land -> reply      *)

(* Close a batch over [batch] (carryover first): stamp its close tick
   and build the calls the engine runs. *)
let seal t batch =
  Array.iter (fun e -> e.e_close_tick <- t.tick) batch;
  Metrics.observe t.m_batch_size (float_of_int (Array.length batch));
  t.executing <- t.executing + Array.length batch;
  let calls =
    Array.map
      (fun e ->
        let proc, args = e.e_call in
        { Shard_set.c_client = e.e_client; c_seq = e.e_req; c_proc = proc; c_args = args;
          c_txn = e.e_txn })
      batch
  in
  { f_batch = batch; f_calls = calls; f_result = Running }

(* Form the next batch and journal it: engine-deferred carryover first
   (oldest serial order), then round-robin over the per-client FIFOs in
   client-id order — a deterministic function of queue contents,
   independent of hash-table iteration order. The record holds only the
   calls taken from the FIFOs; the carryover is already journaled. The
   batch number is the pipeline's, not the count of landed batches: a
   batch formed while another runs is numbered after it. *)
let form t =
  let carried = List.length t.carryover in
  let target = max t.cfg.batch_target carried in
  let fresh = ref [] in
  let n = ref carried in
  let ids = List.sort compare (Hashtbl.fold (fun id _ acc -> id :: acc) t.clients []) in
  let progress = ref true in
  while !n < target && !progress do
    progress := false;
    List.iter
      (fun id ->
        if !n < target then
          let c = Hashtbl.find t.clients id in
          if not (Queue.is_empty c.q) then begin
            fresh := Queue.pop c.q :: !fresh;
            incr n;
            progress := true
          end)
      ids
  done;
  if !n = 0 then None
  else begin
    let fresh = List.rev !fresh in
    let batch = Array.of_list (t.carryover @ fresh) in
    t.carryover <- [];
    t.pending_total <- t.pending_total - !n;
    List.iter (reserve t (-1)) fresh;
    Nv_util.Crashpoint.hit "post-admit";
    (* A batch runs only once its record is durable. *)
    (match t.journal with
    | None -> ()
    | Some j ->
        Journal.append j ~batch:t.next_batch
          ~entries:
            (List.map
               (fun e ->
                 { Journal.j_client = e.e_client; j_seq = e.e_req; j_call = e.e_txn.Txn.input })
               fresh);
        Nv_util.Crashpoint.hit "post-journal");
    t.next_batch <- t.next_batch + 1;
    Some (seal t batch)
  end

(* Run a batch's calls to their outcome vector. On the engine domain
   when there is one: everything here reads or writes engine state, and
   the I/O loop's own reads of that state wait for a batch boundary. *)
let execute t calls =
  let before = Shard_set.total_time_ns t.shards in
  let outcomes =
    Tracer.span t.tracer ~core:0 ~name:"frontend.batch" ~cat:"frontend" (fun () ->
        Shard_set.exec t.shards calls)
  in
  (outcomes, Shard_set.total_time_ns t.shards -. before)

(* Land a batch that ran: the epoch is checkpointed, so outcomes are
   visible (section 6.2.3) and replies may flow. Deferred conflict
   victims stay unanswered and head the next batch under their original
   order. Shared between live serving and journal replay — recovery
   runs the exact code an uncrashed server ran, which is what makes the
   replayed pmem image bit-identical. *)
let land_batch t f outcomes exec_ns =
  Metrics.observe t.m_exec_ns exec_ns;
  t.epochs <- t.epochs + 1;
  t.batches_run <- t.batches_run + 1;
  t.executing <- t.executing - Array.length f.f_batch;
  Nv_util.Crashpoint.hit "pre-reply";
  let deferred = ref [] in
  Array.iteri
    (fun i e ->
      match outcomes.(i) with
      | `Deferred -> deferred := e :: !deferred
      | (`Committed | `Aborted) as o -> reply_entry t e o)
    f.f_batch;
  t.carryover <- List.rev !deferred;
  t.deferred_total <- t.deferred_total + List.length t.carryover;
  t.pending_total <- t.pending_total + List.length t.carryover;
  if t.pending_total > 0 && t.open_since < 0 then t.open_since <- t.tick

let session_states t =
  let ids = List.sort compare (Hashtbl.fold (fun id _ acc -> id :: acc) t.clients []) in
  List.map
    (fun id ->
      let c = Hashtbl.find t.clients id in
      let window =
        Queue.fold (fun acc seq -> (seq, Hashtbl.find c.window seq) :: acc) [] c.order
        |> List.rev
      in
      { Journal.ss_client = id; ss_last_acked = c.last_acked; ss_window = window })
    ids

(* A checkpoint pairs the engine's pmem image with the session table of
   exactly [batches_run] batches, so it is taken while no batch runs;
   writing it and truncating the journal need no engine state and may
   overlap the next batch. Only when no carryover is outstanding — a
   deferred entry's call lives only in journal records, and the
   truncation must never orphan it. *)
let capture_checkpoint t =
  match (t.journal, Shard_set.local_engine t.shards) with
  | Some j, Some (Engine_intf.Packed ((module E), db)) when t.carryover = [] ->
      let pm = E.pmem db in
      let image = Pmem.read_bytes pm ~off:0 ~len:(Pmem.size pm) in
      Some (j, t.batches_run, session_states t, image)
  | _ -> None

let write_checkpoint t (j, batches, sessions, image) =
  Journal.write_checkpoint j ~batches ~sessions ~image;
  Journal.truncate_to j ~batch:batches;
  t.last_checkpoint <- batches

let rec launch t f =
  match t.domain with
  | None ->
      let outcomes, exec_ns = execute t f.f_calls in
      advance t f outcomes exec_ns
  | Some d ->
      t.flight <- Some f;
      Engine_domain.run d (fun () ->
          f.f_result <-
            (match execute t f.f_calls with
            | outcomes, exec_ns -> Ran (outcomes, exec_ns)
            | exception e -> Failed (e, Printexc.get_raw_backtrace ())))

(* After a batch ran: land it, then — with the engine idle — take a due
   checkpoint's image and serve the reads that waited for this boundary,
   then launch the batch formed ahead, and only then write the
   checkpoint. *)
and advance t f outcomes exec_ns =
  land_batch t f outcomes exec_ns;
  let ck =
    if
      t.cfg.checkpoint_every > 0
      && t.batches_run - t.last_checkpoint >= t.cfg.checkpoint_every
    then capture_checkpoint t
    else None
  in
  while not (Queue.is_empty t.boundary) do
    (Queue.pop t.boundary) ()
  done;
  (match t.ahead with
  | Some a ->
      t.ahead <- None;
      launch t a
  | None -> ());
  Option.iter (write_checkpoint t) ck

(* The flight's job has finished: land it, or re-raise the engine's
   exception here, on the I/O loop, so the process dies loudly. *)
let complete t f =
  t.flight <- None;
  match f.f_result with
  | Ran (outcomes, exec_ns) -> advance t f outcomes exec_ns
  | Failed (e, bt) -> Printexc.raise_with_backtrace e bt
  | Running -> assert false

let land_if_done t =
  match (t.flight, t.domain) with
  | Some f, Some d -> if Engine_domain.poll d then complete t f
  | _ -> ()

(* Block until the running batch lands (which launches the one formed
   ahead, if any). *)
let settle t =
  match (t.flight, t.domain) with
  | Some f, Some d ->
      Engine_domain.wait d;
      complete t f
  | _ -> ()

let quiesce t =
  while t.flight <> None do
    settle t
  done

(* At most one batch runs while the next is formed and journaled, and
   only when the running one cannot defer: deferrals lead the next
   batch, so a deferring engine runs one batch at a time. *)
let can_form t =
  t.ahead = None && (t.flight = None || not (Shard_set.defers t.shards))

let run t =
  (match form t with
  | None -> ()
  | Some f -> if t.flight = None then launch t f else t.ahead <- Some f);
  t.open_since <- (if t.pending_total > 0 then t.tick else -1);
  depth_gauge t

let checkpoint_now t =
  quiesce t;
  match capture_checkpoint t with
  | None -> false
  | Some ck ->
      write_checkpoint t ck;
      true

let at_boundary t f = if t.flight = None then f () else Queue.push f t.boundary

let in_flight t =
  (match t.flight with Some _ -> 1 | None -> 0) + match t.ahead with Some _ -> 1 | None -> 0

(* A submit on a disconnected session (reply = None) is admitted
   normally — [send] just drops the replies. It happens when a stale
   connection outlives a takeover: the work executes, the outcome lands
   in the dedup window, and the session's next resume replays it.
   Raising here would let one confused client kill the event loop. *)
let submit t c ~req ~proc ~args =
  match Hashtbl.find_opt c.window req with
  | Some o ->
      (* Exactly-once: a retry of an acknowledged seq returns the
         original outcome from the dedup window, never re-executes. *)
      t.replayed <- t.replayed + 1;
      send c (Wire.Result { req; outcome = o });
      `Replayed o
  | None ->
      if Hashtbl.mem c.inflight req then
        (* Already admitted and still executing: the original reply
           will answer this seq; sending nothing avoids duplicates. *)
        `Duplicate
      else if t.pending_total >= t.cfg.max_pending then reject t c req `Overloaded
      else
        match Proc.build t.registry ~proc ~args with
        | Error `Unknown_proc -> reject t c req `Unknown_proc
        | Ok txn when not (journal_admits t txn) -> reject t c req `Overloaded
        | Ok txn ->
            let e =
              {
                e_client = c.id;
                e_req = req;
                e_gen = c.gen;
                e_txn = txn;
                e_call = (proc, args);
                e_submit_tick = t.tick;
                e_wall = Nv_util.Clock.now_ns ();
                e_close_tick = -1;
              }
            in
            Queue.push e c.q;
            Hashtbl.replace c.inflight req ();
            c.outstanding <- c.outstanding + 1;
            t.admitted <- t.admitted + 1;
            t.pending_total <- t.pending_total + 1;
            reserve t 1 e;
            if t.open_since < 0 then t.open_since <- t.tick;
            depth_gauge t;
            `Admitted

(* Non-admitting probe for a draining server: retries of acknowledged
   seqs still replay their original outcome (exactly-once survives the
   shutdown window), in-flight seqs are left to the reply their
   admission already owes, and only a genuinely new seq is reported
   back for the caller to reject. *)
let try_replay t c ~req =
  match Hashtbl.find_opt c.window req with
  | Some o ->
      t.replayed <- t.replayed + 1;
      send c (Wire.Result { req; outcome = o });
      `Replayed o
  | None -> if Hashtbl.mem c.inflight req then `Inflight else `New

(* Batches close in [poll], not inside [submit]: submissions arriving
   within one event-loop round pile up (bounded by [max_pending]), and
   the next poll first lands a batch that finished running, then closes
   a batch once the size target is met or the oldest arrival has waited
   out the deadline (counted in [tick]s) — if the pipeline has room for
   it. *)
let poll t =
  land_if_done t;
  if
    (t.pending_total >= t.cfg.batch_target
    || (t.pending_total > 0 && t.tick - t.open_since >= t.cfg.deadline_ticks))
    && can_form t
  then run t

let tick t =
  t.tick <- t.tick + 1;
  poll t

let flush t =
  if t.pending_total > 0 then begin
    while not (can_form t) do
      settle t
    done;
    run t
  end

let drain t =
  let guard = ref 0 in
  while t.pending_total > 0 || t.flight <> None do
    incr guard;
    if !guard > 100_000 then failwith "Batcher.drain: no progress";
    if t.pending_total > 0 && can_form t then run t else settle t
  done

let state_digest t =
  if t.flight <> None then
    invalid_arg "Batcher.state_digest: a batch is executing (read it at a batch boundary)";
  Shard_set.digest t.shards

(* ------------------------------------------------------------------ *)
(* Restart recovery                                                    *)

(* Replay journaled batches the crash un-happened, in admission order,
   through the same [seal]/[execute]/[land_batch] the live path uses, run
   inline. Each batch is the previous one's deferrals followed by its
   record's calls, as [form] built it. [batches_done] is
   how many batches the starting engine image already covers (0 for a
   fresh engine, the checkpoint's count otherwise); records below it
   are skipped, records above it must be gapless. Sessions restored
   from a checkpoint come in via [sessions]; replayed outcomes then
   re-ack on top, so the dedup windows end exactly where the crashed
   server's were. *)
let recover t ~records ~sessions:restored ~batches_done =
  if t.admitted > 0 || t.batches_run > 0 then
    invalid_arg "Batcher.recover: batcher already has traffic";
  (* Replay is repair, not live serving: armed crashpoints stay quiet,
     else a countdown shorter than the replayed tail would crash-loop
     every recovery attempt. *)
  Nv_util.Crashpoint.suppress @@ fun () ->
  List.iter
    (fun (ss : Journal.session_state) ->
      let c = fresh_session ss.Journal.ss_client None in
      c.last_acked <- ss.Journal.ss_last_acked;
      List.iter
        (fun (seq, o) ->
          Hashtbl.replace c.window seq o;
          Queue.push seq c.order)
        ss.Journal.ss_window;
      Hashtbl.replace t.clients c.id c;
      t.next_client <- max t.next_client (c.id + 1))
    restored;
  t.batches_run <- batches_done;
  t.next_batch <- batches_done;
  t.last_checkpoint <- batches_done;
  List.iter
    (fun (r : Journal.record) ->
      if r.Journal.r_batch >= batches_done then begin
        if r.Journal.r_batch <> t.batches_run then
          failwith
            (Printf.sprintf "Batcher.recover: journal gap (record %d, expected %d)"
               r.Journal.r_batch t.batches_run);
        let fresh =
            List.map
               (fun (je : Journal.entry) ->
                 let proc, args =
                   match Proc.decode_call je.Journal.j_call with
                   | Some pa -> pa
                   | None -> failwith "Batcher.recover: corrupt journaled call"
                 in
                 let txn = Proc.rebuild t.registry je.Journal.j_call in
                 let c =
                   match Hashtbl.find_opt t.clients je.Journal.j_client with
                   | Some c -> c
                   | None ->
                       let c = fresh_session je.Journal.j_client None in
                       Hashtbl.replace t.clients c.id c;
                       t.next_client <- max t.next_client (c.id + 1);
                       c
                 in
                 Hashtbl.replace c.inflight je.Journal.j_seq ();
                 c.outstanding <- c.outstanding + 1;
                 t.admitted <- t.admitted + 1;
                 {
                   e_client = je.Journal.j_client;
                   e_req = je.Journal.j_seq;
                   e_gen = 0;
                   e_txn = txn;
                   e_call = (proc, args);
                   e_submit_tick = t.tick;
                   e_wall = Nv_util.Clock.now_ns ();
                   e_close_tick = -1;
                 })
               r.Journal.r_entries
        in
        let batch = Array.of_list (t.carryover @ fresh) in
        t.pending_total <- t.pending_total - List.length t.carryover;
        t.carryover <- [];
        t.next_batch <- t.next_batch + 1;
        let f = seal t batch in
        let outcomes, exec_ns = execute t f.f_calls in
        land_batch t f outcomes exec_ns
      end)
    records;
  (* Entries the final journaled batch deferred are live carryover:
     still in flight, first in the next batch — exactly the state of
     the crashed server after its last completed epoch. *)
  t.open_since <- (if t.pending_total > 0 then t.tick else -1);
  depth_gauge t
