module Engine_intf = Nvcaracal.Engine_intf
module Metrics = Nv_obs.Metrics
module Tracer = Nv_obs.Tracer
module Pmem = Nv_nvmm.Pmem

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

type t = {
  cfg : config;
  shards : Shard_set.t;
  registry : Proc.t;
  tables : Nvcaracal.Table.t list;
  tracer : Tracer.t;
  journal : Journal.t option;
  clients : (int, client) Hashtbl.t;
  mutable next_client : int;
  mutable carryover : entry list;  (** engine-deferred; lead the next batch *)
  mutable pending_total : int;
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
    ~shards ~registry ~tables () =
  if cfg.checkpoint_every > 0 && journal = None then
    invalid_arg "Batcher.create: checkpoint_every needs a journal";
  if cfg.checkpoint_every > 0 && Shard_set.local_engine shards = None then
    (* A checkpoint is one engine's pmem image; a routed cluster has no
       such image here — its durability is each shard's own journal. *)
    invalid_arg "Batcher.create: checkpointing is single-shard only (cluster mode replays)";
  {
    cfg;
    shards;
    registry;
    tables;
    tracer;
    journal;
    clients = Hashtbl.create 64;
    next_client = 0;
    carryover = [];
    pending_total = 0;
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

(* Reply to one finished entry; fires only after the entry's epoch has
   been checkpointed by [exec_batch]. *)
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

(* Form the next batch: engine-deferred carryover first (oldest serial
   order), then round-robin over the per-client FIFOs in client-id
   order — a deterministic function of queue contents, independent of
   hash-table iteration order. *)
let form t =
  let target = max t.cfg.batch_target (List.length t.carryover) in
  let out = ref (List.rev t.carryover) in
  let n = ref (List.length t.carryover) in
  t.carryover <- [];
  let ids = List.sort compare (Hashtbl.fold (fun id _ acc -> id :: acc) t.clients []) in
  let progress = ref true in
  while !n < target && !progress do
    progress := false;
    List.iter
      (fun id ->
        if !n < target then
          let c = Hashtbl.find t.clients id in
          if not (Queue.is_empty c.q) then begin
            out := Queue.pop c.q :: !out;
            incr n;
            progress := true
          end)
      ids
  done;
  t.pending_total <- t.pending_total - !n;
  Array.of_list (List.rev !out)

(* Execute one formed batch as an engine epoch and fire its replies.
   Shared between live serving and journal replay — recovery runs the
   exact code an uncrashed server ran, which is what makes the
   replayed pmem image bit-identical. *)
let exec_batch t batch =
  Array.iter (fun e -> e.e_close_tick <- t.tick) batch;
  Metrics.observe t.m_batch_size (float_of_int (Array.length batch));
  let calls =
    Array.map
      (fun e ->
        let proc, args = e.e_call in
        { Shard_set.c_client = e.e_client; c_seq = e.e_req; c_proc = proc; c_args = args;
          c_txn = e.e_txn })
      batch
  in
  let before = Shard_set.total_time_ns t.shards in
  let outcomes =
    Tracer.span t.tracer ~core:0 ~name:"frontend.batch" ~cat:"frontend" (fun () ->
        Shard_set.exec t.shards calls)
  in
  Metrics.observe t.m_exec_ns (Shard_set.total_time_ns t.shards -. before);
  t.epochs <- t.epochs + 1;
  t.batches_run <- t.batches_run + 1;
  (* The epoch is checkpointed: outcomes are now visible (section
     6.2.3) and replies may flow. Deferred conflict victims stay
     unanswered and head the next batch under their original order. *)
  Nv_util.Crashpoint.hit "pre-reply";
  let deferred = ref [] in
  Array.iteri
    (fun i e ->
      match outcomes.(i) with
      | `Deferred -> deferred := e :: !deferred
      | (`Committed | `Aborted) as o -> reply_entry t e o)
    batch;
  t.carryover <- List.rev !deferred;
  t.deferred_total <- t.deferred_total + List.length t.carryover;
  t.pending_total <- t.pending_total + List.length t.carryover

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

(* Checkpoint: engine pmem image + session table, durable before the
   journal truncates to the covering batch. Only when no carryover is
   outstanding — a deferred entry's call lives only in journal records,
   and the truncation must never orphan it. *)
let checkpoint_now t =
  match t.journal with
  | None -> false
  | Some j ->
      if t.carryover <> [] then false
      else begin
        match Shard_set.local_engine t.shards with
        | None -> false
        | Some (Engine_intf.Packed ((module E), db)) ->
        let pm = E.pmem db in
        let image = Pmem.read_bytes pm ~off:0 ~len:(Pmem.size pm) in
        Journal.write_checkpoint j ~batches:t.batches_run ~sessions:(session_states t) ~image;
        Journal.truncate_to j ~batch:t.batches_run;
        t.last_checkpoint <- t.batches_run;
        true
      end

let maybe_checkpoint t =
  if
    t.cfg.checkpoint_every > 0
    && t.batches_run - t.last_checkpoint >= t.cfg.checkpoint_every
  then ignore (checkpoint_now t)

let run t =
  let batch = form t in
  if Array.length batch > 0 then begin
    Nv_util.Crashpoint.hit "post-admit";
    (match t.journal with
    | Some j ->
        let entries =
          List.map
            (fun e ->
              let proc, args = e.e_call in
              { Journal.j_client = e.e_client; j_seq = e.e_req;
                j_call = Proc.encode_call ~proc ~args })
            (Array.to_list batch)
        in
        Journal.append j ~batch:t.batches_run ~entries;
        Nv_util.Crashpoint.hit "post-journal"
    | None -> ());
    exec_batch t batch;
    maybe_checkpoint t
  end;
  t.open_since <- (if t.pending_total > 0 then t.tick else -1);
  depth_gauge t

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
      else if t.pending_total >= t.cfg.max_pending then begin
        t.rejected <- t.rejected + 1;
        Metrics.add t.m_rejected 1;
        send c (Wire.Rejected { req; reason = `Overloaded });
        `Rejected `Overloaded
      end
      else
        match Proc.build t.registry ~proc ~args with
        | Error `Unknown_proc ->
            t.rejected <- t.rejected + 1;
            Metrics.add t.m_rejected 1;
            send c (Wire.Rejected { req; reason = `Unknown_proc });
            `Rejected `Unknown_proc
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

(* Batches close on ticks, not inside [submit]: submissions arriving
   within one event-loop round pile up (bounded by [max_pending]), and
   the next tick closes a batch once the size target is met or the
   oldest arrival has waited out the deadline. *)
let tick t =
  t.tick <- t.tick + 1;
  if
    t.pending_total >= t.cfg.batch_target
    || (t.pending_total > 0 && t.tick - t.open_since >= t.cfg.deadline_ticks)
  then run t

let flush t = if t.pending_total > 0 then run t

let drain t =
  let guard = ref 0 in
  while t.pending_total > 0 do
    incr guard;
    if !guard > 100_000 then failwith "Batcher.drain: no progress";
    run t
  done

let state_digest t = Shard_set.digest t.shards

(* ------------------------------------------------------------------ *)
(* Restart recovery                                                    *)

(* Replay journaled batches the crash un-happened, in admission order,
   through the same [exec_batch] the live path uses. [batches_done] is
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
  t.last_checkpoint <- batches_done;
  List.iter
    (fun (r : Journal.record) ->
      if r.Journal.r_batch >= batches_done then begin
        if r.Journal.r_batch <> t.batches_run then
          failwith
            (Printf.sprintf "Batcher.recover: journal gap (record %d, expected %d)"
               r.Journal.r_batch t.batches_run);
        let batch =
          Array.of_list
            (List.map
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
                 (* Carryover re-admissions appear in consecutive
                    records under the same seq: count each admission
                    once, keyed by the in-flight set. *)
                 if not (Hashtbl.mem c.inflight je.Journal.j_seq) then begin
                   Hashtbl.replace c.inflight je.Journal.j_seq ();
                   c.outstanding <- c.outstanding + 1;
                   t.admitted <- t.admitted + 1
                 end;
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
               r.Journal.r_entries)
        in
        (* The record re-admits the previous record's deferrals: consume
           that carryover as [form] would, or [pending_total] keeps every
           replayed batch's deferrals. *)
        t.pending_total <- t.pending_total - List.length t.carryover;
        t.carryover <- [];
        exec_batch t batch
      end)
    records;
  (* Entries the final journaled batch deferred are live carryover:
     still in flight, first in the next batch — exactly the state of
     the crashed server after its last completed epoch. *)
  t.open_since <- (if t.pending_total > 0 then t.tick else -1);
  depth_gauge t
