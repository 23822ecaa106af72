(* A lazily-spawned, process-wide pool of OCaml 5 domains.

   Domains are a scarce resource (the runtime supports ~128 per process,
   and spawning one costs milliseconds), so worker domains belong to a
   shared singleton that grows to the largest width ever requested
   rather than to a per-database object: hundreds of short-lived [Db.t]
   values in the test-suite and fuzzer must not each spawn their own
   domains. A [t] is a width-capped *view* of that worker state, so two
   databases with different [parallelism] settings coexist in one
   process: the width-1 view always runs serially even while the
   width-4 view next to it runs wide.

   Scheduling model: [run t ~n f] makes the n indices available behind
   one atomic cursor; the caller and the idle workers race to claim
   indices and each claimed index is evaluated exactly once. Results
   land in a per-index slot, so the returned array is always in index
   order no matter which domain computed what. Exceptions are captured
   per index and the one with the smallest index is re-raised after the
   run completes (every index still runs — callers that need
   cancellation should catch inside [f]).

   Width is enforced through the work size: callers pass [n <= width]
   (the engine derives n from {!stripes}), and a view of width 1 short-
   circuits to the serial loop, so extra workers spawned for a wider
   view never see work they could steal past the cap.

   Determinism contract: the pool itself adds none — [f i] must be
   prepared to run concurrently with [f j]. What the pool guarantees is
   (a) result order, (b) that [run] with an effective width of 1 (view
   of width 1, nested call, or n <= 1) evaluates [f 0], [f 1], ... in
   ascending order on the calling domain, exactly like the serial loop
   it replaces.

   Nested use: a task that itself calls [run] (e.g. an engine epoch
   started from inside another pool task) would deadlock waiting for
   workers that are busy running it, so nested calls are detected via a
   domain-local flag and execute inline, serially, on the current
   domain. *)

type state = {
  mutex : Mutex.t;
  cond : Condition.t; (* signalled when a new run is published *)
  mutable task : task option;
  mutable generation : int;
  mutable spawned : int; (* worker domains started so far *)
  run_lock : Mutex.t; (* serialises concurrent [run] callers *)
}

and task = {
  next : int Atomic.t; (* next index to claim *)
  unfinished : int Atomic.t; (* indices claimed-or-unclaimed not yet done *)
  n : int;
  body : int -> unit; (* index -> store result/exn; must not raise *)
}

type t = {
  width : int; (* max domains that ever work on one run, incl. the caller *)
  state : state;
}

let in_pool_key = Domain.DLS.new_key (fun () -> false)
let in_task () = Domain.DLS.get in_pool_key

let hard_cap = 64

(* ------------------------------------------------------------------ *)
(* Telemetry: one slot per domain (0 = any non-worker caller, 1.. =
   worker domains in spawn order, across all pool states). Each cell is
   written only by its owning domain, so plain mutable arrays suffice —
   [telemetry] reads race with updates, which is fine for monitoring
   counters (OCaml's memory model guarantees each read sees *some*
   written value, never a torn one). *)

module Telemetry = struct
  type stat = {
    tasks : int;  (** indices claimed and evaluated by this domain *)
    busy_ns : float;  (** wall time inside task bodies *)
    spin_ns : float;  (** wall time in the backoff pause path *)
    sleep_ns : float;  (** wall time in the backoff sleep path *)
    escalations : int;  (** spin-waits that crossed into sleeping *)
  }

  let zero = { tasks = 0; busy_ns = 0.0; spin_ns = 0.0; sleep_ns = 0.0; escalations = 0 }
end

let max_slots = hard_cap + 1
let slot_key = Domain.DLS.new_key (fun () -> 0)
let next_slot = Atomic.make 1
let tele_tasks = Array.make max_slots 0
let tele_busy = Array.make max_slots 0.0
let tele_spin = Array.make max_slots 0.0
let tele_sleep = Array.make max_slots 0.0
let tele_escal = Array.make max_slots 0

(* Highest slot in use: worker slots are handed out by [next_slot], and
   slot 0 always exists for non-worker callers. *)
let telemetry () =
  Array.init
    (min (Atomic.get next_slot) max_slots)
    (fun i ->
      {
        Telemetry.tasks = tele_tasks.(i);
        busy_ns = tele_busy.(i);
        spin_ns = tele_spin.(i);
        sleep_ns = tele_sleep.(i);
        escalations = tele_escal.(i);
      })

let reset_telemetry () =
  Array.fill tele_tasks 0 max_slots 0;
  Array.fill tele_busy 0 max_slots 0.0;
  Array.fill tele_spin 0 max_slots 0.0;
  Array.fill tele_sleep 0 max_slots 0.0;
  Array.fill tele_escal 0 max_slots 0

(* ------------------------------------------------------------------ *)
(* Escalating wait for spin loops: pause the pipeline for the first
   spins, then microsleep. On a dedicated hardware core the pause path
   always wins; when domains outnumber hardware cores (small CI boxes)
   a spinning domain otherwise burns its whole OS timeslice while the
   domain it waits on sits unscheduled — sleeping hands the core over
   instead. Thresholds are tunable (NVC_SPIN / [set_spin]); every wait
   is metered into the telemetry slots above instead of burning time
   silently. *)

let default_spin_threshold = 512
let default_sleep_s = 5e-5
let spin_threshold_v = ref default_spin_threshold
let sleep_s_v = ref default_sleep_s

(* "SPINS" or "SPINS:SLEEP_US", e.g. NVC_SPIN=2048 or NVC_SPIN=256:20. *)
let parse_spin s =
  let parse_pair spins sleep_us =
    match (int_of_string_opt spins, float_of_string_opt sleep_us) with
    | Some n, Some us when n >= 0 && us > 0.0 -> Some (n, us *. 1e-6)
    | _ -> None
  in
  match String.index_opt s ':' with
  | Some i ->
      parse_pair (String.sub s 0 i) (String.sub s (i + 1) (String.length s - i - 1))
  | None -> (
      match int_of_string_opt s with
      | Some n when n >= 0 -> Some (n, default_sleep_s)
      | _ -> None)

let set_spin ?threshold ?sleep_us () =
  (match threshold with Some n -> spin_threshold_v := max 0 n | None -> ());
  match sleep_us with
  | Some us when us > 0.0 -> sleep_s_v := us *. 1e-6
  | Some _ | None -> ()

let spin_config () = (!spin_threshold_v, !sleep_s_v)

let () =
  match Option.bind (Sys.getenv_opt "NVC_SPIN") parse_spin with
  | Some (threshold, sleep_s) ->
      spin_threshold_v := threshold;
      sleep_s_v := sleep_s
  | None -> ()

let backoff spins =
  let slot = Domain.DLS.get slot_key in
  let t0 = Clock.now_ns () in
  if spins < !spin_threshold_v then begin
    Domain.cpu_relax ();
    tele_spin.(slot) <- tele_spin.(slot) +. (Clock.now_ns () -. t0)
  end
  else begin
    if spins = !spin_threshold_v then tele_escal.(slot) <- tele_escal.(slot) + 1;
    Unix.sleepf !sleep_s_v;
    tele_sleep.(slot) <- tele_sleep.(slot) +. (Clock.now_ns () -. t0)
  end

let fresh_state () =
  {
    mutex = Mutex.create ();
    cond = Condition.create ();
    task = None;
    generation = 0;
    spawned = 0;
    run_lock = Mutex.create ();
  }

let create ~width =
  let width = max 1 (min width hard_cap) in
  { width; state = fresh_state () }

let width t = t.width

(* Claim and evaluate indices until the cursor runs past [n]. Runs on
   both worker domains and the caller. *)
let participate (task : task) =
  let slot = Domain.DLS.get slot_key in
  let continue_ = ref true in
  while !continue_ do
    let i = Atomic.fetch_and_add task.next 1 in
    if i >= task.n then continue_ := false
    else begin
      let t0 = Clock.now_ns () in
      task.body i;
      tele_busy.(slot) <- tele_busy.(slot) +. (Clock.now_ns () -. t0);
      tele_tasks.(slot) <- tele_tasks.(slot) + 1;
      ignore (Atomic.fetch_and_add task.unfinished (-1))
    end
  done

let worker_loop st () =
  Domain.DLS.set in_pool_key true;
  (let slot = Atomic.fetch_and_add next_slot 1 in
   if slot < max_slots then Domain.DLS.set slot_key slot);
  let last_gen = ref 0 in
  let rec loop () =
    Mutex.lock st.mutex;
    while st.generation = !last_gen do
      Condition.wait st.cond st.mutex
    done;
    last_gen := st.generation;
    let task = st.task in
    Mutex.unlock st.mutex;
    (match task with Some task -> participate task | None -> ());
    loop ()
  in
  loop ()

(* Worker domains are daemons: they live for the whole process and are
   never joined, which is fine because they hold no resources beyond
   their stack and block on a condition variable while idle. *)
let ensure_workers t =
  let st = t.state in
  let wanted = t.width - 1 in
  if st.spawned < wanted then begin
    Mutex.lock st.mutex;
    while st.spawned < wanted do
      ignore (Domain.spawn (worker_loop st));
      st.spawned <- st.spawned + 1
    done;
    Mutex.unlock st.mutex
  end

let run_serial n f =
  if n <= 0 then [||]
  else begin
    let first = f 0 in
    let out = Array.make n first in
    for i = 1 to n - 1 do
      out.(i) <- f i
    done;
    out
  end

let run_parallel t n f =
  ensure_workers t;
  let st = t.state in
  let results = Array.make n None in
  let exns = Array.make n None in
  let body i =
    match f i with
    | v -> results.(i) <- Some v
    | exception e -> exns.(i) <- Some (e, Printexc.get_raw_backtrace ())
  in
  let task = { next = Atomic.make 0; unfinished = Atomic.make n; n; body } in
  Mutex.lock st.run_lock;
  Mutex.lock st.mutex;
  st.task <- Some task;
  st.generation <- st.generation + 1;
  Condition.broadcast st.cond;
  Mutex.unlock st.mutex;
  (* The caller is one of the width workers; mark it nested while it
     participates so [f] calling back into [run] executes inline. *)
  Domain.DLS.set in_pool_key true;
  participate task;
  Domain.DLS.set in_pool_key false;
  (* Wait for stragglers: workers that claimed an index before the
     cursor ran out may still be evaluating it. The tasks are CPU-bound
     and the tail is short, so spin (with escalation) rather than add a
     completion condition variable. *)
  let spins = ref 0 in
  while Atomic.get task.unfinished > 0 do
    backoff !spins;
    incr spins
  done;
  Mutex.lock st.mutex;
  st.task <- None;
  Mutex.unlock st.mutex;
  Mutex.unlock st.run_lock;
  (match Array.find_opt Option.is_some exns with
  | Some (Some (e, bt)) -> Printexc.raise_with_backtrace e bt
  | _ -> ());
  Array.map
    (function
      | Some v -> v
      | None -> invalid_arg "Dpool.run: missing result (task did not complete)")
    results

let run t ~n f =
  if n <= 1 || t.width <= 1 || Domain.DLS.get in_pool_key then run_serial n f
  else run_parallel t n f

(* The shared worker state. Spawned workers are never shrunk; each
   [shared] call returns a view with exactly the requested width over
   the one process-wide complement of workers. *)

let global : state option ref = ref None
let global_mutex = Mutex.create ()

let shared ~width =
  let width = max 1 (min width hard_cap) in
  Mutex.lock global_mutex;
  let st =
    match !global with
    | Some st -> st
    | None ->
        let st = fresh_state () in
        global := Some st;
        st
  in
  Mutex.unlock global_mutex;
  { width; state = st }

(* Largest divisor of [cores] that is <= the pool width. Work striped
   over d such stripes keeps every simulated core's work on exactly one
   stripe (core c lands on stripe [c mod d] because d divides cores), in
   ascending order — the property the engine's determinism argument
   needs. *)
let stripes t ~cores =
  let cap = min t.width cores in
  let rec best d = if d >= 1 && cores mod d = 0 && d <= cap then d else best (d - 1) in
  if cores <= 0 then 1 else max 1 (best cap)
