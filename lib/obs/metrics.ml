(* Domain-safety: a served engine runs its batches on an engine domain
   while the I/O loop keeps admitting and replying, and both update
   instruments, so the hot update paths must not lose increments. Counters and gauges are atomics (lock-free adds);
   histograms take a per-instrument mutex (observations are sampled /
   per-reply, far off any spin path). Snapshot reads-and-resets
   counters with [Atomic.exchange] and swaps histograms out under their
   lock, so an increment is either in this snapshot or the next —
   never dropped. Registration takes the registry mutex (cold path). *)

type counter = { c : int Atomic.t }
type gauge = { g : float Atomic.t }
type histogram = { mu : Mutex.t; mutable h : Nv_util.Histogram.t }
type instrument = C of counter | G of gauge | H of histogram

type t = {
  enabled : bool;
  reg_mu : Mutex.t;
  by_name : (string, instrument) Hashtbl.t;
  mutable order : string list; (* reverse registration order *)
  mutable records : Jsonx.t list; (* newest first *)
}

let null =
  { enabled = false; reg_mu = Mutex.create (); by_name = Hashtbl.create 1; order = []; records = [] }

let create () =
  { enabled = true; reg_mu = Mutex.create (); by_name = Hashtbl.create 64; order = []; records = [] }

let enabled t = t.enabled

let register t name make wrong =
  Mutex.lock t.reg_mu;
  let i =
    match Hashtbl.find_opt t.by_name name with
    | Some i ->
        if wrong i then begin
          Mutex.unlock t.reg_mu;
          invalid_arg (Printf.sprintf "Metrics: %S already registered with another type" name)
        end;
        i
    | None ->
        let i = make () in
        Hashtbl.add t.by_name name i;
        t.order <- name :: t.order;
        i
  in
  Mutex.unlock t.reg_mu;
  i

let counter t name =
  match
    register t name
      (fun () -> C { c = Atomic.make 0 })
      (function C _ -> false | G _ | H _ -> true)
  with
  | C c -> c
  | G _ | H _ -> assert false

let gauge t name =
  match
    register t name
      (fun () -> G { g = Atomic.make 0.0 })
      (function G _ -> false | C _ | H _ -> true)
  with
  | G g -> g
  | C _ | H _ -> assert false

let histogram t name =
  match
    register t name
      (fun () -> H { mu = Mutex.create (); h = Nv_util.Histogram.create () })
      (function H _ -> false | C _ | G _ -> true)
  with
  | H h -> h
  | C _ | G _ -> assert false

let add c n = ignore (Atomic.fetch_and_add c.c n)
let set_counter c n = Atomic.set c.c n
let set_gauge g v = Atomic.set g.g v

let observe h v =
  Mutex.lock h.mu;
  Nv_util.Histogram.add h.h v;
  Mutex.unlock h.mu

let histogram_json h =
  let open Nv_util.Histogram in
  if count h = 0 then Jsonx.Assoc [ ("count", Jsonx.Int 0) ]
  else
    Jsonx.Assoc
      [
        ("count", Jsonx.Int (count h));
        ("mean", Jsonx.Float (mean h));
        ("min", Jsonx.Float (min_value h));
        ("p50", Jsonx.Float (percentile h 50.0));
        ("p99", Jsonx.Float (percentile h 99.0));
        ("max", Jsonx.Float (max_value h));
        ( "buckets",
          Jsonx.List
            (List.map
               (fun (ub, n) -> Jsonx.List [ Jsonx.Float ub; Jsonx.Int n ])
               (buckets h)) );
      ]

let snapshot t ~epoch =
  if not t.enabled then []
  else begin
    (* Counters and histograms are per-interval: each is read *and*
       reset in one atomic step, so updates racing with the snapshot
       land in exactly one record. Gauges are levels and persist. *)
    let fields =
      List.rev_map
        (fun name ->
          match Hashtbl.find t.by_name name with
          | C c -> (name, Jsonx.Int (Atomic.exchange c.c 0))
          | G g -> (name, Jsonx.Float (Atomic.get g.g))
          | H h ->
              Mutex.lock h.mu;
              let taken = h.h in
              h.h <- Nv_util.Histogram.create ();
              Mutex.unlock h.mu;
              (name, histogram_json taken))
        t.order
    in
    let fields = ("epoch", Jsonx.Int epoch) :: fields in
    t.records <- Jsonx.Assoc fields :: t.records;
    fields
  end

let records t = List.rev t.records

let to_jsonl t =
  let buf = Buffer.create 1024 in
  List.iter
    (fun r ->
      Buffer.add_string buf (Jsonx.to_string r);
      Buffer.add_char buf '\n')
    (records t);
  Buffer.contents buf

let write_jsonl t path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (to_jsonl t))

let clear t = t.records <- []
