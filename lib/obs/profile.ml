(* Wall-clock phase profiler. Unlike the tracer (event stream, simulated
   clock first) this aggregates: per phase name, total host wall time
   and Gc.quick_stat allocation deltas, cheap enough to leave on for a
   whole benchmark run. All updates happen on the domain running the
   epoch pipeline, so plain mutable state suffices, and the Gc deltas
   are that domain's allocations. *)

type phase_stat = {
  calls : int;
  wall_ns : float;
  minor_words : float;
  major_words : float;
  promoted_words : float;
}

let zero_stat =
  { calls = 0; wall_ns = 0.0; minor_words = 0.0; major_words = 0.0; promoted_words = 0.0 }

type slow_epoch = {
  epoch : int;
  wall_ns : float;
  phases : (string * float) list; (* per-phase wall ns within this epoch *)
}

type cell = { mutable stat : phase_stat }

type t = {
  enabled : bool;
  slow_threshold_ns : float; (* infinity = no slow-epoch tracking *)
  on_slow : slow_epoch -> unit;
  by_name : (string, cell) Hashtbl.t;
  mutable order : string list; (* reverse registration order *)
  mutable epochs : int;
  mutable total_wall_ns : float;
  mutable cur_epoch : int;
  mutable epoch_t0 : float;
  mutable epoch_mark : (string * float) list; (* phase wall at epoch begin *)
  mutable in_epoch : bool;
  mutable slow : slow_epoch list; (* newest first, capped *)
  mutable n_slow : int;
}

let max_slow_kept = 32

let make ~enabled ~slow_threshold_ns ~on_slow =
  {
    enabled;
    slow_threshold_ns;
    on_slow;
    by_name = Hashtbl.create 16;
    order = [];
    epochs = 0;
    total_wall_ns = 0.0;
    cur_epoch = 0;
    epoch_t0 = 0.0;
    epoch_mark = [];
    in_epoch = false;
    slow = [];
    n_slow = 0;
  }

let null = make ~enabled:false ~slow_threshold_ns:Float.infinity ~on_slow:ignore

let create ?(slow_threshold_ns = Float.infinity) ?(on_slow = ignore) () =
  make ~enabled:true ~slow_threshold_ns ~on_slow

let enabled t = t.enabled

let cell t name =
  match Hashtbl.find_opt t.by_name name with
  | Some c -> c
  | None ->
      let c = { stat = zero_stat } in
      Hashtbl.add t.by_name name c;
      t.order <- name :: t.order;
      c

let phase t name f =
  if not t.enabled then f ()
  else begin
    let c = cell t name in
    (* [Gc.minor_words] reads the allocation pointer, so it is exact at
       any moment; the [quick_stat] major/promoted counters only advance
       with GC work on OCaml 5, making them best-effort attribution. *)
    let m0 = Gc.minor_words () in
    let g0 = Gc.quick_stat () in
    let t0 = Nv_util.Clock.now_ns () in
    Fun.protect
      ~finally:(fun () ->
        let dt = Nv_util.Clock.now_ns () -. t0 in
        let g1 = Gc.quick_stat () in
        let m1 = Gc.minor_words () in
        let s = c.stat in
        c.stat <-
          {
            calls = s.calls + 1;
            wall_ns = s.wall_ns +. dt;
            minor_words = s.minor_words +. (m1 -. m0);
            major_words = s.major_words +. (g1.Gc.major_words -. g0.Gc.major_words);
            promoted_words = s.promoted_words +. (g1.Gc.promoted_words -. g0.Gc.promoted_words);
          })
      f
  end

let phase_walls t =
  List.rev_map (fun name -> (name, (Hashtbl.find t.by_name name).stat.wall_ns)) t.order
  |> List.rev

let epoch_begin t ~epoch =
  if t.enabled then begin
    t.cur_epoch <- epoch;
    t.epoch_t0 <- Nv_util.Clock.now_ns ();
    if t.slow_threshold_ns < Float.infinity then t.epoch_mark <- phase_walls t;
    t.in_epoch <- true
  end

let epoch_end t =
  if t.enabled && t.in_epoch then begin
    t.in_epoch <- false;
    let wall = Nv_util.Clock.now_ns () -. t.epoch_t0 in
    t.epochs <- t.epochs + 1;
    t.total_wall_ns <- t.total_wall_ns +. wall;
    if wall >= t.slow_threshold_ns then begin
      let mark = t.epoch_mark in
      let phases =
        List.filter_map
          (fun (name, w1) ->
            let w0 = match List.assoc_opt name mark with Some w -> w | None -> 0.0 in
            let d = w1 -. w0 in
            if d > 0.0 then Some (name, d) else None)
          (phase_walls t)
      in
      let se = { epoch = t.cur_epoch; wall_ns = wall; phases } in
      t.n_slow <- t.n_slow + 1;
      if List.length t.slow < max_slow_kept then t.slow <- se :: t.slow;
      t.on_slow se
    end
  end

let epochs t = t.epochs
let total_wall_ns t = t.total_wall_ns
let stats t = List.rev_map (fun name -> (name, (Hashtbl.find t.by_name name).stat)) t.order
let slow_epochs t = List.rev t.slow
let slow_epoch_count t = t.n_slow

let reset t =
  Hashtbl.reset t.by_name;
  t.order <- [];
  t.epochs <- 0;
  t.total_wall_ns <- 0.0;
  t.in_epoch <- false;
  t.epoch_mark <- [];
  t.slow <- [];
  t.n_slow <- 0

let slow_json (se : slow_epoch) =
  Jsonx.Assoc
    [
      ("epoch", Jsonx.Int se.epoch);
      ("wall_ms", Jsonx.Float (se.wall_ns /. 1e6));
      ( "phases",
        Jsonx.Assoc (List.map (fun (n, w) -> (n, Jsonx.Float (w /. 1e6))) se.phases) );
    ]

let to_json t =
  let phase_json (name, s) =
    Jsonx.Assoc
      [
        ("name", Jsonx.String name);
        ("calls", Jsonx.Int s.calls);
        ("wall_ms", Jsonx.Float (s.wall_ns /. 1e6));
        ("minor_words", Jsonx.Float s.minor_words);
        ("major_words", Jsonx.Float s.major_words);
        ("promoted_words", Jsonx.Float s.promoted_words);
      ]
  in
  Jsonx.Assoc
    [
      ("epochs", Jsonx.Int t.epochs);
      ("total_wall_ms", Jsonx.Float (t.total_wall_ns /. 1e6));
      ("phases", Jsonx.List (List.map phase_json (stats t)));
      ("slow_epochs_total", Jsonx.Int t.n_slow);
      ("slow_epochs", Jsonx.List (List.map slow_json (slow_epochs t)));
    ]

let pp_table ppf t =
  let open Format in
  let total = Float.max t.total_wall_ns 1.0 in
  fprintf ppf "@[<v>";
  fprintf ppf
    "phase                      calls     wall ms   %%wall   minor Mw   major Mw   promo Mw@,";
  fprintf ppf
    "-------------------------  ------  ---------  ------  ---------  ---------  ---------@,";
  List.iter
    (fun (name, s) ->
      fprintf ppf "%-25s  %6d  %9.2f  %5.1f%%  %9.2f  %9.2f  %9.2f@," name s.calls
        (s.wall_ns /. 1e6)
        (100.0 *. s.wall_ns /. total)
        (s.minor_words /. 1e6) (s.major_words /. 1e6) (s.promoted_words /. 1e6))
    (stats t);
  fprintf ppf "epochs %d, total wall %.2f ms" t.epochs (t.total_wall_ns /. 1e6);
  if t.n_slow > 0 then fprintf ppf ", slow epochs %d" t.n_slow;
  fprintf ppf "@,@]"
