(* Per-layer numbers of a traced run, each measured from outside the
   layer's public API:

   - engine and epoch: the server child's [run_batch] wrapper and
     [Nv_obs.Profile] (see Child), read from its dump file;
   - nvmm, mem: the engine's own counters, in the same dump;
   - batcher: the [Stats] wire message;
   - journal and wire: timed offline here, over the run's own journal
     records and the frames the generator recorded;
   - client and req: the generator's per-request timestamps, joined to
     the engine's batches through each call's input hash;
   - restart: the bench's timed kill -9 restarts (Restart.boot from the
     journal, and checkpoint where there is one).

   Both processes stamp times with CLOCK_MONOTONIC, so request spans
   and engine spans share one timeline. *)

module J = Nv_obs.Jsonx
module Journal = Nv_frontend.Journal
module Wire = Nv_frontend.Wire
module Clock = Nv_util.Clock

let phases = [ "input-log"; "insert"; "major-gc"; "evict"; "append"; "execute"; "fence"; "epoch-persist" ]

type batch = { t0 : float; t1 : float; hashes : int array }

(* The child's dump: a JSON summary line, then "t0 t1 n hash..." per batch. *)
let read_dump path =
  match String.split_on_char '\n' (In_channel.with_open_bin path In_channel.input_all) with
  | [] -> failwith "empty engine dump"
  | summary :: lines ->
      let batches =
        List.filter_map
          (fun line ->
            match String.split_on_char ' ' line with
            | t0 :: t1 :: _n :: hashes ->
                Some
                  {
                    t0 = float_of_string t0;
                    t1 = float_of_string t1;
                    hashes = Array.of_list (List.map int_of_string hashes);
                  }
            | _ -> None)
          lines
      in
      (J.of_string summary, Array.of_list batches)

let num json key =
  match J.member key json with Some v -> J.to_float v | None -> failwith ("dump lacks " ^ key)

(* Time a pure operation: median ns per call over five passes of at
   least [min_calls] calls each. *)
let ns_per_call ~min_calls items f =
  let n = Array.length items in
  let reps = max 1 ((min_calls + n - 1) / n) in
  let pass () =
    let t0 = Clock.now_ns () in
    for _ = 1 to reps do
      Array.iter f items
    done;
    (Clock.now_ns () -. t0) /. float_of_int (reps * n)
  in
  Pct.median (Array.init 5 (fun _ -> pass ()))

let wire_timing (g : Gen.t) =
  let reader = Wire.Reader.create () in
  let decode frame =
    Wire.Reader.feed reader frame ~off:0 ~len:(Bytes.length frame);
    match Wire.Reader.next_payload reader with
    | Some p -> ignore (Wire.decode_request p)
    | None -> failwith "recorded frame incomplete"
  in
  let encode resp = ignore (Wire.encode_response resp) in
  ( ns_per_call ~min_calls:100_000 (Gen.Vec.to_array g.Gen.frames) decode,
    ns_per_call ~min_calls:100_000 (Gen.Vec.to_array g.Gen.responses) encode )

(* Journal appends and checkpoints, replayed offline: [replayed]
   appends, fsync and all, cycling through the run's own records (a
   checkpointing run keeps only the few since its last checkpoint), to
   a fresh journal beside the server's, then three checkpoints of a
   [ckpt_mb] image. A checkpoint costs time in proportion to the image
   (mem.pmem_image_mb, up to a gigabyte for TPC-C), so the journal
   layer reports its cost per MB; writing the full image here would
   double the bench's memory and dominate its run time. *)
let replayed = 300
let ckpt_mb = 32

let journal_timing ~path ~meta =
  let opened = Journal.load ~path ~meta in
  Journal.close opened.Journal.journal;
  let records = Array.of_list opened.Journal.records in
  if records = [||] then failwith "the run's journal holds no records";
  let fresh = Filename.concat (Filename.dirname path) "replay.journal" in
  let j = Journal.create ~size:(Spec.journal_mb * 1024 * 1024) ~path:fresh ~meta () in
  let timed f =
    let t0 = Clock.now_ns () in
    f ();
    (Clock.now_ns () -. t0) /. 1e6
  in
  let appends =
    Array.init replayed (fun i ->
        let r = records.(i mod Array.length records) in
        timed (fun () -> Journal.append j ~batch:i ~entries:r.Journal.r_entries))
  in
  let image = Bytes.make (ckpt_mb * 1024 * 1024) '\000' in
  let ckpt =
    Pct.median
      (Array.init 3 (fun _ ->
           timed (fun () -> Journal.write_checkpoint j ~batches:0 ~sessions:[] ~image)))
    /. float_of_int ckpt_mb
  in
  Journal.close j;
  List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) [ fresh; fresh ^ ".ckpt" ];
  let s = Pct.sorted appends in
  (Pct.nearest_rank s 50.0, Pct.nearest_rank s 99.0, ckpt)

(* Count-weighted over procedures: the batcher reports percentiles per
   procedure only, from 2^(1/4)-wide histogram buckets. *)
let batcher_metrics stats_json =
  let json = J.of_string stats_json in
  let field k = match J.member k json with Some v -> J.to_float v | None -> nan in
  let procs = match J.member "procs" json with Some (J.Assoc l) -> l | _ -> [] in
  let weighted key =
    let num, den =
      List.fold_left
        (fun (num, den) (_, p) ->
          let count = match J.member "count" p with Some v -> J.to_float v | None -> 0.0 in
          let v = match J.member key p with Some v -> J.to_float v | None -> 0.0 in
          (num +. (count *. v), den +. count))
        (0.0, 0.0) procs
    in
    num /. den
  in
  ( weighted "p50_ms",
    weighted "p99_ms",
    field "admitted" /. field "epochs",
    field "deferred" )

type link = { pre : float array; eng : float array; post : float array; total : float array }

(* Join each answered window request to the engine batch that ran it:
   the first logged batch holding its call's input hash that started
   after the request was sent. Per hash, batches are consumed in order,
   so identical calls pair off first-come first-served. *)
let link (g : Gen.t) batches ~w0 ~w1 =
  let by_hash = Hashtbl.create 4096 in
  Array.iteri
    (fun bi b ->
      Array.iter
        (fun h ->
          let q =
            match Hashtbl.find_opt by_hash h with
            | Some q -> q
            | None ->
                let q = Queue.create () in
                Hashtbl.add by_hash h q;
                q
          in
          Queue.push bi q)
        b.hashes)
    batches;
  let pre = Gen.Vec.create 0.0 and eng = Gen.Vec.create 0.0 and post = Gen.Vec.create 0.0 in
  let total = Gen.Vec.create 0.0 and ids = Gen.Vec.create 0 in
  for id = 0 to Gen.requests g - 1 do
    let due = Gen.Vec.get g.Gen.due id in
    match Gen.Vec.get g.Gen.outcome id with
    | (Gen.Committed | Gen.Aborted) when due >= w0 && due < w1 -> (
        let sent = Gen.Vec.get g.Gen.sent id and reply = Gen.Vec.get g.Gen.reply id in
        match Hashtbl.find_opt by_hash (Gen.Vec.get g.Gen.hash id) with
        | None -> ()
        | Some q ->
            while (not (Queue.is_empty q)) && batches.(Queue.peek q).t0 < sent do
              ignore (Queue.pop q)
            done;
            if not (Queue.is_empty q) then begin
              let b = batches.(Queue.pop q) in
              Gen.Vec.push pre (b.t0 -. due);
              Gen.Vec.push eng (b.t1 -. b.t0);
              Gen.Vec.push post (reply -. b.t1);
              Gen.Vec.push total (reply -. due);
              Gen.Vec.push ids id
            end)
    | _ -> ()
  done;
  let ms v = Array.map (fun x -> x /. 1e6) (Gen.Vec.to_array v) in
  ({ pre = ms pre; eng = ms eng; post = ms post; total = ms total }, Gen.Vec.to_array ids)

(* Chrome/Perfetto JSON: one async span per linked request (due to
   reply; the first [span_max]) on the client, one complete span per
   engine batch on the server, both in monotonic microseconds. *)
let span_max = 20_000

let write_trace file (g : Gen.t) batches ids =
  let us ns = J.Float (ns /. 1e3) in
  let meta pid name =
    J.Assoc
      [ ("name", J.String "process_name"); ("ph", J.String "M"); ("pid", J.Int pid);
        ("args", J.Assoc [ ("name", J.String name) ]) ]
  in
  let req id =
    let common ph ts =
      J.Assoc
        [
          ("name", J.String (Gen.Vec.get g.Gen.proc id)); ("cat", J.String "req");
          ("ph", J.String ph); ("id", J.Int id); ("pid", J.Int 1); ("tid", J.Int 0); ("ts", us ts);
          ("args", J.Assoc [ ("call_hash", J.Int (Gen.Vec.get g.Gen.hash id)) ]);
        ]
    in
    [ common "b" (Gen.Vec.get g.Gen.due id); common "e" (Gen.Vec.get g.Gen.reply id) ]
  in
  let batch i b =
    J.Assoc
      [
        ("name", J.String "engine.run_batch"); ("cat", J.String "engine"); ("ph", J.String "X");
        ("pid", J.Int 2); ("tid", J.Int 0); ("ts", us b.t0); ("dur", us (b.t1 -. b.t0));
        ("args", J.Assoc [ ("batch", J.Int i); ("txns", J.Int (Array.length b.hashes)) ]);
      ]
  in
  let reqs = List.concat_map req (List.filteri (fun i _ -> i < span_max) (Array.to_list ids)) in
  let events =
    (meta 1 "bench client" :: meta 2 "server engine" :: reqs)
    @ List.mapi batch (Array.to_list batches)
  in
  Out_channel.with_open_bin file (fun oc ->
      output_string oc (J.to_string (J.Assoc [ ("traceEvents", J.List events) ])))

(* All per-layer metrics of one traced run, as (name, unit, value) in
   report order. [w0, w1] is the measured window, [client_cpu_s] the
   bench's own CPU seconds in it, [e2e] the run's end-to-end metrics,
   reported again under the traced prefix. *)
let compute ~(spec : Spec.t) ~(g : Gen.t) ~w0 ~w1 ~client_cpu_s ~dump ~stats_json ~journal ~e2e
    ~trace_file =
  let summary, all_batches = read_dump dump in
  let field = num summary in
  let window_s = (w1 -. w0) /. 1e9 in
  let in_window = List.filter (fun b -> b.t0 >= w0 && b.t0 < w1) (Array.to_list all_batches) in
  let durations = Pct.sorted (Array.of_list (List.map (fun b -> (b.t1 -. b.t0) /. 1e6) in_window)) in
  let busy_ms = Array.fold_left ( +. ) 0.0 durations in
  let window_txns =
    float_of_int (List.fold_left (fun acc b -> acc + Array.length b.hashes) 0 in_window)
  in
  let batches = float_of_int (List.length in_window) in
  let txns = field "txns" and epochs = field "epochs" in
  let phase name key =
    match J.member "phases" summary with
    | Some (J.List l) ->
        List.find_map
          (fun p -> if J.member "name" p = Some (J.String name) then Some (num p key) else None)
          l
        |> Option.value ~default:0.0
    | _ -> 0.0
  in
  let append_p50, append_p99, ckpt_ms_per_mb = journal_timing ~path:journal ~meta:(Spec.journal_meta spec) in
  let b_p50, b_p99, b_batch, b_deferred = batcher_metrics stats_json in
  let decode_ns, encode_ns = wire_timing g in
  let links, ids = link g all_batches ~w0 ~w1 in
  write_trace trace_file g all_batches ids;
  let p50 a = Pct.nearest_rank (Pct.sorted a) 50.0 in
  let mb key = field key /. 1048576.0 in
  let e2e name = List.assoc name e2e in
  [
    ("engine.run_batch_ms.p50", "ms", Pct.nearest_rank durations 50.0);
    ("engine.run_batch_ms.p99", "ms", Pct.nearest_rank durations 99.0);
    ("engine.busy_frac", "fraction", busy_ms /. 1e3 /. window_s);
    ("engine.us_per_txn", "us", busy_ms *. 1e3 /. window_txns);
    ("engine.batch_size.mean", "txns", window_txns /. batches);
    ("engine.cache_hits_per_txn", "count", field "cache_hits" /. txns);
    ("engine.cache_misses_per_txn", "count", field "cache_misses" /. txns);
    ("engine.evicted_per_txn", "count", field "evicted" /. txns);
    ("engine.transient_frac", "fraction", field "transient_writes" /. field "version_writes");
  ]
  @ List.concat_map
      (fun p ->
        [
          ("epoch." ^ p ^ ".ms_per_epoch", "ms", phase p "wall_ns" /. epochs /. 1e6);
          ("epoch." ^ p ^ ".minor_words_per_txn", "words", phase p "minor_words" /. txns);
        ])
      phases
  @ [
      ("journal.append_ms.p50", "ms", append_p50);
      ("journal.append_ms.p99", "ms", append_p99);
      ("journal.records_per_s", "1/s", batches /. window_s);
      ("journal.checkpoint_ms_per_mb", "ms", ckpt_ms_per_mb);
      ("batcher.admit_to_reply_ms.p50", "ms", b_p50);
      ("batcher.admit_to_reply_ms.p99", "ms", b_p99);
      ("batcher.batch_size.mean", "txns", b_batch);
      ("batcher.deferred", "count", b_deferred);
      ("wire.decode_request_ns", "ns", decode_ns);
      ("wire.encode_response_ns", "ns", encode_ns);
      ("nvmm.flushes_per_txn", "count", field "flushes" /. txns);
      ("nvmm.block_writes_per_txn", "count", field "nvmm_block_writes" /. txns);
      ("mem.dram_cache_mb", "MB", mb "dram_cache_bytes");
      ("mem.dram_index_mb", "MB", mb "dram_index_bytes");
      ("mem.nvmm_values_mb", "MB", mb "nvmm_values_bytes");
      ("mem.pmem_image_mb", "MB", mb "pmem_bytes");
      ("client.late_ms.p99", "ms", e2e "late_ms_p99");
      ("client.cpu_frac", "fraction", client_cpu_s /. window_s);
      ("client.p999_ms", "ms", e2e "p999_ms");
      ("restart.recover_s", "s", e2e "recover_s");
      ("req.pre_engine_ms.p50", "ms", p50 links.pre);
      ("req.pre_engine_ms.mean", "ms", Pct.mean links.pre);
      ("req.engine_ms.p50", "ms", p50 links.eng);
      ("req.engine_ms.mean", "ms", Pct.mean links.eng);
      ("req.post_engine_ms.p50", "ms", p50 links.post);
      ("req.post_engine_ms.mean", "ms", Pct.mean links.post);
      ("req.client_ms.mean", "ms", Pct.mean links.total);
      ( "req.linked_frac",
        "fraction",
        float_of_int (Array.length links.total)
        /. float_of_int (Array.length (Gen.latencies g w0 w1)) );
      ("traced.tput_tps", "1/s", e2e "tput_tps");
      ("traced.p50_ms", "ms", e2e "p50_ms");
      ("traced.p90_ms", "ms", e2e "p90_ms");
    ]
