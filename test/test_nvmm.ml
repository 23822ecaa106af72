(* NVMM simulator tests: accessors, persistence semantics, crash
   images, cost charging. *)

module Pmem = Nv_nvmm.Pmem
module Stats = Nv_nvmm.Stats
module Memspec = Nv_nvmm.Memspec
module Layout = Nv_nvmm.Layout

let stats () = Stats.create Memspec.default

let test_accessors () =
  let p = Pmem.create ~size:4096 () in
  Pmem.set_i64 p 0 0x1122334455667788L;
  Alcotest.(check int64) "i64 roundtrip" 0x1122334455667788L (Pmem.get_i64 p 0);
  Pmem.set_i32 p 8 0x0BADF00Dl;
  Alcotest.(check int32) "i32 roundtrip" 0x0BADF00Dl (Pmem.get_i32 p 8);
  Pmem.set_u8 p 12 0xAB;
  Alcotest.(check int) "u8 roundtrip" 0xAB (Pmem.get_u8 p 12);
  Pmem.write_bytes p ~off:100 (Bytes.of_string "hello");
  Alcotest.(check string) "bytes roundtrip" "hello"
    (Bytes.to_string (Pmem.read_bytes p ~off:100 ~len:5))

let test_bounds_checked () =
  let p = Pmem.create ~size:64 () in
  Alcotest.check_raises "oob write"
    (Invalid_argument "Pmem: range [64, 72) out of bounds (size 64)") (fun () ->
      Pmem.set_i64 p 64 0L)

let test_crash_discards_unflushed () =
  let s = stats () in
  let p = Pmem.create ~size:4096 () in
  Pmem.set_i64 p 0 42L;
  (* no flush, no fence *)
  Pmem.crash_with p ~choose:(fun ~line:_ ~options:_ -> 0);
  Alcotest.(check int64) "unflushed store lost" 0L (Pmem.get_i64 p 0);
  (* flushed + fenced survives the harshest adversary *)
  Pmem.set_i64 p 0 43L;
  Pmem.persist p s ~off:0 ~len:8;
  Pmem.set_i64 p 8 99L;
  Pmem.crash_with p ~choose:(fun ~line:_ ~options:_ -> 0);
  Alcotest.(check int64) "persisted store kept" 43L (Pmem.get_i64 p 0);
  Alcotest.(check int64) "same-line later store lost" 0L (Pmem.get_i64 p 8)

let test_crash_may_keep_everything () =
  let p = Pmem.create ~size:4096 () in
  Pmem.set_i64 p 0 7L;
  Pmem.set_i64 p 128 8L;
  Pmem.crash_all_persisted p;
  Alcotest.(check int64) "kept 0" 7L (Pmem.get_i64 p 0);
  Alcotest.(check int64) "kept 128" 8L (Pmem.get_i64 p 128)

let test_crash_prefix_consistency () =
  (* Two stores to the same line: the crash image may hold neither, the
     first only, or both — never the second without the first. *)
  let observations = Hashtbl.create 4 in
  for seed = 1 to 200 do
    let p = Pmem.create ~size:4096 () in
    Pmem.set_i64 p 0 1L;
    Pmem.set_i64 p 8 2L;
    Pmem.crash p ~rng:(Nv_util.Rng.create seed);
    let a = Pmem.get_i64 p 0 and b = Pmem.get_i64 p 8 in
    Hashtbl.replace observations (a, b) ();
    Alcotest.(check bool)
      (Printf.sprintf "legal prefix state (%Ld, %Ld)" a b)
      true
      (match (a, b) with (0L, 0L) | (1L, 0L) | (1L, 2L) -> true | _ -> false)
  done;
  (* Over many seeds, all three legal states appear. *)
  Alcotest.(check int) "all prefixes observed" 3 (Hashtbl.length observations)

let test_fence_clears_dirty () =
  let s = stats () in
  let p = Pmem.create ~size:4096 () in
  Pmem.set_i64 p 0 1L;
  Pmem.set_i64 p 256 2L;
  Alcotest.(check int) "two dirty lines" 2 (Pmem.dirty_line_count p);
  Pmem.flush p s ~off:0 ~len:8;
  Pmem.fence p s;
  Alcotest.(check int) "one dirty line after fence" 1 (Pmem.dirty_line_count p);
  Pmem.flush p s ~off:256 ~len:8;
  Pmem.fence p s;
  Alcotest.(check int) "clean" 0 (Pmem.dirty_line_count p)

let test_flush_without_fence_not_durable () =
  let s = stats () in
  let p = Pmem.create ~size:4096 () in
  Pmem.set_i64 p 0 5L;
  Pmem.flush p s ~off:0 ~len:8;
  (* no fence: adversary may drop it *)
  Pmem.crash_with p ~choose:(fun ~line:_ ~options:_ -> 0);
  Alcotest.(check int64) "flushed-unfenced may be lost" 0L (Pmem.get_i64 p 0)

let test_store_after_flush () =
  let s = stats () in
  let p = Pmem.create ~size:4096 () in
  Pmem.set_i64 p 0 1L;
  Pmem.flush p s ~off:0 ~len:8;
  Pmem.set_i64 p 0 2L;
  Pmem.fence p s;
  (* The fence persists the clwb capture (value 1); value 2 is still
     volatile. *)
  Pmem.crash_with p ~choose:(fun ~line:_ ~options:_ -> 0);
  Alcotest.(check int64) "capture-time content persisted" 1L (Pmem.get_i64 p 0)

let test_charging () =
  let s = stats () in
  let p = Pmem.create ~size:4096 () in
  Pmem.charge_read p s ~off:0 ~len:256;
  Pmem.charge_write p s ~off:0 ~len:1;
  Pmem.charge_write p s ~off:255 ~len:2 (* straddles two blocks *);
  let c = Stats.counters s in
  Alcotest.(check int) "one block read" 1 c.Stats.nvmm_block_reads;
  Alcotest.(check int) "three block writes" 3 c.Stats.nvmm_block_writes

let test_stats_clock () =
  let s = stats () in
  let spec = Memspec.default in
  Stats.dram_read s ();
  Alcotest.(check (float 0.001)) "dram read time" spec.Memspec.dram_read_ns (Stats.now s);
  Stats.nvmm_write s ~off:0 ~len:256;
  Alcotest.(check (float 0.001)) "nvmm write adds"
    (spec.Memspec.dram_read_ns +. spec.Memspec.nvmm_write_block_ns)
    (Stats.now s);
  Stats.set_now s 1.0;
  Alcotest.(check bool) "set_now never rewinds" true (Stats.now s > 1.0)

let test_blocks_touched () =
  let spec = Memspec.default in
  Alcotest.(check int) "empty" 0 (Memspec.blocks_touched spec ~off:0 ~len:0);
  Alcotest.(check int) "within" 1 (Memspec.blocks_touched spec ~off:10 ~len:100);
  Alcotest.(check int) "exact" 1 (Memspec.blocks_touched spec ~off:256 ~len:256);
  Alcotest.(check int) "straddle" 2 (Memspec.blocks_touched spec ~off:200 ~len:100);
  Alcotest.(check int) "big" 5 (Memspec.blocks_touched spec ~off:100 ~len:1024)

let test_layout () =
  let b = Layout.builder () in
  let r1 = Layout.reserve b ~name:"a" ~len:100 () in
  let r2 = Layout.reserve b ~name:"b" ~len:50 ~align:64 () in
  Alcotest.(check int) "first at 0" 0 r1.Layout.off;
  Alcotest.(check int) "aligned" 0 (r2.Layout.off mod 64);
  Alcotest.(check bool) "non-overlapping" true (r2.Layout.off >= 100);
  Alcotest.(check string) "find" "b" (Layout.find b "b").Layout.name;
  Alcotest.(check bool) "total covers" true (Layout.total_size b >= r2.Layout.off + 50)

(* Property: any sequence of stores/flushes/fences followed by a crash
   yields, per line, one of the snapshots that existed — checked by
   writing a monotone counter and requiring the crash value to be one
   of the written values or the initial zero. *)
let prop_crash_value_was_written =
  QCheck.Test.make ~name:"crash image holds a written value" ~count:200
    QCheck.(pair (int_range 1 20) (int_range 1 1_000_000))
    (fun (n_stores, seed) ->
      let s = stats () in
      let p = Pmem.create ~size:256 () in
      let rng = Nv_util.Rng.create seed in
      for i = 1 to n_stores do
        Pmem.set_i64 p 0 (Int64.of_int i);
        if Nv_util.Rng.int rng 3 = 0 then Pmem.flush p s ~off:0 ~len:8;
        if Nv_util.Rng.int rng 4 = 0 then Pmem.fence p s
      done;
      Pmem.crash p ~rng;
      let v = Int64.to_int (Pmem.get_i64 p 0) in
      v >= 0 && v <= n_stores)

(* ------------------------------------------------------------------ *)
(* Reference model: the list-based crash-state tracker [Pmem] used
   before per-line state buffers (a copy of the line per store, another
   at clwb and a list append per store). Its crash semantics are the
   specification the buffered tracker must reproduce exactly. *)

module Ref_pmem = struct
  let line_size = 64

  type line_state = {
    mutable persisted : bytes;
    mutable snapshots : bytes list; (* oldest first *)
    mutable queued : (bytes * int) option;
  }

  type t = { data : bytes; states : line_state option array; mutable dirty : int list }

  let create ~size =
    { data = Bytes.make size '\000'; states = Array.make (size / line_size) None; dirty = [] }

  let copy_line t li = Bytes.sub t.data (li * line_size) line_size

  let iter_lines ~off ~len f =
    if len > 0 then
      for li = off / line_size to (off + len - 1) / line_size do
        f li
      done

  let store t ~off ~len write =
    iter_lines ~off ~len (fun li ->
        if t.states.(li) = None then begin
          t.states.(li) <- Some { persisted = copy_line t li; snapshots = []; queued = None };
          t.dirty <- li :: t.dirty
        end);
    write t.data;
    iter_lines ~off ~len (fun li ->
        match t.states.(li) with
        | Some st -> st.snapshots <- st.snapshots @ [ copy_line t li ]
        | None -> assert false)

  (* A clwb captures the line's newest store state. Without [corrupt]
     that is the volatile line; [corrupt] bypasses stores, so its change
     reaches no state before the line's next store. *)
  let flush t ~off ~len =
    iter_lines ~off ~len (fun li ->
        match t.states.(li) with
        | None -> ()
        | Some st ->
            let newest = List.fold_left (fun _ s -> s) st.persisted st.snapshots in
            st.queued <- Some (Bytes.copy newest, List.length st.snapshots))

  let corrupt t ~off ~len ~mask =
    for i = off to off + len - 1 do
      Bytes.set_uint8 t.data i (Bytes.get_uint8 t.data i lxor mask)
    done

  let fence t =
    t.dirty <-
      List.filter
        (fun li ->
          match t.states.(li) with
          | None -> false
          | Some st -> (
              match st.queued with
              | None -> true
              | Some (content, n) ->
                  st.persisted <- content;
                  st.queued <- None;
                  st.snapshots <- List.filteri (fun i _ -> i >= n) st.snapshots;
                  if st.snapshots = [] && Bytes.equal st.persisted (copy_line t li) then begin
                    t.states.(li) <- None;
                    false
                  end
                  else true))
        t.dirty

  let sorted_dirty t = List.sort compare t.dirty

  let states_of t li =
    match t.states.(li) with
    | Some st -> Array.of_list (st.persisted :: st.snapshots)
    | None -> assert false

  let finish_crash t =
    List.iter (fun li -> t.states.(li) <- None) t.dirty;
    t.dirty <- []

  let crash_with t ~choose =
    List.iter
      (fun li ->
        let states = states_of t li in
        let idx = choose ~line:li ~options:(Array.length states) in
        Bytes.blit states.(idx) 0 t.data (li * line_size) line_size)
      (sorted_dirty t);
    finish_crash t

  let crash_with_faults t ~rng ~torn_frac =
    List.iter
      (fun li ->
        let states = states_of t li in
        let options = Array.length states in
        if options > 1 && Nv_util.Rng.float rng < torn_frac then
          for w = 0 to (line_size / 8) - 1 do
            let src = states.(Nv_util.Rng.int rng options) in
            Bytes.blit src (w * 8) t.data ((li * line_size) + (w * 8)) 8
          done
        else Bytes.blit states.(Nv_util.Rng.int rng options) 0 t.data (li * line_size) line_size)
      (sorted_dirty t);
    finish_crash t

  let dirty_line_count t = List.length t.dirty
  let unpersisted_ranges t = List.map (fun li -> (li * line_size, line_size)) (sorted_dirty t)
end

type op =
  | I64 of int * int64
  | I32 of int * int32
  | U8 of int * int
  | Blit of int * int * char
  | Fill of int * int * char
  | Flush of int * int
  | Corrupt of int * int * int
  | Fence

let model_size = 8 * 64

let pp_op = function
  | I64 (off, v) -> Printf.sprintf "i64 %d %Ld" off v
  | I32 (off, v) -> Printf.sprintf "i32 %d %ld" off v
  | U8 (off, v) -> Printf.sprintf "u8 %d %d" off v
  | Blit (off, len, c) -> Printf.sprintf "blit %d+%d %C" off len c
  | Fill (off, len, c) -> Printf.sprintf "fill %d+%d %C" off len c
  | Flush (off, len) -> Printf.sprintf "flush %d+%d" off len
  | Corrupt (off, len, mask) -> Printf.sprintf "corrupt %d+%d ^%d" off len mask
  | Fence -> "fence"

(* Random op sequences over an 8-line region: multi-line blits and
   fills, repeated stores to one line, stores between a flush and its
   fence, and [corrupt_range] on clean and dirty lines. *)
let gen_ops =
  let open QCheck.Gen in
  let range max_len =
    int_range 0 (model_size - 1) >>= fun off ->
    int_range 1 (min max_len (model_size - off)) >|= fun len -> (off, len)
  in
  let byte = map Char.chr (int_range 0 255) in
  let op =
    frequency
      [
        (4, map2 (fun w v -> I64 (w * 8, Int64.of_int v)) (int_range 0 63) (int_range 0 1_000_000));
        (2, map2 (fun w v -> I32 (w * 4, Int32.of_int v)) (int_range 0 127) (int_range 0 1_000_000));
        (2, map2 (fun off v -> U8 (off, v)) (int_range 0 (model_size - 1)) (int_range 0 255));
        (2, map2 (fun (off, len) c -> Blit (off, len, c)) (range 200) byte);
        (1, map2 (fun (off, len) c -> Fill (off, len, c)) (range 200) byte);
        (3, map (fun (off, len) -> Flush (off, len)) (range model_size));
        (1, map2 (fun (off, len) mask -> Corrupt (off, len, mask)) (range 100) (int_range 0 255));
        (2, return Fence);
      ]
  in
  list_size (int_range 0 60) op

let arb_ops =
  QCheck.make
    ~print:QCheck.Print.(pair (list pp_op) int)
    QCheck.Gen.(pair gen_ops (int_range 1 1_000_000))

let run_pmem ?(size = model_size) ops =
  let s = stats () in
  let p = Pmem.create ~size () in
  List.iter
    (function
      | I64 (off, v) -> Pmem.set_i64 p off v
      | I32 (off, v) -> Pmem.set_i32 p off v
      | U8 (off, v) -> Pmem.set_u8 p off v
      | Blit (off, len, c) -> Pmem.blit_to p ~src:(Bytes.make len c) ~src_off:0 ~dst_off:off ~len
      | Fill (off, len, c) -> Pmem.fill p ~off ~len c
      | Flush (off, len) -> Pmem.flush p s ~off ~len
      | Corrupt (off, len, mask) -> Pmem.corrupt_range p ~off ~len ~mask
      | Fence -> Pmem.fence p s)
    ops;
  p

let run_ref ?(size = model_size) ops =
  let r = Ref_pmem.create ~size in
  List.iter
    (function
      | I64 (off, v) -> Ref_pmem.store r ~off ~len:8 (fun d -> Bytes.set_int64_le d off v)
      | I32 (off, v) -> Ref_pmem.store r ~off ~len:4 (fun d -> Bytes.set_int32_le d off v)
      | U8 (off, v) -> Ref_pmem.store r ~off ~len:1 (fun d -> Bytes.set_uint8 d off v)
      | Blit (off, len, c) | Fill (off, len, c) ->
          Ref_pmem.store r ~off ~len (fun d -> Bytes.fill d off len c)
      | Flush (off, len) -> Ref_pmem.flush r ~off ~len
      | Corrupt (off, len, mask) -> Ref_pmem.corrupt r ~off ~len ~mask
      | Fence -> Ref_pmem.fence r)
    ops;
  r

let image p = Pmem.read_bytes p ~off:0 ~len:model_size

(* Property: after any op sequence the tracker exposes exactly the
   reference's dirty set, asks an adversary about the same lines with
   the same option counts, and yields the same crash images — legal and
   fully torn — for the same choices and seed. *)
let prop_matches_reference =
  QCheck.Test.make ~name:"crash states match the reference tracker" ~count:300 arb_ops
    (fun (ops, seed) ->
      let p = run_pmem ops and r = run_ref ops in
      let same_dirty =
        Pmem.dirty_line_count p = Ref_pmem.dirty_line_count r
        && Pmem.unpersisted_ranges p = Ref_pmem.unpersisted_ranges r
      in
      let chooser () =
        let rng = Nv_util.Rng.create seed and asked = ref [] in
        ( (fun ~line ~options ->
            asked := (line, options) :: !asked;
            Nv_util.Rng.int rng options),
          asked )
      in
      let choose_p, asked_p = chooser () and choose_r, asked_r = chooser () in
      Pmem.crash_with p ~choose:choose_p;
      Ref_pmem.crash_with r ~choose:choose_r;
      let same_legal = !asked_p = !asked_r && Bytes.equal (image p) r.Ref_pmem.data in
      let p = run_pmem ops and r = run_ref ops in
      let model = { Pmem.no_faults with Pmem.torn_frac = 1.0 } in
      ignore (Pmem.crash_with_faults p ~rng:(Nv_util.Rng.create seed) ~model);
      Ref_pmem.crash_with_faults r ~rng:(Nv_util.Rng.create seed) ~torn_frac:1.0;
      same_dirty && same_legal && Bytes.equal (image p) r.Ref_pmem.data)

(* Steady-state crash-safe tracking allocates nothing: a cycle of
   "blit 1000 B + flush, then fence" copies each line into a log chunk
   the previous cycles already allocated, and the simulated clock is
   updated unboxed. A fresh line copy per store would cost 16 x 9 words
   per cycle. *)
let test_tracking_allocation_free () =
  let s = stats () in
  let p = Pmem.create ~size:(64 * 1024) () in
  let src = Bytes.make 1000 'v' in
  let cycle i =
    let off = i mod 16 * 1024 in
    Bytes.set src 0 (Char.chr (i land 0xFF));
    Pmem.blit_to p ~src ~src_off:0 ~dst_off:off ~len:1000;
    Pmem.flush p s ~off ~len:1000;
    Pmem.fence p s
  in
  for i = 0 to 99 do
    cycle i
  done;
  let cycles = 1000 in
  let before = Gc.minor_words () in
  for i = 0 to cycles - 1 do
    cycle i
  done;
  let per_cycle = (Gc.minor_words () -. before) /. float_of_int cycles in
  Alcotest.(check int) "clean after fence" 0 (Pmem.dirty_line_count p);
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words per cycle < 4" per_cycle)
    true (per_cycle < 4.0);
  (* An epoch-sized cycle: one store to each of 72 chunks' worth of
     lines, then flush + fence. Its slot-table and arena chunks stay
     allocated from one fence to the next, across several windows of
     the retention mark; dropping 8 of them per fence would allocate
     about 74 K words per cycle on the major heap. *)
  let lines = 72 * 1024 in
  let p = Pmem.create ~size:(lines * 64) () in
  let cycle i =
    for li = 0 to lines - 1 do
      Pmem.set_int p (li * 64) i
    done;
    Pmem.flush p s ~off:0 ~len:(lines * 64);
    Pmem.fence p s
  in
  for i = 0 to 1 do
    cycle i
  done;
  let cycles = 40 in
  let major () = (Gc.quick_stat ()).Gc.major_words in
  let before = major () in
  for i = 0 to cycles - 1 do
    cycle i
  done;
  let per_cycle = (major () -. before) /. float_of_int cycles in
  Alcotest.(check int) "wide cycle clean after fence" 0 (Pmem.dirty_line_count p);
  Alcotest.(check bool)
    (Printf.sprintf "%.0f major words per wide cycle < 1024" per_cycle)
    true (per_cycle < 1024.0);
  (* A bulk load's rows between two fences: header init, inline value,
     version. Every store to a dirty line records one crash state (a
     line copy), so a header written field by field would record over a
     dozen per row; written in one blit, the row records five. *)
  let rows = 256 and row_size = 256 in
  let p = Pmem.create ~size:(rows * row_size) () in
  let data = Bytes.make 8 'x' in
  for r = 0 to rows - 1 do
    let base = r * row_size in
    Nv_storage.Prow.init p s ~base ~key:(Int64.of_int r) ~table:0;
    let ptr = Nv_storage.Prow.write_inline_value p s ~base ~row_size ~half:0 ~data () in
    Nv_storage.Prow.set_version p s ~base ~slot:`V2 ~sid:(Nvcaracal.Sid.make ~epoch:1 ~seq:0)
      ~ptr ()
  done;
  let states = ref 0 in
  Pmem.crash_with p ~choose:(fun ~line:_ ~options ->
      states := !states + options - 1;
      options - 1);
  let per_row = float_of_int !states /. float_of_int rows in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f recorded line states per loaded row <= 6" per_row)
    true (per_row <= 6.0)

(* Every (line, options, image) a crash can leave, surfacing each state
   of one line at a time (state 0 elsewhere); [crash choose] builds the
   region afresh, crashes it with [choose] and returns its image. *)
let crash_states crash =
  let asked = ref [] in
  ignore
    (crash (fun ~line ~options ->
         asked := (line, options) :: !asked;
         0));
  List.concat_map
    (fun (line, options) ->
      List.init options (fun k ->
          (line, options, crash (fun ~line:l ~options:_ -> if l = line then k else 0))))
    (List.rev !asked)

(* A hot word (the allocator's bump word during a bulk load) takes
   100,000 stores between fences: every one stays a crash state, in
   order, and one flush + fence retires them all. *)
let test_hot_line () =
  let stores = 100_000 in
  let run () =
    let p = Pmem.create ~size:4096 () in
    for i = 1 to stores do
      Pmem.set_i64 p 64 (Int64.of_int i)
    done;
    p
  in
  List.iter
    (fun k ->
      let p = run () and offered = ref 0 in
      Pmem.crash_with p ~choose:(fun ~line ~options ->
          Alcotest.(check int) "the hot line" 1 line;
          offered := options;
          k);
      Alcotest.(check int) "one option per store, plus the baseline" (stores + 1) !offered;
      Alcotest.(check int64) (Printf.sprintf "state %d" k) (Int64.of_int k) (Pmem.get_i64 p 64))
    [ 0; 1; 2; stores / 2; stores - 1; stores ];
  let s = stats () and p = run () in
  Pmem.flush p s ~off:64 ~len:8;
  Pmem.fence p s;
  Alcotest.(check int) "clean after flush + fence" 0 (Pmem.dirty_line_count p);
  Alcotest.(check int64) "newest store kept" (Int64.of_int stores) (Pmem.get_i64 p 64)

(* Two lines stay dirty across fences (one stored after its flush, one
   corrupted) while 70,000 others are stored, flushed and fenced. The
   churn's records come to far outnumber the kept ones, so the arenas
   are compacted and the kept chains copied; the kept lines' crash
   states after further stores are still the reference's. *)
let test_compaction_keeps_chains () =
  let size = 128 * 64 in
  let churn =
    List.init 70_000 (fun i ->
        let off = 64 * (2 + (i mod 100)) in
        [ I64 (off, Int64.of_int i); Flush (off, 8); Fence ])
  in
  let ops =
    [ I64 (0, 1L); I64 (8, 2L); Flush (0, 8); I64 (0, 3L); I64 (64, 4L); Corrupt (64, 8, 0xFF); Fence ]
    @ List.concat churn
    @ [ I64 (0, 5L); I64 (72, 6L) ]
  in
  let pmem =
    crash_states (fun choose ->
        let p = run_pmem ~size ops in
        Pmem.crash_with p ~choose;
        Bytes.to_string (Pmem.read_bytes p ~off:0 ~len:size))
  and reference =
    crash_states (fun choose ->
        let r = run_ref ~size ops in
        Ref_pmem.crash_with r ~choose;
        Bytes.to_string r.Ref_pmem.data)
  in
  Alcotest.(check (list (pair int int)))
    "kept lines and their options" [ (0, 3); (1, 3) ]
    (List.sort_uniq compare (List.map (fun (l, o, _) -> (l, o)) pmem));
  Alcotest.(check (list (triple int int string))) "reference crash states" reference pmem

let suites =
  [
    ( "nvmm",
      [
        Alcotest.test_case "accessors" `Quick test_accessors;
        Alcotest.test_case "bounds" `Quick test_bounds_checked;
        Alcotest.test_case "crash discards unflushed" `Quick test_crash_discards_unflushed;
        Alcotest.test_case "crash may keep all" `Quick test_crash_may_keep_everything;
        Alcotest.test_case "prefix consistency" `Quick test_crash_prefix_consistency;
        Alcotest.test_case "fence clears dirty" `Quick test_fence_clears_dirty;
        Alcotest.test_case "flush alone not durable" `Quick test_flush_without_fence_not_durable;
        Alcotest.test_case "store after flush" `Quick test_store_after_flush;
        Alcotest.test_case "charging" `Quick test_charging;
        Alcotest.test_case "stats clock" `Quick test_stats_clock;
        Alcotest.test_case "blocks touched" `Quick test_blocks_touched;
        Alcotest.test_case "layout" `Quick test_layout;
        QCheck_alcotest.to_alcotest prop_crash_value_was_written;
        QCheck_alcotest.to_alcotest prop_matches_reference;
        Alcotest.test_case "tracking allocation-free" `Quick test_tracking_allocation_free;
        Alcotest.test_case "hot line" `Quick test_hot_line;
        Alcotest.test_case "compaction keeps chains" `Quick test_compaction_keeps_chains;
      ] );
  ]
