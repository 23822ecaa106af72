let line_size = 64

(* Crash-state log.

   A line with unpersisted stores has a slot of [slot_ints] ints: the
   line number shifted left one bit (the low bit is the [corrupt_range]
   flag below), [n], the number of stores since the line's content
   last became certain, [q], the store count its latest clwb captured
   (-1: none since the last fence), and [top], the id of its newest
   explicit state record. A crash may surface any state 0..n of the
   line: state 0 is the content that survives with certainty, state k
   the content after the k-th store, so any prefix of the store
   sequence. States 0..n-1 are records of [rec_bytes]: the line's
   bytes, then the id of the state before (never followed from state
   0). State n is the volatile line itself, so a store copies exactly
   one line (the state it replaces) and a clwb records a count instead
   of a copy.

   [corrupt_range] is the one writer that bypasses stores: on a dirty
   line it first copies state n into a record and flags the slot, so
   state n stays explicit until the line's next store. Only a flagged
   slot's volatile line can differ from its newest state, so [fence]
   reads the volatile view for flagged slots only.

   Slots live in slot tables and records in arenas: fixed-size chunks
   that grow a chunk at a time and are emptied, not freed ([trim] says
   when they are given back). Serial code uses table and arena 0; in a
   wide phase stripe s uses table and arena s, and a line's chain may
   run through several arenas. An id carries its table or arena in its
   low [log_bits] bits. *)
type 'a chunked = {
  mutable dir : 'a array; (* chunks of [chunk] entries; empty past the last *)
  mutable len : int; (* entries in use *)
  mutable peak : int; (* most chunks in use when emptied, this window *)
  mutable prev_peak : int; (* the same, the window before *)
}

let slot_ints = 4
let chunk_bits = 10
let chunk = 1 lsl chunk_bits
let log_bits = 8
let log_mask = (1 lsl log_bits) - 1
let rec_bytes = line_size + 8
let chunked () = { dir = [||]; len = 0; peak = 0; prev_peak = 0 }

(* Media-fault bookkeeping. All fields stay at their zero state unless a
   fault-injection entry point was called, so fault-free runs (including
   every benchmark) take exactly the original code paths. *)
type fault_report = {
  torn_lines : int;
  rotted_lines : int;
  flipped_bits : int;
  dead_lines : int;
}

type fault_model = {
  torn_frac : float;
  rot_lines : int;
  rot_max_bits : int;
  dead : int;
}

let no_faults = { torn_frac = 0.0; rot_lines = 0; rot_max_bits = 0; dead = 0 }

(* [slot_of] maps each line to its slot id, tagged with the generation
   that wrote it: one word load is the per-store membership probe, the
   hottest operation of a store. [fence] and [crash] start a new
   generation, so a line turning clean needs no write: its entry simply
   goes stale. *)
type t = {
  data : bytes; (* volatile view *)
  size : int;
  slot_of : bytes; (* an int64 per line; bytes, so the GC never scans it *)
  mutable gen : int;
  mutable tabs : int array chunked array; (* slot tables: 0, then one per stripe *)
  mutable arenas : bytes chunked array; (* record arenas, likewise *)
  mutable spare_arena : bytes chunked; (* arena 0 after the next compaction *)
  mutable striped : bool; (* between [begin_stripes] and [end_stripes] *)
  dead_lines : (int, unit) Hashtbl.t; (* lines whose reads fault *)
  crash_dirty : (int, unit) Hashtbl.t; (* lines dirty at any past crash *)
  mutable faults : fault_report;
}

external get64 : bytes -> int -> int64 = "%caml_bytes_get64"
external set64 : bytes -> int -> int64 -> unit = "%caml_bytes_set64"

let zero_faults = { torn_lines = 0; rotted_lines = 0; flipped_bits = 0; dead_lines = 0 }

let create ~size () =
  {
    data = Bytes.make size '\000';
    size;
    slot_of = Bytes.make (((size + line_size - 1) / line_size) * 8) '\xff';
    tabs = [| chunked () |];
    arenas = [| chunked () |];
    spare_arena = chunked ();
    gen = 0;
    striped = false;
    dead_lines = Hashtbl.create 4;
    crash_dirty = Hashtbl.create 64;
    faults = zero_faults;
  }

let of_image image =
  let t = create ~size:(Bytes.length image) () in
  Bytes.blit image 0 t.data 0 t.size;
  t

let size t = t.size

(* Chunk directories double; only their pointers are ever copied. *)
let extend dir empty =
  let grown = Array.make (max 4 (2 * Array.length dir)) empty in
  Array.blit dir 0 grown 0 (Array.length dir);
  grown

(* A slot index fits in 32 bits (a table holds at most one slot per
   line), its table in [log_bits]; the generation takes the bits above. *)
let gen_shift = 32 + log_bits
let gen_limit = 1 lsl (62 - gen_shift)
let id_mask = (1 lsl gen_shift) - 1

(* Line [li]'s slot id, or -1 while the line is clean. An entry of -1
   shifts to above any generation. *)
let slot_id t li =
  let e = Int64.to_int (get64 t.slot_of (li lsl 3)) in
  if e lsr gen_shift = t.gen then e land id_mask else -1

let set_slot t li ~gen id = set64 t.slot_of (li lsl 3) (Int64.of_int ((gen lsl gen_shift) lor id))

(* The generation after the current one; on wrap-around every entry is
   cleared, so none from a past generation can look current. *)
let next_gen t =
  if t.gen + 1 < gen_limit then t.gen + 1
  else begin
    Bytes.fill t.slot_of 0 (Bytes.length t.slot_of) '\xff';
    0
  end

let slot_chunk t id = t.tabs.(id land log_mask).dir.(id lsr (log_bits + chunk_bits))
let slot_base id = ((id lsr log_bits) land (chunk - 1)) * slot_ints

let push_slot tab l ~w0 ~n ~top =
  let i = tab.len in
  let c = i lsr chunk_bits and b = (i land (chunk - 1)) * slot_ints in
  if c = Array.length tab.dir then tab.dir <- extend tab.dir [||];
  if Array.length tab.dir.(c) = 0 then tab.dir.(c) <- Array.make (chunk * slot_ints) 0;
  let s = tab.dir.(c) in
  s.(b) <- w0;
  s.(b + 1) <- n;
  s.(b + 2) <- -1;
  s.(b + 3) <- top;
  tab.len <- i + 1;
  (i lsl log_bits) lor l

(* Append the line at [src_off] of [src] to [arena] (number [l]) as a
   record after [link]. *)
let push_rec arena l ~src ~src_off ~link =
  let r = arena.len in
  let c = r lsr chunk_bits and o = (r land (chunk - 1)) * rec_bytes in
  if c = Array.length arena.dir then arena.dir <- extend arena.dir Bytes.empty;
  if Bytes.length arena.dir.(c) = 0 then arena.dir.(c) <- Bytes.create (chunk * rec_bytes);
  Bytes.blit src src_off arena.dir.(c) o line_size;
  set64 arena.dir.(c) (o + line_size) (Int64.of_int link);
  arena.len <- r + 1;
  (r lsl log_bits) lor l

(* Copy volatile line [li] into arena [l] as a record after [link]. *)
let push_line t l li ~link = push_rec t.arenas.(l) l ~src:t.data ~src_off:(li * line_size) ~link

let rec_chunk t id = t.arenas.(id land log_mask).dir.(id lsr (log_bits + chunk_bits))
let rec_off id = ((id lsr log_bits) land (chunk - 1)) * rec_bytes
let rec_link t id = Int64.to_int (get64 (rec_chunk t id) (rec_off id + line_size))

(* A table or arena keeps its chunks up to a decaying high-water mark:
   the most it had in use when emptied during this window of [window]
   generations or the one before. An epoch fences about six times, so
   steady epochs find every chunk in place, while a burst is given back
   within two windows of its fence. *)
let window = 16

let used c = (c.len + chunk - 1) lsr chunk_bits
let note c = c.peak <- max c.peak (used c)

let rotate c =
  c.prev_peak <- c.peak;
  c.peak <- 0

let trim c =
  let keep = max (used c) (max c.peak c.prev_peak) in
  if Array.length c.dir > keep then c.dir <- Array.sub c.dir 0 keep

let empty c =
  note c;
  c.len <- 0;
  trim c

(* Arenas holding over twice the kept records plus this many are
   compacted (see [fence]). *)
let compact_slack = 64 * chunk

(* Stripe identity of the current domain while striping is active. A
   plain domain-local: each pool task announces its stripe once via
   [set_stripe] before touching the region. *)
let stripe_key = Domain.DLS.new_key (fun () -> 0)

let cur_log t = if t.striped then Domain.DLS.get stripe_key else 0

(* Log that bytes [off, off+len) are about to be stored. Must be called
   BEFORE mutating the volatile view: each line's current content
   becomes an explicit state (a flagged slot's already is). Stripes
   append only to their own log, and distinct stripes store to disjoint
   lines (the caller's eligibility contract), so a slot in another log
   is still mutated by one domain only. *)
let log_store t ~off ~len =
  if len > 0 then begin
    let l = cur_log t in
    for li = off / line_size to (off + len - 1) / line_size do
      let id = slot_id t li in
      if id < 0 then
        set_slot t li ~gen:t.gen
          (push_slot t.tabs.(l) l ~w0:(li lsl 1) ~n:1 ~top:(push_line t l li ~link:(-1)))
      else begin
        let s = slot_chunk t id and b = slot_base id in
        if s.(b) land 1 = 1 then s.(b) <- s.(b) lxor 1
        else s.(b + 3) <- push_line t l li ~link:s.(b + 3);
        s.(b + 1) <- s.(b + 1) + 1
      end
    done
  end

(* Striped dirty tracking: NVTraverse-style quiescence. Stripe s keeps
   its slots and records in log s, and [fence] walks every log; the
   join copies nothing. [fence]/[crash]/inspection must not
   run between [begin_stripes] and [end_stripes]. Slot order differs
   from serial execution's, which is unobservable: every consumer
   either sorts ([sorted_dirty], [crash], [unpersisted_ranges]) or is
   per-line commutative ([fence]). *)
let begin_stripes t ~n =
  if n > log_mask then invalid_arg "Pmem.begin_stripes: too many stripes";
  let grow a = Array.append a (Array.init (max 0 (n - Array.length a)) (fun _ -> chunked ())) in
  t.tabs <- grow t.tabs;
  t.arenas <- grow t.arenas;
  t.striped <- true

let set_stripe _t s = Domain.DLS.set stripe_key s
let end_stripes t = t.striped <- false

let check_bounds t off len =
  if off < 0 || len < 0 || off + len > t.size then
    invalid_arg
      (Printf.sprintf "Pmem: range [%d, %d) out of bounds (size %d)" off (off + len) t.size)

let get_i64 t off =
  assert (off land 7 = 0);
  check_bounds t off 8;
  Bytes.get_int64_le t.data off

let set_i64 t off v =
  assert (off land 7 = 0);
  check_bounds t off 8;
  log_store t ~off ~len:8;
  Bytes.set_int64_le t.data off v

let get_i32 t off =
  assert (off land 3 = 0);
  check_bounds t off 4;
  Bytes.get_int32_le t.data off

let set_i32 t off v =
  assert (off land 3 = 0);
  check_bounds t off 4;
  log_store t ~off ~len:4;
  Bytes.set_int32_le t.data off v

(* Unboxed forms of the word accessors: the same checks and the same
   single logged store, with the value as a native int (a non-negative
   int's [Int64.of_int] is its 64-bit word; [set_u32] stores the low 32
   bits). [copy_i64]/[copy_i32] store a word read from elsewhere in the
   region. *)
let set_int t off v =
  assert (off land 7 = 0);
  check_bounds t off 8;
  log_store t ~off ~len:8;
  Bytes.set_int64_le t.data off (Int64.of_int v)

let set_u32 t off v =
  assert (off land 3 = 0);
  check_bounds t off 4;
  log_store t ~off ~len:4;
  Bytes.set_int32_le t.data off (Int32.of_int v)

let get_u32 t off =
  assert (off land 3 = 0);
  check_bounds t off 4;
  Int32.to_int (Bytes.get_int32_le t.data off) land 0xFFFFFFFF

let copy_i64 t ~src ~dst =
  assert (src land 7 = 0 && dst land 7 = 0);
  check_bounds t src 8;
  check_bounds t dst 8;
  log_store t ~off:dst ~len:8;
  Bytes.set_int64_le t.data dst (Bytes.get_int64_le t.data src)

let copy_i32 t ~src ~dst =
  assert (src land 3 = 0 && dst land 3 = 0);
  check_bounds t src 4;
  check_bounds t dst 4;
  log_store t ~off:dst ~len:4;
  Bytes.set_int32_le t.data dst (Bytes.get_int32_le t.data src)

let get_u8 t off =
  check_bounds t off 1;
  Char.code (Bytes.get t.data off)

let set_u8 t off v =
  check_bounds t off 1;
  log_store t ~off ~len:1;
  Bytes.set t.data off (Char.chr (v land 0xFF))

let read_bytes t ~off ~len =
  check_bounds t off len;
  Bytes.sub t.data off len

let blit_to t ~src ~src_off ~dst_off ~len =
  check_bounds t dst_off len;
  log_store t ~off:dst_off ~len;
  Bytes.blit src src_off t.data dst_off len

let write_bytes t ~off b = blit_to t ~src:b ~src_off:0 ~dst_off:off ~len:(Bytes.length b)

let blit_from t ~src_off ~dst ~dst_off ~len =
  check_bounds t src_off len;
  Bytes.blit t.data src_off dst dst_off len

let crc32c t ~off ~len =
  check_bounds t off len;
  Nv_util.Crc32c.bytes t.data off len

let crc32c_native t ~off ~len =
  check_bounds t off len;
  Nv_util.Crc32c.bytes_native t.data off len

let fill t ~off ~len c =
  check_bounds t off len;
  log_store t ~off ~len;
  Bytes.fill t.data off len c

(* The clwb capture is the line's newest state, so its count is enough. *)
let flush ?(charge = true) t stats ~off ~len =
  if len > 0 then begin
    check_bounds t off len;
    for li = off / line_size to (off + len - 1) / line_size do
      if charge then Stats.flush stats;
      let id = slot_id t li in
      (* clean line: clwb is a no-op *)
      if id >= 0 then begin
        let s = slot_chunk t id and b = slot_base id in
        s.(b + 2) <- s.(b + 1)
      end
    done
  end

(* Whether volatile line [li] equals record [r]; unboxed word compares. *)
let volatile_is_rec t li r =
  let rb = rec_chunk t r and ro = rec_off r and base = li * line_size in
  let i = ref 0 in
  while !i < line_size && get64 t.data (base + !i) = get64 rb (ro + !i) do
    i := !i + 8
  done;
  !i = line_size

(* A slot whose every store was captured turns clean (a flagged one only
   if its volatile line is still the captured state): only the slot
   tables are read. Any other drops the states older than its capture
   and is re-pushed onto table 0, which compacts it in place, while its
   records stay put. The arenas are emptied when no slot is kept;
   otherwise they are compacted into the spare arena only once they
   hold over twice the kept records plus [compact_slack], so a line left
   dirty across fences costs no copy per fence. *)
let fence t stats =
  Stats.fence stats;
  let t0 = t.tabs.(0) and gen = next_gen t and live = ref 0 in
  if gen land (window - 1) = 0 then begin
    Array.iter rotate t.tabs;
    Array.iter rotate t.arenas
  end;
  for l = 0 to Array.length t.tabs - 1 do
    let tab = t.tabs.(l) in
    let len = tab.len in
    note tab;
    tab.len <- 0;
    for i = 0 to len - 1 do
      let s = tab.dir.(i lsr chunk_bits) and b = (i land (chunk - 1)) * slot_ints in
      let w0 = s.(b) and n = s.(b + 1) and q = s.(b + 2) and top = s.(b + 3) in
      if q <> n || (w0 land 1 = 1 && not (volatile_is_rec t (w0 lsr 1) top)) then begin
        let lo = Int.max q 0 in
        live := !live + n + (w0 land 1) - lo;
        set_slot t (w0 lsr 1) ~gen (push_slot t0 0 ~w0 ~n:(n - lo) ~top)
      end
    done;
    trim tab
  done;
  let held = Array.fold_left (fun acc a -> acc + a.len) 0 t.arenas in
  if !live = 0 then Array.iter empty t.arenas
  else if held > (2 * !live) + compact_slack then begin
    (* Compaction: each kept chain is copied newest first. *)
    let spa = t.spare_arena in
    for i = 0 to t0.len - 1 do
      let s = t0.dir.(i lsr chunk_bits) and b = (i land (chunk - 1)) * slot_ints in
      let m = s.(b + 1) + (s.(b) land 1) and r = ref s.(b + 3) and r0 = spa.len in
      for j = 0 to m - 1 do
        let link = if j = m - 1 then -1 else (r0 + j + 1) lsl log_bits in
        ignore (push_rec spa 0 ~src:(rec_chunk t !r) ~src_off:(rec_off !r) ~link);
        if j < m - 1 then r := rec_link t !r
      done;
      s.(b + 3) <- r0 lsl log_bits
    done;
    Array.iter empty t.arenas;
    t.spare_arena <- t.arenas.(0);
    t.arenas.(0) <- spa
  end;
  t.gen <- gen

let persist t stats ~off ~len =
  flush t stats ~off ~len;
  fence t stats

let charge_read t stats ~off ~len =
  (if len > 0 && Hashtbl.length t.dead_lines > 0 then
     let first = off / line_size and last = (off + len - 1) / line_size in
     try
       for li = first to last do
         if Hashtbl.mem t.dead_lines li then begin
           Stats.media_fault stats;
           raise Exit
         end
       done
     with Exit -> ());
  Stats.nvmm_read stats ~off ~len
let charge_write _t stats ~off ~len = Stats.nvmm_write stats ~off ~len
let charge_seq_write _t stats ~bytes = Stats.nvmm_seq_write stats ~bytes

(* Crash states of a dirty line: its slot's [n] and a function copying
   [len] bytes at [pos] within the line from state k into the volatile
   view. State n of an unflagged slot is the volatile line already. *)
let line_states t li =
  let id = slot_id t li in
  let s = slot_chunk t id and b = slot_base id in
  let n = s.(b + 1) and top_k = s.(b + 1) - 1 + (s.(b) land 1) and top = s.(b + 3) in
  let surface k ~pos ~len =
    if k <= top_k then begin
      let r = ref top in
      for _ = k + 1 to top_k do
        r := rec_link t !r
      done;
      Bytes.blit (rec_chunk t !r) (rec_off !r + pos) t.data ((li * line_size) + pos) len
    end
  in
  (n, surface)

let dirty_line_count t = Array.fold_left (fun acc tab -> acc + tab.len) 0 t.tabs

(* Dirty line numbers in ascending order. *)
let sorted_dirty t =
  let a = Array.make (dirty_line_count t) 0 and k = ref 0 in
  Array.iter
    (fun tab ->
      for i = 0 to tab.len - 1 do
        a.(!k) <- tab.dir.(i lsr chunk_bits).((i land (chunk - 1)) * slot_ints) lsr 1;
        incr k
      done)
    t.tabs;
  Array.sort Int.compare a;
  a

(* Crash: [f li n surface] picks each dirty line's surviving state, in
   ascending line order so callbacks see a deterministic sequence
   whatever the store order; then the region is clean. The lines are
   remembered — accumulated across crashes, so a crash during recovery
   keeps the evidence of the original one. Recovery's scrub consults
   this to tell legitimate epoch turnover (a stale version whose value
   bytes were being overwritten) apart from media damage to cold data. *)
let crash_lines t f =
  let lines = sorted_dirty t in
  Array.iter
    (fun li ->
      let n, surface = line_states t li in
      f li n surface;
      Hashtbl.replace t.crash_dirty li ())
    lines;
  Array.iter empty t.tabs;
  Array.iter empty t.arenas;
  t.gen <- next_gen t

let crash_with t ~choose =
  crash_lines t (fun li n surface ->
      let idx = choose ~line:li ~options:(n + 1) in
      assert (idx >= 0 && idx <= n);
      surface idx ~pos:0 ~len:line_size)

let crash t ~rng = crash_with t ~choose:(fun ~line:_ ~options -> Nv_util.Rng.int rng options)

let crash_all_persisted t = crash_with t ~choose:(fun ~line:_ ~options -> options - 1)

(* ------------------------------------------------------------------ *)
(* Media-fault injection.

   These entry points produce *illegal* crash images — states the
   prefix-consistency contract above can never yield — modelling torn
   multi-line persists, bit-rot in cold media, and dead lines. The
   checksummed layout in {!Nv_storage} exists to detect exactly these
   states; see docs/FAULTS.md for the taxonomy. *)

let flip_bit t ~bit_off =
  let off = bit_off / 8 in
  let mask = 1 lsl (bit_off mod 8) in
  Bytes.set t.data off (Char.chr (Char.code (Bytes.get t.data off) lxor mask))

let is_clean t li = slot_id t li < 0

(* Flip random bits in up to [lines] randomly chosen *clean* (persisted)
   lines. Returns (lines hit, bits flipped). *)
let inject_bit_rot t ~rng ~lines ~max_bits =
  let n_lines = t.size / line_size in
  let hit = ref 0 and flipped = ref 0 in
  for _ = 1 to lines do
    let li = Nv_util.Rng.int rng n_lines in
    if is_clean t li then begin
      incr hit;
      let bits = 1 + Nv_util.Rng.int rng (max 1 max_bits) in
      for _ = 1 to bits do
        flip_bit t ~bit_off:((li * line_size * 8) + Nv_util.Rng.int rng (line_size * 8));
        incr flipped
      done
    end
  done;
  t.faults <-
    {
      t.faults with
      rotted_lines = t.faults.rotted_lines + !hit;
      flipped_bits = t.faults.flipped_bits + !flipped;
    };
  (!hit, !flipped)

(* Mark up to [n] random clean lines dead: their content reads back as
   all-ones (a poisoned ECC block) and any charged read overlapping them
   records a media fault in {!Stats}. Dirty lines are skipped, as in
   [inject_bit_rot]: their volatile view must stay their newest state. *)
let kill_lines t ~rng ~n =
  let n_lines = t.size / line_size in
  let killed = ref 0 in
  for _ = 1 to n do
    let li = Nv_util.Rng.int rng n_lines in
    if (not (Hashtbl.mem t.dead_lines li)) && is_clean t li then begin
      Hashtbl.add t.dead_lines li ();
      Bytes.fill t.data (li * line_size) line_size '\xFF';
      incr killed
    end
  done;
  t.faults <- { t.faults with dead_lines = t.faults.dead_lines + !killed };
  !killed

(* A torn line: each naturally-aligned 8-byte word independently picks
   one of the line's states (persisted baseline or any store snapshot).
   Word granularity respects the 8-byte power-fail store atomicity of
   real hardware, so single-word structures survive whole while anything
   larger can surface impossible mixes. Words are written in order, so
   a word taken from the volatile state is still intact when taken. *)
let crash_with_faults t ~rng ~model =
  let torn = ref 0 in
  crash_lines t (fun _ n surface ->
      if n > 0 && Nv_util.Rng.float rng < model.torn_frac then begin
        incr torn;
        for w = 0 to (line_size / 8) - 1 do
          surface (Nv_util.Rng.int rng (n + 1)) ~pos:(w * 8) ~len:8
        done
      end
      else surface (Nv_util.Rng.int rng (n + 1)) ~pos:0 ~len:line_size);
  t.faults <- { t.faults with torn_lines = t.faults.torn_lines + !torn };
  if model.rot_lines > 0 then
    ignore (inject_bit_rot t ~rng ~lines:model.rot_lines ~max_bits:model.rot_max_bits);
  if model.dead > 0 then ignore (kill_lines t ~rng ~n:model.dead);
  t.faults

(* Deterministic corruption of an exact byte range (testing aid): xor
   every byte with [mask]. A dirty line's state n is made explicit and
   its slot flagged first, so the change reaches no crash state before
   the line's next store. *)
let corrupt_range t ~off ~len ~mask =
  check_bounds t off len;
  if len > 0 then
    for li = off / line_size to (off + len - 1) / line_size do
      let id = slot_id t li in
      if id >= 0 then begin
        let s = slot_chunk t id and b = slot_base id in
        if s.(b) land 1 = 0 then begin
          s.(b + 3) <- push_line t (cur_log t) li ~link:s.(b + 3);
          s.(b) <- s.(b) lor 1
        end
      end
    done;
  for i = off to off + len - 1 do
    Bytes.set t.data i (Char.chr (Char.code (Bytes.get t.data i) lxor (mask land 0xFF)))
  done

let faults t = t.faults
let faults_injected t = t.faults <> zero_faults
let is_dead_line t ~off = Hashtbl.mem t.dead_lines (off / line_size)

let dirty_at_crash t ~off ~len =
  len > 0 && off >= 0 && off < t.size
  &&
  let last = min (off + len - 1) (t.size - 1) / line_size in
  let rec go li = li <= last && (Hashtbl.mem t.crash_dirty li || go (li + 1)) in
  go (off / line_size)

let unpersisted_ranges t =
  Array.fold_right (fun li acc -> (li * line_size, line_size) :: acc) (sorted_dirty t) []
