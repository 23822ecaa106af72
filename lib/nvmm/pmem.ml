type mode = Fast | Crash_safe

let line_size = 64

(* Per-line persistence bookkeeping, present only while the line has
   unpersisted state. [states] holds every state a crash may surface for
   the line, back to back in [line_size] slots: state 0 is the content
   that survives a crash with certainty, state k (1 <= k <= [n_snaps])
   the content after the k-th store since then, so a crash may legally
   surface any prefix of the store sequence. [queued] is the number of
   stores the most recent clwb captured (-1: none); at the next fence
   state [queued] becomes state 0.

   Invariant: a tracked line's volatile content equals its newest
   state, state [n_snaps] — [pre_store] copies the line into state 0
   before the first store and [note_store] appends it after every
   store. A clwb therefore captures state [n_snaps] and records a count
   instead of a copy. Nothing else writes a tracked line's volatile
   view: fault injection keeps to clean lines.

   Clean lines share the [clean] sentinel (never mutated). The record
   of a line that turns clean goes to a bounded per-region free pool,
   so steady-state tracking allocates nothing. [base] is the
   default-size buffer the record was created with: a line that takes
   more stores grows [states] past it, and the record returns to the
   pool with [base] again, dropping the grown buffer. Dropping the
   whole record instead would let every pooled record that grew die in
   the major heap and be replaced by a fresh one that the pool then
   promotes: on TPC-C that raised promoted words by a third and peak
   RSS by a tenth. *)
type line_state = {
  mutable states : bytes;
  base : bytes;
  mutable n_snaps : int;
  mutable queued : int;
}

let clean = { states = Bytes.empty; base = Bytes.empty; n_snaps = 0; queued = -1 }

(* Room for the persisted state and one store, which is all most lines
   take between fences (a value line is written once per epoch); a row
   header's few stores grow its buffer by doubling. A larger default
   mostly inflates a bulk load's peak, when every line is dirty. *)
let default_states_bytes = 2 * line_size

(* At most this many clean records stay pooled (about 12 MB), enough for
   the lines one large epoch dirties. A bulk load dirties far more;
   pooling them all, or pooling grown buffers, would pin that peak in
   memory. *)
let pool_cap = 1 lsl 16

(* Below the cap, the pool keeps only as many records as the most lines
   newly dirtied between two fences over the last [need_window] to
   [2 * need_window] fences. After a bulk load it thus shrinks to what
   the workload's epochs dirty: records nobody takes are live data that
   slows the major GC (SmallBank with checkpoints peaked 30-60 MB
   higher with a full pool), while a large epoch, a handful of fences
   apart from the next, finds all its records pooled. *)
let need_window = 64

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

(* Dirty-line tracking is direct-mapped: a preallocated per-line state
   array (indexed by line number; not [clean] iff the line has
   unpersisted stores) plus an unordered growable array of the dirty
   line numbers so [fence] and [crash] never scan the whole region. The
   array replaces a hashtable keyed by line index — the per-store
   membership probe is the hottest operation in Crash_safe mode, and an
   array load beats hashing. Fast mode allocates no tracking at all. *)
type t = {
  mode : mode;
  data : bytes; (* volatile view *)
  size : int;
  line_states : line_state array; (* per line; empty in Fast mode *)
  mutable dirty : int array; (* [0, n_dirty): lines not [clean], unordered *)
  mutable n_dirty : int;
  mutable stripe_dirty : int list array;
      (* striped execution ([begin_stripes] .. [end_stripes]): newly
         dirtied line numbers accumulate per stripe instead of on the
         shared [dirty] array, and are unioned at the join. Empty
         ([[||]]) whenever striping is off. *)
  mutable pool : line_state array; (* [0, n_pool): free default-size records *)
  mutable n_pool : int;
  mutable fences : int;
  mutable need : int; (* most lines newly dirtied between fences, this window *)
  mutable need_prev : int; (* the same over the previous window *)
  mutable dirty_after_fence : int; (* [n_dirty] when the last fence ended *)
  dead_lines : (int, unit) Hashtbl.t; (* lines whose reads fault *)
  crash_dirty : (int, unit) Hashtbl.t; (* lines dirty at any past crash *)
  mutable faults : fault_report;
}

let zero_faults = { torn_lines = 0; rotted_lines = 0; flipped_bits = 0; dead_lines = 0 }

(* Alignment/bounds precondition checks on every typed accessor. The
   byte layer below stays memory-safe without them (OCaml [Bytes]
   bounds-checks its own accesses), so the engine may turn them off for
   throughput runs; keep them on when debugging layout code for the
   precise range in the error. *)
let checks =
  ref (match Sys.getenv_opt "NVC_PMEM_CHECKS" with Some ("0" | "false") -> false | _ -> true)

let set_checks b = checks := b
let checks_enabled () = !checks

let create ?(mode = Fast) ~size () =
  {
    mode;
    data = Bytes.make size '\000';
    size;
    line_states =
      (if mode = Crash_safe then Array.make ((size + line_size - 1) / line_size) clean
       else [||]);
    dirty = [||];
    n_dirty = 0;
    stripe_dirty = [||];
    pool = [||];
    n_pool = 0;
    fences = 0;
    need = 0;
    need_prev = 0;
    dirty_after_fence = 0;
    dead_lines = Hashtbl.create 4;
    crash_dirty = Hashtbl.create 64;
    faults = zero_faults;
  }

let mode t = t.mode
let size t = t.size

let push_dirty t li =
  if t.n_dirty = Array.length t.dirty then begin
    let grown = Array.make (max 64 (2 * t.n_dirty)) 0 in
    Array.blit t.dirty 0 grown 0 t.n_dirty;
    t.dirty <- grown
  end;
  t.dirty.(t.n_dirty) <- li;
  t.n_dirty <- t.n_dirty + 1

let pool_limit t = min pool_cap (max t.need t.need_prev)

(* A line turned clean: keep its record for reuse if the pool has room. *)
let release t st =
  if t.n_pool < pool_limit t then begin
    st.states <- st.base;
    if t.n_pool = Array.length t.pool then begin
      let grown = Array.make (min pool_cap (max 64 (2 * t.n_pool))) clean in
      Array.blit t.pool 0 grown 0 t.n_pool;
      t.pool <- grown
    end;
    t.pool.(t.n_pool) <- st;
    t.n_pool <- t.n_pool + 1
  end

let fresh_state () =
  let b = Bytes.create default_states_bytes in
  { states = b; base = b; n_snaps = 0; queued = -1 }

(* Record that bytes [off, off+len) were just stored. Must be called
   after the volatile view was updated. In Fast mode this is free. *)
let note_store t ~off ~len =
  if t.mode = Crash_safe && len > 0 then begin
    let first = off / line_size and last = (off + len - 1) / line_size in
    for li = first to last do
      (* [pre_store] has already captured the pre-store baseline, so the
         state must exist; append the after-store state. *)
      let st = t.line_states.(li) in
      assert (st != clean);
      let k = st.n_snaps + 1 in
      let pos = k * line_size in
      if pos + line_size > Bytes.length st.states then begin
        let grown = Bytes.create (2 * Bytes.length st.states) in
        Bytes.blit st.states 0 grown 0 pos;
        st.states <- grown
      end;
      Bytes.blit t.data (li * line_size) st.states pos line_size;
      st.n_snaps <- k
    done
  end

(* Stripe identity of the current domain while striping is active. A
   plain domain-local: each pool task announces its stripe once via
   [set_stripe] before touching the region. *)
let stripe_key = Domain.DLS.new_key (fun () -> 0)

(* Capture the pre-store persisted baseline for lines about to be
   stored for the first time since they were last clean. Must be called
   BEFORE mutating the volatile view.

   During striped execution the newly-dirty line number goes to the
   calling stripe's private list (and [n_dirty] is deferred to
   [end_stripes]), and the line's record is freshly allocated rather
   than taken from the shared pool, so concurrent stripes never contend
   on shared bookkeeping. Distinct stripes touch disjoint line sets —
   that is the caller's eligibility contract — so [line_states] element
   writes are race-free, and per-line state mutation
   ([note_store]/[flush]) stays confined to the one stripe that owns
   the line. *)
let pre_store t ~off ~len =
  if t.mode = Crash_safe && len > 0 then begin
    let first = off / line_size and last = (off + len - 1) / line_size in
    for li = first to last do
      if t.line_states.(li) == clean then begin
        let striped = Array.length t.stripe_dirty > 0 in
        let st =
          if striped || t.n_pool = 0 then fresh_state ()
          else begin
            t.n_pool <- t.n_pool - 1;
            let st = t.pool.(t.n_pool) in
            t.pool.(t.n_pool) <- clean;
            st
          end
        in
        Bytes.blit t.data (li * line_size) st.states 0 line_size;
        st.n_snaps <- 0;
        st.queued <- -1;
        t.line_states.(li) <- st;
        if not striped then push_dirty t li
        else begin
          let s = Domain.DLS.get stripe_key in
          t.stripe_dirty.(s) <- li :: t.stripe_dirty.(s)
        end
      end
    done
  end

(* Striped dirty tracking: NVTraverse-style quiescence — per-stripe
   dirty sets during a wide phase, unioned at the join barrier. Only
   meaningful in Crash_safe mode; a Fast region makes all three no-ops.
   [fence]/[crash]/inspection must not run between [begin_stripes] and
   [end_stripes] (they would miss the striped lines). The merged order
   differs from serial execution's, which is unobservable: every
   consumer either sorts ([sorted_dirty], [crash], [unpersisted_ranges])
   or is per-line commutative ([fence]). *)
let begin_stripes t ~n =
  if t.mode = Crash_safe then t.stripe_dirty <- Array.make (max 1 n) []

let set_stripe t s = if t.mode = Crash_safe then Domain.DLS.set stripe_key s

let end_stripes t =
  if Array.length t.stripe_dirty > 0 then begin
    Array.iter (List.iter (push_dirty t)) t.stripe_dirty;
    t.stripe_dirty <- [||]
  end

let check_bounds t off len =
  if off < 0 || len < 0 || off + len > t.size then
    invalid_arg
      (Printf.sprintf "Pmem: range [%d, %d) out of bounds (size %d)" off (off + len) t.size)

let get_i64 t off =
  if !checks then begin
    assert (off land 7 = 0);
    check_bounds t off 8
  end;
  Bytes.get_int64_le t.data off

let set_i64 t off v =
  if !checks then begin
    assert (off land 7 = 0);
    check_bounds t off 8
  end;
  pre_store t ~off ~len:8;
  Bytes.set_int64_le t.data off v;
  note_store t ~off ~len:8

let get_i32 t off =
  if !checks then begin
    assert (off land 3 = 0);
    check_bounds t off 4
  end;
  Bytes.get_int32_le t.data off

let set_i32 t off v =
  if !checks then begin
    assert (off land 3 = 0);
    check_bounds t off 4
  end;
  pre_store t ~off ~len:4;
  Bytes.set_int32_le t.data off v;
  note_store t ~off ~len:4

let get_u8 t off =
  if !checks then check_bounds t off 1;
  Char.code (Bytes.get t.data off)

let set_u8 t off v =
  if !checks then check_bounds t off 1;
  pre_store t ~off ~len:1;
  Bytes.set t.data off (Char.chr (v land 0xFF));
  note_store t ~off ~len:1

let read_bytes t ~off ~len =
  if !checks then check_bounds t off len;
  Bytes.sub t.data off len

let blit_to t ~src ~src_off ~dst_off ~len =
  if !checks then check_bounds t dst_off len;
  pre_store t ~off:dst_off ~len;
  Bytes.blit src src_off t.data dst_off len;
  note_store t ~off:dst_off ~len

let write_bytes t ~off b = blit_to t ~src:b ~src_off:0 ~dst_off:off ~len:(Bytes.length b)

let blit_from t ~src_off ~dst ~dst_off ~len =
  if !checks then check_bounds t src_off len;
  Bytes.blit t.data src_off dst dst_off len

let crc32c t ~off ~len =
  if !checks then check_bounds t off len;
  Nv_util.Crc32c.bytes t.data off len

let fill t ~off ~len c =
  if !checks then check_bounds t off len;
  pre_store t ~off ~len;
  Bytes.fill t.data off len c;
  note_store t ~off ~len

(* The clwb capture is the line's newest state (see the invariant on
   [line_state]), so remembering its index is enough. *)
let flush ?(charge = true) t stats ~off ~len =
  if len > 0 then begin
    if !checks then check_bounds t off len;
    let first = off / line_size and last = (off + len - 1) / line_size in
    for li = first to last do
      if charge then Stats.flush stats;
      if t.mode = Crash_safe then begin
        let st = t.line_states.(li) in
        (* clean line: clwb is a no-op *)
        if st != clean then st.queued <- st.n_snaps
      end
    done
  end

external get64 : bytes -> int -> int64 = "%caml_bytes_get64"

(* Whether the volatile line equals state [k]; unboxed word compares. *)
let volatile_is_state t li st k =
  let base = li * line_size and sbase = k * line_size in
  let i = ref 0 in
  while !i < line_size && get64 t.data (base + !i) = get64 st.states (sbase + !i) do
    i := !i + 8
  done;
  !i = line_size

(* A fence that leaves the dirty array under a quarter full shrinks it,
   but never below this many entries: only the array a burst (a bulk
   load) grew is given back. *)
let dirty_keep = 1 lsl 16

let fence t stats =
  Stats.fence stats;
  if t.mode = Crash_safe then begin
    t.need <- max t.need (t.n_dirty - t.dirty_after_fence);
    t.fences <- t.fences + 1;
    if t.fences mod need_window = 0 then begin
      t.need_prev <- t.need;
      t.need <- 0
    end;
    let kept = ref 0 in
    for i = 0 to t.n_dirty - 1 do
      let li = t.dirty.(i) in
      let st = t.line_states.(li) in
      let k = st.queued in
      if k >= 0 && k = st.n_snaps && volatile_is_state t li st k then begin
        (* Every store was captured and none followed (the volatile view
           still is the captured state): the line is clean. *)
        t.line_states.(li) <- clean;
        release t st
      end
      else begin
        if k >= 0 then begin
          (* The captured state k is now durable: states older than it
             can no longer surface in a crash, so drop them by moving
             state k and every newer one to the front. *)
          if k > 0 then
            Bytes.blit st.states (k * line_size) st.states 0
              ((st.n_snaps - k + 1) * line_size);
          st.n_snaps <- st.n_snaps - k;
          st.queued <- -1
        end;
        t.dirty.(!kept) <- li;
        incr kept
      end
    done;
    t.n_dirty <- !kept;
    t.dirty_after_fence <- !kept;
    let limit = pool_limit t in
    if t.n_pool > limit then begin
      Array.fill t.pool limit (t.n_pool - limit) clean;
      t.n_pool <- limit
    end;
    let cap = Array.length t.dirty in
    if cap > dirty_keep && t.n_dirty < cap / 4 then
      t.dirty <- Array.sub t.dirty 0 (max dirty_keep (2 * t.n_dirty))
  end

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

let apply_crash_choice t li st idx =
  Bytes.blit st.states (idx * line_size) t.data (li * line_size) line_size

(* Remember which lines were in flight when the machine died —
   accumulated across crashes so a crash during recovery keeps the
   evidence of the original one. Recovery's scrub consults this to tell
   legitimate epoch turnover (a stale version whose value bytes were
   being overwritten) apart from media damage to cold data. *)
let finish_crash t =
  for i = 0 to t.n_dirty - 1 do
    let li = t.dirty.(i) in
    Hashtbl.replace t.crash_dirty li ();
    release t t.line_states.(li);
    t.line_states.(li) <- clean
  done;
  t.n_dirty <- 0;
  t.dirty_after_fence <- 0

(* Dirty line numbers in ascending order. *)
let sorted_dirty t =
  let a = Array.sub t.dirty 0 t.n_dirty in
  Array.sort Int.compare a;
  a

let require_crash_safe t =
  if t.mode <> Crash_safe then invalid_arg "Pmem.crash: region is in Fast mode"

let crash_with t ~choose =
  require_crash_safe t;
  (* Iterate in sorted line order so the callback sees a deterministic
     sequence regardless of store order. *)
  Array.iter
    (fun li ->
      let st = t.line_states.(li) in
      let options = 1 + st.n_snaps in
      let idx = choose ~line:li ~options in
      assert (idx >= 0 && idx < options);
      apply_crash_choice t li st idx)
    (sorted_dirty t);
  finish_crash t

let crash t ~rng = crash_with t ~choose:(fun ~line:_ ~options -> Nv_util.Rng.int rng options)

let crash_all_persisted t = crash_with t ~choose:(fun ~line:_ ~options -> options - 1)

(* ------------------------------------------------------------------ *)
(* Media-fault injection.

   These entry points produce *illegal* crash images — states the
   prefix-consistency contract above can never yield — modelling torn
   multi-line persists, bit-rot in cold media, and dead lines. The
   checksummed layout in {!Nv_storage} exists to detect exactly these
   states; see docs/FAULTS.md for the taxonomy. *)

(* Compose a torn line: each naturally-aligned 8-byte word independently
   picks one of the line's states (persisted baseline or any store
   snapshot). Word granularity respects the 8-byte power-fail store
   atomicity of real hardware, so single-word structures survive whole
   while anything larger can surface impossible mixes. *)
let torn_mix t rng li st =
  let options = 1 + st.n_snaps in
  for w = 0 to (line_size / 8) - 1 do
    let src = Nv_util.Rng.int rng options in
    Bytes.blit st.states ((src * line_size) + (w * 8)) t.data ((li * line_size) + (w * 8)) 8
  done

let flip_bit t ~bit_off =
  let off = bit_off / 8 in
  let mask = 1 lsl (bit_off mod 8) in
  Bytes.set t.data off (Char.chr (Char.code (Bytes.get t.data off) lxor mask))

(* Flip random bits in up to [lines] randomly chosen *clean* (persisted)
   lines. Returns (lines hit, bits flipped). *)
let inject_bit_rot t ~rng ~lines ~max_bits =
  let n_lines = t.size / line_size in
  let hit = ref 0 and flipped = ref 0 in
  for _ = 1 to lines do
    let li = Nv_util.Rng.int rng n_lines in
    if t.mode <> Crash_safe || t.line_states.(li) == clean then begin
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
    if
      (not (Hashtbl.mem t.dead_lines li))
      && (t.mode <> Crash_safe || t.line_states.(li) == clean)
    then begin
      Hashtbl.add t.dead_lines li ();
      Bytes.fill t.data (li * line_size) line_size '\xFF';
      incr killed
    end
  done;
  t.faults <- { t.faults with dead_lines = t.faults.dead_lines + !killed };
  !killed

let crash_with_faults t ~rng ~model =
  require_crash_safe t;
  let torn = ref 0 in
  Array.iter
    (fun li ->
      let st = t.line_states.(li) in
      let options = 1 + st.n_snaps in
      if options > 1 && Nv_util.Rng.float rng < model.torn_frac then begin
        incr torn;
        torn_mix t rng li st
      end
      else apply_crash_choice t li st (Nv_util.Rng.int rng options))
    (sorted_dirty t);
  finish_crash t;
  t.faults <- { t.faults with torn_lines = t.faults.torn_lines + !torn };
  if model.rot_lines > 0 then
    ignore (inject_bit_rot t ~rng ~lines:model.rot_lines ~max_bits:model.rot_max_bits);
  if model.dead > 0 then ignore (kill_lines t ~rng ~n:model.dead);
  t.faults

(* Deterministic corruption of an exact byte range (testing aid): xor
   every byte with [mask]. Only meaningful on clean lines (e.g. a
   post-crash image), since it bypasses persistence tracking. *)
let corrupt_range t ~off ~len ~mask =
  check_bounds t off len;
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

let dirty_line_count t = t.n_dirty

let unpersisted_ranges t =
  Array.fold_right (fun li acc -> (li * line_size, line_size) :: acc) (sorted_dirty t) []
