module Stats = Nv_nvmm.Stats

(* Every version array of an epoch lives in one flat store: parallel
   slot columns (sid, value, write time) and per-array descriptors
   (start, capacity, length, finalized), all immediates in arrays that
   outlive the epoch. [reset] empties the store at epoch end, so a
   steady-state epoch allocates nothing here. An array that outgrows
   its capacity moves to the end of the slot columns (its old slots are
   dead until the reset); the store only grows and moves during the
   serial initialization phases, never while transactions execute. *)

type t = int

let pending = -1
let ignored = -2
let tombstone = -3
let is_written v = v >= 0

type store = {
  nvmm_resident : bool;
  batch_append : bool;
  mutable sids : int array;
  mutable vals : int array;
  mutable times : Float.Array.t;
  mutable used : int; (* slot columns in use *)
  mutable start : int array;
  mutable cap : int array;
  mutable len : int array;
  mutable fin : Bytes.t; (* finalized flag per array *)
  mutable count : int; (* arrays in use *)
}

let create_store ~nvmm_resident ?(batch_append = false) () =
  {
    nvmm_resident;
    batch_append;
    sids = Array.make 1024 0;
    vals = Array.make 1024 0;
    times = Float.Array.make 1024 0.0;
    used = 0;
    start = Array.make 256 0;
    cap = Array.make 256 0;
    len = Array.make 256 0;
    fin = Bytes.make 256 '\000';
    count = 0;
  }

let reset s =
  s.used <- 0;
  s.count <- 0

let grow_int a n = if n <= Array.length a then a else Array.append a (Array.make (max n (Array.length a)) 0)

let create s =
  let h = s.count in
  if h >= Array.length s.start then begin
    let n = h + 1 in
    s.start <- grow_int s.start n;
    s.cap <- grow_int s.cap n;
    s.len <- grow_int s.len n;
    s.fin <- Bytes.extend s.fin 0 (Array.length s.start - Bytes.length s.fin)
  end;
  s.start.(h) <- s.used;
  s.cap.(h) <- 0;
  s.len.(h) <- 0;
  Bytes.set s.fin h '\000';
  s.count <- h + 1;
  h

let length s h = s.len.(h)
let finalized s h = Bytes.get s.fin h <> '\000'
let set_finalized s h = Bytes.set s.fin h '\001'

(* Slot accessors: [i] is an absolute slot index, stable from the end
   of the initialization phases to the reset. *)
let sid s i = s.sids.(i)
let value s i = s.vals.(i)
let set_value s i v = s.vals.(i) <- v

let resolve s i ~value stats =
  s.vals.(i) <- value;
  Stats.save_now stats s.times i

let advance_to_write s i stats = Stats.set_now_saved stats s.times i

(* Charge [units] structure touches: DRAM cache lines normally, NVMM
   blocks for the all-NVMM baseline. *)
let charge s stats ~write units =
  if units > 0 then
    if s.nvmm_resident then
      (* NVMM-resident arrays: slot lines are hot within the epoch, so
         traffic coalesces; charge at line granularity. *)
      if write then Stats.nvmm_write_lines stats units else Stats.nvmm_read_lines stats units
    else if write then Stats.dram_write_lines stats units
    else Stats.dram_read_lines stats units

(* Index (relative to the array start) of the first slot with
   sid >= key (binary search). *)
let lower_bound s h key =
  let base = s.start.(h) in
  let lo = ref 0 and hi = ref s.len.(h) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Sid.compare s.sids.(base + mid) key < 0 then lo := mid + 1 else hi := mid
  done;
  !lo

(* Room for one more slot: a full array moves to the end of the slot
   columns with twice the capacity (at least 4), growing the columns
   when they are full. *)
let grow s h =
  let n = s.len.(h) in
  if n >= s.cap.(h) then begin
    let ncap = max 4 (s.cap.(h) * 2) in
    let need = s.used + ncap in
    if need > Array.length s.sids then begin
      let size = max need (2 * Array.length s.sids) in
      let extend a = Array.append a (Array.make (size - Array.length a) 0) in
      s.sids <- extend s.sids;
      s.vals <- extend s.vals;
      let times = Float.Array.make size 0.0 in
      Float.Array.blit s.times 0 times 0 s.used;
      s.times <- times
    end;
    let src = s.start.(h) and dst = s.used in
    Array.blit s.sids src s.sids dst n;
    Array.blit s.vals src s.vals dst n;
    Float.Array.blit s.times src s.times dst n;
    s.start.(h) <- dst;
    s.cap.(h) <- ncap;
    s.used <- need
  end

let append s h stats sid =
  grow s h;
  let pos = lower_bound s h sid in
  let base = s.start.(h) and n = s.len.(h) in
  if pos < n && Sid.compare s.sids.(base + pos) sid = 0 then
    invalid_arg "Version_array.append: duplicate SID";
  let shifted = n - pos in
  Array.blit s.sids (base + pos) s.sids (base + pos + 1) shifted;
  Array.blit s.vals (base + pos) s.vals (base + pos + 1) shifted;
  Float.Array.blit s.times (base + pos) s.times (base + pos + 1) shifted;
  s.sids.(base + pos) <- sid;
  s.vals.(base + pos) <- pending;
  Float.Array.set s.times (base + pos) 0.0;
  s.len.(h) <- n + 1;
  let n = n + 1 in
  (* Cost model: concurrent appends binary-search the sorted array
     (log n cache-line touches on a cold, growing array) and displace a
     bounded number of slots (per-core streams are individually
     ordered). Long version arrays of very hot rows therefore slow the
     append step — the section 6.9 effect. (The host-serial simulation
     inserts in SID order, so the actual displacement is usually zero;
     charge the expected cost.) *)
  (if s.batch_append then
     (* Caracal's batch-append optimization: appends accumulate in
        per-core buffers and are merged into the sorted array in one
        pass, so each append costs O(1) regardless of array length. *)
     charge s stats ~write:true 2
   else begin
     let search_lines =
       (* ~log2 n *)
       let rec bits acc n = if n <= 1 then acc else bits (acc + 1) (n / 2) in
       bits 0 (n + 1)
     in
     (* Expected displacement with 8-way out-of-order arrival is a
        fraction of the array. *)
     let displaced_lines = n * 24 / 64 / 4 in
     charge s stats ~write:true (2 + search_lines + displaced_lines)
   end);
  Stats.compute stats ()

(* Absolute index of the slot holding [sid], or -1. *)
let locate s h sid =
  let pos = lower_bound s h sid in
  if pos < s.len.(h) && Sid.compare s.sids.(s.start.(h) + pos) sid = 0 then s.start.(h) + pos
  else -1

let find s h stats sid =
  let i = locate s h sid in
  charge s stats ~write:false 1;
  if i < 0 then raise Not_found else i

(* Scan down from slot [i] (relative) for the first one [stop] accepts
   (-1 if none); a PENDING slot is skipped, or raises when [pending_ok]
   is false. *)
let scan_down s h i ~pending_ok =
  let base = s.start.(h) in
  let i = ref i and found = ref (-1) in
  while !found < 0 && !i >= 0 do
    let v = s.vals.(base + !i) in
    if v = pending && not pending_ok then
      invalid_arg "Version_array.latest_visible: PENDING predecessor (serial order violated)";
    if v = ignored || v = pending then decr i else found := base + !i
  done;
  !found

let latest_visible s h stats ~before =
  let pos = lower_bound s h before in
  charge s stats ~write:false 1;
  scan_down s h (pos - 1) ~pending_ok:false

let latest_resolved s h stats =
  charge s stats ~write:false 1;
  scan_down s h (s.len.(h) - 1) ~pending_ok:true

let max_sid s h = if s.len.(h) = 0 then Sid.none else s.sids.(s.start.(h) + s.len.(h) - 1)

let iter s h f =
  for i = s.start.(h) to s.start.(h) + s.len.(h) - 1 do
    f i
  done
