module Stats = Nv_nvmm.Stats
module Memspec = Nv_nvmm.Memspec

(* The arena is a directory of byte chunks that never move: a value is
   written once into the current chunk and stays at that address until
   the epoch-end reset. The directory has a fixed number of entries and
   is never reallocated; chunk [k] holds [base lsl min k grow_steps]
   bytes (or one oversized value), so the arena can bump through far
   more than one epoch ever writes.

   A vref is an immediate int: len (bits 0-19), offset in its chunk
   (20-43), chunk (44-53). *)
type vref = int

let max_chunks = 1 lsl 10
let grow_steps = 8
let max_len = (1 lsl 20) - 1

type t = {
  dir : bytes array; (* [max_chunks] entries; [Bytes.empty] until first use *)
  base : int;
  mutable cur : int; (* chunk being filled *)
  mutable pos : int; (* next free byte in it *)
  mutable used : int; (* bytes bumped this epoch (8-aligned per value) *)
  mutable peak : int;
}

let create ~initial_capacity =
  assert (initial_capacity > 0 && initial_capacity lsl grow_steps <= 1 lsl 24);
  {
    dir = Array.make max_chunks Bytes.empty;
    base = initial_capacity;
    cur = 0;
    pos = 0;
    used = 0;
    peak = 0;
  }

let len v = v land max_len
let off v = (v lsr 20) land 0xFFFFFF
let src t v = t.dir.(v lsr 44)
let used_bytes t = t.used
let peak_bytes t = max t.peak t.used

(* Make room for [len] bytes at [t.pos] of chunk [t.cur], moving to the
   next chunk (allocated on first use) when the current one is full. *)
let ensure t len =
  if t.pos + len > Bytes.length t.dir.(t.cur) then begin
    if Bytes.length t.dir.(t.cur) > 0 then t.cur <- t.cur + 1;
    if t.cur >= max_chunks then failwith "Transient_pool: arena directory exhausted";
    if Bytes.length t.dir.(t.cur) < len then
      t.dir.(t.cur) <- Bytes.create (max len (t.base lsl min t.cur grow_steps));
    t.pos <- 0
  end

let lines stats len = Memspec.lines_touched (Stats.spec stats) ~off:0 ~len

let alloc t ~len =
  assert (len >= 0 && len <= max_len);
  ensure t len;
  let o = t.pos in
  let aligned = (len + 7) land lnot 7 in
  t.pos <- t.pos + aligned;
  t.used <- t.used + aligned;
  len lor (o lsl 20) lor (t.cur lsl 44)

let write_from t stats ?(charge = true) ~len fill =
  let v = alloc t ~len in
  fill (src t v) (off v);
  if charge then Stats.dram_write_lines stats (lines stats len);
  v

let write t stats ?(charge = true) data =
  let len = Bytes.length data in
  let v = alloc t ~len in
  Bytes.blit data 0 (src t v) (off v) len;
  if charge then Stats.dram_write_lines stats (lines stats len);
  v

let charge_read stats v = Stats.dram_read_lines stats (lines stats (len v))

let read t stats ?(charge = true) v =
  if charge then charge_read stats v;
  Bytes.sub (src t v) (off v) (len v)

let reset t =
  t.peak <- peak_bytes t;
  t.cur <- 0;
  t.pos <- 0;
  t.used <- 0
