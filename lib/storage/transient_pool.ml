module Stats = Nv_nvmm.Stats
module Memspec = Nv_nvmm.Memspec

(* Each core's arena is a directory of byte chunks that never move: a
   value is written once into the current chunk and stays at that
   address until the epoch-end reset. The directory has a fixed number of
   entries and is never reallocated; chunk [k] holds
   [base lsl min k grow_steps] bytes (or one oversized value), so a
   core can bump through far more than one epoch ever writes.

   A vref is an immediate int: len (bits 0-19), offset in its chunk
   (20-43), chunk (44-53), core (54-61). *)
type vref = int

let max_chunks = 1 lsl 10
let grow_steps = 8
let max_len = (1 lsl 20) - 1

type arena = {
  dir : bytes array; (* [max_chunks] entries; [Bytes.empty] until first use *)
  mutable cur : int; (* chunk being filled *)
  mutable pos : int; (* next free byte in it *)
  mutable used : int; (* bytes bumped this epoch (8-aligned per value) *)
}

type t = { arenas : arena array; base : int; mutable peak : int }

let create ~cores ~initial_capacity =
  assert (cores < 1 lsl 8 && initial_capacity > 0 && initial_capacity lsl grow_steps <= 1 lsl 24);
  {
    arenas =
      Array.init cores (fun _ ->
          { dir = Array.make max_chunks Bytes.empty; cur = 0; pos = 0; used = 0 });
    base = initial_capacity;
    peak = 0;
  }

let len v = v land max_len
let off v = (v lsr 20) land 0xFFFFFF
let chunk_of v = (v lsr 44) land 0x3FF
let core_of v = v lsr 54
let src t v = t.arenas.(core_of v).dir.(chunk_of v)

let used_bytes t = Array.fold_left (fun acc a -> acc + a.used) 0 t.arenas

(* Usage only ever grows between resets, so sampling at serial points
   (metric gauges, mem reports, the epoch-end reset) sees the true
   high-water mark; nothing is summed across arenas on the per-write
   hot path, where other cores' [used] fields would race. *)
let peak_bytes t = max t.peak (used_bytes t)

(* Make room for [len] bytes at [a.pos] of chunk [a.cur], moving to the
   next chunk (allocated on first use) when the current one is full. *)
let ensure t a len =
  if a.pos + len > Bytes.length a.dir.(a.cur) then begin
    if Bytes.length a.dir.(a.cur) > 0 then a.cur <- a.cur + 1;
    if a.cur >= max_chunks then failwith "Transient_pool: arena directory exhausted";
    if Bytes.length a.dir.(a.cur) < len then
      a.dir.(a.cur) <- Bytes.create (max len (t.base lsl min a.cur grow_steps));
    a.pos <- 0
  end

let lines stats len = Memspec.lines_touched (Stats.spec stats) ~off:0 ~len

let alloc t ~core ~len =
  assert (len >= 0 && len <= max_len);
  let a = t.arenas.(core) in
  ensure t a len;
  let o = a.pos in
  let aligned = (len + 7) land lnot 7 in
  a.pos <- a.pos + aligned;
  a.used <- a.used + aligned;
  len lor (o lsl 20) lor (a.cur lsl 44) lor (core lsl 54)

let write_from t stats ?(charge = true) ~core ~len fill =
  let v = alloc t ~core ~len in
  fill (src t v) (off v);
  if charge then Stats.dram_write_lines stats (lines stats len);
  v

let write t stats ?(charge = true) ~core data =
  let len = Bytes.length data in
  let v = alloc t ~core ~len in
  Bytes.blit data 0 (src t v) (off v) len;
  if charge then Stats.dram_write_lines stats (lines stats len);
  v

let charge_read stats v = Stats.dram_read_lines stats (lines stats (len v))

let read t stats ?(charge = true) v =
  if charge then charge_read stats v;
  Bytes.sub (src t v) (off v) (len v)


let reset t =
  t.peak <- peak_bytes t;
  Array.iter
    (fun a ->
      a.cur <- 0;
      a.pos <- 0;
      a.used <- 0)
    t.arenas
