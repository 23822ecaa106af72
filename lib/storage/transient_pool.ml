module Stats = Nv_nvmm.Stats
module Memspec = Nv_nvmm.Memspec

(* A vref captures the arena buffer it was written into, not just the
   offset: arenas grow by swapping in a bigger buffer, and when cores
   run on real domains a reader must not chase [arenas.(core).buf]
   while the owning core is mid-swap. The captured buffer keeps the
   value readable either way (growth copies the live prefix). *)
type vref = { buf : bytes; core : int; off : int; len : int }

type arena = { mutable buf : bytes; mutable used : int }
type t = { arenas : arena array; mutable peak : int }

let create ~cores ~initial_capacity =
  {
    arenas = Array.init cores (fun _ -> { buf = Bytes.create initial_capacity; used = 0 });
    peak = 0;
  }

let used_bytes t = Array.fold_left (fun acc a -> acc + a.used) 0 t.arenas

(* Usage only ever grows between resets, so sampling at serial points
   (metric gauges, mem reports, the epoch-end reset) sees the true
   high-water mark; nothing is summed across arenas on the per-write
   hot path, where other cores' [used] fields would race. *)
let peak_bytes t = max t.peak (used_bytes t)

let ensure a len =
  let cap = Bytes.length a.buf in
  if a.used + len > cap then begin
    let ncap = max (cap * 2) (a.used + len) in
    let nb = Bytes.create ncap in
    Bytes.blit a.buf 0 nb 0 a.used;
    a.buf <- nb
  end

let lines stats len = Memspec.lines_touched (Stats.spec stats) ~off:0 ~len

let write_from t stats ?(charge = true) ~core ~len fill =
  let a = t.arenas.(core) in
  ensure a len;
  let off = a.used in
  fill a.buf off;
  a.used <- a.used + ((len + 7) land lnot 7);
  if charge then Stats.dram_write stats ~lines:(lines stats len) ();
  { buf = a.buf; core; off; len }

let write t stats ?charge ~core data =
  let len = Bytes.length data in
  write_from t stats ?charge ~core ~len (fun buf off -> Bytes.blit data 0 buf off len)

let read _t stats ?(charge = true) { buf; off; len; _ } =
  if charge then Stats.dram_read stats ~lines:(lines stats len) ();
  Bytes.sub buf off len

let reset t =
  t.peak <- peak_bytes t;
  Array.iter (fun a -> a.used <- 0) t.arenas
