type counters = {
  dram_reads : int;
  dram_writes : int;
  nvmm_block_reads : int;
  nvmm_block_writes : int;
  nvmm_seq_bytes : int;
  flushes : int;
  fences : int;
  compute_ops : int;
  media_faults : int;
}

(* The clock sits alone in a float-only record, which OCaml stores
   unboxed: a charge then updates it in place, with no boxed float and
   no write barrier. *)
type clock = { mutable ns : float }

type t = {
  spec : Memspec.t;
  clock : clock;
  mutable dram_reads : int;
  mutable dram_writes : int;
  mutable nvmm_block_reads : int;
  mutable nvmm_block_writes : int;
  mutable nvmm_seq_bytes : int;
  mutable flushes : int;
  mutable fences : int;
  mutable compute_ops : int;
  mutable media_faults : int;
}

let create spec =
  {
    spec;
    clock = { ns = 0.0 };
    dram_reads = 0;
    dram_writes = 0;
    nvmm_block_reads = 0;
    nvmm_block_writes = 0;
    nvmm_seq_bytes = 0;
    flushes = 0;
    fences = 0;
    compute_ops = 0;
    media_faults = 0;
  }

let spec t = t.spec
let now t = t.clock.ns
let set_now t v = if v > t.clock.ns then t.clock.ns <- v
let advance t ns = t.clock.ns <- t.clock.ns +. ns
let save_now t a i = Float.Array.set a i t.clock.ns
let set_now_saved t a i = set_now t (Float.Array.get a i)

let counters t =
  {
    dram_reads = t.dram_reads;
    dram_writes = t.dram_writes;
    nvmm_block_reads = t.nvmm_block_reads;
    nvmm_block_writes = t.nvmm_block_writes;
    nvmm_seq_bytes = t.nvmm_seq_bytes;
    flushes = t.flushes;
    fences = t.fences;
    compute_ops = t.compute_ops;
    media_faults = t.media_faults;
  }

let dram_read t ?(lines = 1) () =
  t.dram_reads <- t.dram_reads + lines;
  t.clock.ns <- t.clock.ns +. (float_of_int lines *. t.spec.Memspec.dram_read_ns)

let dram_write t ?(lines = 1) () =
  t.dram_writes <- t.dram_writes + lines;
  t.clock.ns <- t.clock.ns +. (float_of_int lines *. t.spec.Memspec.dram_write_ns)

let dram_read_lines t lines = dram_read t ~lines ()
let dram_write_lines t lines = dram_write t ~lines ()

let nvmm_read t ~off ~len =
  let blocks = Memspec.blocks_touched t.spec ~off ~len in
  t.nvmm_block_reads <- t.nvmm_block_reads + blocks;
  t.clock.ns <- t.clock.ns +. (float_of_int blocks *. t.spec.Memspec.nvmm_read_block_ns)

let nvmm_write t ~off ~len =
  let blocks = Memspec.blocks_touched t.spec ~off ~len in
  t.nvmm_block_writes <- t.nvmm_block_writes + blocks;
  t.clock.ns <- t.clock.ns +. (float_of_int blocks *. t.spec.Memspec.nvmm_write_block_ns)

let nvmm_read_blocks t blocks =
  t.nvmm_block_reads <- t.nvmm_block_reads + blocks;
  t.clock.ns <- t.clock.ns +. (float_of_int blocks *. t.spec.Memspec.nvmm_read_block_ns)

let nvmm_write_blocks t blocks =
  t.nvmm_block_writes <- t.nvmm_block_writes + blocks;
  t.clock.ns <- t.clock.ns +. (float_of_int blocks *. t.spec.Memspec.nvmm_write_block_ns)

let nvmm_read_lines t lines =
  t.nvmm_block_reads <- t.nvmm_block_reads + max 1 (lines / 4);
  t.clock.ns <- t.clock.ns +. (float_of_int lines *. t.spec.Memspec.nvmm_read_block_ns /. 4.0)

let nvmm_write_lines t lines =
  t.nvmm_block_writes <- t.nvmm_block_writes + max 1 (lines / 4);
  t.clock.ns <- t.clock.ns +. (float_of_int lines *. t.spec.Memspec.nvmm_write_block_ns /. 4.0)

let nvmm_seq_write t ~bytes =
  t.nvmm_seq_bytes <- t.nvmm_seq_bytes + bytes;
  t.clock.ns <- t.clock.ns +. (float_of_int bytes *. t.spec.Memspec.nvmm_seq_write_ns_per_byte)

(* A detected media fault (dead-line read) is a counter only: detection
   happens inside the media controller, so no extra latency is modelled
   and fault-free runs are numerically unaffected. *)
let media_fault t = t.media_faults <- t.media_faults + 1

let flush t =
  t.flushes <- t.flushes + 1;
  t.clock.ns <- t.clock.ns +. t.spec.Memspec.flush_ns

let fence t =
  t.fences <- t.fences + 1;
  t.clock.ns <- t.clock.ns +. t.spec.Memspec.fence_ns

let compute t ?(ops = 1) () =
  t.compute_ops <- t.compute_ops + ops;
  t.clock.ns <- t.clock.ns +. (float_of_int ops *. t.spec.Memspec.compute_op_ns)

let zero_counters =
  {
    dram_reads = 0;
    dram_writes = 0;
    nvmm_block_reads = 0;
    nvmm_block_writes = 0;
    nvmm_seq_bytes = 0;
    flushes = 0;
    fences = 0;
    compute_ops = 0;
    media_faults = 0;
  }

let merge_counters (a : counters) (b : counters) =
  {
    dram_reads = a.dram_reads + b.dram_reads;
    dram_writes = a.dram_writes + b.dram_writes;
    nvmm_block_reads = a.nvmm_block_reads + b.nvmm_block_reads;
    nvmm_block_writes = a.nvmm_block_writes + b.nvmm_block_writes;
    nvmm_seq_bytes = a.nvmm_seq_bytes + b.nvmm_seq_bytes;
    flushes = a.flushes + b.flushes;
    fences = a.fences + b.fences;
    compute_ops = a.compute_ops + b.compute_ops;
    media_faults = a.media_faults + b.media_faults;
  }

let pp_counters ppf (c : counters) =
  Format.fprintf ppf
    "dram r/w %d/%d  nvmm-blk r/w %d/%d  log %dB  flush %d  fence %d  ops %d" c.dram_reads
    c.dram_writes c.nvmm_block_reads c.nvmm_block_writes c.nvmm_seq_bytes c.flushes c.fences
    c.compute_ops;
  if c.media_faults > 0 then Format.fprintf ppf "  media-faults %d" c.media_faults

let reset t =
  t.clock.ns <- 0.0;
  t.dram_reads <- 0;
  t.dram_writes <- 0;
  t.nvmm_block_reads <- 0;
  t.nvmm_block_writes <- 0;
  t.nvmm_seq_bytes <- 0;
  t.flushes <- 0;
  t.fences <- 0;
  t.compute_ops <- 0;
  t.media_faults <- 0
