(** Simulated byte-addressable non-volatile main memory.

    The region behaves like Optane in app-direct mode as seen by
    software: ordinary loads and stores hit a volatile (CPU-cached)
    view; a store is guaranteed to survive a crash only once its cache
    line has been written back ([flush], modelling [clwb]) and a fence
    ([fence], modelling [sfence]) has completed. A crash discards every
    store that was not persisted — or, at the simulator's discretion,
    keeps an arbitrary prefix-consistent subset of them, exactly the
    freedom real hardware has (cache lines may be evicted at any time,
    and stores to one line become visible in program order).

    Every region tracks persistence exactly: [crash] replaces the
    volatile view with a legal crash image chosen by an RNG or an
    adversarial callback. A store copies one line into a crash-state
    record and [fence] reads only the slot tables; the record chunks
    are kept across fences up to a decaying high-water mark
    (docs/INTERNALS.md).

    Accessor functions do NOT charge simulated time — charging is
    explicit via [charge_read] / [charge_write] / [charge_seq_write] so
    that composite structures (a 256 B persistent row, a 1 KiB value)
    charge once per logical access, matching how CPU caches coalesce
    same-line traffic. Higher layers ({!Nv_storage}) encapsulate the
    pairing so engine code cannot forget it. *)

type t

val create : size:int -> unit -> t
(** Fresh zeroed region of [size] bytes, every line clean. *)

val of_image : bytes -> t
(** A region holding [image] with every line clean, as a reboot after
    a crash that persisted every store would find it. No line is
    tracked and none counts as dirty at a crash ({!dirty_at_crash}). *)

val size : t -> int

(** {1 Typed volatile-view accessors}

    Offsets are absolute byte offsets into the region. Multi-byte
    accessors use little-endian layout and require natural alignment
    (asserted), which guarantees single-store atomicity as on x86.
    Every accessor checks its range against the region and raises
    [Invalid_argument] with the range on a miss. *)

val get_i64 : t -> int -> int64
val set_i64 : t -> int -> int64 -> unit
val get_i32 : t -> int -> int32
val set_i32 : t -> int -> int32 -> unit

val set_int : t -> int -> int -> unit
(** [set_i64 t off (Int64.of_int v)] without boxing the word. *)

val set_u32 : t -> int -> int -> unit
(** [set_i32 t off (Int32.of_int v)] without boxing the word. *)

val get_u32 : t -> int -> int
(** The 32-bit word at [off] as a non-negative int (no boxing). *)

val copy_i64 : t -> src:int -> dst:int -> unit
(** [set_i64 t dst (get_i64 t src)]: one logged store, no boxing. *)

val copy_i32 : t -> src:int -> dst:int -> unit
(** [set_i32 t dst (get_i32 t src)]: one logged store, no boxing. *)

val get_u8 : t -> int -> int
val set_u8 : t -> int -> int -> unit
val read_bytes : t -> off:int -> len:int -> bytes
val write_bytes : t -> off:int -> bytes -> unit
val blit_to : t -> src:bytes -> src_off:int -> dst_off:int -> len:int -> unit
val blit_from : t -> src_off:int -> dst:bytes -> dst_off:int -> len:int -> unit
val fill : t -> off:int -> len:int -> char -> unit

val crc32c : t -> off:int -> len:int -> int32
(** [Nv_util.Crc32c.bytes] of the volatile view's range, computed in
    place: equal to checksumming [read_bytes t ~off ~len], without the
    copy. Host-side only, like every checksum; charges nothing. *)

val crc32c_native : t -> off:int -> len:int -> int
(** [crc32c] as a non-negative int (no boxing). *)

(** {1 Persistence} *)

val flush : ?charge:bool -> t -> Stats.t -> off:int -> len:int -> unit
(** Write back all cache lines overlapping the range ([clwb] loop).
    Content captured now persists at the next [fence]. [~charge:false]
    skips the per-line {!Stats.flush} charge — used by layouts whose
    physical footprint carries checksum metadata that real hardware
    (the media controller) would write for free, so simulated costs
    stay those of the logical layout. *)

val fence : t -> Stats.t -> unit
(** Store fence: all previously flushed lines become persistent. *)

val persist : t -> Stats.t -> off:int -> len:int -> unit
(** [flush] + [fence]. *)

(** {1 Cost charging} *)

val charge_read : t -> Stats.t -> off:int -> len:int -> unit
val charge_write : t -> Stats.t -> off:int -> len:int -> unit
val charge_seq_write : t -> Stats.t -> bytes:int -> unit

(** {1 Crash simulation} *)

val crash : t -> rng:Nv_util.Rng.t -> unit
(** Replace the volatile view with a random legal crash image: for every
    line, independently choose among its last persisted content and each
    prefix-consistent store snapshot. After [crash] the region is clean
    (volatile = persistent = chosen image), as if remapped at reboot. *)

val crash_with : t -> choose:(line:int -> options:int -> int) -> unit
(** Adversarial crash: for each dirty line (identified by line index),
    [choose ~line ~options] picks which of the [options] states survives;
    [0] is the last persisted content, [options - 1] the newest store. *)

val crash_all_persisted : t -> unit
(** Crash in which every outstanding store happens to have reached the
    media (the weakest adversary). *)

val dirty_line_count : t -> int
(** Number of lines with unpersisted stores (testing aid). *)

val unpersisted_ranges : t -> (int * int) list
(** Sorted [(line_offset, line_size)] list of dirty lines (testing aid). *)

(** {1 Media-fault injection}

    Everything above produces only {e legal} crash images. The entry
    points below inject the failure modes real NVMM adds on top of
    fail-stop — torn multi-line persists, bit-rot in cold media, dead
    lines — which the checksummed layout in [Nv_storage] is designed to
    detect. Fault state is empty unless one of these was called, so
    fault-free runs are byte-for-byte unaffected. See docs/FAULTS.md. *)

type fault_model = {
  torn_frac : float;
      (** probability that a dirty line tears (each aligned 8-byte word
          independently picks one of the line's store states) instead of
          surfacing a legal prefix state *)
  rot_lines : int;  (** number of random cold lines to hit with bit-rot *)
  rot_max_bits : int;  (** 1..n bits flipped per rotted line *)
  dead : int;  (** number of lines that die (reads fault, content all-ones) *)
}

val no_faults : fault_model

type fault_report = {
  torn_lines : int;
  rotted_lines : int;
  flipped_bits : int;
  dead_lines : int;
}

val crash_with_faults : t -> rng:Nv_util.Rng.t -> model:fault_model -> fault_report
(** Crash like {!crash}, except each dirty line tears with probability
    [torn_frac]; then inject bit-rot and dead lines per [model] into the
    resulting (cold) image. Returns the cumulative {!faults} report. *)

val inject_bit_rot : t -> rng:Nv_util.Rng.t -> lines:int -> max_bits:int -> int * int
(** Flip 1..[max_bits] random bits in up to [lines] random clean lines;
    dirty lines are left alone (rot takes time — it hits cold media).
    Returns [(lines_hit, bits_flipped)]. *)

val kill_lines : t -> rng:Nv_util.Rng.t -> n:int -> int
(** Mark up to [n] random clean lines dead: content reads back all-ones
    (a poisoned ECC block) and any charged read overlapping them records
    a media fault in {!Nv_nvmm.Stats}. Dirty lines are skipped, as in
    {!inject_bit_rot}. Returns the number actually killed (already-dead
    and dirty picks don't count). *)

val corrupt_range : t -> off:int -> len:int -> mask:int -> unit
(** Xor every byte of the range with [mask] (deterministic testing aid).
    On a clean line the change is simply there, as bit-rot would be. It
    bypasses store tracking, so on a dirty line it reaches no crash
    state, and no [flush] captures it, before the line's next store:
    until then a [fence] keeps the line dirty unless its volatile
    content is back to its newest state. *)

val faults : t -> fault_report
(** Cumulative faults injected into this region. *)

val faults_injected : t -> bool

val is_dead_line : t -> off:int -> bool
(** Whether the line containing [off] has been killed. *)

val dirty_at_crash : t -> off:int -> len:int -> bool
(** Whether any line of the range was dirty (unflushed stores in
    flight) at a past {!crash}. Accumulated across crashes, so a crash
    in the middle of recovery keeps the original crash's evidence.
    Recovery's scrub uses this to tell a stale version whose value
    bytes were legitimately being overwritten by the crashed epoch —
    lines tear independently, so a torn-back row header can still
    reference them — apart from bit-rot in cold data. False before the
    first crash. *)
