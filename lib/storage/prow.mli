(** Persistent row codec (paper Figure 3 and sections 4.5, 5.3).

    A persistent row is a fixed-size record in NVMM holding the row key,
    a dual-version header, and an inline heap for small values:

    {v
    off  0  key        (int64)
    off  8  table id   (int32)
    off 12  flags      (int32)
    off 16  v1.sid     (int64)   v1 = stale / older checkpointed version
    off 24  v1.ptr     (Vptr)
    off 32  v2.sid     (int64)   v2 = most recent version
    off 40  v2.ptr     (Vptr)
    off 48  id crc32c  (int32)   over bytes 0..15 (key, table, flags)
    off 52  v1 crc32c  (int32)   over (v1.sid, v1.ptr, crc32c(v1 value))
    off 56  v2 crc32c  (int32)   over (v2.sid, v2.ptr, crc32c(v2 value))
    off 60  reserved   (28 bytes)
    off 88  inline heap (row_size - 88 bytes)
    v}

    The three checksum words make media corruption (bit-rot, torn
    multi-line persists, dead lines) detectable by the scrub pass of
    recovery; they live in the header's cache line, are maintained
    transparently by every version update, and are computed host-side
    (modelled as controller ECC — no simulated cost; docs/FAULTS.md).
    A slot's crc has no slot identity folded in, so [gc_move] carries
    v2's stored word to v1 unchanged.

    Both version slots live in the first CPU cache line, and every
    version update stores the SID strictly before the pointer, which is
    what lets recovery disambiguate the three torn-update cases of
    section 4.5. The invariant maintained by the engine is
    [v1.sid < v2.sid] whenever both versions exist; SID 0 means empty.

    The inline heap is split into two halves so the two versions can
    each inline a value without moving bytes when versions rotate:
    with the default 256-byte row the heap is 168 bytes, matching the
    paper, and each half holds values up to 84 bytes.

    Charging: reads/writes of the version header charge one NVMM block;
    inline values charge only the blocks not already covered by the
    header access, so a fully-inline row costs exactly one block per
    access — the locality benefit section 6.4 measures. *)

type version = { sid : int64; ptr : int64 }
(** A version slot's two media words as stored. Recovery and scrub
    judge torn and corrupt headers on these exact words; the engine's
    DRAM mirror holds them as an int SID and a {!Vptr.t}
    ([Int64.to_int sid], [Vptr.of_word ptr]). *)

val header_bytes : int
(** 88. *)

val inline_heap_bytes : row_size:int -> int
val half_capacity : row_size:int -> int
(** Max value length each inline half can hold. *)

val inline_half_off : row_size:int -> half:int -> int
(** Heap offset of half 0 or 1. *)

val min_row_size : int
(** Smallest legal row size (header plus a non-empty heap). *)

(** {1 Row lifecycle} *)

val init :
  Nv_nvmm.Pmem.t -> Nv_nvmm.Stats.t -> base:int -> key:int64 -> table:int -> unit
(** Initialize a freshly-allocated row: set key/table, clear both
    versions. Charges one block write and flushes the header line. *)

(** {1 Header access} *)

val read_header :
  Nv_nvmm.Pmem.t -> Nv_nvmm.Stats.t -> base:int -> int64 * int * version * version
(** [key, table, v1, v2], charging one block read. *)

val peek_versions : Nv_nvmm.Pmem.t -> base:int -> version * version
(** Uncharged versions read — for tests, assertions and code paths that
    already paid for the header block. *)

val peek_key : Nv_nvmm.Pmem.t -> base:int -> int64
val peek_table : Nv_nvmm.Pmem.t -> base:int -> int

(** {1 Version updates}

    Each of these writes the SID before the pointer and flushes the
    header line. [charge] (default true) bills one block write; pass
    false when the caller is coalescing several header stores into one
    row update (e.g. a minor-GC move followed by the final write). *)

val set_version :
  Nv_nvmm.Pmem.t ->
  Nv_nvmm.Stats.t ->
  base:int ->
  slot:[ `V1 | `V2 ] ->
  sid:int ->
  ptr:Vptr.t ->
  ?charge:bool ->
  unit ->
  unit

val write_version :
  Nv_nvmm.Pmem.t ->
  Nv_nvmm.Stats.t ->
  base:int ->
  slot:[ `V1 | `V2 ] ->
  sid:int ->
  ptr:Vptr.t ->
  vcrc:int ->
  ?charge:bool ->
  unit ->
  unit
(** [set_version] where [vcrc] is the crc32c of the value [ptr] refers
    to (as {!Nv_util.Crc32c.bytes_native} gives it), taken by the
    caller from the bytes it just stored, so the value is not read back
    to checksum it. *)

val set_version_ptr :
  Nv_nvmm.Pmem.t ->
  Nv_nvmm.Stats.t ->
  base:int ->
  slot:[ `V1 | `V2 ] ->
  ptr:Vptr.t ->
  ?charge:bool ->
  unit ->
  unit
(** Pointer-only fix-up (recovery torn-case repair). *)

val gc_move :
  Nv_nvmm.Pmem.t -> Nv_nvmm.Stats.t -> base:int -> ?charge:bool -> unit -> unit
(** The collector step both GCs share: copy v2 into v1 (SID first), then
    null v2 (SID first). Afterwards v1 holds the most recent
    checkpointed version and v2 is free. *)

(** {1 Recovery repair and scrub verification} *)

val repair_case1 :
  Nv_nvmm.Pmem.t -> Nv_nvmm.Stats.t -> base:int -> ?charge:bool -> unit -> unit
(** Finish a torn [gc_move] ([v1.sid = v2.sid <> 0]): v1 adopts v2's
    pointer and checksum word, v2 is nulled. Idempotent. *)

val repair_case2 :
  Nv_nvmm.Pmem.t -> Nv_nvmm.Stats.t -> base:int -> ?charge:bool -> unit -> unit
(** Null a pointer whose SID was already nulled (torn null). *)

type slot_check =
  | Slot_ok
  | Slot_stale_crc  (** empty slot whose crc word went stale (torn null) *)
  | Slot_corrupt

val check_id : Nv_nvmm.Pmem.t -> base:int -> bool
(** Verify the key/table/flags checksum (host-side, uncharged). *)

val check_slot : Nv_nvmm.Pmem.t -> base:int -> slot:[ `V1 | `V2 ] -> slot_check
(** Verify one version slot against its checksum word, including the
    value bytes it points to (host-side, uncharged; a pointer leading
    out of bounds counts as corrupt rather than raising). *)

val rewrite_slot_crc : Nv_nvmm.Pmem.t -> Nv_nvmm.Stats.t -> base:int -> slot:[ `V1 | `V2 ] -> unit
(** Recompute and persist a slot's checksum word from its current
    content (scrub normalization of [Slot_stale_crc]). *)

val value_in_crash_turnover : Nv_nvmm.Pmem.t -> base:int -> Vptr.t -> bool
(** Whether the pointer's value bytes overlap lines that were dirty at
    the crash — the crashed epoch was legitimately overwriting them
    (half or pool-slot reuse), so a checksum mismatch on a {e stale}
    version referencing them is epoch turnover, not media damage. *)

val value_crc : Nv_nvmm.Pmem.t -> base:int -> Vptr.t -> int32
(** crc32c of the value a pointer refers to (0 for null). May raise
    [Invalid_argument] if the pointer is corrupt. *)

(** {1 Values} *)

val write_inline_value :
  Nv_nvmm.Pmem.t ->
  Nv_nvmm.Stats.t ->
  base:int ->
  row_size:int ->
  half:int ->
  data:bytes ->
  ?charge:bool ->
  unit ->
  Vptr.t
(** Store [data] into inline half [half], flush it, and return the
    pointer to record. Charges only blocks beyond the header block. *)

val write_inline_value_from :
  Nv_nvmm.Pmem.t ->
  Nv_nvmm.Stats.t ->
  base:int ->
  row_size:int ->
  half:int ->
  src:bytes ->
  src_off:int ->
  len:int ->
  ?charge:bool ->
  unit ->
  Vptr.t
(** [write_inline_value] of [src.[src_off .. src_off+len-1]]. *)

val read_value :
  Nv_nvmm.Pmem.t ->
  Nv_nvmm.Stats.t ->
  base:int ->
  Vptr.t ->
  ?header_charged:bool ->
  unit ->
  bytes
(** Fetch the value bytes for a pointer. Inline values charge only
    blocks beyond the header block when [header_charged] (default
    true); pool values charge their full range. Raises [Invalid_argument]
    on [Null]. *)

val read_value_into :
  Nv_nvmm.Pmem.t ->
  Nv_nvmm.Stats.t ->
  base:int ->
  Vptr.t ->
  ?header_charged:bool ->
  dst:bytes ->
  dst_off:int ->
  unit ->
  unit
(** [read_value] into [dst] at [dst_off] ([Vptr.len] bytes), charging
    exactly as [read_value] does, without allocating a copy. *)
