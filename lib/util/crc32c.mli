(** CRC-32C (Castagnoli) checksums and self-checking packed words.

    Used by the persistent layout ({!Nv_storage}) to make media
    corruption detectable at recovery time. Computation is host-side
    only and is never charged to the simulated clock.

    Two kernels compute the same function. On an x86-64 CPU with SSE4.2
    the byte kernel is the hardware [crc32] instruction, reached through
    a small C stub and chosen once at startup by CPU feature
    ({!hardware}); there is no knob. Everywhere else it is slicing-by-8
    on native ints, which is also the reference the stub is tested
    against ({!bytes_reference}). Neither allocates per byte; the
    [int32] forms box their result, the [_native] forms do not. *)

val init : unit -> int32

val update : int32 -> bytes -> int -> int -> int32
(** [update crc buf off len] folds [buf.[off .. off+len-1]] into a
    running (pre-inverted) register.
    @raise Invalid_argument if the range is not inside [buf]. *)

val int64 : int32 -> int64 -> int32
val int32 : int32 -> int32 -> int32
val finish : int32 -> int32

val bytes : bytes -> int -> int -> int32
(** One-shot checksum of a byte range.
    @raise Invalid_argument if the range is not inside the buffer. *)

val string : string -> int32
(** [string "123456789" = 0xE3069283l]. *)

val hardware : bool
(** Whether the byte kernel is the CPU's [crc32] instruction. *)

val bytes_reference : bytes -> int -> int -> int32
(** [bytes] computed by the portable software kernel, whatever
    {!hardware} says — the reference for tests and benchmarks. *)

(** {1 Unboxed forms}

    The same checksums on a native-int register in \[0, 2{^32}), for
    hot paths that must not allocate: [finish_native (update_u32
    (update_int init_native a) b)] equals [finish (int32 (int64 (init
    ()) (Int64.of_int a)) (Int32.of_int b))] for non-negative [a]. *)

val bytes_native : bytes -> int -> int -> int
(** [bytes] as a non-negative int. *)

val init_native : int
val update_int : int -> int -> int
(** Fold the 8 little-endian bytes of a non-negative int. *)

val update_u32 : int -> int -> int
(** Fold the 4 little-endian bytes of the low 32 bits. *)

val finish_native : int -> int

val int64_crc : int64 -> int32
(** One-shot checksum of a little-endian 64-bit value. *)

(** {1 Packed self-checking words}

    A packed word holds a value < 2^32 in the low half of an int64 and
    its checksum (salted, so words of different roles cannot be
    confused) in the high half. The all-zero word decodes to value 0 so
    freshly zeroed NVMM parses as valid empty state. *)

val pack : ?salt:int -> int64 -> int64
(** @raise Invalid_argument if the value does not fit in 32 bits. *)

val unpack : ?salt:int -> int64 -> int64 option
(** [None] means the word fails its checksum, i.e. corruption. *)

val unpack_halves : salt:int -> lo:int -> hi:int -> int
(** [unpack] of the word whose low and high 32-bit halves are [lo] and
    [hi] (each in \[0, 2{^32})), as an int: the value, or -1 on
    corruption. Allocation-free. *)

val pack_int : ?salt:int -> int -> int64
val unpack_int : ?salt:int -> int64 -> int option
