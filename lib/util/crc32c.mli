(** CRC-32C (Castagnoli) checksums and self-checking packed words.

    Used by the persistent layout ({!Nv_storage}) to make media
    corruption detectable at recovery time. Computation is host-side
    only — on real hardware this is the SSE4.2 [crc32] instruction —
    and is never charged to the simulated clock. The software kernel is
    slicing-by-8 on native ints: no allocation per byte, one boxed
    [int32] per call. *)

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

val pack_int : ?salt:int -> int -> int64
val unpack_int : ?salt:int -> int64 -> int option
