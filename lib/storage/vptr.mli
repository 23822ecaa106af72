(** Persistent value pointers.

    A version slot in a persistent row holds a serial ID and a value
    pointer. The pointer is a single 64-bit word (so it can be updated
    with one atomic store, which the recovery protocol relies on) that
    encodes where the value bytes live:

    - [Null] — no value;
    - [Inline of {heap_off; len}] — inside the row's inline heap, at
      byte offset [heap_off] from the heap start;
    - [Pool of {off; len}] — at absolute pmem offset [off] in the
      persistent value pool.

    Layout: bit 0 tags inline pointers. Inline: bits 1–21 heap offset,
    bits 22–43 length. Pool: bits 1–42 offset/2 (pool slots are
    256-aligned so offsets are even), bits 43–62 length.

    A pointer is an immediate [int]: pool lengths are capped at
    2{^19} - 1 so bit 62 (a native int's sign bit) stays clear, and the
    persistent row stores the 64-bit word [to_word ptr], the same bytes
    the int64 encoding wrote. *)

type t = int

type classified =
  | Null
  | Inline of { heap_off : int; len : int }
  | Pool of { off : int; len : int }

val null : t
val is_null : t -> bool
val inline : heap_off:int -> len:int -> t
val pool : off:int -> len:int -> t
val classify : t -> classified

val is_inline : t -> bool
val is_pool : t -> bool

val inline_off : t -> int
(** Heap offset of an inline pointer (allocation-free [classify]). *)

val pool_off : t -> int
(** Absolute pmem offset of a pool pointer. *)

val max_pool_len : int

val of_word : int64 -> t
(** Decode a media word. Bits 0..62 carry the whole encoding, so a
    word read back from a row decodes to the pointer stored there;
    bit 63 (never written) is dropped. *)

val to_word : t -> int64

val len : t -> int
(** Value length; 0 for [Null]. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
