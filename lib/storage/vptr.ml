type t = int

type classified =
  | Null
  | Inline of { heap_off : int; len : int }
  | Pool of { off : int; len : int }

let null = 0
let is_null t = t = 0

let max_inline_off = (1 lsl 21) - 1
let max_inline_len = (1 lsl 22) - 1
let max_pool_off = (1 lsl 42) - 1

(* Pool lengths occupy bits 43..62 of the media word; bit 62 is the
   sign bit of a native int, so lengths stay below 2^19 and every
   pointer is a non-negative int whose [Int64.of_int] is its media
   word. *)
let max_pool_len = (1 lsl 19) - 1

let inline ~heap_off ~len =
  assert (heap_off >= 0 && heap_off <= max_inline_off);
  assert (len > 0 && len <= max_inline_len);
  1 lor (heap_off lsl 1) lor (len lsl 22)

let pool ~off ~len =
  assert (off > 0 && off land 1 = 0 && off / 2 <= max_pool_off);
  assert (len > 0 && len <= max_pool_len);
  ((off / 2) lsl 1) lor (len lsl 43)

let is_inline t = t land 1 = 1
let is_pool t = t <> 0 && t land 1 = 0
let inline_off t = (t lsr 1) land 0x1FFFFF
let pool_off t = 2 * ((t lsr 1) land 0x3FFFFFFFFFF)

let len t =
  if t = 0 then 0 else if t land 1 = 1 then (t lsr 22) land 0x3FFFFF else (t lsr 43) land 0xFFFFF

let classify t =
  if t = 0 then Null
  else if is_inline t then Inline { heap_off = inline_off t; len = len t }
  else Pool { off = pool_off t; len = len t }

let of_word w = Int64.to_int w
let to_word t = Int64.of_int t
let equal = Int.equal

let pp ppf t =
  match classify t with
  | Null -> Format.fprintf ppf "null"
  | Inline { heap_off; len } -> Format.fprintf ppf "inline(+%d,%d)" heap_off len
  | Pool { off; len } -> Format.fprintf ppf "pool(@%d,%d)" off len
