type t = int

(* Epochs stay below 2^30, so an SID never reaches bit 62 (the sign
   bit of a native int): it is non-negative and its 64-bit media form
   [Int64.of_int] is the same word the int64 encoding produced. *)
let max_epoch = (1 lsl 30) - 1

let make ~epoch ~seq =
  assert (epoch >= 1 && epoch <= max_epoch && seq >= 0 && seq < 1 lsl 32);
  (epoch lsl 32) lor (seq + 1)

let epoch_of t = t lsr 32
let seq_of t = (t land 0xFFFFFFFF) - 1
let none = 0
let is_none t = t = 0
let compare = Int.compare
let pp ppf t = Format.fprintf ppf "%d.%d" (epoch_of t) (seq_of t)
