(* CRC-32C (Castagnoli), the polynomial used by SSE4.2 [crc32] and by
   most storage formats (iSCSI, ext4, Btrfs). On real hardware this is
   one instruction per word, which is why checksum computation is never
   charged to the simulated clock (see docs/FAULTS.md). The host-side
   stand-in is table-driven slicing-by-8: eight bytes per step through
   eight 256-entry tables, on native ints, so the loop allocates
   nothing and the only boxing is the [int32] result.

   The checksum state is kept pre- and post-inverted as usual, so
   [finish (update (init ()) b 0 (Bytes.length b))] matches the
   standard test vectors (crc32c "123456789" = 0xE3069283). *)

let poly = 0x82F63B78 (* reflected 0x1EDC6F41 *)

(* [tables.((k * 256) + n)] is the CRC register after feeding byte [n]
   followed by [k] zero bytes into a zero register; slice 0 is the
   classic byte-at-a-time table. *)
let tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then (!c lsr 1) lxor poly else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xff)
    done
  done;
  t

external get32u : bytes -> int -> int32 = "%caml_bytes_get32u"
external bswap32 : int32 -> int32 = "%bswap_int32"

let[@inline] tbl i = Array.unsafe_get tables i

(* Little-endian u32 at [i], as a native int; no bounds check. *)
let[@inline] le32 buf i =
  let w = get32u buf i in
  Int32.to_int (if Sys.big_endian then bswap32 w else w) land 0xFFFFFFFF

(* One slicing-by-4 step: fold the 32-bit word [w] into register [c]. *)
let[@inline] step4 c w =
  let x = c lxor w in
  tbl (768 + (x land 0xff))
  lxor tbl (512 + ((x lsr 8) land 0xff))
  lxor tbl (256 + ((x lsr 16) land 0xff))
  lxor tbl (x lsr 24)

(* One slicing-by-8 step: register [c] xor the low word [lo], then the
   high word [hi] of the next eight bytes. *)
let[@inline] step8 c lo hi =
  let x = c lxor lo in
  tbl (1792 + (x land 0xff))
  lxor tbl (1536 + ((x lsr 8) land 0xff))
  lxor tbl (1280 + ((x lsr 16) land 0xff))
  lxor tbl (1024 + (x lsr 24))
  lxor tbl (768 + (hi land 0xff))
  lxor tbl (512 + ((hi lsr 8) land 0xff))
  lxor tbl (256 + ((hi lsr 16) land 0xff))
  lxor tbl (hi lsr 24)

let[@inline] step1 c b = tbl ((c lxor b) land 0xff) lxor (c lsr 8)

(* The kernel: register [c] is a native int in [0, 2^32); the caller
   has checked the range. *)
let update_native c buf off len =
  let c = ref c and i = ref off in
  let stop8 = off + (len land lnot 7) in
  while !i < stop8 do
    c := step8 !c (le32 buf !i) (le32 buf (!i + 4));
    i := !i + 8
  done;
  let stop = off + len in
  while !i < stop do
    c := step1 !c (Char.code (Bytes.unsafe_get buf !i));
    i := !i + 1
  done;
  !c

let to_native crc = Int32.to_int crc land 0xFFFFFFFF
let init () = 0xFFFFFFFFl
let finish crc = Int32.logxor crc 0xFFFFFFFFl

let check_range buf off len =
  if off < 0 || len < 0 || off > Bytes.length buf - len then
    invalid_arg
      (Printf.sprintf "Crc32c: range [%d, +%d) outside buffer of %d bytes" off len
         (Bytes.length buf))

let update crc buf off len =
  check_range buf off len;
  Int32.of_int (update_native (to_native crc) buf off len)

(* One-shot forms run init/finish on the native register, so the result
   is the only boxed value. *)
let bytes buf off len =
  check_range buf off len;
  Int32.of_int (update_native 0xFFFFFFFF buf off len lxor 0xFFFFFFFF)

let string s = bytes (Bytes.unsafe_of_string s) 0 (String.length s)

let int64_native c v =
  step8 c (Int64.to_int v land 0xFFFFFFFF) (Int64.to_int (Int64.shift_right_logical v 32))

let int64 crc v = Int32.of_int (int64_native (to_native crc) v)
let int32 crc v = Int32.of_int (step4 (to_native crc) (to_native v))
let int64_crc v = Int32.of_int (int64_native 0xFFFFFFFF v lxor 0xFFFFFFFF)

(* ------------------------------------------------------------------ *)
(* Packed self-checking words.

   A [packed] word stores a value < 2^32 in the low half of an int64
   and crc32c(value_le ++ salt_le) in the high half. The all-zero word
   decodes as value 0, so freshly zeroed NVMM parses as valid empty
   state; any other corruption of either half is detected. *)

(* The word checksum as a native int in [0, 2^32). *)
let mix ~salt v =
  step4 (step4 0xFFFFFFFF (Int64.to_int v land 0xFFFFFFFF)) (salt land 0xFFFFFFFF)
  lxor 0xFFFFFFFF

let pack ?(salt = 0) v =
  if Int64.logand v 0xFFFFFFFF00000000L <> 0L then
    invalid_arg (Printf.sprintf "Crc32c.pack: value %Ld exceeds 32 bits" v);
  if v = 0L then 0L else Int64.logor v (Int64.shift_left (Int64.of_int (mix ~salt v)) 32)

let unpack ?(salt = 0) w =
  if w = 0L then Some 0L
  else
    let v = Int64.logand w 0xFFFFFFFFL in
    if Int64.to_int (Int64.shift_right_logical w 32) = mix ~salt v then Some v else None

let pack_int ?salt v = pack ?salt (Int64.of_int v)

let unpack_int ?salt w =
  match unpack ?salt w with Some v -> Some (Int64.to_int v) | None -> None
