module Pmem = Nv_nvmm.Pmem
module Stats = Nv_nvmm.Stats
module Memspec = Nv_nvmm.Memspec
module Crc = Nv_util.Crc32c

type version = { sid : int64; ptr : Vptr.t }

let header_bytes = 88
let min_row_size = header_bytes + 8

let inline_heap_bytes ~row_size =
  assert (row_size >= min_row_size);
  row_size - header_bytes

let half_capacity ~row_size = inline_heap_bytes ~row_size / 2

let inline_half_off ~row_size ~half =
  assert (half = 0 || half = 1);
  half * half_capacity ~row_size

let key_off base = base
let table_off base = base + 8
let flags_off base = base + 12
let sid_off base = function `V1 -> base + 16 | `V2 -> base + 32
let ptr_off base = function `V1 -> base + 24 | `V2 -> base + 40
let id_crc_off base = base + 48
let slot_crc_off base = function `V1 -> base + 52 | `V2 -> base + 56
let heap_off base = base + header_bytes

(* The checksum words at 48..59 share the header's cache line(s), so
   flushing the first 64 bytes covers them at no extra clwb for the
   standard 64-aligned row bases. All crc computation is host-side
   (modelled as media/controller ECC) and charges nothing. *)
let flush_header pmem stats ~base = Pmem.flush pmem stats ~off:base ~len:64

let id_crc pmem ~base = Pmem.crc32c pmem ~off:(key_off base) ~len:16

let slot_crc ~sid ~ptr ~vcrc =
  let c = Crc.init () in
  let c = Crc.int64 c sid in
  let c = Crc.int64 c ptr in
  let c = Crc.int32 c vcrc in
  Crc.finish c

let empty_slot_crc = slot_crc ~sid:0L ~ptr:Vptr.null ~vcrc:0l

(* Value checksum for a version pointer, read back from the region's
   volatile view (callers store the value before the version). Null
   pointers checksum as 0. *)
let value_crc pmem ~base ptr =
  match Vptr.classify ptr with
  | Vptr.Null -> 0l
  | Vptr.Inline { heap_off = hoff; len } -> Pmem.crc32c pmem ~off:(heap_off base + hoff) ~len
  | Vptr.Pool { off; len } -> Pmem.crc32c pmem ~off ~len

let store_slot_crc pmem ~base slot ~sid ~ptr =
  Pmem.set_i32 pmem (slot_crc_off base slot) (slot_crc ~sid ~ptr ~vcrc:(value_crc pmem ~base ptr))

let init pmem stats ~base ~key ~table =
  Pmem.set_i64 pmem (key_off base) key;
  Pmem.set_i32 pmem (table_off base) (Int32.of_int table);
  Pmem.set_i32 pmem (flags_off base) 1l;
  Pmem.set_i64 pmem (sid_off base `V1) 0L;
  Pmem.set_i64 pmem (ptr_off base `V1) 0L;
  Pmem.set_i64 pmem (sid_off base `V2) 0L;
  Pmem.set_i64 pmem (ptr_off base `V2) 0L;
  Pmem.set_i32 pmem (id_crc_off base) (id_crc pmem ~base);
  Pmem.set_i32 pmem (slot_crc_off base `V1) empty_slot_crc;
  Pmem.set_i32 pmem (slot_crc_off base `V2) empty_slot_crc;
  Stats.nvmm_write_blocks stats 1;
  flush_header pmem stats ~base

let peek_version pmem ~base slot =
  { sid = Pmem.get_i64 pmem (sid_off base slot); ptr = Pmem.get_i64 pmem (ptr_off base slot) }

let peek_versions pmem ~base = (peek_version pmem ~base `V1, peek_version pmem ~base `V2)
let peek_key pmem ~base = Pmem.get_i64 pmem (key_off base)
let peek_table pmem ~base = Int32.to_int (Pmem.get_i32 pmem (table_off base))

let read_header pmem stats ~base =
  Stats.nvmm_read_blocks stats 1;
  let v1, v2 = peek_versions pmem ~base in
  (peek_key pmem ~base, peek_table pmem ~base, v1, v2)

let set_version pmem stats ~base ~slot ~sid ~ptr ?(charge = true) () =
  (* SID strictly before pointer: recovery relies on this order. *)
  Pmem.set_i64 pmem (sid_off base slot) sid;
  Pmem.set_i64 pmem (ptr_off base slot) ptr;
  store_slot_crc pmem ~base slot ~sid ~ptr;
  if charge then Stats.nvmm_write_blocks stats 1;
  flush_header pmem stats ~base

let set_version_ptr pmem stats ~base ~slot ~ptr ?(charge = true) () =
  Pmem.set_i64 pmem (ptr_off base slot) ptr;
  store_slot_crc pmem ~base slot ~sid:(Pmem.get_i64 pmem (sid_off base slot)) ~ptr;
  if charge then Stats.nvmm_write_blocks stats 1;
  flush_header pmem stats ~base

let gc_move pmem stats ~base ?(charge = true) () =
  let v2 = peek_version pmem ~base `V2 in
  let v2_crc = Pmem.get_i32 pmem (slot_crc_off base `V2) in
  Pmem.set_i64 pmem (sid_off base `V1) v2.sid;
  Pmem.set_i64 pmem (ptr_off base `V1) v2.ptr;
  (* Adopt v2's stored checksum word rather than recomputing: the slot
     crc has no slot identity folded in, so it stays valid across the
     move even if the stored word had itself gone stale. *)
  Pmem.set_i32 pmem (slot_crc_off base `V1) v2_crc;
  Pmem.set_i64 pmem (sid_off base `V2) 0L;
  Pmem.set_i64 pmem (ptr_off base `V2) 0L;
  Pmem.set_i32 pmem (slot_crc_off base `V2) empty_slot_crc;
  if charge then Stats.nvmm_write_blocks stats 1;
  flush_header pmem stats ~base

(* --------------------------------------------------------------- *)
(* Recovery-time torn-update repair (section 4.5).

   Case 1 — [v1.sid = v2.sid ≠ 0]: a [gc_move] persisted its first
   store(s) but not the rest; finish it (v1 adopts v2's pointer and
   checksum word, v2 is nulled). Case 2 — [v2.sid = 0] with a live
   pointer: the null of a gc_move (or a revert) tore between its two
   stores; null the pointer. Both are idempotent: re-running after a
   crash mid-repair converges to the same state. *)

let repair_case1 pmem stats ~base ?(charge = true) () =
  let v1 = peek_version pmem ~base `V1 in
  let v2 = peek_version pmem ~base `V2 in
  if v1.ptr <> v2.ptr then begin
    Pmem.set_i64 pmem (ptr_off base `V1) v2.ptr;
    Pmem.set_i32 pmem (slot_crc_off base `V1) (Pmem.get_i32 pmem (slot_crc_off base `V2));
    if charge then Stats.nvmm_write_blocks stats 1;
    flush_header pmem stats ~base
  end
  else
    (* Pointer already copied before the crash; adopt the checksum word
       (host-side store, persisted by the flush below). *)
    Pmem.set_i32 pmem (slot_crc_off base `V1) (Pmem.get_i32 pmem (slot_crc_off base `V2));
  set_version pmem stats ~base ~slot:`V2 ~sid:0L ~ptr:Vptr.null ~charge ()

let repair_case2 pmem stats ~base ?(charge = true) () =
  set_version_ptr pmem stats ~base ~slot:`V2 ~ptr:Vptr.null ~charge ()

(* --------------------------------------------------------------- *)
(* Scrub-time verification. All checks are host-side and uncharged;
   scrub charges its reads explicitly via [read_value]. *)

type slot_check =
  | Slot_ok
  | Slot_stale_crc  (** empty slot whose crc word went stale (torn null) *)
  | Slot_corrupt

let check_id pmem ~base = Pmem.get_i32 pmem (id_crc_off base) = id_crc pmem ~base

let check_slot pmem ~base ~slot =
  let v = peek_version pmem ~base slot in
  let stored = Pmem.get_i32 pmem (slot_crc_off base slot) in
  if v.sid = 0L && Vptr.classify v.ptr = Vptr.Null then
    if stored = empty_slot_crc then Slot_ok else Slot_stale_crc
  else
    (* A corrupt pointer can point anywhere, including out of bounds. *)
    match value_crc pmem ~base v.ptr with
    | vcrc -> if stored = slot_crc ~sid:v.sid ~ptr:v.ptr ~vcrc then Slot_ok else Slot_corrupt
    | exception Invalid_argument _ -> Slot_corrupt

(* Whether the slot's value bytes overlap lines that were dirty at the
   crash: the crashed epoch was overwriting them (inline-half or pool
   slot reuse after a gc_move freed the old version), and since lines
   tear independently the row header can legally surface a pre-move
   state that still references them. A checksum mismatch on such a
   *stale* version is epoch turnover, not media damage. *)
let value_in_crash_turnover pmem ~base ptr =
  match Vptr.classify ptr with
  | Vptr.Null -> false
  | Vptr.Inline { heap_off = hoff; len } ->
      Pmem.dirty_at_crash pmem ~off:(heap_off base + hoff) ~len
  | Vptr.Pool { off; len } -> Pmem.dirty_at_crash pmem ~off ~len

let rewrite_slot_crc pmem stats ~base ~slot =
  let v = peek_version pmem ~base slot in
  store_slot_crc pmem ~base slot ~sid:v.sid ~ptr:v.ptr;
  flush_header pmem stats ~base

(* Blocks touched by an in-row byte range, excluding the row's first
   block (assumed already charged by the header access). *)
let extra_blocks stats ~base ~off ~len =
  let spec = Stats.spec stats in
  if len <= 0 then 0
  else
    let block = spec.Memspec.nvmm_block in
    let header_block = base / block in
    let first = off / block and last = (off + len - 1) / block in
    let n = last - first + 1 in
    if first = header_block then n - 1 else n

let write_inline_value pmem stats ~base ~row_size ~half ~data ?(charge = true) () =
  let len = Bytes.length data in
  assert (len > 0 && len <= half_capacity ~row_size);
  let hoff = inline_half_off ~row_size ~half in
  let abs = heap_off base + hoff in
  Pmem.blit_to pmem ~src:data ~src_off:0 ~dst_off:abs ~len;
  if charge then Stats.nvmm_write_blocks stats (extra_blocks stats ~base ~off:abs ~len);
  Pmem.flush pmem stats ~off:abs ~len;
  Vptr.inline ~heap_off:hoff ~len

let read_value pmem stats ~base ptr ?(header_charged = true) () =
  match Vptr.classify ptr with
  | Vptr.Null -> invalid_arg "Prow.read_value: null pointer"
  | Vptr.Inline { heap_off = hoff; len } ->
      let abs = heap_off base + hoff in
      let blocks =
        if header_charged then extra_blocks stats ~base ~off:abs ~len
        else Memspec.blocks_touched (Stats.spec stats) ~off:abs ~len
      in
      Stats.nvmm_read_blocks stats blocks;
      Pmem.read_bytes pmem ~off:abs ~len
  | Vptr.Pool { off; len } ->
      Pmem.charge_read pmem stats ~off ~len;
      Pmem.read_bytes pmem ~off ~len
