module Pmem = Nv_nvmm.Pmem
module Crc = Nv_util.Crc32c

type t = {
  pmem : Pmem.t;
  meta_off : int;
  ring_off : int;
  capacity : int;
  mutable head : int; (* monotone pop counter *)
  mutable tail : int; (* monotone append counter *)
  mutable allowed_tail : int; (* head may not cross this *)
}

type recovery = { gc_frees : int64 list; meta_salvaged : int; corrupt_entries : int }

(* Meta slot layout (8 bytes each):
   0 head1 | 8 head2 | 16 tail1 | 24 tail2 | 32 current_tail | 40 current_tail_epoch
   Every persistent word — the six meta slots and each ring entry — is a
   crc32c-packed word (Crc32c.pack, role-distinct salts), so bit-rot or
   a torn persist decodes as corruption instead of a plausible offset.
   Pointers must therefore fit in 32 bits, which bounds the simulated
   region at 4 GiB — far above anything the harness configures. *)
let meta_bytes = 48
let ring_bytes ~capacity = capacity * 8

let salt_entry = 0x20
let salt_head = 0x21
let salt_tail = 0x22
let salt_ct = 0x23
let salt_ct_epoch = 0x24

let head_slot t epoch = if epoch land 1 = 1 then t.meta_off else t.meta_off + 8
let tail_slot t epoch = if epoch land 1 = 1 then t.meta_off + 16 else t.meta_off + 24
let current_tail_off t = t.meta_off + 32
let current_tail_epoch_off t = t.meta_off + 40

let create pmem ~meta_off ~ring_off ~capacity =
  assert (meta_off land 7 = 0 && ring_off land 7 = 0 && capacity > 0);
  { pmem; meta_off; ring_off; capacity; head = 0; tail = 0; allowed_tail = 0 }

let length t = t.tail - t.head
let allocatable t = t.allowed_tail - t.head

let entry_off t counter = t.ring_off + (counter mod t.capacity * 8)

let rec alloc t stats =
  if t.head >= t.allowed_tail then -1
  else begin
    let off = entry_off t t.head in
    let lo = Pmem.get_u32 t.pmem off and hi = Pmem.get_u32 t.pmem (off + 4) in
    Pmem.charge_read t.pmem stats ~off ~len:8;
    t.head <- t.head + 1;
    let v = Crc.unpack_halves ~salt:salt_entry ~lo ~hi in
    if v >= 0 then v
    else
      (* Corrupt entry (counted by [recover]): skip it — the slot it
         named is leaked, never double-allocated. *)
      alloc t stats
  end

let free t stats v =
  if t.tail - t.head >= t.capacity then failwith "Freelist.free: ring overflow";
  let off = entry_off t t.tail in
  Pmem.set_i64 t.pmem off (Crc.pack ~salt:salt_entry v);
  (* Appends are sequential; charge at streaming rate and write the line
     back immediately so the entry is durable once the next fence hits. *)
  Pmem.charge_seq_write t.pmem stats ~bytes:8;
  Pmem.flush t.pmem stats ~off ~len:8;
  t.tail <- t.tail + 1

let persist_counter t stats off ~salt v =
  Pmem.set_i64 t.pmem off (Crc.pack_int ~salt v);
  Pmem.charge_write t.pmem stats ~off ~len:8;
  Pmem.flush t.pmem stats ~off ~len:8

let checkpoint t stats ~epoch =
  persist_counter t stats (head_slot t epoch) ~salt:salt_head t.head;
  persist_counter t stats (tail_slot t epoch) ~salt:salt_tail t.tail;
  (* Once this epoch commits, every entry (including this epoch's
     transaction frees) may be reused by the next epoch. *)
  t.allowed_tail <- t.tail

let persist_gc_tail t stats ~epoch =
  (* Order matters: the tail value must hit NVMM before the epoch tag
     that validates it, and the ring entries were already flushed by
     [free]. Both stores share a cache line, so the store-order snapshot
     model preserves "tail before tag". *)
  persist_counter t stats (current_tail_off t) ~salt:salt_ct t.tail;
  persist_counter t stats (current_tail_epoch_off t) ~salt:salt_ct_epoch epoch;
  t.allowed_tail <- t.tail

let iter_entries t ~f =
  for c = t.head to t.tail - 1 do
    match Crc.unpack ~salt:salt_entry (Pmem.get_i64 t.pmem (entry_off t c)) with
    | Some v -> f v
    | None -> () (* corrupt entry: not free, not allocated — leaked *)
  done

let recover t ~last_checkpointed_epoch ~crashed_epoch =
  let lce = last_checkpointed_epoch in
  let salvaged = ref 0 in
  let read off ~salt =
    match Crc.unpack_int ~salt (Pmem.get_i64 t.pmem off) with
    | Some v -> Some v
    | None ->
        incr salvaged;
        None
  in
  let head_w = if lce = 0 then Some 0 else read (head_slot t lce) ~salt:salt_head in
  let tail_w = if lce = 0 then Some 0 else read (tail_slot t lce) ~salt:salt_tail in
  let head, base_tail, reset =
    match (head_w, tail_w) with
    | Some h, Some tl -> (h, tl, false)
    | _ ->
        (* A checkpointed offset is unreadable: restart with an empty
           list. Every recorded free is leaked, but nothing can be
           double-allocated, and frees re-issued by replay simply append
           fresh (checksummed) entries. *)
        (0, 0, true)
  in
  let tail, gc_frees =
    if reset then (base_tail, [])
    else
      match
        ( read (current_tail_epoch_off t) ~salt:salt_ct_epoch,
          read (current_tail_off t) ~salt:salt_ct )
      with
      | Some ct_epoch, Some ct when ct_epoch = crashed_epoch && crashed_epoch > 0 ->
          (* Major GC of the crashed epoch completed pass 1: its frees
             are durable and must not be replayed. *)
          let frees = ref [] in
          for c = base_tail to ct - 1 do
            match Crc.unpack ~salt:salt_entry (Pmem.get_i64 t.pmem (entry_off t c)) with
            | Some v -> frees := v :: !frees
            | None -> () (* counted below; replay re-frees it afresh *)
          done;
          (ct, List.rev !frees)
      | Some _, Some _ -> (base_tail, [])
      | _ ->
          (* Corrupt GC-tail record: fall back to the checkpointed tail.
             Durable GC frees beyond it are dropped from the window, so
             replay's re-frees recreate them exactly once. *)
          (base_tail, [])
  in
  t.head <- head;
  t.tail <- tail;
  t.allowed_tail <- tail;
  (* Count corrupt entries in the live window; [alloc] skips them. *)
  let corrupt = ref 0 in
  for c = head to tail - 1 do
    if Crc.unpack ~salt:salt_entry (Pmem.get_i64 t.pmem (entry_off t c)) = None then incr corrupt
  done;
  { gc_frees; meta_salvaged = !salvaged; corrupt_entries = !corrupt }
