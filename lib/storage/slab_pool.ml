module Pmem = Nv_nvmm.Pmem
module Layout = Nv_nvmm.Layout

type core_spec = { arena_off : int; ring_off : int; meta_off : int }

type spec = {
  cores : int;
  slots_per_core : int;
  slot_size : int;
  freelist_capacity : int;
  per_core : core_spec array;
  total_bytes : int;
}

type core_state = { bump : Bump.t; fl : Freelist.t; arena_off : int }
type t = { spec : spec; pmem : Pmem.t; per_core : core_state array }

let reserve builder ~name ~cores ~slots_per_core ~slot_size ~freelist_capacity =
  assert (slot_size mod 8 = 0 && slot_size > 0 && cores > 0);
  let per_core =
    Array.init cores (fun c ->
        let sub n len ?(align = 256) () =
          (Layout.reserve builder ~name:(Printf.sprintf "%s.%d.%s" name c n) ~len ~align ())
            .Layout.off
        in
        let arena_off = sub "arena" (slots_per_core * slot_size) () in
        let ring_off = sub "ring" (Freelist.ring_bytes ~capacity:freelist_capacity) () in
        let meta_off = sub "meta" (Bump.meta_bytes + Freelist.meta_bytes) ~align:64 () in
        { arena_off; ring_off; meta_off })
  in
  let total_bytes =
    cores
    * ((slots_per_core * slot_size)
      + Freelist.ring_bytes ~capacity:freelist_capacity
      + Bump.meta_bytes + Freelist.meta_bytes)
  in
  { cores; slots_per_core; slot_size; freelist_capacity; per_core; total_bytes }

let attach pmem spec =
  let per_core =
    Array.map
      (fun cs ->
        {
          bump = Bump.create pmem ~meta_off:cs.meta_off ~capacity:spec.slots_per_core;
          fl =
            Freelist.create pmem
              ~meta_off:(cs.meta_off + Bump.meta_bytes)
              ~ring_off:cs.ring_off ~capacity:spec.freelist_capacity;
          arena_off = cs.arena_off;
        })
      spec.per_core
  in
  { spec; pmem; per_core }

let slot_size t = t.spec.slot_size
let cores t = t.spec.cores

let alloc t stats ~core =
  let cs = t.per_core.(core) in
  match Freelist.alloc cs.fl stats with
  | -1 ->
      let idx = Bump.alloc cs.bump in
      cs.arena_off + (idx * t.spec.slot_size)
  | off -> off

let free t stats ~core off = Freelist.free t.per_core.(core).fl stats (Int64.of_int off)

let free_gc t stats ~core off ~dedup =
  let p = Int64.of_int off in
  if not (Hashtbl.mem dedup p) then Freelist.free t.per_core.(core).fl stats p

let persist_gc_tail t stats ~epoch =
  Array.iter (fun cs -> Freelist.persist_gc_tail cs.fl stats ~epoch) t.per_core

let checkpoint t stats_of ~epoch =
  Array.iteri
    (fun core cs ->
      let stats = stats_of core in
      Bump.checkpoint cs.bump stats ~epoch;
      Freelist.checkpoint cs.fl stats ~epoch)
    t.per_core

type recovery = {
  dedup : (int64, unit) Hashtbl.t;
  meta_salvaged : int;
  corrupt_entries : int;
}

let recover t ~last_checkpointed_epoch ~crashed_epoch ?(row_scan = false) () =
  let dedup = Hashtbl.create 64 in
  let salvaged = ref 0 and corrupt = ref 0 in
  Array.iter
    (fun cs ->
      (match Bump.recover cs.bump ~last_checkpointed_epoch with
      | `Ok -> ()
      | `Salvaged ->
          incr salvaged;
          if row_scan then begin
            (* Row arenas can do better than Bump's conservative
               fallback: every allocated row was initialized with a
               checksummed key/table header, so the highest slot whose
               identity verifies bounds the true bump offset. *)
            let last_valid = ref (-1) in
            for i = 0 to t.spec.slots_per_core - 1 do
              let base = cs.arena_off + (i * t.spec.slot_size) in
              if Prow.check_id t.pmem ~base then last_valid := i
            done;
            Bump.force_offset cs.bump (!last_valid + 1)
          end);
      let r = Freelist.recover cs.fl ~last_checkpointed_epoch ~crashed_epoch in
      salvaged := !salvaged + r.Freelist.meta_salvaged;
      corrupt := !corrupt + r.Freelist.corrupt_entries;
      List.iter (fun p -> Hashtbl.replace dedup p ()) r.Freelist.gc_frees)
    t.per_core;
  { dedup; meta_salvaged = !salvaged; corrupt_entries = !corrupt }

let write_value_from t stats ?(charge = true) ~off ~src ~src_off ~len () =
  assert (len > 0 && len <= t.spec.slot_size);
  Pmem.blit_to t.pmem ~src ~src_off ~dst_off:off ~len;
  if charge then Pmem.charge_write t.pmem stats ~off ~len;
  Pmem.flush t.pmem stats ~off ~len

let write_value t stats ?charge ~off ~data () =
  write_value_from t stats ?charge ~off ~src:data ~src_off:0 ~len:(Bytes.length data) ()

let read_slot t stats ~off ~len =
  Pmem.charge_read t.pmem stats ~off ~len;
  Pmem.read_bytes t.pmem ~off ~len

let iter_allocated t ~f =
  (* Build the free set from each core's ring window. *)
  let free = Hashtbl.create 256 in
  Array.iter
    (fun cs -> Freelist.iter_entries cs.fl ~f:(fun p -> Hashtbl.replace free p ()))
    t.per_core;
  Array.iter
    (fun cs ->
      let n = Bump.offset cs.bump in
      for i = 0 to n - 1 do
        let base = cs.arena_off + (i * t.spec.slot_size) in
        if not (Hashtbl.mem free (Int64.of_int base)) then f ~base
      done)
    t.per_core

let bumped_slots t = Array.fold_left (fun acc cs -> acc + Bump.offset cs.bump) 0 t.per_core

let capacity_slots t = t.spec.cores * t.spec.slots_per_core

let arena_bounds t =
  let lo =
    Array.fold_left (fun acc cs -> min acc cs.arena_off) max_int t.per_core
  in
  let hi =
    Array.fold_left
      (fun acc cs -> max acc (cs.arena_off + (t.spec.slots_per_core * t.spec.slot_size)))
      0 t.per_core
  in
  (lo, hi)

let free_list_length t =
  Array.fold_left (fun acc cs -> acc + Freelist.length cs.fl) 0 t.per_core

let allocated_slots t = bumped_slots t - free_list_length t
let nvmm_bytes t = t.spec.total_bytes
