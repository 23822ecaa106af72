module Layout = Nv_nvmm.Layout

type class_spec = { size : int; pool_spec : Slab_pool.spec }
type spec = { class_specs : class_spec list }

type cls = { size : int; pool : Slab_pool.t; lo : int; hi : int }
type t = { cls : cls list (* ascending by size *) }

let reserve builder ~cores ~slots_per_core ~classes ~freelist_capacity =
  let sorted = List.sort_uniq compare classes in
  assert (sorted <> [] && List.for_all (fun c -> c > 0 && c mod 8 = 0) sorted);
  {
    class_specs =
      List.map
        (fun size ->
          {
            size;
            pool_spec =
              Slab_pool.reserve builder
                ~name:(Printf.sprintf "values%d" size)
                ~cores ~slots_per_core ~slot_size:size ~freelist_capacity;
          })
        sorted;
  }

let attach pmem spec =
  {
    cls =
      List.map
        (fun cs ->
          let pool = Slab_pool.attach pmem cs.pool_spec in
          let lo, hi = Slab_pool.arena_bounds pool in
          { size = cs.size; pool; lo; hi })
        spec.class_specs;
  }

let classes t = List.map (fun c -> c.size) t.cls
let max_value t = List.fold_left (fun acc c -> max acc c.size) 0 t.cls

(* Both lookups run on every value write and free; plain recursion over
   the (short) class list allocates nothing. *)
let rec class_in len = function
  | c :: rest -> if len <= c.size then c else class_in len rest
  | [] -> failwith (Printf.sprintf "Value_pools: value of %d bytes exceeds largest class" len)

let class_for t len = class_in len t.cls

let rec owner_in off = function
  | c :: rest -> if off >= c.lo && off < c.hi then c else owner_in off rest
  | [] -> invalid_arg (Printf.sprintf "Value_pools: offset %d not in any class arena" off)

let owner t off = owner_in off t.cls

let debug_live : (int, unit) Hashtbl.t = Hashtbl.create 64
let debug = Sys.getenv_opt "NVDBG" <> None
let debug_reset () = Hashtbl.reset debug_live
let watch = match Sys.getenv_opt "NVDBG_WATCH" with Some s -> int_of_string s | None -> -1

let alloc t stats ~core ~len =
  let off = Slab_pool.alloc (class_for t len).pool stats ~core in
  if debug then begin
    if off = watch then Printf.eprintf "WATCH alloc %d\n%!" off;
    if Hashtbl.mem debug_live off then Printf.eprintf "DOUBLE-ALLOC slot %d\n%!" off;
    Hashtbl.replace debug_live off ()
  end;
  off

let free t stats ~core off =
  if debug then begin
    if off = watch then Printf.eprintf "WATCH free %d\n%!" off;
    if not (Hashtbl.mem debug_live off) then Printf.eprintf "FREE-UNTRACKED slot %d\n%!" off;
    Hashtbl.remove debug_live off
  end;
  Slab_pool.free (owner t off).pool stats ~core off

let free_gc t stats ~core off ~dedup =
  if debug && off = watch then
    Printf.eprintf "WATCH free_gc %d (dedup=%b)\n%!" off (Hashtbl.mem dedup (Int64.of_int off));
  Slab_pool.free_gc (owner t off).pool stats ~core off ~dedup

let write_value t stats ?charge ~off ~data () =
  Slab_pool.write_value (owner t off).pool stats ?charge ~off ~data ()

let write_value_from t stats ?charge ~off ~src ~src_off ~len () =
  Slab_pool.write_value_from (owner t off).pool stats ?charge ~off ~src ~src_off ~len ()

let persist_gc_tail t stats ~epoch =
  List.iter (fun c -> Slab_pool.persist_gc_tail c.pool stats ~epoch) t.cls

let checkpoint t stats_of ~epoch =
  List.iter (fun c -> Slab_pool.checkpoint c.pool stats_of ~epoch) t.cls

type recovery = {
  dedup : (int64, unit) Hashtbl.t;
  meta_salvaged : int;
  corrupt_entries : int;
}

let recover t ~last_checkpointed_epoch ~crashed_epoch =
  let dedup = Hashtbl.create 64 in
  let salvaged = ref 0 and corrupt = ref 0 in
  List.iter
    (fun c ->
      (* Value arenas have no per-slot headers to rescan; a salvaged
         bump falls back to Bump's conservative estimate. *)
      let r = Slab_pool.recover c.pool ~last_checkpointed_epoch ~crashed_epoch () in
      salvaged := !salvaged + r.Slab_pool.meta_salvaged;
      corrupt := !corrupt + r.Slab_pool.corrupt_entries;
      Hashtbl.iter (fun k () -> Hashtbl.replace dedup k ()) r.Slab_pool.dedup)
    t.cls;
  { dedup; meta_salvaged = !salvaged; corrupt_entries = !corrupt }

let allocated_bytes t =
  List.fold_left (fun acc c -> acc + (Slab_pool.allocated_slots c.pool * c.size)) 0 t.cls

let nvmm_bytes t = List.fold_left (fun acc c -> acc + Slab_pool.nvmm_bytes c.pool) 0 t.cls

let meta_bytes t =
  List.fold_left
    (fun acc c ->
      acc + Slab_pool.nvmm_bytes c.pool
      - (Slab_pool.capacity_slots c.pool * c.size))
    0 t.cls
