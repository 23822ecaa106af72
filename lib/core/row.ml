(* DRAM-side row state: what the row index points at (paper Figure 3).

   [pv1]/[pv2] mirror the two NVMM version slots so the hot write path
   can make GC decisions without re-reading the row header (the header
   block is charged once when it is actually written). The mirror is
   rebuilt from the persistent rows during recovery. Each mirror is a
   record of immediates allocated with the row and updated in place, so
   a version update allocates nothing.

   [fresh] marks a pool value slot allocated by this process in the
   current epoch: overwriting it frees the slot (a revertible
   transaction free), whereas overwriting a slot inherited from a
   crashed epoch must NOT free it — its allocation was already reverted
   by the pool recovery, so freeing would double-free. *)

type pversion = { mutable psid : Sid.t; mutable pptr : Nv_storage.Vptr.t; mutable fresh : bool }

type cached = { mutable data : bytes; mutable last_epoch : int; mutable shared : bool }

type t = {
  key : int64;
  table : int;
  home_core : int;  (* core whose pool owns the persistent row *)
  mutable prow_base : int;  (* absolute pmem offset of the persistent row *)
  pv1 : pversion;
  pv2 : pversion;
  mutable varray : Version_array.t;  (* handle into the engine's version store *)
  mutable varray_epoch : int;  (* epoch [varray] belongs to; 0 = none *)
  mutable cached : cached option;
  mutable spare : cached option;
      (* the cache cell the append step consumed this epoch, kept so the
         epoch-final cache fill can reuse its buffer (and the cell
         itself) instead of allocating; dropped at epoch end *)
  mutable in_gc_list : bool;
  mutable mirror_loaded : bool;
      (* pv1/pv2 reflect the NVMM header; false for rows recovered via
         the persistent index, whose state loads lazily on first touch *)
  mutable lazily_recovered : bool;
      (* sticky: this row skipped the recovery scan, so a stale pool v1
         discovered at write time is collected in place instead of by
         the (never-rebuilt) major-GC list *)
  mutable created_epoch : int;
      (* epoch the row was inserted; readers whose serial position
         precedes every version in the array must not fall back to the
         persistent row when the row did not exist before this epoch *)
}

(* A shared empty mirror for comparisons; never stored in a row. *)
let no_version = { psid = Sid.none; pptr = Nv_storage.Vptr.null; fresh = false }

let set_version (v : pversion) ~sid ~ptr ~fresh =
  v.psid <- sid;
  v.pptr <- ptr;
  v.fresh <- fresh

let clear_version v = set_version v ~sid:Sid.none ~ptr:Nv_storage.Vptr.null ~fresh:false

(* The collector step on the mirror: v1 takes v2 (no longer fresh), v2
   empties. *)
let rotate t =
  set_version t.pv1 ~sid:t.pv2.psid ~ptr:t.pv2.pptr ~fresh:false;
  clear_version t.pv2

let make ~key ~table ~home_core ~prow_base ~created_epoch =
  {
    key;
    table;
    home_core;
    prow_base;
    pv1 = { psid = Sid.none; pptr = Nv_storage.Vptr.null; fresh = false };
    pv2 = { psid = Sid.none; pptr = Nv_storage.Vptr.null; fresh = false };
    varray = 0;
    varray_epoch = 0;
    cached = None;
    spare = None;
    in_gc_list = false;
    mirror_loaded = true;
    lazily_recovered = false;
    created_epoch;
  }

(* The inline half a new value may use without clobbering [taken]: the
   other half when [taken] is inline, else half 0. *)
let free_half ~row_size (taken : pversion) =
  if Nv_storage.Vptr.is_inline taken.pptr then
    if Nv_storage.Vptr.inline_off taken.pptr >= Nv_storage.Prow.half_capacity ~row_size then 0
    else 1
  else 0
