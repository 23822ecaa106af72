(* Major garbage collection (paper sections 4.4, 5.5): collect the
   stale versions left by the previous epoch's writes before this
   epoch's append step runs. Moved verbatim out of the Db monolith; the
   minor collector is not a pass — it is the inline-slot reuse inside
   {!Epoch.do_prow_final_write}. *)

module Pmem = Nv_nvmm.Pmem
module Prow = Nv_storage.Prow
module Vptr = Nv_storage.Vptr
module Slab = Nv_storage.Slab_pool
module Tracer = Nv_obs.Tracer

open Epoch

let major_gc t =
  let n = t.n_gc in
  t.n_gc <- 0;
  if n > 0 then begin
    (* Newest push first, the order the collector has always used. *)
    let queued = t.gc_rows in
    let row_at i = queued.(n - 1 - i) in
    if Array.length t.gc_ptrs < n then t.gc_ptrs <- Array.make (Array.length queued) 0;
    let stale_ptrs = t.gc_ptrs in
    for i = 0 to n - 1 do
      stale_ptrs.(i) <- (row_at i).Row.pv1.Row.pptr
    done;
    let cores = t.config.Config.cores in
    (* Both passes charge item [i] to core [i mod cores] and touch only
       that core's freelist (or row [i]'s own bytes), in list order. The
       dedup table is read-only here. *)
    let collect_frees () =
      (* Make every stale pool value durable in the free list, skipping
         pointers the crashed epoch's GC already freed. *)
      for i = 0 to n - 1 do
        let core = i mod cores in
        let stats = stats_of t core in
        let ptr = stale_ptrs.(i) in
        if Vptr.is_pool ptr then
          Slab.free_gc t.value_pool stats ~core (Vptr.pool_off ptr) ~dedup:t.gc_dedup
      done;
      Slab.persist_gc_tail t.value_pool (stats_of t 0) ~epoch:t.epoch;
      Pmem.fence t.pmem (stats_of t 0);
      hook t Gc_pass1_done
    in
    let rotate_rows () =
      (* Rotate each row so v2 is free for this epoch's write. *)
      for i = 0 to n - 1 do
        let row = row_at i in
        let stats = stats_of t (i mod cores) in
        Prow.gc_move t.pmem stats ~base:row.Row.prow_base ~charge:true ();
        Row.rotate row;
        row.Row.in_gc_list <- false
      done
    in
    if t.config.Config.persistent_index then begin
      (* Lazy (persistent-index) recovery never rebuilds the GC list,
         so a row must never reference a value that is already in the
         free list. Clearing rows BEFORE appending frees guarantees
         that: a crash in between leaks at most one epoch's stale
         values, instead of leaving dangling pointers that a later lazy
         recovery could double-free. *)
      rotate_rows ();
      collect_frees ()
    end
    else begin
      (* Paper order (section 5.5): frees first, made durable via the
         current tail; the recovery scan rebuilds the GC list and the
         dedup set resolves a crash in between. *)
      collect_frees ();
      rotate_rows ()
    end;
    t.m_major_gc <- t.m_major_gc + n;
    Tracer.instant t.tracer ~core:0 ~name:"major-gc rows" ~cat:"gc"
      ~args:[ ("rows", Nv_obs.Jsonx.Int n) ]
      ()
  end
