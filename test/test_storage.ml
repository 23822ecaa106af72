(* Storage-layer tests: value pointers, allocators, free lists,
   persistent rows, log region, metadata, transient pool — including
   crash/recovery behaviour of each component in isolation. *)

module Pmem = Nv_nvmm.Pmem
module Stats = Nv_nvmm.Stats
module Memspec = Nv_nvmm.Memspec
module Layout = Nv_nvmm.Layout
module Vptr = Nv_storage.Vptr
module Bump = Nv_storage.Bump
module Freelist = Nv_storage.Freelist
module Prow = Nv_storage.Prow
module Slab = Nv_storage.Slab_pool
module Log = Nv_storage.Log_region
module Meta = Nv_storage.Meta_region
module TP = Nv_storage.Transient_pool

let stats () = Stats.create Memspec.default

(* --- Vptr --- *)

let test_vptr_roundtrip () =
  Alcotest.(check bool) "null" true (Vptr.is_null Vptr.null);
  (match Vptr.classify (Vptr.inline ~heap_off:84 ~len:30) with
  | Vptr.Inline { heap_off; len } ->
      Alcotest.(check int) "inline off" 84 heap_off;
      Alcotest.(check int) "inline len" 30 len
  | _ -> Alcotest.fail "expected inline");
  match Vptr.classify (Vptr.pool ~off:123456 ~len:1000) with
  | Vptr.Pool { off; len } ->
      Alcotest.(check int) "pool off" 123456 off;
      Alcotest.(check int) "pool len" 1000 len
  | _ -> Alcotest.fail "expected pool"

let prop_vptr_inline_roundtrip =
  QCheck.Test.make ~name:"vptr inline roundtrip" ~count:500
    QCheck.(pair (int_range 0 2_000_000) (int_range 1 4_000_000))
    (fun (heap_off, len) ->
      QCheck.assume (heap_off <= 2_097_151 && len <= 4_194_303);
      match Vptr.classify (Vptr.inline ~heap_off ~len) with
      | Vptr.Inline { heap_off = o; len = l } -> o = heap_off && l = len
      | _ -> false)

let prop_vptr_pool_roundtrip =
  QCheck.Test.make ~name:"vptr pool roundtrip" ~count:500
    QCheck.(pair (int_range 1 1_000_000_000) (int_range 1 1_000_000))
    (fun (off, len) ->
      let off = off * 2 in
      QCheck.assume (len <= Vptr.max_pool_len);
      match Vptr.classify (Vptr.pool ~off ~len) with
      | Vptr.Pool { off = o; len = l } -> o = off && l = len
      | _ -> false)

(* --- Bump allocator --- *)

let test_bump_checkpoint_recover () =
  let s = stats () in
  let p = Pmem.create ~size:1024 () in
  let b = Bump.create p ~meta_off:0 ~capacity:100 in
  for _ = 1 to 5 do
    ignore (Bump.alloc b)
  done;
  Bump.checkpoint b s ~epoch:2;
  Pmem.fence p s;
  for _ = 1 to 3 do
    ignore (Bump.alloc b)
  done;
  Alcotest.(check int) "offset advanced" 8 (Bump.offset b);
  (* Crash: uncheckpointed allocations are reverted. *)
  Pmem.crash_all_persisted p;
  ignore (Bump.recover b ~last_checkpointed_epoch:2);
  Alcotest.(check int) "reverted to checkpoint" 5 (Bump.offset b)

let test_bump_parity_slots () =
  let s = stats () in
  let p = Pmem.create ~size:1024 () in
  let b = Bump.create p ~meta_off:0 ~capacity:100 in
  ignore (Bump.alloc b);
  Bump.checkpoint b s ~epoch:1;
  ignore (Bump.alloc b);
  Bump.checkpoint b s ~epoch:2;
  (* Both checkpoints remain readable. *)
  ignore (Bump.recover b ~last_checkpointed_epoch:1);
  Alcotest.(check int) "epoch-1 slot" 1 (Bump.offset b);
  ignore (Bump.recover b ~last_checkpointed_epoch:2);
  Alcotest.(check int) "epoch-2 slot" 2 (Bump.offset b)

let test_bump_capacity () =
  let p = Pmem.create ~size:1024 () in
  let b = Bump.create p ~meta_off:0 ~capacity:2 in
  ignore (Bump.alloc b);
  ignore (Bump.alloc b);
  Alcotest.check_raises "exhausted" (Failure "Bump.alloc: pool capacity exhausted") (fun () ->
      ignore (Bump.alloc b))

(* --- Freelist --- *)

let mk_freelist ?(capacity = 64) () =
  let p = Pmem.create ~size:8192 () in
  (p, Freelist.create p ~meta_off:0 ~ring_off:1024 ~capacity)

let test_freelist_basic () =
  let s = stats () in
  let p, fl = mk_freelist () in
  Alcotest.(check int) "empty" (-1) (Freelist.alloc fl s);
  Freelist.free fl s 111L;
  Freelist.free fl s 222L;
  (* Freed this epoch: not yet allocatable. *)
  Alcotest.(check int) "not allocatable yet" (-1) (Freelist.alloc fl s);
  Freelist.checkpoint fl s ~epoch:2;
  Pmem.fence p s;
  Alcotest.(check int) "fifo 1" 111 (Freelist.alloc fl s);
  Alcotest.(check int) "fifo 2" 222 (Freelist.alloc fl s);
  Alcotest.(check int) "drained" (-1) (Freelist.alloc fl s)

let test_freelist_crash_reverts_txn_frees () =
  let s = stats () in
  let p, fl = mk_freelist () in
  Freelist.free fl s 1L;
  Freelist.checkpoint fl s ~epoch:2;
  Pmem.fence p s;
  (* Epoch 3: free 2L (revertible), alloc 1L. *)
  Freelist.free fl s 2L;
  Alcotest.(check int) "alloc 1" 1 (Freelist.alloc fl s);
  Pmem.crash_all_persisted p;
  let gc = Freelist.recover fl ~last_checkpointed_epoch:2 ~crashed_epoch:3 in
  Alcotest.(check int) "no gc frees" 0 (List.length gc.Freelist.gc_frees);
  (* The free of 2L is gone; the alloc of 1L is undone. *)
  Alcotest.(check int) "1L back" 1 (Freelist.alloc fl s);
  Alcotest.(check int) "2L gone" (-1) (Freelist.alloc fl s)

let test_freelist_gc_tail_survives () =
  let s = stats () in
  let p, fl = mk_freelist () in
  Freelist.checkpoint fl s ~epoch:2;
  Pmem.fence p s;
  (* Epoch 3 GC pass 1: free 7L, 8L, persist the GC tail. *)
  Freelist.free fl s 7L;
  Freelist.free fl s 8L;
  Freelist.persist_gc_tail fl s ~epoch:3;
  Pmem.fence p s;
  (* GC frees are immediately allocatable within the epoch. *)
  Alcotest.(check int) "gc free allocatable" 7 (Freelist.alloc fl s);
  (* Transaction free during execution. *)
  Freelist.free fl s 9L;
  Pmem.crash_all_persisted p;
  let gc = Freelist.recover fl ~last_checkpointed_epoch:2 ~crashed_epoch:3 in
  Alcotest.(check (list int64)) "gc dedup set" [ 7L; 8L ] gc.Freelist.gc_frees;
  (* GC frees survive; the txn free of 9L is reverted; the alloc of 7L
     is reverted (replay will redo it deterministically). *)
  Alcotest.(check int) "7L still there" 7 (Freelist.alloc fl s);
  Alcotest.(check int) "8L still there" 8 (Freelist.alloc fl s);
  Alcotest.(check int) "9L reverted" (-1) (Freelist.alloc fl s)

let test_freelist_gc_tail_stale_epoch_ignored () =
  let s = stats () in
  let p, fl = mk_freelist () in
  Freelist.free fl s 7L;
  Freelist.persist_gc_tail fl s ~epoch:3;
  Freelist.checkpoint fl s ~epoch:3;
  Pmem.fence p s;
  (* Crash in epoch 4 before its GC persisted: epoch-3 current tail must
     not be mistaken for epoch 4's. *)
  Pmem.crash_all_persisted p;
  let gc = Freelist.recover fl ~last_checkpointed_epoch:3 ~crashed_epoch:4 in
  Alcotest.(check int) "no gc frees of epoch 4" 0 (List.length gc.Freelist.gc_frees);
  Alcotest.(check int) "epoch-3 free intact" 7 (Freelist.alloc fl s)

let test_freelist_wraparound () =
  let s = stats () in
  let p, fl = mk_freelist ~capacity:4 () in
  for round = 0 to 9 do
    Freelist.free fl s (Int64.of_int round);
    Freelist.checkpoint fl s ~epoch:(round + 2);
    Pmem.fence p s;
    Alcotest.(check int) (Printf.sprintf "round %d" round) round (Freelist.alloc fl s)
  done

let test_freelist_overflow () =
  let s = stats () in
  let _, fl = mk_freelist ~capacity:2 () in
  Freelist.free fl s 1L;
  Freelist.free fl s 2L;
  Alcotest.check_raises "overflow" (Failure "Freelist.free: ring overflow") (fun () ->
      Freelist.free fl s 3L)

(* --- Persistent rows --- *)

let test_prow_init_and_versions () =
  let s = stats () in
  let p = Pmem.create ~size:4096 () in
  Prow.init p s ~base:256 ~key:77L ~table:3;
  let key, table, v1, v2 = Prow.read_header p s ~base:256 in
  Alcotest.(check int64) "key" 77L key;
  Alcotest.(check int) "table" 3 table;
  Alcotest.(check bool) "versions empty" true (v1.Prow.sid = 0L && v2.Prow.sid = 0L);
  Prow.set_version p s ~base:256 ~slot:`V2 ~sid:5 ~ptr:(Vptr.inline ~heap_off:0 ~len:8) ();
  let _, _, _, v2 = Prow.read_header p s ~base:256 in
  Alcotest.(check int64) "sid set" 5L v2.Prow.sid

(* [Prow.init]'s header bytes, pinned: a digest of 32 initialised rows
   (keys spread over the int64 range, tables 0-5) taken when the header
   was still written field by field. Building it in a scratch buffer
   and storing it with one blit must leave every pmem byte the same. *)
let init_rows p s ~rows ~row_size =
  for r = 0 to rows - 1 do
    let key = Int64.(sub (mul (of_int r) 0x9E3779B97F4A7C15L) 7L) in
    Prow.init p s ~base:(r * row_size) ~key ~table:(r mod 6)
  done

let image p = Pmem.read_bytes p ~off:0 ~len:(Pmem.size p)

let test_prow_header_bytes_pinned () =
  let row_size = 256 and rows = 32 in
  let p = Pmem.create ~size:(rows * row_size) () in
  init_rows p (stats ()) ~rows ~row_size;
  Alcotest.(check string) "header bytes" "b3e7dfccc64f142841612ac3af7a6875"
    (Digest.to_hex (Digest.bytes (image p)))

(* The scratch buffer is per domain: rows initialised on two domains at
   once come out as they do on one. *)
let test_prow_header_scratch_per_domain () =
  let row_size = 256 and rows = 2048 in
  let make () = Pmem.create ~size:(rows * row_size) () in
  let reference = make () in
  init_rows reference (stats ()) ~rows ~row_size;
  let pmems = [ make (); make () ] in
  List.iter Domain.join
    (List.map (fun p -> Domain.spawn (fun () -> init_rows p (stats ()) ~rows ~row_size)) pmems);
  List.iteri
    (fun i p ->
      Alcotest.(check bool) (Printf.sprintf "domain %d image" i) true
        (Bytes.equal (image reference) (image p)))
    pmems

let test_prow_inline_value_roundtrip () =
  let s = stats () in
  let p = Pmem.create ~size:4096 () in
  Prow.init p s ~base:0 ~key:1L ~table:0;
  let data = Bytes.of_string "inline-payload" in
  let ptr = Prow.write_inline_value p s ~base:0 ~row_size:256 ~half:1 ~data () in
  Alcotest.(check string) "roundtrip" "inline-payload"
    (Bytes.to_string (Prow.read_value p s ~base:0 ptr ()))

let test_prow_gc_move () =
  let s = stats () in
  let p = Pmem.create ~size:4096 () in
  Prow.init p s ~base:0 ~key:1L ~table:0;
  let ptr = Vptr.inline ~heap_off:0 ~len:4 in
  Prow.set_version p s ~base:0 ~slot:`V1 ~sid:3 ~ptr:(Vptr.inline ~heap_off:84 ~len:4) ();
  Prow.set_version p s ~base:0 ~slot:`V2 ~sid:9 ~ptr ();
  Prow.gc_move p s ~base:0 ();
  let v1, v2 = Prow.peek_versions p ~base:0 in
  Alcotest.(check int64) "v1 now recent" 9L v1.Prow.sid;
  Alcotest.(check bool) "v1 ptr moved" true (Vptr.equal (Vptr.of_word v1.Prow.ptr) ptr);
  Alcotest.(check int64) "v2 cleared" 0L v2.Prow.sid;
  Alcotest.(check bool) "v2 ptr cleared" true (Vptr.is_null (Vptr.of_word v2.Prow.ptr))

let test_prow_sid_before_pointer_on_crash () =
  (* Crash between the SID store and the pointer store of a version
     update: the image may hold (old sid, old ptr) or (new sid, old
     ptr) or (new sid, new ptr) — never (old sid, new ptr). *)
  let observed_states = Hashtbl.create 4 in
  for seed = 1 to 100 do
    let s = stats () in
    let p = Pmem.create ~size:4096 () in
    Prow.init p s ~base:0 ~key:1L ~table:0;
    Pmem.persist p s ~off:0 ~len:256;
    let new_ptr = Vptr.inline ~heap_off:0 ~len:4 in
    Prow.set_version p s ~base:0 ~slot:`V2 ~sid:9 ~ptr:new_ptr ();
    Pmem.crash p ~rng:(Nv_util.Rng.create seed);
    let _, v2 = Prow.peek_versions p ~base:0 in
    let state =
      match (v2.Prow.sid, Vptr.is_null (Vptr.of_word v2.Prow.ptr)) with
      | 0L, true -> "old-old"
      | 9L, true -> "new-old"
      | 9L, false -> "new-new"
      | _, false -> "OLD-SID-NEW-PTR (ILLEGAL)"
      | _ -> "other"
    in
    Hashtbl.replace observed_states state ();
    Alcotest.(check bool) ("legal state: " ^ state) true (state <> "OLD-SID-NEW-PTR (ILLEGAL)")
  done;
  Alcotest.(check bool) "torn state observed" true (Hashtbl.mem observed_states "new-old")

let test_prow_inline_charge_coalesced () =
  (* A fully-inline row costs exactly one block per read (header plus
     inline value in the same 256-byte block). *)
  let s = stats () in
  let p = Pmem.create ~size:4096 () in
  Prow.init p s ~base:0 ~key:1L ~table:0;
  let data = Bytes.make 64 'x' in
  let ptr = Prow.write_inline_value p s ~base:0 ~row_size:256 ~half:0 ~data () in
  let before = (Stats.counters s).Stats.nvmm_block_reads in
  let _, _, _, _ = Prow.read_header p s ~base:0 in
  let _ = Prow.read_value p s ~base:0 ptr () in
  let after = (Stats.counters s).Stats.nvmm_block_reads in
  Alcotest.(check int) "one block for header+inline value" 1 (after - before)

(* --- Slab pool --- *)

let mk_slab ?(cores = 2) ?(slots = 16) ?(slot_size = 256) () =
  let b = Layout.builder () in
  let spec =
    Slab.reserve b ~name:"t" ~cores ~slots_per_core:slots ~slot_size ~freelist_capacity:32
  in
  let p = Pmem.create ~size:(Layout.total_size b) () in
  (p, Slab.attach p spec)

let test_slab_alloc_unique () =
  let s = stats () in
  let _, pool = mk_slab () in
  let seen = Hashtbl.create 32 in
  for core = 0 to 1 do
    for _ = 1 to 16 do
      let off = Slab.alloc pool s ~core in
      Alcotest.(check bool) "unique" false (Hashtbl.mem seen off);
      Hashtbl.replace seen off ()
    done
  done;
  Alcotest.(check int) "all allocated" 32 (Slab.allocated_slots pool)

let test_slab_free_reuse_after_checkpoint () =
  let s = stats () in
  let p, pool = mk_slab () in
  let a = Slab.alloc pool s ~core:0 in
  Slab.checkpoint pool (fun _ -> s) ~epoch:2;
  Pmem.fence p s;
  Slab.free pool s ~core:0 a;
  (* Same epoch: not reusable. *)
  let b = Slab.alloc pool s ~core:0 in
  Alcotest.(check bool) "no same-epoch reuse" true (b <> a);
  Slab.checkpoint pool (fun _ -> s) ~epoch:3;
  Pmem.fence p s;
  let c = Slab.alloc pool s ~core:0 in
  Alcotest.(check int) "reused next epoch" a c

let test_slab_crash_recovery_allocation_state () =
  let s = stats () in
  let p, pool = mk_slab () in
  let a = Slab.alloc pool s ~core:0 in
  let _b = Slab.alloc pool s ~core:1 in
  Slab.checkpoint pool (fun _ -> s) ~epoch:2;
  Pmem.fence p s;
  (* Epoch 3: more allocations and a free, then crash. *)
  let _c = Slab.alloc pool s ~core:0 in
  Slab.free pool s ~core:0 a;
  Pmem.crash_all_persisted p;
  let r = Slab.recover pool ~last_checkpointed_epoch:2 ~crashed_epoch:3 () in
  Alcotest.(check int) "no gc frees" 0 (Hashtbl.length r.Slab.dedup);
  Alcotest.(check int) "allocation state reverted" 2 (Slab.allocated_slots pool);
  (* [a] remains allocated (its free reverted). *)
  let visited = ref [] in
  Slab.iter_allocated pool ~f:(fun ~base -> visited := base :: !visited);
  Alcotest.(check bool) "a still allocated" true (List.mem a !visited)

let test_slab_value_roundtrip () =
  let s = stats () in
  let _, pool = mk_slab ~slot_size:1024 () in
  let off = Slab.alloc pool s ~core:0 in
  Slab.write_value pool s ~off ~data:(Bytes.of_string "payload") ();
  Alcotest.(check string) "roundtrip" "payload"
    (Bytes.to_string (Slab.read_slot pool s ~off ~len:7))

(* A GC free made durable in the crashed epoch survives recovery: it
   lands in the dedup set (replay must not free it again) and its slot
   is allocatable, while the crashed epoch's allocation reverts. *)
let test_slab_gc_free_survives_crash () =
  let s = stats () in
  let p, pool = mk_slab ~slot_size:1024 () in
  let a = Slab.alloc pool s ~core:0 in
  Slab.checkpoint pool (fun _ -> s) ~epoch:2;
  Pmem.fence p s;
  (* Epoch 3: GC-free [a] durably, then allocate and transaction-free
     another slot. *)
  let b = Slab.alloc pool s ~core:1 in
  Slab.free_gc pool s ~core:0 a ~dedup:(Hashtbl.create 4);
  Slab.persist_gc_tail pool s ~epoch:3;
  Pmem.fence p s;
  Slab.free pool s ~core:1 b;
  Pmem.crash_all_persisted p;
  let r = Slab.recover pool ~last_checkpointed_epoch:2 ~crashed_epoch:3 () in
  Alcotest.(check bool) "gc free in dedup" true (Hashtbl.mem r.Slab.dedup (Int64.of_int a));
  Alcotest.(check int) "crashed allocation reverted" 0 (Slab.allocated_slots pool);
  Alcotest.(check int) "gc-freed slot allocatable" a (Slab.alloc pool s ~core:0)

(* --- Persistent index --- *)

module PIdx = Nv_storage.Pindex

let mk_pindex ?(capacity = 64) () =
  let b = Layout.builder () in
  let r = PIdx.reserve b ~capacity in
  let p = Pmem.create ~size:(Layout.total_size b) () in
  (p, PIdx.attach p r)

let recovered_entries pix s ~crashed_epoch =
  let out = ref [] in
  PIdx.iter_recovered pix s ~crashed_epoch ~f:(fun ~key ~table ~base ->
      out := (key, table, base) :: !out);
  List.sort compare !out

let test_pindex_roundtrip () =
  let s = stats () in
  let _, pix = mk_pindex () in
  PIdx.apply_batch pix s ~epoch:2 ~inserts:[ (1L, 100, 0); (2L, 200, 0); (1L, 300, 1) ]
    ~deletes:[];
  Alcotest.(check int) "live" 3 (PIdx.live_entries pix);
  Alcotest.(check (list (triple int64 int int)))
    "entries (same key, two tables)"
    [ (1L, 0, 100); (1L, 1, 300); (2L, 0, 200) ]
    (recovered_entries pix s ~crashed_epoch:3)

let test_pindex_delete_and_reuse () =
  let s = stats () in
  let _, pix = mk_pindex () in
  PIdx.apply_batch pix s ~epoch:2 ~inserts:[ (1L, 100, 0); (2L, 200, 0) ] ~deletes:[];
  PIdx.apply_batch pix s ~epoch:3 ~inserts:[] ~deletes:[ (1L, 0) ];
  Alcotest.(check (list (triple int64 int int)))
    "deleted" [ (2L, 0, 200) ]
    (recovered_entries pix s ~crashed_epoch:4);
  (* Re-insert reuses the tombstone. *)
  PIdx.apply_batch pix s ~epoch:5 ~inserts:[ (1L, 500, 0) ] ~deletes:[];
  Alcotest.(check (list (triple int64 int int)))
    "reinserted"
    [ (1L, 0, 500); (2L, 0, 200) ]
    (recovered_entries pix s ~crashed_epoch:6)

let test_pindex_crashed_epoch_tags () =
  let s = stats () in
  let _, pix = mk_pindex () in
  PIdx.apply_batch pix s ~epoch:2 ~inserts:[ (1L, 100, 0); (2L, 200, 0) ] ~deletes:[];
  (* Epoch 3 crashes after its batch was applied: its insert must be
     ignored and its delete resurrected. *)
  PIdx.apply_batch pix s ~epoch:3 ~inserts:[ (9L, 900, 0) ] ~deletes:[ (2L, 0) ];
  Alcotest.(check (list (triple int64 int int)))
    "crashed tags resolved"
    [ (1L, 0, 100); (2L, 0, 200) ]
    (recovered_entries pix s ~crashed_epoch:3);
  (* The repair is persistent: a later recovery (different crashed
     epoch) sees the same state. *)
  Alcotest.(check (list (triple int64 int int)))
    "repair persisted"
    [ (1L, 0, 100); (2L, 0, 200) ]
    (recovered_entries pix s ~crashed_epoch:7)

let test_pindex_capacity_guard () =
  let s = stats () in
  let _, pix = mk_pindex ~capacity:8 () in
  Alcotest.check_raises "overload" (Failure "Pindex: capacity exceeded (resize not supported)")
    (fun () ->
      PIdx.apply_batch pix s ~epoch:2
        ~inserts:(List.init 8 (fun i -> (Int64.of_int i, i, 0)))
        ~deletes:[])

let prop_pindex_matches_model =
  QCheck.Test.make ~name:"pindex matches model across epochs" ~count:40
    QCheck.(list (list (pair (int_range 0 40) bool)))
    (fun epochs ->
      let s = stats () in
      let _, pix = mk_pindex ~capacity:256 () in
      let model = Hashtbl.create 64 in
      List.iteri
        (fun e ops ->
          let epoch = e + 2 in
          let delta = Hashtbl.create 16 in
          List.iteri
            (fun i (k, ins) ->
              let k64 = Int64.of_int k in
              if ins then begin
                (* Model the engine's net-delta discipline: insert only
                   keys that do not exist. *)
                if (not (Hashtbl.mem model k64)) && not (Hashtbl.mem delta k64) then begin
                  Hashtbl.replace delta k64 (`Ins (i + 1));
                  Hashtbl.replace model k64 (i + 1)
                end
              end
              else if Hashtbl.mem model k64 then begin
                (match Hashtbl.find_opt delta k64 with
                | Some (`Ins _) -> Hashtbl.remove delta k64
                | _ -> Hashtbl.replace delta k64 `Del);
                Hashtbl.remove model k64
              end)
            ops;
          let inserts = ref [] and deletes = ref [] in
          Hashtbl.iter
            (fun k -> function
              | `Ins b -> inserts := (k, b, 0) :: !inserts
              | `Del -> deletes := (k, 0) :: !deletes)
            delta;
          PIdx.apply_batch pix s ~epoch ~inserts:!inserts ~deletes:!deletes)
        epochs;
      let got = recovered_entries pix s ~crashed_epoch:(List.length epochs + 2) in
      let expect =
        List.sort compare (Hashtbl.fold (fun k b acc -> (k, 0, b) :: acc) model [])
      in
      got = expect)

(* --- Log region --- *)

let mk_log () =
  let b = Layout.builder () in
  let r = Log.reserve b ~capacity_bytes:4096 in
  let p = Pmem.create ~size:(Layout.total_size b) () in
  (p, Log.attach p r)

let test_log_roundtrip () =
  let s = stats () in
  let _, log = mk_log () in
  Log.begin_epoch log s ~epoch:5;
  Log.append log s (Bytes.of_string "txn-one");
  Log.append log s (Bytes.of_string "txn-two");
  Log.commit log s;
  match Log.read_committed log s with
  | Log.Committed (5, [ a; b ]) ->
      Alcotest.(check string) "entry 1" "txn-one" (Bytes.to_string a);
      Alcotest.(check string) "entry 2" "txn-two" (Bytes.to_string b)
  | _ -> Alcotest.fail "expected committed log with 2 entries"

let test_log_uncommitted_invisible () =
  let s = stats () in
  let p, log = mk_log () in
  Log.begin_epoch log s ~epoch:5;
  Log.append log s (Bytes.of_string "lost");
  (* no commit *)
  Pmem.crash_all_persisted p;
  Alcotest.(check bool) "uncommitted log unreadable" true (Log.read_committed log s = Log.Empty)

let test_log_commit_then_crash () =
  let s = stats () in
  let p, log = mk_log () in
  Log.begin_epoch log s ~epoch:6;
  Log.append log s (Bytes.of_string "kept");
  Log.commit log s;
  Pmem.crash_with p ~choose:(fun ~line:_ ~options:_ -> 0);
  (* Commit fenced everything: even the harshest adversary keeps it. *)
  match Log.read_committed log s with
  | Log.Committed (6, [ e ]) -> Alcotest.(check string) "entry" "kept" (Bytes.to_string e)
  | _ -> Alcotest.fail "committed log lost"

let test_log_new_epoch_invalidates () =
  let s = stats () in
  let _, log = mk_log () in
  Log.begin_epoch log s ~epoch:5;
  Log.append log s (Bytes.of_string "old");
  Log.commit log s;
  Log.begin_epoch log s ~epoch:6;
  Alcotest.(check bool) "previous log invalidated" true (Log.read_committed log s = Log.Empty)

(* --- Meta region --- *)

let test_meta_epoch_and_counters () =
  let s = stats () in
  let b = Layout.builder () in
  let r = Meta.reserve b ~n_counters:2 in
  let p = Pmem.create ~size:(Layout.total_size b) () in
  let m = Meta.attach p r ~n_counters:2 in
  Alcotest.(check int) "initial epoch" 0 (Meta.read_epoch m);
  Meta.persist_epoch m s ~epoch:7;
  Alcotest.(check int) "epoch" 7 (Meta.read_epoch m);
  Meta.checkpoint_counters m s ~epoch:7 [| 10L; 20L |];
  Meta.checkpoint_counters m s ~epoch:8 [| 11L; 21L |];
  Alcotest.(check (array int64)) "epoch-7 slot" [| 10L; 20L |]
    (Meta.recover_counters m ~last_checkpointed_epoch:7).Meta.values;
  Alcotest.(check (array int64)) "epoch-8 slot" [| 11L; 21L |]
    (Meta.recover_counters m ~last_checkpointed_epoch:8).Meta.values

(* --- Transient pool --- *)

let test_transient_pool () =
  let s = stats () in
  let tp = TP.create ~initial_capacity:64 in
  let r1 = TP.write tp s (Bytes.of_string "alpha") in
  let r2 = TP.write tp s (Bytes.of_string "beta") in
  Alcotest.(check string) "read r1" "alpha" (Bytes.to_string (TP.read tp s r1));
  Alcotest.(check string) "read r2" "beta" (Bytes.to_string (TP.read tp s r2));
  Alcotest.(check int) "usage tracked, 8-aligned" 16 (TP.used_bytes tp);
  (* Growth beyond the initial capacity; earlier values never move. *)
  let big = TP.write tp s (Bytes.make 1000 'z') in
  Alcotest.(check int) "big value" 1000 (Bytes.length (TP.read tp s big));
  Alcotest.(check string) "r1 after growth" "alpha" (Bytes.to_string (TP.read tp s r1));
  Alcotest.(check int) "usage after growth" 1016 (TP.used_bytes tp);
  let peak = TP.peak_bytes tp in
  TP.reset tp;
  Alcotest.(check int) "reset frees" 0 (TP.used_bytes tp);
  Alcotest.(check int) "peak survives reset" peak (TP.peak_bytes tp)

let suites =
  [
    ( "storage",
      [
        Alcotest.test_case "vptr roundtrip" `Quick test_vptr_roundtrip;
        QCheck_alcotest.to_alcotest prop_vptr_inline_roundtrip;
        QCheck_alcotest.to_alcotest prop_vptr_pool_roundtrip;
        Alcotest.test_case "bump checkpoint/recover" `Quick test_bump_checkpoint_recover;
        Alcotest.test_case "bump parity slots" `Quick test_bump_parity_slots;
        Alcotest.test_case "bump capacity" `Quick test_bump_capacity;
        Alcotest.test_case "freelist basic" `Quick test_freelist_basic;
        Alcotest.test_case "freelist crash reverts" `Quick test_freelist_crash_reverts_txn_frees;
        Alcotest.test_case "freelist gc tail" `Quick test_freelist_gc_tail_survives;
        Alcotest.test_case "freelist stale gc tail" `Quick
          test_freelist_gc_tail_stale_epoch_ignored;
        Alcotest.test_case "freelist wraparound" `Quick test_freelist_wraparound;
        Alcotest.test_case "freelist overflow" `Quick test_freelist_overflow;
        Alcotest.test_case "prow init/versions" `Quick test_prow_init_and_versions;
        Alcotest.test_case "prow header bytes pinned" `Quick test_prow_header_bytes_pinned;
        Alcotest.test_case "prow header scratch per domain" `Quick
          test_prow_header_scratch_per_domain;
        Alcotest.test_case "prow inline value" `Quick test_prow_inline_value_roundtrip;
        Alcotest.test_case "prow gc move" `Quick test_prow_gc_move;
        Alcotest.test_case "prow sid-before-ptr" `Quick test_prow_sid_before_pointer_on_crash;
        Alcotest.test_case "prow inline charge" `Quick test_prow_inline_charge_coalesced;
        Alcotest.test_case "slab unique alloc" `Quick test_slab_alloc_unique;
        Alcotest.test_case "slab free/reuse" `Quick test_slab_free_reuse_after_checkpoint;
        Alcotest.test_case "slab crash recovery" `Quick
          test_slab_crash_recovery_allocation_state;
        Alcotest.test_case "slab value roundtrip" `Quick test_slab_value_roundtrip;
        Alcotest.test_case "slab gc free survives crash" `Quick test_slab_gc_free_survives_crash;
        Alcotest.test_case "pindex roundtrip" `Quick test_pindex_roundtrip;
        Alcotest.test_case "pindex delete/reuse" `Quick test_pindex_delete_and_reuse;
        Alcotest.test_case "pindex crashed tags" `Quick test_pindex_crashed_epoch_tags;
        Alcotest.test_case "pindex capacity" `Quick test_pindex_capacity_guard;
        QCheck_alcotest.to_alcotest prop_pindex_matches_model;
        Alcotest.test_case "log roundtrip" `Quick test_log_roundtrip;
        Alcotest.test_case "log uncommitted" `Quick test_log_uncommitted_invisible;
        Alcotest.test_case "log commit crash" `Quick test_log_commit_then_crash;
        Alcotest.test_case "log invalidation" `Quick test_log_new_epoch_invalidates;
        Alcotest.test_case "meta epoch/counters" `Quick test_meta_epoch_and_counters;
        Alcotest.test_case "transient pool" `Quick test_transient_pool;
      ] );
  ]
