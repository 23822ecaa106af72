module Fnv = Nv_util.Fnv

(* --- Placement and the apply codec ----------------------------------- *)

let owner ~shards ~table ~key = Fnv.combine (Fnv.hash_int64 key) table mod shards

let encode_write ~table ~key data =
  let len = Bytes.length data in
  let b = Bytes.create (16 + len) in
  Bytes.set_int32_le b 0 (Int32.of_int table);
  Bytes.set_int64_le b 4 key;
  Bytes.set_int32_le b 12 (Int32.of_int len);
  Bytes.blit data 0 b 16 len;
  b

let apply_txn ~table ~key data =
  Txn.make ~input:(encode_write ~table ~key data)
    ~write_set:[ Txn.Update { table; key } ]
    (fun ctx -> ctx.Txn.Ctx.write ~table ~key data)

let apply_txn_of_input input =
  let table = Int32.to_int (Bytes.get_int32_le input 0) in
  let key = Bytes.get_int64_le input 4 in
  let len = Int32.to_int (Bytes.get_int32_le input 12) in
  apply_txn ~table ~key (Bytes.sub input 16 len)

type read = { sr_table : int; sr_key : int64; sr_value : bytes option }
type outcome = [ `Committed | `Aborted | `Deferred ]

(* --- The verdict rule -------------------------------------------------

   Aria-style reservations, after Calvin/Aria: each written key records
   the smallest batch index that writes it (user-aborted transactions
   write and reserve nothing); a transaction defers when any key it
   read or wrote carries a smaller reservation. The batch alone decides,
   so every member computes the same vector with no coordination. *)

let verdicts ~(writes : (int * int64) list array) ~(reads : (int * int64) list array)
    ~(user_aborted : bool array) : outcome array =
  let n = Array.length writes in
  let reservations : (int * int64, int) Hashtbl.t = Hashtbl.create (4 * n) in
  for i = 0 to n - 1 do
    if not user_aborted.(i) then
      List.iter
        (fun key ->
          match Hashtbl.find_opt reservations key with
          | Some j when j <= i -> ()
          | Some _ | None -> Hashtbl.replace reservations key i)
        writes.(i)
  done;
  Array.init n (fun i ->
      if user_aborted.(i) then `Aborted
      else
        let earlier key =
          match Hashtbl.find_opt reservations key with Some j -> j < i | None -> false
        in
        if List.exists earlier writes.(i) || List.exists earlier reads.(i) then `Deferred
        else `Committed)

(* --- Buffered execution ----------------------------------------------

   The one execution context of routed mode: writes buffer per
   transaction, reads see the transaction's own buffer first and then
   [resolve], and every key read past the buffer joins the read set the
   verdict rule checks. A user abort discards the buffer; any other
   exception propagates. *)

type run = {
  writes : (int * int64, bytes) Hashtbl.t;
  read_set : (int * int64, unit) Hashtbl.t;
  user_aborted : bool;
}

let unsupported () = invalid_arg "Routed: operation not supported in routed mode"

let execute ~epoch ~seq ~resolve (txn : Txn.t) =
  let writes = Hashtbl.create 8 and read_set = Hashtbl.create 8 in
  let read ~table ~key =
    match Hashtbl.find_opt writes (table, key) with
    | Some v -> Some v
    | None ->
        Hashtbl.replace read_set (table, key) ();
        resolve ~table ~key
  in
  let ctx =
    {
      Txn.Ctx.sid = Sid.make ~epoch ~seq;
      core = 0;
      read;
      write = (fun ~table ~key data -> Hashtbl.replace writes (table, key) data);
      delete = (fun ~table:_ ~key:_ -> unsupported ());
      range_read = (fun ~table:_ ~lo:_ ~hi:_ -> unsupported ());
      max_below = (fun ~table:_ _ -> unsupported ());
      min_above = (fun ~table:_ _ -> unsupported ());
      abort = (fun () -> raise Txn.Aborted);
      compute = (fun ~ops:_ -> ());
      counter_next = (fun ~idx:_ -> unsupported ());
      notes = Hashtbl.create 4;
    }
  in
  match txn.Txn.body ctx with
  | () -> { writes; read_set; user_aborted = false }
  | exception Txn.Aborted ->
      Hashtbl.reset writes;
      { writes; read_set; user_aborted = true }

(* --- Members ----------------------------------------------------------- *)

(* Reconnaissance state between Route and Fence of one epoch. *)
type 'c recon = { rc_epoch : int; rc_calls : 'c array; rc_txns : Txn.t array }

type 'c t = {
  shard_id : int;
  shards : int;
  rebuild : 'c -> Txn.t;
  engine : Engine_intf.packed;
  tables : Table.t list;
  mutable applied : int;
  mutable recon : 'c recon option;
}

let create ~shard_id ~shards ~applied ~rebuild ~engine ~tables =
  if shards <= 0 then invalid_arg "Routed.create: shards must be positive";
  if shard_id < 0 || shard_id >= shards then
    invalid_arg
      (Printf.sprintf "Routed.create: shard_id %d out of range (%d shards)" shard_id shards);
  { shard_id; shards; rebuild; engine; tables; applied; recon = None }

let shard_id t = t.shard_id
let shards t = t.shards
let applied t = t.applied
let engine t = t.engine
let owns t ~table ~key = owner ~shards:t.shards ~table ~key = t.shard_id

let bulk_load t rows =
  let (Engine_intf.Packed ((module E), e)) = t.engine in
  E.bulk_load e (Seq.filter (fun (table, key, _) -> owns t ~table ~key) rows)

let read_committed t ~table ~key =
  let (Engine_intf.Packed ((module E), e)) = t.engine in
  E.read_committed e ~table ~key

(* One hash per committed row, XORed: the combination is order-free and
   member-count-free, so the cluster digest (XOR over all members) is
   the same value however the rows are placed. *)
let digest t =
  let (Engine_intf.Packed ((module E), e)) = t.engine in
  List.fold_left
    (fun acc (tb : Table.t) ->
      let h = ref acc in
      E.iter_committed e ~table:tb.Table.id (fun k v ->
          let row =
            Fnv.combine
              (Fnv.combine (Fnv.hash_int64 k) (Fnv.hash_int tb.Table.id))
              (Fnv.hash_string (Bytes.to_string v))
          in
          h := Int64.logxor !h (Int64.of_int row));
      !h)
    0L t.tables

(* --- Round one: reconnaissance ---------------------------------------

   Discover which owned keys the epoch touches. Two sources: every owned
   key in a declared write set (free), and, for transactions with
   undeclared reads, a speculative execution whose reads answer from
   owned committed state, from the partial merged table (remote, if a
   prior pass surfaced the value), or go unresolved. A transaction whose
   [reads_declared] flag promises its reads stay inside its write set
   never executes here, so declared workloads converge in one pass. An
   unresolved remote read marks the pass incomplete: the body may have
   stopped early (workload bodies fail on missing rows) or branched
   wrong, so the router must route again with a richer table. Every
   exception is swallowed. *)

let recon_pass t ~epoch ~partial txns =
  let touched = Hashtbl.create 64 in
  let complete = ref true in
  let note ~table ~key = if owns t ~table ~key then Hashtbl.replace touched (table, key) () in
  Array.iter
    (fun (txn : Txn.t) ->
      List.iter
        (function
          | Txn.Update { table; key } | Txn.Delete { table; key } -> note ~table ~key
          | Txn.Insert { table; key; _ } -> note ~table ~key)
        txn.Txn.write_set)
    txns;
  let resolve ~table ~key =
    if owns t ~table ~key then begin
      Hashtbl.replace touched (table, key) ();
      read_committed t ~table ~key
    end
    else
      match Hashtbl.find_opt partial (table, key) with
      | Some v -> v
      | None ->
          complete := false;
          None
  in
  Array.iteri
    (fun seq (txn : Txn.t) ->
      if not txn.Txn.reads_declared then
        try ignore (execute ~epoch ~seq ~resolve txn) with _ -> ())
    txns;
  let keys = List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) touched []) in
  ( Array.of_list
      (List.map
         (fun (table, key) ->
           { sr_table = table; sr_key = key; sr_value = read_committed t ~table ~key })
         keys),
    !complete )

let route t ~epoch ~calls ~reads =
  if epoch <> t.applied + 1 then
    failwith
      (Printf.sprintf "Routed.route: epoch gap (routed %d, applied %d)" epoch t.applied);
  let txns =
    match t.recon with
    | Some rc when rc.rc_epoch = epoch -> rc.rc_txns
    | _ ->
        let txns = Array.map t.rebuild calls in
        t.recon <- Some { rc_epoch = epoch; rc_calls = calls; rc_txns = txns };
        txns
  in
  let partial = Hashtbl.create (Array.length reads) in
  Array.iter (fun r -> Hashtbl.replace partial (r.sr_table, r.sr_key) r.sr_value) reads;
  recon_pass t ~epoch ~partial txns

(* --- Round two: fenced execution and the owned apply ------------------

   With the merged read table every read resolves (buffer, then the
   table, then owned committed state); the verdict rule decides each
   transaction's fate, and the committed writes come back sorted. *)

let decide t ~epoch ~reads txns =
  let rtbl = Hashtbl.create 64 in
  Array.iter (fun r -> Hashtbl.replace rtbl (r.sr_table, r.sr_key) r.sr_value) reads;
  let resolve ~table ~key =
    match Hashtbl.find_opt rtbl (table, key) with
    | Some v -> v
    | None ->
        if owns t ~table ~key then read_committed t ~table ~key
        else
          (* A read reached a remote key reconnaissance never saw
             (control flow depended on a remote value). Resolving it
             would need another round; fail loudly rather than
             diverge. docs/CLUSTER.md spells out the static-read-pattern
             requirement this enforces. *)
          failwith
            (Printf.sprintf "Shard %d: unresolved remote read (table %d, key %Ld) at fence %d"
               t.shard_id table key epoch)
  in
  let runs = Array.mapi (fun seq txn -> execute ~epoch ~seq ~resolve txn) txns in
  let keys h = Hashtbl.fold (fun k _ acc -> k :: acc) h [] in
  let outcomes =
    verdicts
      ~writes:(Array.map (fun r -> keys r.writes) runs)
      ~reads:(Array.map (fun r -> keys r.read_set) runs)
      ~user_aborted:(Array.map (fun r -> r.user_aborted) runs)
  in
  let decisions = ref [] in
  Array.iteri
    (fun i o ->
      if o = `Committed then
        Hashtbl.iter (fun key data -> decisions := (key, data) :: !decisions) runs.(i).writes)
    outcomes;
  (outcomes, List.sort compare !decisions)

(* Commit this member's slice of the epoch's writes as one blind-write
   batch; it runs even when empty, so every member's engine advances one
   epoch per cluster epoch. *)
let apply t ~epoch decisions =
  let batch =
    Array.of_list
      (List.filter_map
         (fun (((table, key) : int * int64), data) ->
           if owns t ~table ~key then Some (apply_txn ~table ~key data) else None)
         decisions)
  in
  let (Engine_intf.Packed ((module E), e)) = t.engine in
  let _, d = E.run_batch e batch in
  assert (Array.length d = 0);
  t.applied <- epoch;
  t.recon <- None

let fence t ~epoch ~reads ~persist =
  match t.recon with
  | Some rc when rc.rc_epoch = epoch ->
      let outcomes, decisions = decide t ~epoch ~reads rc.rc_txns in
      persist rc.rc_calls;
      apply t ~epoch decisions;
      outcomes
  | Some rc ->
      failwith
        (Printf.sprintf "Routed.fence: fence %d does not match routed epoch %d" epoch
           rc.rc_epoch)
  | None -> failwith (Printf.sprintf "Routed.fence: no reconnaissance state for epoch %d" epoch)

let replay t ~epoch ~calls ~reads =
  if epoch <> t.applied + 1 then
    failwith
      (Printf.sprintf "Routed.replay: epoch gap (record %d, applied %d)" epoch t.applied);
  let outcomes, decisions = decide t ~epoch ~reads (Array.map t.rebuild calls) in
  apply t ~epoch decisions;
  outcomes

(* --- The router --------------------------------------------------------

   Iterate Route until reconnaissance converges, then Fence everyone
   with the final merged table and check — not decide — that every
   verdict vector is identical. Iteration is needed because a body with
   undeclared reads may stop early (workloads fail on a missing row)
   before touching its later owned keys, so one pass under-discovers.
   Declared-read batches converge in one round, the rest in as many
   rounds as their read-dependency depth (two for every bundled
   workload). *)

type peer = {
  route : read array -> read array * bool;
  fence : read array -> outcome array;
}

let max_recon_rounds = 32

let run_epoch ~epoch peers =
  (* Merge with agreement checking: a member that already applied the
     epoch re-answers with the full historical table, which may overlap
     fresh members' owned answers — duplicates must carry equal
     values. *)
  let merged = Hashtbl.create 64 in
  let merge_answer answer =
    let fresh = ref false in
    Array.iter
      (fun r ->
        match Hashtbl.find_opt merged (r.sr_table, r.sr_key) with
        | None ->
            Hashtbl.replace merged (r.sr_table, r.sr_key) r.sr_value;
            fresh := true
        | Some v ->
            if v <> r.sr_value then
              failwith
                (Printf.sprintf
                   "cluster: shards disagree on read (table %d, key %Ld) at epoch %d"
                   r.sr_table r.sr_key epoch))
      answer;
    !fresh
  in
  let snapshot () =
    Array.of_list
      (List.map
         (fun ((table, key), v) -> { sr_table = table; sr_key = key; sr_value = v })
         (List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) merged [])))
  in
  let rec discover round =
    if round > max_recon_rounds then
      failwith
        (Printf.sprintf "cluster: reconnaissance did not converge at epoch %d" epoch);
    let table = snapshot () in
    let answers = Array.map (fun p -> p.route table) peers in
    let fresh =
      Array.fold_left (fun acc (a, _) -> if merge_answer a then true else acc) false answers
    in
    (* Still-incomplete members with nothing fresh left to feed them
       mean a truly value-dependent remote read; stop iterating and let
       the fence fail loudly on the exact key. *)
    if (not (Array.for_all snd answers)) && fresh then discover (round + 1)
  in
  discover 1;
  let reads = snapshot () in
  let verdicts = Array.map (fun p -> p.fence reads) peers in
  Array.iteri
    (fun i o ->
      if o <> verdicts.(0) then
        failwith
          (Printf.sprintf "cluster: shard %d's verdict vector diverges at epoch %d" i epoch))
    verdicts;
  verdicts.(0)

let exec members ~epoch calls =
  run_epoch ~epoch
    (Array.map
       (fun m ->
         {
           route = (fun reads -> route m ~epoch ~calls ~reads);
           fence = (fun reads -> fence m ~epoch ~reads ~persist:ignore);
         })
       members)
