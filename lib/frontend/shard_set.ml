module Engine_intf = Nvcaracal.Engine_intf

(* One admitted call, as the batcher hands it over: the session header
   (the exactly-once identity), the framed call bytes, and the already
   built transaction (used directly on the local fast path; the routed
   path rebuilds from bytes on every shard). *)
type call = {
  c_client : int;
  c_seq : int;
  c_proc : string;
  c_args : bytes;
  c_txn : Nvcaracal.Txn.t;
}

type remote = {
  r_shard : int;
  r_shards : int;
  r_address : Address.t;
  r_retry_s : float;
  r_respawn : (unit -> unit) option;
  r_gen : int;
  mutable r_conn : Shard_client.t option;
  mutable r_digest : int64;  (** last Fence_ok digest; the member's oracle share *)
  mutable r_respawns : int;
}

type member = In_process of Shard.t | Remote of remote

type t =
  | Local of { engine : Engine_intf.packed; tables : Nvcaracal.Table.t list }
  | Cluster of cluster

and cluster = { members : member array; mutable epoch : int }

let local ~engine ~tables = Local { engine; tables }

let in_process s = In_process s

let remote ?(retry_timeout_s = 10.0) ?respawn ~gen ~shard ~shards address =
  Remote
    {
      r_shard = shard;
      r_shards = shards;
      r_address = address;
      r_retry_s = retry_timeout_s;
      r_respawn = respawn;
      r_gen = gen;
      r_conn = None;
      r_digest = 0L;
      r_respawns = 0;
    }

let cluster members =
  if Array.length members = 0 then invalid_arg "Shard_set.cluster: no members";
  Cluster { members; epoch = 0 }

let shards = function Local _ -> 1 | Cluster c -> Array.length c.members

(* A routed epoch defers on cross-shard conflicts whatever the members
   run (see {!Nvcaracal.Routed}); a local engine says for itself. *)
let defers = function
  | Local { engine = Engine_intf.Packed ((module E), _); _ } -> E.defers
  | Cluster _ -> true
let local_engine = function Local { engine; _ } -> Some engine | Cluster _ -> None

let epoch = function Local _ -> 0 | Cluster c -> c.epoch

let set_epoch t e =
  match t with
  | Local _ -> invalid_arg "Shard_set.set_epoch: single-shard set has no cluster epoch"
  | Cluster c -> c.epoch <- e

let respawns t =
  match t with
  | Local _ -> 0
  | Cluster c ->
      Array.fold_left
        (fun acc m -> match m with Remote r -> acc + r.r_respawns | In_process _ -> acc)
        0 c.members

(* --- Remote member plumbing ------------------------------------------- *)

let drop_conn r =
  (match r.r_conn with Some c -> Shard_client.close c | None -> ());
  r.r_conn <- None

let conn r ~retry_timeout_s =
  match r.r_conn with
  | Some c -> c
  | None ->
      let c = Shard_client.connect ~retry_timeout_s r.r_address in
      (* The handshake fences older router generations and tells us the
         shard's applied epoch; the idempotent Route/Fence protocol
         makes explicit catch-up logic unnecessary, so the applied
         value is informational here. *)
      let _applied = Shard_client.hello c ~gen:r.r_gen ~shard:r.r_shard ~shards:r.r_shards in
      r.r_conn <- Some c;
      c

(* Drive one request against a remote member, surviving crashes: a
   [Down] drops the connection, asks the supervisor to respawn the
   process (after the first plain reconnect attempt), and retries — the
   shard plane is idempotent, so re-asking is always safe. That first
   reconnect is a single dial with no retry window: a live shard that
   only lost its connection answers at once, and a dead one is
   respawned without waiting the window out. *)
let with_remote r f =
  let rec go attempts =
    let retry_timeout_s = if attempts = 1 then 0.0 else r.r_retry_s in
    match f (conn r ~retry_timeout_s) with
    | v -> v
    | exception Shard_client.Down msg ->
        drop_conn r;
        if attempts >= 5 then
          failwith (Printf.sprintf "shard %d unreachable: %s" r.r_shard msg)
        else begin
          (* First failure: maybe just a dropped connection — reconnect.
             Still down after that: the process is gone; respawn it. *)
          (if attempts >= 1 then
             match r.r_respawn with
             | Some f ->
                 f ();
                 r.r_respawns <- r.r_respawns + 1
             | None -> ());
          go (attempts + 1)
        end
  in
  go 0

let member_route m ~epoch ~calls ~reads =
  match m with
  | In_process s -> Shard.route s ~epoch ~calls ~reads
  | Remote r -> with_remote r (fun c -> Shard_client.route c ~epoch ~calls ~reads)

(* A fence can land on a member that restarted after Route and so lost
   its reconnaissance state (a [Failure], not a [Down]: the shard is up
   and talking). Re-route it with the final merged table — idempotent —
   and fence again. *)
let member_fence m ~epoch ~calls ~reads =
  match m with
  | In_process s -> Shard.fence s ~epoch ~reads
  | Remote r ->
      let rec go attempts =
        match with_remote r (fun c -> Shard_client.fence c ~epoch ~reads) with
        | v -> v
        | exception Failure msg when attempts < 3 ->
            ignore msg;
            ignore (with_remote r (fun c -> Shard_client.route c ~epoch ~calls ~reads));
            go (attempts + 1)
      in
      go 0

(* --- Execution --------------------------------------------------------- *)

let exec_local engine calls =
  let (Engine_intf.Packed ((module E), db)) = engine in
  let _stats, _deferred = E.run_batch db (Array.map (fun c -> c.c_txn) calls) in
  E.last_batch_outcomes db

(* One routed epoch: the {!Nvcaracal.Routed.run_epoch} router loop over
   this set's members. Each remote member's Fence_ok digest is kept as
   its share of the cluster oracle. *)
let exec_cluster c calls =
  c.epoch <- c.epoch + 1;
  let epoch = c.epoch in
  let rcalls =
    Array.map
      (fun cl ->
        {
          Wire.rc_client = cl.c_client;
          rc_seq = cl.c_seq;
          rc_call = Proc.encode_call ~proc:cl.c_proc ~args:cl.c_args;
        })
      calls
  in
  Nvcaracal.Routed.run_epoch ~epoch
    (Array.map
       (fun m ->
         {
           Nvcaracal.Routed.route = (fun reads -> member_route m ~epoch ~calls:rcalls ~reads);
           fence =
             (fun reads ->
               let outcomes, digest = member_fence m ~epoch ~calls:rcalls ~reads in
               (match m with Remote r -> r.r_digest <- digest | In_process _ -> ());
               outcomes);
         })
       c.members)

let exec t calls =
  match t with
  | Local { engine; _ } -> exec_local engine calls
  | Cluster c -> exec_cluster c calls

(* --- Inspection -------------------------------------------------------- *)

(* Two digests by design. Local keeps the FNV chain every engine's
   [state_digest] reports (golden outputs pin it). Cluster XORs per-row
   hashes across members: order- and placement-independent, so a
   3-shard served run and its 1-shard replay produce the same value —
   the cross-shard determinism oracle. *)
let digest t =
  match t with
  | Local { engine; _ } -> Nv_harness.Engine.state_digest engine
  | Cluster c ->
      Array.fold_left
        (fun acc m ->
          match m with
          | In_process s -> Int64.logxor acc (Shard.digest s)
          | Remote r -> Int64.logxor acc r.r_digest)
        0L c.members

let total_time_ns t =
  match t with
  | Local { engine; _ } ->
      let (Engine_intf.Packed ((module E), db)) = engine in
      E.total_time_ns db
  | Cluster c ->
      (* Only in-process members have a simulated clock to read; remote
         clocks live in other processes. *)
      Array.fold_left
        (fun acc m ->
          match m with
          | In_process s ->
              let (Engine_intf.Packed ((module E), db)) = Shard.engine s in
              Float.max acc (E.total_time_ns db)
          | Remote _ -> acc)
        0.0 c.members

let close t =
  match t with
  | Local _ -> ()
  | Cluster c ->
      Array.iter (fun m -> match m with Remote r -> drop_conn r | In_process _ -> ()) c.members
