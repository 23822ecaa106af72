type t = {
  primary : Db.t;
  replica : Db.t;
  tables : Table.t array;
  rebuild : bytes -> Txn.t;
  queue : bytes array Queue.t; (* one entry per shipped epoch *)
  mutable shipped_bytes : int;
}

let create ~config ~tables ~rebuild () =
  {
    primary = Db.create ~config ~tables ();
    replica = Db.create ~config ~tables ();
    tables = Array.of_list tables;
    rebuild;
    queue = Queue.create ();
    shipped_bytes = 0;
  }

let bulk_load t rows =
  (* Two passes over the sequence; workloads produce pure Seqs. *)
  Db.bulk_load t.primary rows;
  Db.bulk_load t.replica rows

let submit t txns =
  (* Inputs ship only after the primary commits the epoch: a primary
     crash mid-epoch loses the in-flight epoch on both sides (clients
     retry), and the replica can never run ahead of the primary. Once
     shipped, an epoch survives failover — the queue drains before
     promotion. *)
  let inputs = Array.map (fun (txn : Txn.t) -> txn.Txn.input) txns in
  let stats = Db.run_epoch t.primary txns in
  Array.iter (fun b -> t.shipped_bytes <- t.shipped_bytes + Bytes.length b) inputs;
  Queue.push inputs t.queue;
  stats

let replica_lag t = Queue.length t.queue

let apply_one t =
  match Queue.take_opt t.queue with
  | None -> ()
  | Some inputs -> ignore (Db.run_epoch t.replica (Array.map t.rebuild inputs))

let sync t ?upto () =
  let n = match upto with Some n -> min n (Queue.length t.queue) | None -> Queue.length t.queue in
  for _ = 1 to n do
    apply_one t
  done

let shipped_bytes t = t.shipped_bytes
let primary_db t = t.primary
let replica_db t = t.replica

let failover_db t =
  sync t ();
  t.replica

let table_state db ~table =
  let out = ref [] in
  Db.iter_committed db ~table (fun k v -> out := (k, Bytes.to_string v) :: !out);
  List.sort compare !out

let states_equal t =
  sync t ();
  Array.for_all
    (fun (tb : Table.t) ->
      table_state t.primary ~table:tb.Table.id = table_state t.replica ~table:tb.Table.id)
    t.tables
