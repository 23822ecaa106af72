module Txn = Nvcaracal.Txn
module Table = Nvcaracal.Table

type config = {
  customers : int;
  hot_customers : int;
  hot_probability : float;
  abort_probability : float;
}

let default =
  { customers = 18_000; hot_customers = 1_000; hot_probability = 0.9; abort_probability = 0.1 }

let large c = { c with customers = c.customers * 10; hot_customers = c.hot_customers * 10 }

let with_contention level c =
  (* Low keeps the paper's 1M-of-18M hotspot ratio. High uses 1/360
     rather than the paper's 1/1800: with our ~80x-smaller epochs this
     keeps the number of versions a hot row accumulates per epoch close
     to the paper's, which is what the measured effects depend on. *)
  {
    c with
    hot_customers =
      (match level with `Low -> max 1 (c.customers / 18) | `High -> max 1 (c.customers / 360));
  }

let checking_table = 0
let savings_table = 1

let tables =
  [ Table.make ~id:0 ~name:"checking" (); Table.make ~id:1 ~name:"savings" () ]

let initial_balance = 10_000L

let balance_bytes v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 v;
  b

let balance_of b = Bytes.get_int64_le b 0

type op =
  | Balance of int64
  | Deposit_checking of int64 * int64
  | Transact_savings of int64 * int64
  | Amalgamate of int64 * int64
  | Write_check of int64 * int64

let encode op =
  let buf = Buffer.create 25 in
  let add tag c1 c2 amt =
    Buffer.add_uint8 buf tag;
    Buffer.add_int64_le buf c1;
    Buffer.add_int64_le buf c2;
    Buffer.add_int64_le buf amt
  in
  (match op with
  | Balance c -> add 0 c 0L 0L
  | Deposit_checking (c, a) -> add 1 c 0L a
  | Transact_savings (c, a) -> add 2 c 0L a
  | Amalgamate (c1, c2) -> add 3 c1 c2 0L
  | Write_check (c, a) -> add 4 c 0L a);
  Buffer.to_bytes buf

let decode b =
  let tag = Char.code (Bytes.get b 0) in
  let c1 = Bytes.get_int64_le b 1 in
  let c2 = Bytes.get_int64_le b 9 in
  let amt = Bytes.get_int64_le b 17 in
  match tag with
  | 0 -> Balance c1
  | 1 -> Deposit_checking (c1, amt)
  | 2 -> Transact_savings (c1, amt)
  | 3 -> Amalgamate (c1, c2)
  | 4 -> Write_check (c1, amt)
  | _ -> invalid_arg "Smallbank.decode"

let read_balance ctx ~table ~key =
  match ctx.Txn.Ctx.read ~table ~key with
  | Some v -> balance_of v
  | None -> failwith "smallbank: missing account"

let txn_of op =
  let write_set =
    match op with
    | Balance _ -> []
    | Deposit_checking (c, _) -> [ Txn.Update { table = checking_table; key = c } ]
    | Transact_savings (c, _) -> [ Txn.Update { table = savings_table; key = c } ]
    | Amalgamate (c1, c2) ->
        [
          Txn.Update { table = checking_table; key = c1 };
          Txn.Update { table = savings_table; key = c1 };
          Txn.Update { table = checking_table; key = c2 };
        ]
    | Write_check (c, _) -> [ Txn.Update { table = checking_table; key = c } ]
  in
  let body ctx =
    match op with
    | Balance c ->
        let _total =
          Int64.add
            (read_balance ctx ~table:checking_table ~key:c)
            (read_balance ctx ~table:savings_table ~key:c)
        in
        ()
    | Deposit_checking (c, amount) ->
        let bal = read_balance ctx ~table:checking_table ~key:c in
        ctx.Txn.Ctx.write ~table:checking_table ~key:c (balance_bytes (Int64.add bal amount))
    | Transact_savings (c, amount) ->
        (* Signed amount: deposit or withdrawal. A withdrawal far beyond
           any plausible balance models the benchmark's insufficient-
           funds abort (issued before any write); ordinary overdrafts
           clamp to zero so the abort rate tracks the configured 10%
           instead of drifting with the balance distribution. *)
        let bal = read_balance ctx ~table:savings_table ~key:c in
        let result = Int64.add bal amount in
        if Int64.compare result (-1_000_000L) < 0 then ctx.Txn.Ctx.abort ();
        ctx.Txn.Ctx.write ~table:savings_table ~key:c
          (balance_bytes (Int64.max 0L result))
    | Amalgamate (c1, c2) ->
        let chk = read_balance ctx ~table:checking_table ~key:c1 in
        let sav = read_balance ctx ~table:savings_table ~key:c1 in
        let dst = read_balance ctx ~table:checking_table ~key:c2 in
        ctx.Txn.Ctx.write ~table:checking_table ~key:c1 (balance_bytes 0L);
        ctx.Txn.Ctx.write ~table:savings_table ~key:c1 (balance_bytes 0L);
        ctx.Txn.Ctx.write ~table:checking_table ~key:c2
          (balance_bytes (Int64.add dst (Int64.add chk sav)))
    | Write_check (c, amount) ->
        (* Overdrafts are allowed with a penalty (as in the original
           benchmark); only a check vastly exceeding the total balance
           aborts — the benchmark's forced ~10%% abort path. *)
        let chk = read_balance ctx ~table:checking_table ~key:c in
        let sav = read_balance ctx ~table:savings_table ~key:c in
        if Int64.compare (Int64.sub amount (Int64.add chk sav)) 1_000_000L > 0 then
          ctx.Txn.Ctx.abort ();
        let penalty = if Int64.compare chk amount < 0 then 1L else 0L in
        ctx.Txn.Ctx.write ~table:checking_table ~key:c
          (balance_bytes (Int64.sub (Int64.sub chk amount) penalty))
  in
  (* Balance reads two undeclared keys and Write_check reads an
     undeclared savings row; the other three transaction kinds read
     exactly the keys they declare, so only they skip a router's
     speculative pass. *)
  let reads_declared =
    match op with
    | Deposit_checking _ | Transact_savings _ | Amalgamate _ -> true
    | Balance _ | Write_check _ -> false
  in
  Txn.make ~reads_declared ~input:(encode op) ~write_set body

let gen_op cfg rng =
  let pick_customer () =
    if Nv_util.Rng.float rng < cfg.hot_probability then
      Int64.of_int (Nv_util.Rng.int rng cfg.hot_customers)
    else Int64.of_int (Nv_util.Rng.int rng cfg.customers)
  in
  let amount abortable =
    if abortable && Nv_util.Rng.float rng < cfg.abort_probability then 1_000_000_000L
    else Int64.of_int (1 + Nv_util.Rng.int rng 50)
  in
  (* TransactSavings amounts are signed: deposits keep hot savings
     accounts solvent so the abort rate stays near the configured 10%
     instead of drifting up as accounts drain. *)
  let signed_amount () =
    if Nv_util.Rng.float rng < cfg.abort_probability then (-1_000_000_000L)
    else
      let a = Int64.of_int (1 + Nv_util.Rng.int rng 50) in
      if Nv_util.Rng.bool rng then a else Int64.neg a
  in
  match Nv_util.Rng.int rng 5 with
  | 0 -> Balance (pick_customer ())
  | 1 -> Deposit_checking (pick_customer (), amount false)
  | 2 -> Transact_savings (pick_customer (), signed_amount ())
  | 3 ->
      let c1 = pick_customer () in
      let rec other () =
        let c2 = pick_customer () in
        if c2 = c1 then other () else c2
      in
      Amalgamate (c1, other ())
  | _ -> Write_check (pick_customer (), amount true)

(* The five SmallBank transaction kinds as named stored procedures.
   Each carries exactly its own arguments (not the tagged union the
   input log uses), so the wire form is self-describing per name. *)
let procs =
  [
    Procs.reg ~name:"smallbank.balance" Procs.i64 (fun c -> txn_of (Balance c));
    Procs.reg ~name:"smallbank.deposit_checking" Procs.i64_pair (fun (c, a) ->
        txn_of (Deposit_checking (c, a)));
    Procs.reg ~name:"smallbank.transact_savings" Procs.i64_pair (fun (c, a) ->
        txn_of (Transact_savings (c, a)));
    Procs.reg ~name:"smallbank.amalgamate" Procs.i64_pair (fun (c1, c2) ->
        txn_of (Amalgamate (c1, c2)));
    Procs.reg ~name:"smallbank.write_check" Procs.i64_pair (fun (c, a) ->
        txn_of (Write_check (c, a)));
  ]

let call_of_op = function
  | Balance c -> ("smallbank.balance", Procs.i64.Procs.encode c)
  | Deposit_checking (c, a) -> ("smallbank.deposit_checking", Procs.i64_pair.Procs.encode (c, a))
  | Transact_savings (c, a) -> ("smallbank.transact_savings", Procs.i64_pair.Procs.encode (c, a))
  | Amalgamate (c1, c2) -> ("smallbank.amalgamate", Procs.i64_pair.Procs.encode (c1, c2))
  | Write_check (c, a) -> ("smallbank.write_check", Procs.i64_pair.Procs.encode (c, a))

let make cfg =
  {
    Workload.name = Printf.sprintf "smallbank(cust=%d,hot=%d)" cfg.customers cfg.hot_customers;
    tables;
    n_counters = 0;
    revert_on_recovery = false;
    typical_value = 8;
    load =
      (fun () ->
        Seq.concat
          (List.to_seq
             [
               Seq.init cfg.customers (fun i ->
                   (checking_table, Int64.of_int i, balance_bytes initial_balance));
               Seq.init cfg.customers (fun i ->
                   (savings_table, Int64.of_int i, balance_bytes initial_balance));
             ]));
    gen_batch = (fun rng n -> Array.init n (fun _ -> txn_of (gen_op cfg rng)));
    rebuild = (fun input -> txn_of (decode input));
    procs;
    gen_call = (fun rng -> call_of_op (gen_op cfg rng));
  }
