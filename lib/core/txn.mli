(** One-shot deterministic transactions (paper section 3.1.1).

    A transaction arrives with all of its inputs: a serialized input
    record (what gets logged for deterministic replay), a write set
    known before execution, and a body that performs reads and the
    declared writes. Write sets whose keys depend on rows inserted in
    the same epoch (TPC-C Delivery) are declared with
    [dynamic_write_set], which the engine evaluates during the append
    step — after the insert step — mirroring Caracal's two-step
    initialization phase.

    Bodies may abort ({!Ctx.abort}) only before issuing their first
    write, the user-level-abort discipline of section 3.1.1; the engine
    enforces this. *)

type op =
  | Insert of { table : int; key : int64; data : bytes option }
      (** Create a row; if [data] is given the insert step initializes
          the version's value (the section 3.1.2 optimization). *)
  | Update of { table : int; key : int64 }
  | Delete of { table : int; key : int64 }

module Ctx : sig
  (** Capabilities handed to a transaction body by the engine. *)

  type t = {
    sid : Sid.t;
    core : int;
    read : table:int -> key:int64 -> bytes option;
        (** Latest version visible at this transaction's serial
            position; [None] if the key does not exist (or was deleted
            by an earlier transaction). *)
    write : table:int -> key:int64 -> bytes -> unit;
        (** Write a declared Update/Insert key. Raises [Invalid_argument]
            for keys missing from the write set. *)
    delete : table:int -> key:int64 -> unit;
        (** Execute a declared Delete. *)
    range_read : table:int -> lo:int64 -> hi:int64 -> (int64 * bytes) list;
        (** Ordered-table scan, inclusive bounds. *)
    max_below : table:int -> int64 -> (int64 * bytes) option;
        (** Greatest existing key <= bound in an ordered table. *)
    min_above : table:int -> int64 -> (int64 * bytes) option;
        (** Smallest existing key >= bound in an ordered table. *)
    abort : unit -> unit;
        (** User-level abort; raises {!Aborted}. Only legal before the
            body's first write. *)
    compute : ops:int -> unit;  (** Charge extra CPU work. *)
    counter_next : idx:int -> int64;
        (** Draw from a persistent monotone counter (TPC-C order ids,
            paper section 6.2.3). Counters are checkpointed per epoch
            and recovered, making them deterministic across epochs but
            not within a replayed epoch — hence the paper's revert
            mechanism. *)
    notes : (int, int64) Hashtbl.t;
        (** Per-transaction scratch shared between [insert_gen],
            [dynamic_write_set] and the body (e.g. Delivery stashes the
            order keys its write set resolved to). *)
  }
end

exception Aborted

type t = {
  input : bytes;  (** serialized inputs, logged each epoch *)
  write_set : op list;
  recon : (Ctx.t -> op list) option;
      (** Reconnaissance (section 3.1.1): for transactions whose write
          set cannot be inferred from their inputs, a read-only pass
          runs during the append step to compute it. Every value the
          pass reads is recorded, and re-validated when the transaction
          executes; if an earlier-SID transaction changed any of them,
          the transaction deterministically aborts (and would be
          resubmitted by the client). *)
  insert_gen : (Ctx.t -> op list) option;
      (** Evaluated in the insert step with a read-only context (plus
          counters); must return only [Insert] ops — how TPC-C NewOrder
          obtains its order id from the atomic counter. *)
  dynamic_write_set : (Ctx.t -> op list) option;
      (** Evaluated in the append step with a read-only context; the
          returned Update/Delete ops extend the write set. May consult
          rows and insert-step data but not execution-phase writes. *)
  reads_declared : bool;
      (** Workload promise: the body's point reads ([Ctx.read]) touch
          only keys in [write_set], and it uses no range operations.
          A router then learns its keys from the write set alone, with
          no speculative pass ({!Routed}); default false. *)
  body : Ctx.t -> unit;
}

val make :
  ?recon:(Ctx.t -> op list) ->
  ?insert_gen:(Ctx.t -> op list) ->
  ?dynamic_write_set:(Ctx.t -> op list) ->
  ?reads_declared:bool ->
  input:bytes ->
  write_set:op list ->
  (Ctx.t -> unit) ->
  t

val op_key : op -> int * int64
(** (table, key) of an op. *)
