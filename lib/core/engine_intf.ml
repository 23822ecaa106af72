(** The storage-engine seam.

    The paper frames NVCaracal and Zen as interchangeable storage
    engines under one deterministic front end; this signature is that
    claim in code. Both the NVCaracal {!Db} (serial and Aria CC) and
    [Nv_zen.Zen_db] implement [S], and harness code drives either
    through a first-class module — see [Nv_harness.Engine] for the
    packing and config derivation.

    The contract every instance obeys:

    - {b Determinism.} Equal configs, loads and batches produce equal
      committed state and equal simulated-time accounting, byte for
      byte.
    - {b Batch order is serial order.} [run_batch] commits effects as
      if transactions ran one at a time in array order; strategies that
      defer conflicting transactions return them for resubmission
      instead of reordering.
    - {b Committed reads see checkpoint state.} [read_committed] /
      [iter_committed] observe the last batch boundary, uncharged. *)

(** The digest every engine's [state_digest] reports: an FNV chain over
    each table's committed rows in sorted (key, value) order, seeded
    per table with the table id, so equal committed states give equal
    digests. [iter] is the engine's [iter_committed] partially applied
    to the instance. *)
let digest_committed ~(tables : Table.t list)
    ~(iter : table:int -> (int64 -> bytes -> unit) -> unit) =
  let module Fnv = Nv_util.Fnv in
  let h = ref (Fnv.hash_string "committed-state") in
  List.iter
    (fun (tb : Table.t) ->
      let rows = ref [] in
      iter ~table:tb.Table.id (fun k v -> rows := (k, Bytes.to_string v) :: !rows);
      h := Fnv.combine !h (Fnv.hash_int tb.Table.id);
      List.iter
        (fun (k, v) ->
          h := Fnv.combine !h (Fnv.hash_int64 k);
          h := Fnv.combine !h (Fnv.hash_string v))
        (List.sort compare !rows))
    tables;
  Int64.of_int !h

module type S = sig
  type t
  (** One engine instance. *)

  type config
  (** Engine-specific configuration. *)

  val name : string
  (** Engine family name ("nvcaracal", "aria", "zen", ...). *)

  val create : config:config -> tables:Table.t list -> unit -> t
  (** Fresh engine over a fresh NVMM arena. Table ids must be
      contiguous from 0. *)

  val bulk_load : t -> (int * int64 * bytes) Seq.t -> unit
  (** Populate tables ((table, key, value) triples) before driving
      batches; resets measurement state. At most once, before any
      [run_batch]. *)

  val run_batch : t -> Txn.t array -> Report.epoch_stats option * Txn.t array
  (** Process one batch in serial order. Returns the epoch report
      (engines without epoch-granular accounting return [None]) and the
      transactions deferred to the next batch ([[||]] for
      non-deferring engines). *)

  val defers : bool
  (** Whether [run_batch] may return deferred transactions. A front end
      that forms the next batch while this one runs may do so only when
      it cannot: deferrals must lead the next batch. *)

  val read_committed : t -> table:int -> key:int64 -> bytes option
  (** Committed value of a key as of the last batch boundary
      (uncharged; tests and validation). *)

  val iter_committed : t -> table:int -> (int64 -> bytes -> unit) -> unit
  (** Visit all live keys of a table with their committed values, in
      unspecified order (uncharged). *)

  val last_batch_outcomes : t -> [ `Committed | `Aborted | `Deferred ] array
  (** Per-transaction outcome of the last [run_batch], in batch order —
      populated only once that batch's epoch is checkpointed (the
      visibility rule of paper section 6.2.3), so front ends may hand
      these outcomes straight to clients. [`Deferred] marks the
      transactions the engine returned for resubmission; engines that
      never defer report only [`Committed]/[`Aborted]. [[||]] before
      the first batch. *)

  val committed_txns : t -> int
  val aborted_txns : t -> int
  (** Cumulative commit/abort counts. Deferred-then-committed
      transactions count once as committed; what "aborted" counts is
      engine-specific (user aborts always; conflict deferrals only
      until they commit). *)

  val total_time_ns : t -> float
  (** Simulated time consumed so far (max over core clocks). *)

  val state_digest : t -> int64
  (** Fingerprint of the committed state across all tables
      ({!digest_committed}; uncharged), read the same way for every
      engine by routers, [nvdb stats] and the fuzzer. *)

  val mem_report : t -> Report.mem_report
  val counters_total : t -> Nv_nvmm.Stats.counters

  val set_observability :
    ?tracer:Nv_obs.Tracer.t ->
    ?metrics:Nv_obs.Metrics.t ->
    ?profile:Nv_obs.Profile.t ->
    ?name:string ->
    t ->
    unit
  (** Attach trace/metrics/profiler sinks. Engines without
      instrumentation accept and ignore the sinks, so harness code
      never branches. *)

  val pmem : t -> Nv_nvmm.Pmem.t

  val crash : ?faults:Nv_nvmm.Pmem.fault_model -> t -> rng:Nv_util.Rng.t -> Nv_nvmm.Pmem.t
  (** Tear the arena to a legal crash image and return it; the engine
      must not be used afterwards. *)

  val recover :
    config:config ->
    tables:Table.t list ->
    pmem:Nv_nvmm.Pmem.t ->
    rebuild:(bytes -> Txn.t) ->
    unit ->
    t
  (** Reconstruct an engine from a (crashed) arena. [rebuild]
      deserializes a logged input record back into its transaction;
      engines that recover from data alone (no input log) ignore it. *)
end

(** An engine instance packed with its operations: the existential that
    lets harness code hold a heterogeneous engine without knowing which
    one. *)
type packed = Packed : (module S with type t = 'e) * 'e -> packed
