(** Shared command-line vocabulary of the front-end executables.

    [bin/nvdb], [bench/main] and the fuzz entry points all speak the
    same flags (--workload/--contention/--epochs/--txns/--seed/
    --engine/--trace/--metrics); this module is their single
    definition, plus the resolution helpers turning flag strings into
    workloads, engine specs and observability sinks. *)

val workload : string Cmdliner.Term.t
val contention : string Cmdliner.Term.t
val epochs : int Cmdliner.Term.t
val txns : int Cmdliner.Term.t
val seed : int Cmdliner.Term.t
val engine : string Cmdliner.Term.t
val trace : string option Cmdliner.Term.t
val metrics : string option Cmdliner.Term.t
val trace_wall : bool Cmdliner.Term.t
val profile : bool Cmdliner.Term.t
val profile_out : string option Cmdliner.Term.t
val slow_epoch_ms : float option Cmdliner.Term.t
val listen : string Cmdliner.Term.t

val shards : int Cmdliner.Term.t
(** [--shards N]: serve as (or drive) an N-shard routed cluster;
    1 (default) is single-shard serving. Shared by serve, loadgen,
    chaos and bench-style drivers so the cluster vocabulary stays
    uniform. *)

val shard_id : int option Cmdliner.Term.t
(** [--shard-id I] (internal): run as shard I of a [--shards] cluster —
    what a router passes to the shard processes it spawns. *)

val router : string option Cmdliner.Term.t
(** [--router ADDR]: address of the cluster router to drive (overrides
    [--listen] in client tools). *)

val set_jobs : int -> unit
(** Accepts 1 and raises [Invalid_argument] otherwise: the engine runs
    on one domain. Kept only because servebench's server child calls
    it. *)

val parse_address : string -> [ `Unix of string | `Tcp of string * int ]
(** "HOST:PORT" or "PORT" is TCP (host defaults to 127.0.0.1);
    anything else is a Unix-domain socket path. *)

val resolve_engine : string -> Engine.spec
(** Raises [Failure] on unknown names. *)

val resolve_workload : string -> string -> Nv_workloads.Workload.t * int
(** Workload plus its insert-growth allowance; raises [Failure] on
    unknown names or contention levels. *)

(** The observability sinks one invocation requested, plus the thunk
    that writes/prints them after the run. *)
type obs = {
  tracer : Nv_obs.Tracer.t option;
  metrics : Nv_obs.Metrics.t option;
  profile : Nv_obs.Profile.t option;
  flush : unit -> unit;
}

val observability :
  ?prog:string ->
  ?ppf:Format.formatter ->
  ?trace_wall:bool ->
  ?profile:bool ->
  ?profile_out:string ->
  ?slow_epoch_ms:float ->
  trace:string option ->
  metrics:string option ->
  unit ->
  obs
(** Build the sinks the flags requested: a tracer for [trace] (with the
    wall clock installed when [trace_wall]), a metrics registry for
    [metrics], and a profiler when any of [profile] / [profile_out] /
    [slow_epoch_ms] asks for one (slow epochs log to stderr as they
    happen). [flush] writes the collected files, prints the profile
    table when [profile] was set, and reports on [ppf] (default
    std_formatter); call it after the run. *)
