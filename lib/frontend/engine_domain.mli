(** The engine's own domain: one job at a time, run beside the I/O
    loop, with a self-pipe that wakes [select] when the job is done.

    {!Batcher} hands each formed, journaled batch here ([run]) and
    lands it once {!poll} reports the job finished; the server puts
    {!wake_fd} in its [select] read set, so a finished batch ends the
    wait at once instead of at the next tick. The domain is spawned on
    the first [run], so a server that never executes a batch never
    starts one, and {!stop} joins it.

    The handoff is a mutex and condition: everything the caller wrote
    before [run] is visible to the job, and everything the job wrote is
    visible to the caller once {!poll} returned [true] or {!wait}
    returned. The job must catch its own exceptions (an escaping one is
    a bug in the caller and is re-raised by {!stop}). *)

type t

val create : unit -> t
(** A domain slot and its wake pipe; no domain is spawned yet. *)

val wake_fd : t -> Unix.file_descr
(** Readable after a job finished. {!poll} and {!wait} drain it. *)

val run : t -> (unit -> unit) -> unit
(** Start [job] on the engine domain. Raises [Invalid_argument] while
    another job is still running, or after {!stop}. *)

val poll : t -> bool
(** Non-blocking: [true] once the running job has finished, reported
    once per job; [false] while it runs or when none was started. *)

val wait : t -> unit
(** Block until the running job (if any) has finished. *)

val stop : t -> unit
(** Wait for the running job, end the domain, join it and close the
    pipe. Idempotent. *)
