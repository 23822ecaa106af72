(** Transaction serial IDs.

    The pre-established serial order of a deterministic database: SIDs
    order transactions globally. An SID packs the epoch number and the
    transaction's position within its epoch's batch, so comparing SIDs
    compares (epoch, position) lexicographically, and recovery can test
    which epoch wrote a persistent version. SID 0 is reserved to mean
    "no version".

    An SID is an immediate [int] (epoch below 2{^30}), so storing one
    in a version slot or a row's mirror allocates nothing; the
    persistent row stores it as the 64-bit word [Int64.of_int sid]. *)

type t = int

val make : epoch:int -> seq:int -> t
(** [seq] is 0-based within the epoch; epochs start at 1. *)

val epoch_of : t -> int
val seq_of : t -> int
val none : t
(** The reserved empty SID (0). *)

val max_epoch : int
(** Largest epoch an SID can carry (2{^30} - 1). *)

val is_none : t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
