(** Durable admission journal: the serving pipeline's crash story.

    The batcher persists every batch it is about to run — the framed
    calls plus their [(client, seq)] headers — into a CRC-guarded
    journal file {e before} the engine executes it. After a kill-9,
    [nvdb serve --recover] replays the journaled batches in admission
    order through a fresh (or checkpoint-restored) engine;
    deterministic replay reproduces the exact pmem image an uncrashed
    server would hold, so the input log — not the client — remains the
    durability story across the process boundary.

    The file is the journal: there is no in-memory copy of its records.
    Its layout follows the layout-v2 discipline: a header of packed
    self-checking words (distinct salts per role) and the meta string,
    then framed records [[u32 len][u32 crc32c][payload]], each padded
    to 8 bytes, appended tail-first. An append writes the record, then
    the header's used-word, and makes both durable with one [fsync].
    {!load} walks records up to the used claim and re-verifies every
    CRC, so a tail torn by power loss is found and discarded.

    A checkpoint (engine pmem image + session table, written to
    [path.ckpt] via tmp+rename) bounds replay; the journal is truncated
    to the covering batch only once the checkpoint file is durable. *)

type t

type entry = { j_client : int; j_seq : int; j_call : bytes }
(** One admitted call: session id, client sequence number, and the
    framed call record ({!Proc.encode_call}). *)

type record = { r_batch : int; r_entries : entry list }
(** One journaled batch, in admission order (carryover re-admissions
    included, exactly as the batch was formed). *)

type session_state = {
  ss_client : int;
  ss_last_acked : int;
  ss_window : (int * [ `Committed | `Aborted ]) list;
      (** acked [seq -> outcome] dedup window, oldest first *)
}

type checkpoint = {
  ck_batches : int;  (** batches the image covers (journal batches [< ck_batches] are dead) *)
  ck_sessions : session_state list;
  ck_image : bytes;  (** the engine's full pmem image at the checkpoint *)
}

type opened = {
  journal : t;
  records : record list;  (** CRC-valid records, admission order *)
  torn_tail : bool;  (** a torn/corrupt tail was discarded *)
  checkpoint : checkpoint option;
}

val create : ?size:int -> path:string -> meta:string -> unit -> t
(** Create (or truncate) the journal file at [path]. [size] (default
    8 MiB) caps the file: header plus records. [meta] fingerprints the
    serving configuration (workload, engine, seed); {!load} refuses a
    journal whose meta does not match, so replay never runs against the
    wrong dataset. Raises [Failure] if [meta] exceeds 255 bytes. *)

val load : path:string -> meta:string -> opened
(** Reopen a journal file: validate header and meta, scan the
    CRC-guarded records (stopping at — and healing — any torn tail),
    and load the covering checkpoint from [path.ckpt] if one is valid.
    Raises [Failure] on a missing/corrupt header or a meta mismatch. *)

val attach :
  recover:bool -> size:int -> path:string -> meta:string -> [ `Created of t | `Loaded of opened ]
(** The serving policy for a journal path. A missing file is created
    ({!create}); an existing one is loaded ({!load}) with [recover] and
    refused ([Failure]) without it — a leftover journal silently
    ignored would break the one property the journal sells: admitted
    means survivable. *)

val append : t -> batch:int -> entries:entry list -> unit
(** Persist one batch record: the record bytes, then the header's
    used-word, both made durable by one [fsync]. On return the record
    survives kill-9 and power loss. Raises [Failure], writing nothing,
    when the record would take the file past its [size] (size the
    journal up or enable checkpointing). *)

val entry_bytes : bytes -> int
(** Bytes one call ({!Proc.encode_call} record) adds to a batch record. *)

val record_overhead : int
(** Most bytes a record takes beyond its entries: frame, header, padding. *)

val free_bytes : t -> int
(** Record-area bytes left before the file reaches its [size]. *)

val write_checkpoint : t -> batches:int -> sessions:session_state list -> image:bytes -> unit
(** Write a covering checkpoint durably ([path.ckpt], tmp+rename,
    fsync before rename). The journal itself is not touched — call
    {!truncate_to} after this returns. *)

val truncate_to : t -> batch:int -> unit
(** Drop records with [r_batch < batch] (they are covered by a durable
    checkpoint), compact the survivors to the front of the file, cut
    it there and fsync. Safe against kill-9 at any point: the checkpoint
    already covers everything dropped. *)

val record_count : t -> int
val base_batch : t -> int
(** Lowest batch index the record area may still hold. *)

val used_bytes : t -> int
val size : t -> int
val close : t -> unit

val records_offset : int
(** Byte offset of the record area in the file (header + meta precede
    it). *)
