module Crc = Nv_util.Crc32c

type entry = { j_client : int; j_seq : int; j_call : bytes }
type record = { r_batch : int; r_entries : entry list }

type session_state = {
  ss_client : int;
  ss_last_acked : int;
  ss_window : (int * [ `Committed | `Aborted ]) list;
}

type checkpoint = {
  ck_batches : int;
  ck_sessions : session_state list;
  ck_image : bytes;
}

type t = {
  fd : Unix.file_descr;
  path : string;
  meta : string;
  size : int;  (** cap on the file: header plus record area *)
  mutable used : int;  (** bytes of the record area covered by the used-word *)
  mutable base : int;  (** lowest batch index the record area may hold *)
  mutable nrecords : int;
}

type opened = {
  journal : t;
  records : record list;
  torn_tail : bool;
  checkpoint : checkpoint option;
}

(* Header: four packed self-checking words with role-distinct salts
   (layout-v2 discipline), a packed size word, then the meta string,
   zero-filled up to a fixed record offset. *)
let off_magic = 0
let off_base = 8
let off_used = 16
let off_meta_crc = 24
let off_size = 32
let off_meta_len = 40
let off_meta = 44
let records_offset = 320
let salt_magic = 0x4A31
let salt_base = 0x4A32
let salt_used = 0x4A33
let salt_meta = 0x4A34
let salt_size = 0x4A35
(* "NVJ2": a record holds only the calls admitted since the previous
   record. "NVJ1" records repeated engine-deferred carryover, which the
   current replay would execute twice, so such a journal is refused. *)
let magic = 0x4E564A32L
let magic_v1 = 0x4E564A31L
let max_meta = 255
let pad8 n = (n + 7) land lnot 7

let fail fmt = Printf.ksprintf failwith fmt

(* ------------------------------------------------------------------ *)
(* File I/O                                                            *)

let write_all fd b =
  let len = Bytes.length b in
  let sent = ref 0 in
  while !sent < len do
    match Unix.write fd b !sent (len - !sent) with
    | n -> sent := !sent + n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

let write_at fd ~off b =
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  write_all fd b

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let b = Bytes.create len in
  really_input ic b 0 len;
  close_in ic;
  b

let u32 b off = Int32.to_int (Bytes.get_int32_le b off) land 0xFFFFFFFF

(* ------------------------------------------------------------------ *)
(* Record encoding                                                     *)

(* One record as it sits in the file: [u32 len][u32 crc][payload],
   zero-padded to 8. The payload is [i64 batch][u32 count] then, per
   entry, [u32 client][i64 seq][u32 call length][call]. *)
let encode_record ~batch ~entries =
  let len = List.fold_left (fun n e -> n + 16 + Bytes.length e.j_call) 12 entries in
  let b = Bytes.make (8 + pad8 len) '\000' in
  Bytes.set_int32_le b 0 (Int32.of_int len);
  Bytes.set_int64_le b 8 (Int64.of_int batch);
  Bytes.set_int32_le b 16 (Int32.of_int (List.length entries));
  let off = ref 20 in
  List.iter
    (fun e ->
      let clen = Bytes.length e.j_call in
      Bytes.set_int32_le b !off (Int32.of_int e.j_client);
      Bytes.set_int64_le b (!off + 4) (Int64.of_int e.j_seq);
      Bytes.set_int32_le b (!off + 12) (Int32.of_int clen);
      Bytes.blit e.j_call 0 b (!off + 16) clen;
      off := !off + 16 + clen)
    entries;
  Bytes.set_int32_le b 4 (Crc.bytes b 8 len);
  b

(* Decode the payload at [b.[pos .. pos+len-1]] in place. *)
let decode_payload b pos len =
  let stop = pos + len in
  if len < 12 then None
  else
    let batch = Int64.to_int (Bytes.get_int64_le b pos) in
    let n = u32 b (pos + 8) in
    let off = ref (pos + 12) in
    let ok = ref true in
    let entries = ref [] in
    (try
       for _ = 1 to n do
         if !off + 16 > stop then raise Exit;
         let client = u32 b !off in
         let seq = Int64.to_int (Bytes.get_int64_le b (!off + 4)) in
         let clen = u32 b (!off + 12) in
         if !off + 16 + clen > stop then raise Exit;
         let call = Bytes.sub b (!off + 16) clen in
         entries := { j_client = client; j_seq = seq; j_call = call } :: !entries;
         off := !off + 16 + clen
       done
     with Exit -> ok := false);
    if !ok && batch >= 0 then Some { r_batch = batch; r_entries = List.rev !entries }
    else None

(* ------------------------------------------------------------------ *)
(* Scan                                                                *)

(* Walk the record area of the file's bytes [b] (at most [size] of them
   count). The used-word bounds the walk; if it is itself unreadable the
   walk degrades to first-invalid-record. A record cut short by the end
   of the file, or whose CRC fails, ends the valid prefix. Returns the
   valid records, the byte length of the valid prefix, and whether the
   used-word claimed more than that (a torn tail). *)
let scan b ~size =
  let used_claim =
    match Crc.unpack_int ~salt:salt_used (Bytes.get_int64_le b off_used) with
    | Some u when u >= 0 && records_offset + u <= size -> Some u
    | Some _ | None -> None
  in
  let limit =
    min (Bytes.length b) (match used_claim with Some u -> records_offset + u | None -> size)
  in
  let records = ref [] in
  let off = ref records_offset in
  let stop = ref false in
  while (not !stop) && !off + 8 <= limit do
    let len = u32 b !off in
    if
      len = 0
      || !off + 8 + len > limit
      || Crc.bytes b (!off + 8) len <> Bytes.get_int32_le b (!off + 4)
    then stop := true
    else
      match decode_payload b (!off + 8) len with
      | None -> stop := true
      | Some r ->
          records := r :: !records;
          off := !off + 8 + pad8 len
  done;
  let valid_end = !off - records_offset in
  let torn = match used_claim with Some u -> valid_end < u | None -> true in
  (List.rev !records, valid_end, torn)

(* ------------------------------------------------------------------ *)
(* Header                                                              *)

let header ~size ~meta ~base ~used =
  let h = Bytes.make records_offset '\000' in
  Bytes.set_int64_le h off_magic (Crc.pack ~salt:salt_magic magic);
  Bytes.set_int64_le h off_base (Crc.pack_int ~salt:salt_base base);
  Bytes.set_int64_le h off_used (Crc.pack_int ~salt:salt_used used);
  Bytes.set_int64_le h off_meta_crc
    (Crc.pack_int ~salt:salt_meta (Int32.to_int (Crc.string meta) land 0xFFFFFFFF));
  Bytes.set_int64_le h off_size (Crc.pack_int ~salt:salt_size size);
  Bytes.set_int32_le h off_meta_len (Int32.of_int (String.length meta));
  Bytes.blit_string meta 0 h off_meta (String.length meta);
  h

let write_used t used =
  let w = Bytes.create 8 in
  Bytes.set_int64_le w 0 (Crc.pack_int ~salt:salt_used used);
  write_at t.fd ~off:off_used w;
  t.used <- used

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)

let create ?(size = 8 * 1024 * 1024) ~path ~meta () =
  if String.length meta > max_meta then fail "Journal.create: meta %d bytes > %d" (String.length meta) max_meta;
  if size < records_offset + 64 then fail "Journal.create: journal too small (%d bytes)" size;
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  write_at fd ~off:0 (header ~size ~meta ~base:0 ~used:0);
  Unix.fsync fd;
  { fd; path; meta; size; used = 0; base = 0; nrecords = 0 }

(* ------------------------------------------------------------------ *)
(* Checkpoint file                                                     *)

let ckpt_magic = "NVCKPT01"

(* File layout: [magic][meta][batches][sessions][image length] (the
   header), then the image, then a CRC-32C over everything before it.
   [write_checkpoint] streams the three parts straight to the fd, never
   concatenating them: the image is by far the largest part, and one
   copy of it (the caller's) is enough. *)
let checkpoint_header ~meta ck =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf ckpt_magic;
  Buffer.add_int32_le buf (Int32.of_int (String.length meta));
  Buffer.add_string buf meta;
  Buffer.add_int64_le buf (Int64.of_int ck.ck_batches);
  Buffer.add_int32_le buf (Int32.of_int (List.length ck.ck_sessions));
  List.iter
    (fun s ->
      Buffer.add_int32_le buf (Int32.of_int s.ss_client);
      Buffer.add_int64_le buf (Int64.of_int s.ss_last_acked);
      Buffer.add_int32_le buf (Int32.of_int (List.length s.ss_window));
      List.iter
        (fun (seq, o) ->
          Buffer.add_int64_le buf (Int64.of_int seq);
          Buffer.add_uint8 buf (match o with `Committed -> 0 | `Aborted -> 1))
        s.ss_window)
    ck.ck_sessions;
  Buffer.add_int64_le buf (Int64.of_int (Bytes.length ck.ck_image));
  Buffer.to_bytes buf

let decode_checkpoint ~meta b =
  let len = Bytes.length b in
  if len < String.length ckpt_magic + 4 + 4 then None
  else if Crc.bytes b 0 (len - 4) <> Bytes.get_int32_le b (len - 4) then None
  else if Bytes.sub_string b 0 8 <> ckpt_magic then None
  else
    try
      let off = ref 8 in
      let u32 () =
        let v = Int32.to_int (Bytes.get_int32_le b !off) land 0xFFFFFFFF in
        off := !off + 4;
        v
      in
      let u64 () =
        let v = Int64.to_int (Bytes.get_int64_le b !off) in
        off := !off + 8;
        v
      in
      let mlen = u32 () in
      let m = Bytes.sub_string b !off mlen in
      off := !off + mlen;
      if m <> meta then None
      else
        let batches = u64 () in
        let nsess = u32 () in
        (* Decoding is cursor-driven: explicit loops, not List.init,
           whose application order is unspecified. *)
        let sessions = ref [] in
        for _ = 1 to nsess do
          let client = u32 () in
          let last_acked = u64 () in
          let n = u32 () in
          let window = ref [] in
          for _ = 1 to n do
            let seq = u64 () in
            let o =
              match Bytes.get_uint8 b !off with
              | 0 -> `Committed
              | 1 -> `Aborted
              | _ -> raise Exit
            in
            off := !off + 1;
            window := (seq, o) :: !window
          done;
          sessions :=
            { ss_client = client; ss_last_acked = last_acked; ss_window = List.rev !window }
            :: !sessions
        done;
        let sessions = List.rev !sessions in
        let ilen = u64 () in
        if !off + ilen > len - 4 then None
        else Some { ck_batches = batches; ck_sessions = sessions; ck_image = Bytes.sub b !off ilen }
    with Exit | Invalid_argument _ -> None

let write_checkpoint t ~batches ~sessions ~image =
  let ck = { ck_batches = batches; ck_sessions = sessions; ck_image = image } in
  let p = t.path ^ ".ckpt" in
  let header = checkpoint_header ~meta:t.meta ck in
  let crc = Crc.update (Crc.init ()) header 0 (Bytes.length header) in
  let trailer = Bytes.create 4 in
  Bytes.set_int32_le trailer 0 (Crc.finish (Crc.update crc image 0 (Bytes.length image)));
  let tmp = p ^ ".tmp" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  List.iter (write_all fd) [ header; image; trailer ];
  Unix.fsync fd;
  Unix.close fd;
  Unix.rename tmp p;
  (* The rename itself must be durable before the caller truncates
     the journal: under power loss (not just kill-9) a lost rename
     with a surviving truncation would orphan the covered records.
     Directory fsync is the POSIX way to persist the name change;
     some filesystems refuse it, in which case we are back to the
     process-crash durability model. *)
  match Unix.openfile (Filename.dirname p) [ Unix.O_RDONLY ] 0 with
  | dfd ->
      (try Unix.fsync dfd with Unix.Unix_error _ -> ());
      Unix.close dfd
  | exception Unix.Unix_error _ -> ()

let load_checkpoint ~path ~meta =
  let p = path ^ ".ckpt" in
  if Sys.file_exists p then decode_checkpoint ~meta (read_file p) else None

(* ------------------------------------------------------------------ *)
(* Append                                                              *)

let entry_bytes call = 16 + Bytes.length call
let record_overhead = 8 + 12 + 7
let free_bytes t = t.size - records_offset - t.used

let append t ~batch ~entries =
  let r = encode_record ~batch ~entries in
  let off = records_offset + t.used in
  if off + Bytes.length r > t.size then
    fail "Journal.append: journal full (%d + %d > %d); enable checkpointing or grow the journal"
      off (Bytes.length r) t.size;
  (* The record bytes, then the used-word that makes them reachable,
     then one fsync for both. A crash before the fsync may keep either,
     both or neither; [load]'s CRC scan up to the used claim discards a
     record whose bytes did not all land. *)
  write_at t.fd ~off r;
  write_used t (t.used + Bytes.length r);
  Unix.fsync t.fd;
  t.nrecords <- t.nrecords + 1

(* ------------------------------------------------------------------ *)
(* Truncation (after a durable covering checkpoint)                    *)

let truncate_to t ~batch =
  let records, _, _ = scan (read_file t.path) ~size:t.size in
  let survivors =
    List.filter_map
      (fun r ->
        if r.r_batch >= batch then Some (encode_record ~batch:r.r_batch ~entries:r.r_entries)
        else None)
      records
  in
  let used = List.fold_left (fun n b -> n + Bytes.length b) 0 survivors in
  (* Header and compacted survivors in one write, then cut the file.
     The covering checkpoint is already durable, so a kill-9 anywhere
     in here loses nothing. *)
  let contents =
    Bytes.concat Bytes.empty (header ~size:t.size ~meta:t.meta ~base:batch ~used :: survivors)
  in
  write_at t.fd ~off:0 contents;
  Unix.ftruncate t.fd (Bytes.length contents);
  Unix.fsync t.fd;
  t.used <- used;
  t.base <- batch;
  t.nrecords <- List.length survivors

(* ------------------------------------------------------------------ *)
(* Load                                                                *)

let load ~path ~meta =
  if not (Sys.file_exists path) then fail "Journal.load: no journal at %s" path;
  let b = read_file path in
  if Bytes.length b < records_offset then
    fail "Journal.load: %s too short (%d bytes)" path (Bytes.length b);
  let word off salt = Crc.unpack_int ~salt (Bytes.get_int64_le b off) in
  let size =
    match word off_size salt_size with
    | Some s when s >= records_offset + 64 && s <= 1 lsl 30 -> s
    | Some _ | None -> fail "Journal.load: %s has a corrupt size header" path
  in
  (match Crc.unpack ~salt:salt_magic (Bytes.get_int64_le b off_magic) with
  | Some m when m = magic -> ()
  | Some m when m = magic_v1 ->
      fail
        "Journal.load: %s was written in the NVJ1 format, whose records repeat deferred \
         carryover; this server cannot replay it"
        path
  | Some _ | None -> fail "Journal.load: %s is not a journal (bad magic)" path);
  (match word off_meta_crc salt_meta with
  | Some c when c = Int32.to_int (Crc.string meta) land 0xFFFFFFFF -> ()
  | Some _ | None ->
      fail
        "Journal.load: %s was written under a different serving configuration (meta mismatch); \
         refusing to replay"
        path);
  let mlen = u32 b off_meta_len in
  if mlen > max_meta || mlen <> String.length meta || Bytes.sub_string b off_meta mlen <> meta then
    fail "Journal.load: %s meta string mismatch" path;
  let base =
    match word off_base salt_base with
    | Some base when base >= 0 -> base
    | Some _ | None -> fail "Journal.load: %s has a corrupt base header" path
  in
  let records, valid_end, torn = scan b ~size in
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
  let t = { fd; path; meta; size; used = valid_end; base; nrecords = List.length records } in
  (* Heal a torn tail: the used-word retreats to the valid prefix so
     future appends overwrite the garbage. *)
  if torn then begin
    write_used t valid_end;
    Unix.fsync fd
  end;
  { journal = t; records; torn_tail = torn; checkpoint = load_checkpoint ~path ~meta }

let attach ~recover ~size ~path ~meta =
  if not (Sys.file_exists path) then `Created (create ~size ~path ~meta ())
  else if recover then `Loaded (load ~path ~meta)
  else
    fail "journal %s already exists; pass --recover to replay it, or remove it for a fresh start"
      path

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)

let record_count t = t.nrecords
let base_batch t = t.base
let used_bytes t = t.used
let size t = t.size
let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()
