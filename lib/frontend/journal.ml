module Pmem = Nv_nvmm.Pmem
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
  region : Pmem.t;
  stats : Nv_nvmm.Stats.t;  (** journal-private; never charges engine time *)
  file : Unix.file_descr option;
  file_path : string option;
  mutable used : int;  (** bytes of the record area covered by the used-word *)
  mutable base : int;  (** lowest batch index the record area may hold *)
  mutable nrecords : int;
  mutable mem_ckpt : checkpoint option;  (** checkpoint store for pathless journals *)
}

type opened = {
  journal : t;
  records : record list;
  torn_tail : bool;
  checkpoint : checkpoint option;
}

(* Header: four packed self-checking words with role-distinct salts
   (layout-v2 discipline), a packed region-size word, then the meta
   string. Records start at a fixed offset past all of it. *)
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
let magic = 0x4E564A31L (* "NVJ1" *)
let max_meta = 255
let pad8 n = (n + 7) land lnot 7

let fail fmt = Printf.ksprintf failwith fmt

(* ------------------------------------------------------------------ *)
(* Record encoding                                                     *)

let encode_payload ~batch ~entries =
  let buf = Buffer.create 256 in
  Buffer.add_int64_le buf (Int64.of_int batch);
  Buffer.add_int32_le buf (Int32.of_int (List.length entries));
  List.iter
    (fun e ->
      Buffer.add_int32_le buf (Int32.of_int e.j_client);
      Buffer.add_int64_le buf (Int64.of_int e.j_seq);
      Buffer.add_int32_le buf (Int32.of_int (Bytes.length e.j_call));
      Buffer.add_bytes buf e.j_call)
    entries;
  Buffer.to_bytes buf

let decode_payload b =
  let len = Bytes.length b in
  let u32 off = Int32.to_int (Bytes.get_int32_le b off) land 0xFFFFFFFF in
  if len < 12 then None
  else
    let batch = Int64.to_int (Bytes.get_int64_le b 0) in
    let n = u32 8 in
    let off = ref 12 in
    let ok = ref true in
    let entries = ref [] in
    (try
       for _ = 1 to n do
         if !off + 16 > len then raise Exit;
         let client = u32 !off in
         let seq = Int64.to_int (Bytes.get_int64_le b (!off + 4)) in
         let clen = u32 (!off + 12) in
         if !off + 16 + clen > len then raise Exit;
         let call = Bytes.sub b (!off + 16) clen in
         entries := { j_client = client; j_seq = seq; j_call = call } :: !entries;
         off := !off + 16 + clen
       done
     with Exit -> ok := false);
    if !ok && batch >= 0 then Some { r_batch = batch; r_entries = List.rev !entries }
    else None

(* ------------------------------------------------------------------ *)
(* Region scan                                                         *)

(* Walk the record area: each record is [u32 len][u32 crc][payload]
   rounded to 8 bytes. The used-word bounds the walk; if it is itself
   unreadable the walk degrades to first-invalid-record (belt and
   braces — a correct append never leaves the used-word torn). Returns
   the valid records plus the byte length of the valid prefix. *)
let scan_region region =
  let size = Pmem.size region in
  let used_claim =
    match Crc.unpack_int ~salt:salt_used (Pmem.get_i64 region off_used) with
    | Some u when u >= 0 && records_offset + u <= size -> Some u
    | Some _ | None -> None
  in
  let limit =
    match used_claim with Some u -> records_offset + u | None -> size
  in
  let records = ref [] in
  let off = ref records_offset in
  let stop = ref false in
  while (not !stop) && !off + 8 <= limit do
    let len = Int32.to_int (Pmem.get_i32 region !off) land 0xFFFFFFFF in
    let crc = Pmem.get_i32 region (!off + 4) in
    if len = 0 || !off + 8 + len > limit then stop := true
    else
      let payload = Pmem.read_bytes region ~off:(!off + 8) ~len in
      if Crc.bytes payload 0 len <> crc then stop := true
      else
        match decode_payload payload with
        | None -> stop := true
        | Some r ->
            records := r :: !records;
            off := !off + 8 + pad8 len
  done;
  let valid_end = !off - records_offset in
  let torn =
    match used_claim with Some u -> !stop && valid_end < u | None -> true
  in
  (List.rev !records, valid_end, torn)

(* ------------------------------------------------------------------ *)
(* File mirror                                                         *)

let write_all fd b =
  let len = Bytes.length b in
  let sent = ref 0 in
  while !sent < len do
    match Unix.write fd b !sent (len - !sent) with
    | n -> sent := !sent + n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

let pwrite_from_region t ~off ~len =
  match t.file with
  | None -> ()
  | Some fd ->
      ignore (Unix.lseek fd off Unix.SEEK_SET);
      write_all fd (Pmem.read_bytes t.region ~off ~len)

let fsync t = match t.file with None -> () | Some fd -> Unix.fsync fd

(* ------------------------------------------------------------------ *)
(* Header writes                                                       *)

let persist t ~off ~len =
  Pmem.flush t.region t.stats ~off ~len;
  Pmem.fence t.region t.stats

let write_used t used =
  Pmem.set_i64 t.region off_used (Crc.pack_int ~salt:salt_used used);
  persist t ~off:off_used ~len:8;
  t.used <- used

let write_base t base =
  Pmem.set_i64 t.region off_base (Crc.pack_int ~salt:salt_base base);
  persist t ~off:off_base ~len:8;
  t.base <- base

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)

let create ?(size = 8 * 1024 * 1024) ?path ~meta () =
  if String.length meta > max_meta then fail "Journal.create: meta %d bytes > %d" (String.length meta) max_meta;
  if size < records_offset + 64 then fail "Journal.create: region too small (%d bytes)" size;
  let region = Pmem.create ~mode:Pmem.Crash_safe ~size () in
  let file =
    Option.map (fun p -> Unix.openfile p [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC ] 0o644) path
  in
  let t =
    {
      region;
      stats = Nv_nvmm.Stats.create Nv_nvmm.Memspec.default;
      file;
      file_path = path;
      used = 0;
      base = 0;
      nrecords = 0;
      mem_ckpt = None;
    }
  in
  Pmem.set_i64 region off_magic (Crc.pack ~salt:salt_magic magic);
  Pmem.set_i64 region off_base (Crc.pack_int ~salt:salt_base 0);
  Pmem.set_i64 region off_used (Crc.pack_int ~salt:salt_used 0);
  Pmem.set_i64 region off_meta_crc
    (Crc.pack_int ~salt:salt_meta (Int32.to_int (Crc.string meta) land 0xFFFFFFFF));
  Pmem.set_i64 region off_size (Crc.pack_int ~salt:salt_size size);
  Pmem.set_i32 region off_meta_len (Int32.of_int (String.length meta));
  Pmem.write_bytes region ~off:off_meta (Bytes.of_string meta);
  persist t ~off:0 ~len:records_offset;
  pwrite_from_region t ~off:0 ~len:records_offset;
  fsync t;
  t

(* ------------------------------------------------------------------ *)
(* Checkpoint file                                                     *)

let ckpt_magic = "NVCKPT01"

let ckpt_path t = Option.map (fun p -> p ^ ".ckpt") t.file_path

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

let read_meta region =
  let mlen = Int32.to_int (Pmem.get_i32 region off_meta_len) land 0xFFFFFFFF in
  if mlen > max_meta then None
  else Some (Bytes.to_string (Pmem.read_bytes region ~off:off_meta ~len:mlen))

let write_checkpoint t ~batches ~sessions ~image =
  let ck = { ck_batches = batches; ck_sessions = sessions; ck_image = image } in
  match ckpt_path t with
  | None -> t.mem_ckpt <- Some ck
  | Some p ->
      let meta = match read_meta t.region with Some m -> m | None -> "" in
      let header = checkpoint_header ~meta ck in
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
      (match Unix.openfile (Filename.dirname p) [ Unix.O_RDONLY ] 0 with
      | dfd ->
          (try Unix.fsync dfd with Unix.Unix_error _ -> ());
          Unix.close dfd
      | exception Unix.Unix_error _ -> ())

let load_checkpoint ~path ~meta =
  let p = path ^ ".ckpt" in
  if not (Sys.file_exists p) then None
  else
    let ic = open_in_bin p in
    let len = in_channel_length ic in
    let b = Bytes.create len in
    really_input ic b 0 len;
    close_in ic;
    decode_checkpoint ~meta b

(* ------------------------------------------------------------------ *)
(* Append                                                              *)

let append t ~batch ~entries =
  let payload = encode_payload ~batch ~entries in
  let len = Bytes.length payload in
  let total = 8 + pad8 len in
  let off = records_offset + t.used in
  if off + total > Pmem.size t.region then
    fail "Journal.append: region full (%d + %d > %d); enable checkpointing or grow the journal"
      off total (Pmem.size t.region);
  (* Destination, not journey: the record's bytes reach persistence
     before the used-word makes them reachable; a crash between the two
     fences leaves the new record invisible, never torn-but-visible. *)
  Pmem.write_bytes t.region ~off:(off + 8) payload;
  Pmem.set_i32 t.region off (Int32.of_int len);
  Pmem.set_i32 t.region (off + 4) (Crc.bytes payload 0 len);
  persist t ~off ~len:total;
  write_used t (t.used + total);
  t.nrecords <- t.nrecords + 1;
  pwrite_from_region t ~off ~len:total;
  pwrite_from_region t ~off:0 ~len:records_offset;
  fsync t

(* ------------------------------------------------------------------ *)
(* Truncation (after a durable covering checkpoint)                    *)

let truncate_to t ~batch =
  let records, _, _ = scan_region t.region in
  let survivors = List.filter (fun r -> r.r_batch >= batch) records in
  (* Rebuild the record area front-to-back. The covering checkpoint is
     already durable, so a kill-9 anywhere in here loses nothing: every
     dropped record is covered, every surviving record is re-persisted
     before the header words flip. *)
  let off = ref records_offset in
  List.iter
    (fun r ->
      let payload = encode_payload ~batch:r.r_batch ~entries:r.r_entries in
      let len = Bytes.length payload in
      Pmem.write_bytes t.region ~off:(!off + 8) payload;
      Pmem.set_i32 t.region !off (Int32.of_int len);
      Pmem.set_i32 t.region (!off + 4) (Crc.bytes payload 0 len);
      persist t ~off:!off ~len:(8 + pad8 len);
      off := !off + 8 + pad8 len)
    survivors;
  write_used t (!off - records_offset);
  write_base t batch;
  t.nrecords <- List.length survivors;
  (match t.file with
  | None -> ()
  | Some fd ->
      pwrite_from_region t ~off:0 ~len:(records_offset + t.used);
      Unix.ftruncate fd (records_offset + t.used);
      fsync t)

(* ------------------------------------------------------------------ *)
(* Load                                                                *)

let load ~path ~meta =
  if not (Sys.file_exists path) then fail "Journal.load: no journal at %s" path;
  let ic = open_in_bin path in
  let flen = in_channel_length ic in
  let contents = Bytes.create flen in
  really_input ic contents 0 flen;
  close_in ic;
  if flen < off_meta then fail "Journal.load: %s too short (%d bytes)" path flen;
  let size =
    let hdr = Bytes.get_int64_le contents off_size in
    match Crc.unpack_int ~salt:salt_size hdr with
    | Some s when s >= records_offset + 64 && s <= 1 lsl 30 -> s
    | Some _ | None -> fail "Journal.load: %s has a corrupt size header" path
  in
  let region = Pmem.create ~mode:Pmem.Crash_safe ~size () in
  Pmem.write_bytes region ~off:0 (Bytes.sub contents 0 (min flen size));
  (match Crc.unpack ~salt:salt_magic (Pmem.get_i64 region off_magic) with
  | Some m when m = magic -> ()
  | Some _ | None -> fail "Journal.load: %s is not a journal (bad magic)" path);
  (match Crc.unpack_int ~salt:salt_meta (Pmem.get_i64 region off_meta_crc) with
  | Some c when c = Int32.to_int (Crc.string meta) land 0xFFFFFFFF -> ()
  | Some _ | None ->
      fail
        "Journal.load: %s was written under a different serving configuration (meta mismatch); \
         refusing to replay"
        path);
  (match read_meta region with
  | Some m when m = meta -> ()
  | Some _ | None -> fail "Journal.load: %s meta string mismatch" path);
  let base =
    match Crc.unpack_int ~salt:salt_base (Pmem.get_i64 region off_base) with
    | Some b when b >= 0 -> b
    | Some _ | None -> fail "Journal.load: %s has a corrupt base header" path
  in
  let records, valid_end, torn = scan_region region in
  let file = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
  let t =
    {
      region;
      stats = Nv_nvmm.Stats.create Nv_nvmm.Memspec.default;
      file = Some file;
      file_path = Some path;
      used = valid_end;
      base;
      nrecords = List.length records;
      mem_ckpt = None;
    }
  in
  persist t ~off:0 ~len:(records_offset + valid_end);
  (* Heal a torn tail: the used-word retreats to the valid prefix so
     future appends overwrite the garbage. *)
  if torn then begin
    write_used t valid_end;
    pwrite_from_region t ~off:0 ~len:records_offset;
    fsync t
  end;
  let checkpoint = load_checkpoint ~path ~meta in
  { journal = t; records; torn_tail = torn; checkpoint }

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)

let record_count t = t.nrecords
let base_batch t = t.base
let used_bytes t = t.used
let size t = Pmem.size t.region
let path t = t.file_path
let pmem t = t.region

let rescan t =
  let records, _, torn = scan_region t.region in
  (records, torn)

let close t =
  match t.file with
  | None -> ()
  | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
