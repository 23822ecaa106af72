(* What the kernel knows about a process: CPU time, peak resident set
   and bytes sent to storage. Linux /proc only. *)

let read path = In_channel.with_open_bin path In_channel.input_all

(* The number on the "Key:   value [unit]" line of [text]. *)
let field text key =
  let prefix = key ^ ":" in
  match List.find_opt (String.starts_with ~prefix) (String.split_on_char '\n' text) with
  | Some line ->
      let n = String.length prefix in
      Scanf.sscanf (String.sub line n (String.length line - n)) " %f" Fun.id
  | None -> failwith (Printf.sprintf "procfs: no %s field" key)

(* User plus system CPU seconds of every thread of [pid]. Fields 14
   and 15 of /proc/PID/stat, in USER_HZ ticks (100 on Linux); the
   command name may hold spaces, so count from its closing paren. *)
let cpu_s pid =
  let s = read (Printf.sprintf "/proc/%d/stat" pid) in
  let after = String.rindex s ')' + 2 in
  let f = Array.of_list (String.split_on_char ' ' (String.sub s after (String.length s - after))) in
  (float_of_string f.(11) +. float_of_string f.(12)) /. 100.0

let self_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let peak_rss_mb pid = field (read (Printf.sprintf "/proc/%d/status" pid)) "VmHWM" /. 1024.0
let write_bytes pid = field (read (Printf.sprintf "/proc/%d/io" pid)) "write_bytes"

(* Filesystem type of the mount holding [dir]: the longest mount point
   that prefixes its absolute path. *)
let fs_type dir =
  let dir = if Filename.is_relative dir then Filename.concat (Sys.getcwd ()) dir else dir in
  let within mp = String.starts_with ~prefix:(if mp = "/" then mp else mp ^ "/") (dir ^ "/") in
  String.split_on_char '\n' (read "/proc/self/mounts")
  |> List.fold_left
       (fun (best, ty) line ->
         match String.split_on_char ' ' line with
         | _ :: mp :: fs :: _ when within mp && String.length mp > String.length best -> (mp, fs)
         | _ -> (best, ty))
       ("", "unknown")
  |> snd
