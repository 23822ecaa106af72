type t = [ `Unix of string | `Tcp of string * int ]

exception Unresolved of string

let sockaddr = function
  | `Unix path -> Unix.ADDR_UNIX path
  | `Tcp (host, port) ->
      let addr =
        match Unix.inet_addr_of_string host with
        | addr -> addr
        | exception Failure _ -> (
            match (Unix.gethostbyname host).Unix.h_addr_list with
            | [||] | (exception Not_found) -> raise (Unresolved host)
            | addrs -> addrs.(0))
      in
      Unix.ADDR_INET (addr, port)

(* Resolve first, so an unknown host opens nothing; close the socket if
   [f] fails on it. *)
let with_socket address f =
  let sa = sockaddr address in
  let fd = Unix.socket (Unix.domain_of_sockaddr sa) Unix.SOCK_STREAM 0 in
  match f fd sa with
  | () -> fd
  | exception e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise e

let listen ~backlog address =
  (match address with
  | `Unix path -> if Sys.file_exists path then Sys.remove path
  | `Tcp _ -> ());
  with_socket address (fun fd sa ->
      (match address with `Tcp _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true | `Unix _ -> ());
      Unix.bind fd sa;
      Unix.listen fd backlog)

let connect address = with_socket address Unix.connect
