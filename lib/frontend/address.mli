(** Socket addresses of the serving plane, and the one place a host
    name is resolved.

    A name that does not resolve raises {!Unresolved} before any socket
    is opened, so no caller leaks a descriptor on it. *)

type t = [ `Unix of string | `Tcp of string * int ]

exception Unresolved of string
(** The host name that did not resolve to an IPv4 address. *)

val sockaddr : t -> Unix.sockaddr
(** A dotted IPv4 literal is used as is; any other host is looked up.
    @raise Unresolved if the lookup finds nothing. *)

val listen : backlog:int -> t -> Unix.file_descr
(** A listening stream socket bound to the address. A stale Unix socket
    file is removed first; a TCP socket sets [SO_REUSEADDR]. The socket
    is closed again if binding fails.
    @raise Unresolved as {!sockaddr}. *)

val connect : t -> Unix.file_descr
(** A blocking stream socket connected to the address, closed again if
    the connect fails (a reconnect loop that backs off on failures
    leaks no descriptors: against a crash-looping server they would
    climb past FD_SETSIZE and turn every later [select] into EINVAL).
    @raise Unresolved as {!sockaddr}. *)
