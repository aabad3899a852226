(** The [csrtl serve] daemon: line-delimited JSON over a Unix socket.

    Accept loop on the calling thread, one thread per connection,
    {!Engine.handle} behind each.  Returns after a graceful drain:
    SIGTERM/SIGINT (or a [shutdown] request) stop the accept loop,
    checkpoint in-flight campaigns to their journals, deliver their
    [Drained] frames with resume tokens, close every connection, and
    remove the socket file.  A SIGKILL instead loses nothing but the
    entries in flight — resending a request resumes its journal.

    The socket is the only transport and filesystem permissions on it
    are the only access control; a remote client forwards it (for
    example [ssh -L local.sock:remote.sock]).

    A dead client (reset, full buffer, vanished) only marks its own
    connection; the campaign it started keeps journaling to
    completion, so the work is never wasted. *)

type config = {
  engine : Engine.config;
  socket : string;  (** Unix socket path; default ["csrtl.sock"] *)
  max_request_bytes : int;
      (** transport cap per request line; an over-long line is
          discarded and answered with a status-2 diagnostic, and the
          connection stays up *)
  signals : bool;
      (** install SIGTERM/SIGINT drain handlers (default true; a test
          that serves from a thread of its own process turns it off) *)
  log : string -> unit;  (** lifecycle notes; default drops them *)
}

val default_config : config

val serve : ?config:config -> unit -> (unit, string) result
(** Run until drained, then [Ok ()].  Ignores SIGPIPE for the whole
    process.

    Binding never steals the socket path: when a daemon already
    answers on it, [serve] returns [Error] ("another daemon is
    listening on ...") before creating the engine or touching the
    state directory.  A socket file nobody listens on (left by a
    crashed daemon) is replaced; a path that exists but is not a
    socket, or any other failure to bind, is an [Error] too.  At exit
    the socket file is removed only if it is still the one this
    daemon bound. *)
