(** The [csrtl serve] daemon: line-delimited JSON over a Unix socket.

    One select loop on the calling thread ({!Engine.poll}) over the
    listening socket, the connections and the worker pipes, with
    {!Engine.submit} behind each request line; a connection runs one
    request at a time.  Returns after a graceful drain:
    SIGTERM/SIGINT (or a [shutdown] request) stop accepting,
    checkpoint in-flight campaigns to their journals, deliver their
    [Drained] frames with resume tokens, close every connection, and
    remove the socket file.  A SIGKILL instead loses nothing but the
    entries in flight — resending a request resumes its journal.

    The socket is the only transport and filesystem permissions on it
    are the only access control; a remote client forwards it (for
    example [ssh -L local.sock:remote.sock]).

    Responses are written without blocking: a client that stops
    reading backs up only its own connection and worker.  A dead
    client (reset, vanished) only marks its own connection; the
    campaign it started keeps journaling to completion, so the work is
    never wasted. *)

type config = {
  engine : Engine.config;
  socket : string;  (** Unix socket path; default ["csrtl.sock"] *)
  max_request_bytes : int;
      (** transport cap per request line; an over-long line is
          discarded and answered with a status-2 diagnostic, and the
          connection stays up *)
  log : string -> unit;  (** lifecycle notes; default drops them *)
}

val default_config : config

val max_pending_cap : int
(** The largest [max_pending] a daemon takes (256): below it
    {!accepts} leaves room for 192 connections or more. *)

val accepts : live:int -> max_pending:int -> bool
(** Whether a connection is served beside [live] others: [Unix.select]
    takes descriptors below FD_SETSIZE (1024) only, less a reserve and
    three pipe ends per [max_pending] lane (a live worker's two, and
    one of a worker retiring after a job).  The excess gets one
    status-1 [serve.busy] refusal and is closed. *)

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
