(* The daemon transport: one select loop ({!Engine.poll}) over the
   listening socket, the client connections and the worker pipes, the
   engine doing all the thinking.  Line-framed JSON over a Unix
   socket; filesystem permissions on the socket are the access
   control.  Built for graceful degradation end to end:

   - A connection runs one request at a time; its next line is read
     once the last one's terminal frame is queued.  Output goes to a
     per-connection queue written without blocking, so a client that
     stops reading stalls nobody else; past one pipe chunk unsent, its
     worker's pipe is left unread, which throttles only that worker.
   - SIGTERM/SIGINT flip the engine's drain flag; the loop stops
     accepting, shuts down every connection's read side, and keeps
     turning until in-flight campaigns have checkpointed to their
     journal, answered [Drained] with a resume token, and every
     queued byte is written.
   - SIGPIPE is ignored and every write failure just marks the
     connection dead: a vanished client never kills the daemon, and
     its campaign keeps journaling so the work is resumable.
   - Oversized request lines are swallowed by the bounded reader and
     answered with a status-2 diagnostic — the connection survives.
   - The listening and connection sockets are close-on-exec: a
     campaign worker process never holds a client's connection open.
   - The socket path belongs to one live daemon at a time: a second
     daemon on the same path refuses to start, and a daemon removes
     the socket file at exit only if it is still the one it bound. *)

module Diag = Csrtl_diag.Diag

type config = {
  engine : Engine.config;
  socket : string;  (* Unix socket path *)
  max_request_bytes : int;  (* per-line transport cap *)
  log : string -> unit;
}

let default_config =
  { engine = Engine.default_config; socket = "csrtl.sock";
    max_request_bytes = 64 * 1024 * 1024; log = (fun _ -> ()) }

type conn = {
  id : int;
  fd : Unix.file_descr;
  lines : Lineio.reader;
  out : Lineio.reader;  (* frames not yet written *)
  mutable busy : bool;  (* a request is in flight *)
  mutable eof : bool;  (* every request line has been taken *)
  mutable dead : bool;  (* a write failed; output is dropped *)
}

(* one pipe chunk: past this much unsent, read no more requests and
   leave the connection's worker pipe unread *)
let backlog = 65536

let unsent c = Lineio.pending c.out

(* Write what the socket takes now; the rest waits for writability. *)
let flush c =
  if unsent c > 0 && not (Lineio.flush c.out c.fd) then c.dead <- true

let emit_to c resp =
  if Engine.terminal resp then c.busy <- false;
  if not c.dead then begin
    let idle = unsent c = 0 in
    Lineio.feed c.out (Frame.encode_response resp);
    Lineio.feed c.out "\n";
    (* straight out when nothing is queued ahead of it: a frame never
       waits for the work the rest of the loop turn starts *)
    if idle then flush c
  end

(* [Unix.select] raises EINVAL for a descriptor at or past FD_SETSIZE.
   The loop selects the listening socket, every connection, two pipe
   ends per live worker (running or idle; at most one per lane, see
   [Engine.dispatch]) and one per worker retiring after a job (its
   stdin closed; it exits within milliseconds of its last frame, so
   about one per lane); [fd_reserve] covers stdio and stragglers. *)
let fd_setsize = 1024
let fd_reserve = 64
let max_pending_cap = 256

let accepts ~live ~max_pending =
  live < fd_setsize - fd_reserve - (3 * max 1 max_pending)

(* Hand the connection's buffered lines to the engine, one request at
   a time; after a drain request the daemon reads no more. *)
let rec pump cfg eng c =
  if not (c.busy || c.dead || Engine.stopping eng || unsent c > backlog) then
    match Lineio.next c.lines with
    | None -> ()
    | Some Lineio.Eof -> c.eof <- true
    | Some Lineio.Too_long ->
      emit_to c
        (Frame.Refused
           { status = 2; retry_after_ms = None;
             diags =
               [ Diag.error ~rule:"serve.frame"
                   "request frame exceeds the %d-byte line cap"
                   cfg.max_request_bytes ] });
      pump cfg eng c
    | Some (Lineio.Line line) ->
      (match Frame.decode_request ~limits:cfg.engine.Engine.limits line with
       | Error diags ->
         emit_to c (Frame.Refused { status = 2; retry_after_ms = None; diags })
       | Ok req ->
         c.busy <- true;
         Engine.submit ~client:c.id
           ~paused:(fun () -> unsent c > backlog)
           eng req ~emit:(emit_to c));
      pump cfg eng c

(* Bind the socket path without stealing it.  A connect probe first:
   if a daemon answers, the path is taken and this one refuses to
   start.  Only a refused connect (a socket file left by a crashed
   daemon) or a missing file is safe to replace; anything else is
   reported, never unlinked.  The bound file's (device, inode) is
   returned so {!release} can tell it from a successor's. *)
let listen path =
  let cannot e =
    Error
      (Printf.sprintf "cannot listen on %s: %s" path (Unix.error_message e))
  in
  let stale =
    match Client.dial path with
    | Ok fd ->
      (try Unix.close fd with Unix.Unix_error (_, _, _) -> ());
      Error (Printf.sprintf "another daemon is listening on %s" path)
    | Error Unix.ENOENT -> Ok ()
    | Error Unix.ECONNREFUSED ->
      (match Unix.lstat path with
       | { Unix.st_kind = Unix.S_SOCK; _ } ->
         (try Unix.unlink path with Unix.Unix_error (_, _, _) -> ());
         Ok ()
       | _ -> Error (Printf.sprintf "%s exists and is not a socket" path)
       | exception Unix.Unix_error (Unix.ENOENT, _, _) -> Ok ()
       | exception Unix.Unix_error (e, _, _) -> cannot e)
    | Error e -> cannot e
  in
  Result.bind stale @@ fun () ->
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match
    Unix.bind fd (Unix.ADDR_UNIX path);
    let st = Unix.lstat path in
    Unix.listen fd 64;
    (st.Unix.st_dev, st.Unix.st_ino)
  with
  | id -> Ok (fd, id)
  | exception Unix.Unix_error (e, _, _) ->
    (try Unix.close fd with Unix.Unix_error (_, _, _) -> ());
    cannot e

(* Remove the socket file only if it is still the one this daemon
   bound: a successor that replaced it keeps its socket. *)
let release path (dev, ino) =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_SOCK; st_dev; st_ino; _ }
    when st_dev = dev && st_ino = ino ->
    (try Unix.unlink path with Unix.Unix_error (_, _, _) -> ())
  | _ | (exception Unix.Unix_error (_, _, _)) -> ()

let serve ?(config = default_config) () =
  (* bind before the engine exists: a refused daemon never touches
     the state directory *)
  Result.bind (listen config.socket) @@ fun (lfd, bound) ->
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close lfd with Unix.Unix_error (_, _, _) -> ());
      release config.socket bound)
  @@ fun () ->
  let eng = Engine.create config.engine in
  let log = config.log in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let stop _ = Engine.request_stop eng in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
  Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
  Unix.set_nonblock lfd;
  log (Printf.sprintf "listening on %s" config.socket);
  let conns : (Unix.file_descr, conn) Hashtbl.t = Hashtbl.create 16 in
  let next_id = ref 0 in
  let close c =
    Hashtbl.remove conns c.fd;
    (* unsent bytes go too: a closed client's worker must not stay
       paused behind them *)
    c.dead <- true;
    Lineio.clear c.out;
    try Unix.close c.fd with Unix.Unix_error (_, _, _) -> ()
  in
  let accept () =
    match Unix.accept ~cloexec:true lfd with
    | fd, _ ->
      Unix.set_nonblock fd;
      incr next_id;
      if accepts ~live:(Hashtbl.length conns)
           ~max_pending:config.engine.Engine.max_pending
      then
        Hashtbl.replace conns fd
          { id = !next_id; fd;
            lines = Lineio.reader ~max_line:config.max_request_bytes ();
            out = Lineio.reader ~size:4096 (); busy = false; eof = false;
            dead = false }
      else begin
        (* one best-effort write: the frame is far below a socket
           buffer, and this client gets nothing else *)
        ignore
          (Lineio.write_line fd
             (Frame.encode_response
                (Frame.Refused
                   { status = 1; retry_after_ms = Some 1000;
                     diags =
                       [ Diag.error ~rule:"serve.busy"
                           "too many open connections; retry after the \
                            hint" ] })));
        Unix.close fd
      end
    | exception Unix.Unix_error (_, _, _) -> ()
  in
  let rec loop draining =
    let stopping = Engine.stopping eng in
    if stopping && not draining then begin
      log "draining: no longer accepting connections";
      (* readers see EOF; pending writes still flow, so a draining
         campaign can deliver its [Drained] frame first *)
      Hashtbl.iter
        (fun fd _ ->
          try Unix.shutdown fd SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ())
        conns
    end;
    let all = Hashtbl.fold (fun _ c acc -> c :: acc) conns [] in
    if
      stopping && Engine.idle eng
      && List.for_all (fun c -> (not c.busy) && unsent c = 0) all
    then List.iter close all
    else begin
      let wants f =
        List.filter_map (fun c -> if f c then Some c.fd else None) all
      in
      let readable, _ =
        Engine.poll eng
          ~read:
            ((if stopping then [] else [ lfd ])
            @ wants (fun c ->
                  not (c.busy || c.eof || stopping || unsent c > backlog)))
          ~write:(wants (fun c -> unsent c > 0))
          ~timeout:0.2
      in
      List.iter
        (fun fd ->
          if fd = lfd then accept ()
          else
            Option.iter
              (fun c -> Lineio.read c.lines fd)
              (Hashtbl.find_opt conns fd))
        readable;
      List.iter
        (fun c ->
          pump config eng c;
          flush c;
          if c.dead || (c.eof && (not c.busy) && unsent c = 0) then close c)
        (Hashtbl.fold (fun _ c acc -> c :: acc) conns []);
      loop stopping
    end
  in
  loop false;
  log "drained; all connections closed";
  Ok ()
