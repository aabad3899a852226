(* The daemon transport: accept loop on the main thread, one thread
   per connection, the engine doing all the thinking.  Line-framed
   JSON over a Unix socket; filesystem permissions on the socket are
   the access control.  Built for graceful degradation end to end:

   - SIGTERM/SIGINT flip the engine's drain flag; the accept loop
     notices within its select timeout, stops accepting, shuts down
     every connection's read side, and joins the client threads.
     In-flight campaigns checkpoint to their journal and answer
     [Drained] with a resume token before the join completes.
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
  signals : bool;  (* install SIGTERM/SIGINT handlers *)
  log : string -> unit;
}

let default_config =
  { engine = Engine.default_config; socket = "csrtl.sock";
    max_request_bytes = 64 * 1024 * 1024; signals = true;
    log = (fun _ -> ()) }

type conn = {
  id : int;
  fd : Unix.file_descr;
  wlock : Mutex.t;
  dead : bool Atomic.t;
}

type server = {
  cfg : config;
  eng : Engine.t;
  conns : (int, conn) Hashtbl.t;  (* keyed by conn id, under lock *)
  conns_lock : Mutex.t;
  (* conn ids whose client_loop has returned and whose thread is ready
     to join — the accept loop reaps these each pass, so a long-lived
     daemon holds O(live connections) threads, not O(all ever) *)
  finished : int list ref;
  next_id : int Atomic.t;
}

let emit_to conn resp =
  if not (Atomic.get conn.dead) then begin
    Mutex.lock conn.wlock;
    let ok =
      Fun.protect
        ~finally:(fun () -> Mutex.unlock conn.wlock)
        (fun () -> Lineio.write_line conn.fd (Frame.encode_response resp))
    in
    if not ok then Atomic.set conn.dead true
  end

let too_long_diags max_bytes =
  [ Diag.error ~rule:"serve.frame"
      "request frame exceeds the %d-byte line cap" max_bytes ]

let client_loop srv conn =
  let r = Lineio.reader ~max_line:srv.cfg.max_request_bytes conn.fd in
  let rec loop () =
    match Lineio.read_line r with
    | Lineio.Eof -> ()
    | Lineio.Too_long ->
      emit_to conn
        (Frame.Refused
           { status = 2; retry_after_ms = None;
             diags = too_long_diags srv.cfg.max_request_bytes });
      loop ()
    | Lineio.Line line ->
      (match Frame.decode_request ~limits:srv.cfg.engine.Engine.limits line with
       | Error diags ->
         emit_to conn
           (Frame.Refused { status = 2; retry_after_ms = None; diags })
       | Ok req ->
         Engine.handle ~client:conn.id srv.eng req ~emit:(emit_to conn));
      (* after a drain request (or a shutdown from another client) the
         daemon stops reading: the main loop is about to close us *)
      if not (Engine.stopping srv.eng) then loop ()
  in
  Fun.protect
    ~finally:(fun () ->
      Mutex.lock srv.conns_lock;
      Hashtbl.remove srv.conns conn.id;
      srv.finished := conn.id :: !(srv.finished);
      Mutex.unlock srv.conns_lock;
      Atomic.set conn.dead true;
      try Unix.close conn.fd with Unix.Unix_error (_, _, _) -> ())
    loop

let shutdown_reads srv =
  Mutex.lock srv.conns_lock;
  let cs = Hashtbl.fold (fun _ c acc -> c :: acc) srv.conns [] in
  Mutex.unlock srv.conns_lock;
  List.iter
    (fun c ->
      (* stop the reader (it sees EOF); pending writes still flow, so
         a draining campaign can deliver its [Drained] frame first *)
      try Unix.shutdown c.fd Unix.SHUTDOWN_RECEIVE
      with Unix.Unix_error (_, _, _) -> ())
    cs

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
  let srv =
    { cfg = config; eng = Engine.create config.engine;
      conns = Hashtbl.create 16; conns_lock = Mutex.create ();
      finished = ref []; next_id = Atomic.make 0 }
  in
  Fun.protect ~finally:(fun () -> Engine.dispose srv.eng) @@ fun () ->
  let log = config.log in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  if config.signals then begin
    let stop _ = Engine.request_stop srv.eng in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
    Sys.set_signal Sys.sigint (Sys.Signal_handle stop)
  end;
  log (Printf.sprintf "listening on %s" config.socket);
  (* live connection threads, keyed by conn id; accept-loop private *)
  let threads : (int, Thread.t) Hashtbl.t = Hashtbl.create 16 in
  let reap () =
    Mutex.lock srv.conns_lock;
    let ids = !(srv.finished) in
    srv.finished := [];
    Mutex.unlock srv.conns_lock;
    List.iter
      (fun id ->
        match Hashtbl.find_opt threads id with
        | Some th ->
          (* the loop already returned; this join is immediate *)
          Thread.join th;
          Hashtbl.remove threads id
        | None -> ())
      ids
  in
  let rec accept_loop () =
    if not (Engine.stopping srv.eng) then begin
      reap ();
      (match Unix.select [ lfd ] [] [] 0.2 with
       | [], _, _ -> ()
       | _ ->
         (match Unix.accept ~cloexec:true lfd with
          | fd, _ ->
            let conn =
              { id = Atomic.fetch_and_add srv.next_id 1; fd;
                wlock = Mutex.create (); dead = Atomic.make false }
            in
            Mutex.lock srv.conns_lock;
            Hashtbl.replace srv.conns conn.id conn;
            Mutex.unlock srv.conns_lock;
            Hashtbl.replace threads conn.id
              (Thread.create (client_loop srv) conn)
          | exception
              Unix.Unix_error
                ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ())
       | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      accept_loop ()
    end
  in
  accept_loop ();
  log "draining: no longer accepting connections";
  shutdown_reads srv;
  Hashtbl.iter (fun _ th -> Thread.join th) threads;
  log "drained; all connections closed";
  Ok ()
