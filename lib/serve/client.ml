(* Client-side plumbing for the daemon: connect to its Unix socket
   (with startup retry), send one request line, iterate response
   lines.  Used by the [csrtl request] subcommand and the lifecycle
   tests — both speak through here, so they exercise the same framing
   the daemon sees. *)

type conn = {
  fd : Unix.file_descr;
  reader : Lineio.reader;
}

(* Startup races are transient: the socket file not created yet
   (ENOENT), nobody listening yet or a stale socket left by a crashed
   daemon (ECONNREFUSED), an interrupted or momentarily full accept
   queue (EINTR, EAGAIN), a reset.  Permission problems are not —
   retrying EACCES forever just hides a misconfiguration from the
   operator. *)
let transient_error = function
  | Unix.ENOENT | Unix.ECONNREFUSED | Unix.ECONNRESET | Unix.EINTR
  | Unix.EAGAIN ->
    true
  | _ -> false

let connect_hint = function
  | Unix.ENOENT -> " (no such socket — daemon not started?)"
  | Unix.ECONNREFUSED ->
    " (socket exists but nobody is listening — stale socket from a \
     crashed daemon?)"
  | Unix.EACCES | Unix.EPERM ->
    " (permission denied — check the socket's owner and mode)"
  | _ -> ""

let dial path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> Ok fd
  | exception Unix.Unix_error (e, _, _) ->
    (try Unix.close fd with Unix.Unix_error (_, _, _) -> ());
    Error e

let connect ?(retries = 0) ?(delay = 0.05) path =
  let rec go attempt =
    match dial path with
    | Ok fd -> Ok { fd; reader = Lineio.reader () }
    | Error e when transient_error e && attempt < retries ->
      (* daemon still starting: the socket file appears before
         listen, so refusals and absences both deserve patience *)
      Unix.sleepf delay;
      go (attempt + 1)
    | Error e ->
      Error
        (Printf.sprintf "cannot connect to %s: %s%s" path
           (Unix.error_message e) (connect_hint e))
  in
  go 0

(* for protocol poking and tests: ship a line as-is *)
let send_raw conn line =
  if Lineio.write_line conn.fd line then Ok ()
  else Error "connection lost while sending the request"

let send conn req = send_raw conn (Frame.encode_request req)

(* Each response arrives as (raw line, decoded frame): the raw line is
   what [--jsonl] consumers print, the decoded frame is what drives
   the client state machine. *)
let next ?limits conn =
  match Lineio.read_line conn.reader conn.fd with
  | Lineio.Eof -> None
  | Lineio.Too_long ->
    Some ("", Error [ Frame.Diag.error ~rule:"serve.frame"
                        "response line exceeds the client's line cap" ])
  | Lineio.Line line -> Some (line, Frame.decode_response ?limits line)

let close conn =
  try Unix.close conn.fd with Unix.Unix_error (_, _, _) -> ()

(* ---- request-level retry ----------------------------------------- *)

(* Which refusals deserve a resend?  Exactly the transient ones: busy
   (queue full), quarantined (cooloff running), draining (another
   instance will pick the journal up).  Bad models and daemon bugs are
   not transient — retrying them is just load. *)
let retryable = function
  | Frame.Refused { status = 1; retry_after_ms; diags } ->
    if
      List.exists
        (fun d ->
          match d.Frame.Diag.rule with
          | "serve.busy" | "serve.quarantined" | "serve.draining" -> true
          | _ -> false)
        diags
    then Some retry_after_ms
    else None
  | _ -> None

(* Exponential backoff with full jitter: the deterministic exponent
   curbs an individual client, the jitter decorrelates a crowd of them
   retrying the same refusal (a synchronized herd re-arrives together
   and gets refused together, forever).  The daemon's [retry_after_ms]
   hint acts as a floor — it knows its queue depth, the client only
   knows its attempt count. *)
let backoff_delay ?(base = 0.05) ?(cap = 2.0) ~attempt ~retry_after_ms rng =
  let exp = base *. (2. ** float_of_int (min attempt 16)) in
  let hint =
    match retry_after_ms with
    | Some ms -> float_of_int ms /. 1000.
    | None -> 0.
  in
  let d = Float.min cap (Float.max exp hint) in
  (d /. 2.) +. (rng () *. d /. 2.)
