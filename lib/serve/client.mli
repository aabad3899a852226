(** Client plumbing for the daemon's Unix socket, shared by the
    [csrtl request] subcommand and the lifecycle tests. *)

type conn

val dial : string -> (Unix.file_descr, Unix.error) result
(** One connect attempt to the Unix socket at the path, keeping the
    errno: [ENOENT] means no socket file, [ECONNREFUSED] a socket
    file nobody listens on.  The server's start-up probe reads these
    to tell a live daemon from a stale socket. *)

val connect :
  ?retries:int -> ?delay:float -> string -> (conn, string) result
(** Connect to the daemon listening on the socket path, retrying
    {e transient} failures (missing socket file, connection refused,
    resets) [retries] times (default 0) every [delay] seconds — the
    "wait for the daemon to come up" loop.  Non-transient errors
    (EACCES and friends) fail immediately: retrying a permission
    problem only hides it.  The error message carries a hint for the
    common cases — ENOENT means the daemon was probably never
    started, ECONNREFUSED a stale socket file from a crashed
    daemon. *)

val send : conn -> Frame.request -> (unit, string) result

val send_raw : conn -> string -> (unit, string) result
(** Ship one line verbatim (no validation) — for protocol poking:
    the daemon must answer any byte salad with a status-coded
    [Refused], never a dead socket. *)

val next :
  ?limits:Frame.Diag.Limits.t -> conn ->
  (string * (Frame.response, Frame.Diag.t list) result) option
(** The next response line: [None] at EOF (daemon gone), otherwise
    the raw line plus its decoded frame. *)

val close : conn -> unit

val retryable : Frame.response -> int option option
(** [Some retry_after_ms] when the response is a transient refusal a
    client should retry — [serve.busy], [serve.quarantined],
    [serve.draining] — carrying the daemon's hint if it sent one.
    [None] for everything else (terminal responses, bad-model and bug
    refusals: resending those is pure load). *)

val backoff_delay :
  ?base:float -> ?cap:float -> attempt:int ->
  retry_after_ms:int option -> (unit -> float) -> float
(** Seconds to sleep before retry number [attempt] (0-based):
    exponential ([base] * 2^attempt, default base 50ms, capped at
    [cap], default 2s), floored by the daemon's [retry_after_ms] hint,
    with full jitter (uniform in [d/2, d], drawn from [rng] returning
    uniform [0,1) floats) so a crowd of refused clients decorrelates
    instead of re-arriving as the same herd. *)
