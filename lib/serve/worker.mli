(** Spawn-and-supervise one campaign worker process.

    The crash-only boundary of the daemon: the campaign runs in a
    worker process writing newline-delimited response frames to a
    pipe; the supervisor pumps the pipe, relays frames, and classifies
    how the worker ended.  Any way the worker can die — crash, signal,
    OOM kill, hang — becomes a {!crash} value in the parent instead of
    daemon death.

    The worker is a fresh process of the running executable
    ([Sys.executable_name {!arg}], started with [Unix.create_process],
    never [fork]), so supervising is sound from any process, including
    one that has spawned domains.  The executable must hand
    that invocation to the worker entry point at the top of its main
    ({!Engine.worker_entry}). *)

type crash =
  | Exited of int
      (** the worker exited with this code without delivering a
          terminal frame ([Exited 0] is a protocol violation and still
          a crash: the campaign did not finish) *)
  | Signaled of int  (** killed by a signal (OCaml signal numbering) *)
  | Hung  (** exceeded [timeout_s]; the supervisor SIGKILLed it *)

type outcome =
  | Terminal  (** the worker delivered a Report/Drained/Refused frame *)
  | Crashed of crash

val describe : crash -> string
(** Human phrasing for diagnostics: ["was killed by SIGKILL"], ... *)

val arg : string
(** The command-line argument that marks a worker invocation:
    ["worker"], as in [csrtl worker]. *)

type t  (** a spawned worker, driven by the caller's select loop *)

val spawn :
  ?timeout_s:float ->
  grace_s:float ->
  paused:(unit -> bool) ->
  on_line:(string -> [ `Continue | `Terminal ]) ->
  string ->
  t
(** Spawn [Sys.executable_name {!arg}] with this job on its stdin; its
    stderr is the caller's.  {!step} passes its frame lines to
    [on_line] until that answers [`Terminal].  Past [timeout_s] the
    worker gets SIGTERM, and [grace_s] later SIGKILL ({!Hung}).
    Ignores SIGPIPE in the calling process, so a worker that dies
    before reading its job costs an [EPIPE].  Raises [Unix.Unix_error]
    only when the spawn itself fails. *)

val pid : t -> int

val watch : t -> Unix.file_descr list * Unix.file_descr list
(** The descriptors to select for reading and writing.  While [paused]
    answers true (the frames' consumer is backed up) the frames pipe
    is left out until the worker's terminal frame. *)

val step :
  t ->
  readable:Unix.file_descr list ->
  writable:Unix.file_descr list ->
  stop:bool ->
  outcome option
(** One loop turn: write job bytes, read frame lines, SIGTERM the
    worker when [stop] (it has [grace_s] to checkpoint before
    SIGKILL), and after the pipe's EOF reap it without blocking.
    [Some] exactly once, at the reap; a worker that lingers [grace_s]
    past its terminal frame or EOF is SIGKILLed, so none is left a
    zombie. *)

val wake_at : t -> float option
(** When {!step} next has work no descriptor signals. *)
