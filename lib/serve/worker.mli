(** Spawn and supervise campaign worker processes.

    The crash-only boundary of the daemon: a campaign runs in a worker
    process writing newline-delimited response frames to a pipe; the
    supervisor pumps the pipe, relays frames, and classifies how the
    worker ended.  Any way the worker can die — crash, signal, OOM
    kill, hang — becomes a {!crash} value for the job it was running
    instead of daemon death.

    The worker is a fresh process of the running executable
    ([Sys.executable_name {!arg}], started with [Unix.create_process],
    never [fork]), so supervising is sound from any process, including
    one that has spawned domains.  The executable must hand
    that invocation to the worker entry point at the top of its main
    ({!Engine.worker_entry}).  A worker runs one job at a time and
    waits for the next after each job's terminal frame; it leaves by
    closing its stdin before that frame and exiting after it. *)

type crash =
  | Exited of int
      (** the worker exited with this code without delivering the
          job's terminal frame ([Exited 0] is a protocol violation and
          still a crash: the campaign did not finish) *)
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

val framed : string -> string
(** A job as it travels on a worker's stdin: its byte length in
    decimal, a newline, then the job's bytes. *)

val read_job : In_channel.t -> [ `Job of string | `Eof | `Bad ]
(** The next {!framed} job: [`Eof] at a clean end of the stream
    between jobs, [`Bad] for a malformed length or a stream that ends
    inside a job. *)

type t  (** a spawned worker, driven by the caller's select loop *)

val spawn : grace_s:float -> t
(** Spawn [Sys.executable_name {!arg}] with no job yet; its stderr is
    the caller's.  [grace_s] is how long it may take to go after
    SIGTERM, after its stdin is closed, or after its pipe's EOF before
    it gets SIGKILL.  Ignores SIGPIPE in the calling process, so a
    worker that dies before reading its job costs an [EPIPE].  Raises
    [Unix.Unix_error] only when the spawn itself fails. *)

val give :
  ?timeout_s:float ->
  paused:(unit -> bool) ->
  on_line:(string -> [ `Continue | `Terminal ]) ->
  on_end:(outcome -> unit) ->
  t ->
  string ->
  bool
(** Hand an {!idle} worker a job; [false] (nothing changes) when it is
    not idle, or when it has closed its stdin since its last terminal
    frame — it is retiring, or dead — unless it is fresh: a fresh
    worker takes its first job whatever happens, so its death is that
    job's crash.  {!step} passes the job's frame lines to [on_line]
    until that answers [`Terminal], then calls [on_end Terminal]; a
    worker reaped before that calls [on_end (Crashed _)].  [on_end]
    runs exactly once, from {!step}.  Past [timeout_s] the worker gets
    SIGTERM, and [grace_s] later SIGKILL ({!Hung}).  While [paused]
    answers true (the frames' consumer is backed up) the frames pipe is
    left unread. *)

val pid : t -> int

val idle : t -> bool
(** Between jobs and able to take one: not retiring, not SIGTERMed. *)

val retire : t -> unit
(** Close the worker's stdin; it exits at EOF once its job is done. *)

val gone : t -> bool
(** Reaped: the worker is no more and {!step} has nothing left to do. *)

val watch : t -> Unix.file_descr list * Unix.file_descr list
(** The descriptors to select for reading and writing. *)

val step :
  t ->
  readable:Unix.file_descr list ->
  writable:Unix.file_descr list ->
  stop:bool ->
  unit
(** One loop turn: write job bytes, read frame lines, end the job, and
    after the pipe's EOF reap the worker without blocking.  When
    [stop], a busy worker gets SIGTERM (it has [grace_s] to checkpoint
    before SIGKILL) and an idle one is retired; a SIGTERMed worker is
    retired after its job.  A worker that lingers [grace_s] past its
    retirement or its EOF is SIGKILLed, so none is left a zombie. *)

val wake_at : t -> float option
(** When {!step} next has work no descriptor signals. *)
