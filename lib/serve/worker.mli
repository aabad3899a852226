(** Spawn-and-supervise one campaign worker process.

    The crash-only boundary of the daemon: the campaign runs in a
    worker process writing newline-delimited response frames to a
    pipe; the supervisor pumps the pipe, relays frames, and classifies
    how the worker ended.  Any way the worker can die — crash, signal,
    OOM kill, hang — becomes a {!crash} value in the parent instead of
    daemon death.

    The worker is a fresh process of the running executable
    ([Sys.executable_name {!arg}], started with [Unix.create_process],
    never [fork]), so supervising is sound from any process: one with
    threads, one that has spawned domains.  The executable must hand
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

val supervise :
  ?timeout_s:float ->
  grace_s:float ->
  should_stop:(unit -> bool) ->
  on_spawn:(int -> unit) ->
  job:string ->
  on_line:(string -> [ `Continue | `Terminal ]) ->
  unit ->
  outcome
(** Spawn [Sys.executable_name {!arg}], feed it [job] on its stdin
    (then close it), and pump the lines it writes to its stdout to
    [on_line] until [on_line] answers [`Terminal] or the pipe hits
    EOF.  The worker's stderr is the supervisor's.  While pumping:
    [should_stop] true sends the worker one SIGTERM (giving it
    [grace_s] to drain and checkpoint before SIGKILL); exceeding
    [timeout_s] does the same and classifies the worker as {!Hung}.
    [on_spawn] fires with the worker pid right after the spawn (the
    chaos harness's kill hook).  Always reaps the child — no zombies,
    whatever the path out.  Sets SIGPIPE to ignored in the calling
    process, so a worker that dies before reading its job costs an
    [EPIPE], not the supervisor.  Raises [Unix.Unix_error] only when
    the spawn itself fails. *)
