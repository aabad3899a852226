(* Spawn-and-supervise: run one campaign in a worker process and
   stream its response frames back to the daemon over a pipe.

   This is the crash-only boundary.  Whatever happens inside the
   worker — an OOM kill, a segfault in a C stub, a stray signal, a
   runaway model — the damage is confined to that process; the daemon
   observes an EOF on the pipe, reaps the corpse, classifies how it
   died, and decides whether to restart from the journal checkpoint.

   Workers are fresh processes of the running executable, started with
   [Unix.create_process] (posix_spawn), never [fork], which OCaml 5
   refuses once the process has ever spawned a domain.  Nothing
   crosses the boundary but bytes: the worker reads its whole job from
   stdin and writes frames to stdout, and the executable must route
   the {!arg} invocation to the worker entry point first thing.

   The daemon's select loop drives a worker through {!step}: job bytes
   out, frame lines in, drain and wall-cap signals, and a non-blocking
   reap after its pipe's EOF.  Every pipe end is close-on-exec (the
   spawn's dup2 clears the flag on the worker's own two ends only), so
   no worker holds another's stdout open and hides its death. *)

type crash =
  | Exited of int  (* worker exited without delivering a terminal frame *)
  | Signaled of int  (* killed by a signal (OCaml signal numbering) *)
  | Hung  (* blew through its wall-clock cap; SIGKILLed by us *)

type outcome =
  | Terminal  (* the worker delivered Report/Drained/Refused *)
  | Crashed of crash

let signal_name s =
  match
    List.assoc_opt s
      Sys.[ (sigkill, "SIGKILL"); (sigterm, "SIGTERM"); (sigsegv, "SIGSEGV");
            (sigabrt, "SIGABRT"); (sigbus, "SIGBUS"); (sigill, "SIGILL");
            (sigfpe, "SIGFPE") ]
  with
  | Some name -> name
  | None -> Printf.sprintf "signal %d" s

let describe = function
  | Exited n -> Printf.sprintf "exited with code %d before finishing" n
  | Signaled s -> Printf.sprintf "was killed by %s" (signal_name s)
  | Hung -> "missed its wall-clock cap and was killed"

let ignoring_unix f = try f () with Unix.Unix_error (_, _, _) -> ()

let arg = "worker"

type t = {
  pid : int;
  job : Lineio.reader;  (* job bytes not yet written *)
  mutable job_w : Unix.file_descr option;  (* until the job is out *)
  mutable frames : Unix.file_descr option;  (* until EOF *)
  lines : Lineio.reader;
  paused : unit -> bool;
  on_line : string -> [ `Continue | `Terminal ];
  cap : float option;  (* absolute wall-clock cap *)
  grace_s : float;
  mutable termed : float option;  (* when we sent SIGTERM *)
  mutable killed : bool;
  mutable terminal : bool;
  mutable reap_by : float option;  (* SIGKILL a lingering worker then *)
}

let pid w = w.pid

let spawn ?timeout_s ~grace_s ~paused ~on_line job =
  (* a worker that dies before reading its whole job must cost an
     EPIPE on a write, not the supervising process *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let job_r, job_w = Unix.pipe ~cloexec:true () in
  let r, w = Unix.pipe ~cloexec:true () in
  (* on Linux, /proc/self/exe is this process's own image even when
     the file on disk was replaced or deleted since it started (a
     rebuild under a live daemon): the worker runs the very code that
     encoded its job *)
  let program =
    if Sys.file_exists "/proc/self/exe" then "/proc/self/exe"
    else Sys.executable_name
  in
  let pid =
    match
      Unix.create_process program [| Sys.executable_name; arg |] job_r w
        Unix.stderr
    with
    | pid -> pid
    | exception e ->
      List.iter
        (fun fd -> ignoring_unix (fun () -> Unix.close fd))
        [ job_r; job_w; r; w ];
      raise e
  in
  ignoring_unix (fun () -> Unix.close job_r);
  ignoring_unix (fun () -> Unix.close w);
  (* neither end may ever block the loop: a worker that stops reading
     its job must not wedge the daemon past its drain flag and cap *)
  Unix.set_nonblock job_w;
  Unix.set_nonblock r;
  let queue = Lineio.reader ~size:(String.length job) () in
  Lineio.feed queue job;
  { pid; job = queue; job_w = Some job_w; frames = Some r;
    lines = Lineio.reader ~max_line:Sys.max_string_length (); paused;
    on_line; cap = Option.map (fun s -> Unix.gettimeofday () +. s) timeout_s;
    grace_s; termed = None; killed = false; terminal = false;
    reap_by = None }

let close_job w =
  Option.iter (fun fd -> ignoring_unix (fun () -> Unix.close fd)) w.job_w;
  w.job_w <- None

let watch w =
  ( (match w.frames with
     | Some fd when w.terminal || not (w.paused ()) -> [ fd ]
     | _ -> []),
    Option.to_list w.job_w )

let soft_kill w now =
  if w.termed = None then begin
    w.termed <- Some now;
    ignoring_unix (fun () -> Unix.kill w.pid Sys.sigterm)
  end

let hard_kill w =
  if not w.killed then begin
    w.killed <- true;
    ignoring_unix (fun () -> Unix.kill w.pid Sys.sigkill)
  end

(* Complete lines go to [on_line] until it answers [`Terminal]; what a
   worker writes after its terminal frame is read and dropped, so its
   exit shows as EOF. *)
let rec deliver w =
  match Lineio.next w.lines with
  | Some (Lineio.Line line) when not w.terminal ->
    if w.on_line line = `Terminal then w.terminal <- true;
    deliver w
  | Some (Lineio.Line _ | Lineio.Too_long) -> deliver w
  | Some Lineio.Eof | None -> ()

let classify w status =
  if w.terminal then Terminal
  else if w.killed then Crashed Hung
  else
    match status with
    | Unix.WEXITED n ->
      (* [Exited 0] is a protocol violation: a clean exit with no
         terminal frame still counts as a crash — the campaign did not
         finish *)
      Crashed (Exited n)
    | Unix.WSIGNALED s | Unix.WSTOPPED s -> Crashed (Signaled s)

let step w ~readable ~writable ~stop =
  let now = Unix.gettimeofday () in
  (match w.job_w with
   | Some fd when List.memq fd writable ->
     (* a failed write is EPIPE: the worker is gone, and its EOF on
        the frames pipe tells the rest *)
     if not (Lineio.flush w.job fd) || Lineio.pending w.job = 0 then
       close_job w
   | _ -> ());
  (match w.frames with
   | Some fd when List.memq fd readable ->
     Lineio.read w.lines fd;
     deliver w;
     if w.lines.Lineio.eof then begin
       ignoring_unix (fun () -> Unix.close fd);
       w.frames <- None;
       close_job w
     end
   | _ -> ());
  if w.terminal || w.frames = None then begin
    if w.reap_by = None then w.reap_by <- Some (now +. w.grace_s)
  end
  else begin
    if stop then soft_kill w now;
    (match w.cap with Some cap when now > cap -> soft_kill w now | _ -> ());
    match w.termed with
    | Some at when now -. at > w.grace_s -> hard_kill w
    | _ -> ()
  end;
  (* a worker that delivered its terminal frame, or closed its pipe,
     but will not die still must not become a zombie *)
  (match w.reap_by with Some t when now > t -> hard_kill w | _ -> ());
  (* reap only after EOF: every frame the worker wrote is read first *)
  if w.frames <> None then None
  else
    match Unix.waitpid [ Unix.WNOHANG ] w.pid with
    | 0, _ -> None
    | _, status -> Some (classify w status)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> None
    | exception Unix.Unix_error (_, _, _) -> Some (classify w (Unix.WEXITED 0))

let wake_at w =
  if w.frames = None then
    (* exited, or exiting: try the reap again on the next turn *)
    Some (Unix.gettimeofday () +. 0.001)
  else if w.killed then None
  else if w.terminal then w.reap_by
  else
    match w.termed with
    | None -> w.cap
    | Some at -> Some (at +. w.grace_s)
