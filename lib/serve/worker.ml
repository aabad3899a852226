(* Spawn-and-supervise: campaign worker processes, each running one job
   at a time and streaming its response frames back to the daemon over
   a pipe.

   This is the crash-only boundary.  Whatever happens inside the
   worker — an OOM kill, a segfault in a C stub, a stray signal, a
   runaway model — the damage is confined to that process; the daemon
   observes an EOF on the pipe, reaps the corpse, classifies how it
   died, and decides whether to restart the job from the journal
   checkpoint.

   Workers are fresh processes of the running executable, started with
   [Unix.create_process] (posix_spawn), never [fork], which OCaml 5
   refuses once the process has ever spawned a domain.  Nothing
   crosses the boundary but bytes: the worker reads length-prefixed
   jobs from stdin ({!framed}) and writes frames to stdout, and the
   executable must route the {!arg} invocation to the worker entry
   point first thing.

   A worker outlives its job: after the job's terminal frame it waits
   for the next one, so a warm daemon request pays no process start.
   A worker that will not take another job closes its stdin before
   that frame, so a job handed to it afterwards fails to write
   ([EPIPE]) and goes elsewhere, never counted as a crash.

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

(* ---- the job stream ---------------------------------------------- *)

let framed job = string_of_int (String.length job) ^ "\n" ^ job

(* Reads in bounded chunks, so a corrupt length costs a short read, not
   an allocation of that length. *)
let read_job ic =
  match In_channel.input_line ic with
  | None -> `Eof
  | Some len ->
    (match int_of_string_opt len with
     | Some n when n >= 0 && n <= Sys.max_string_length ->
       let b = Buffer.create (min n 65536) in
       let chunk = Bytes.create 65536 in
       let rec fill left =
         left = 0
         ||
         match In_channel.input ic chunk 0 (min left (Bytes.length chunk)) with
         | 0 -> false
         | k ->
           Buffer.add_subbytes b chunk 0 k;
           fill (left - k)
       in
       if fill n then `Job (Buffer.contents b) else `Bad
     | _ -> `Bad)

(* ---- supervision ------------------------------------------------- *)

type job = {
  paused : unit -> bool;
  on_line : string -> [ `Continue | `Terminal ];
  on_end : outcome -> unit;
  cap : float option;  (* absolute wall-clock cap *)
}

type t = {
  pid : int;
  out : Lineio.reader;  (* job bytes not yet written *)
  mutable job_w : Unix.file_descr option;  (* stdin, until retired *)
  mutable frames : Unix.file_descr option;  (* stdout, until EOF *)
  lines : Lineio.reader;
  grace_s : float;
  mutable job : job option;  (* the job in flight *)
  mutable given : int;  (* jobs handed to this worker *)
  mutable termed : float option;  (* when we sent SIGTERM *)
  mutable killed : bool;
  mutable reap_by : float option;  (* SIGKILL a lingering worker then *)
  mutable gone : bool;  (* reaped *)
}

let pid w = w.pid
let gone w = w.gone

let idle w =
  w.job = None && w.job_w <> None && w.frames <> None && w.termed = None

let spawn ~grace_s =
  (* a worker that dies before reading its whole job must cost an
     EPIPE on a write, not the supervising process *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let job_r, job_w = Unix.pipe ~cloexec:true () in
  let r, w = Unix.pipe ~cloexec:true () in
  (* on Linux, /proc/self/exe is this process's own image even when
     the file on disk was replaced or deleted since it started (a
     rebuild under a live daemon): the worker runs the very code that
     encodes its jobs *)
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
  { pid; out = Lineio.reader (); job_w = Some job_w; frames = Some r;
    lines = Lineio.reader ~max_line:Sys.max_string_length (); grace_s;
    job = None; given = 0; termed = None; killed = false; reap_by = None;
    gone = false }

(* Close the worker's stdin: it exits at EOF once its job is done. *)
let retire w =
  Option.iter (fun fd -> ignoring_unix (fun () -> Unix.close fd)) w.job_w;
  w.job_w <- None;
  Lineio.clear w.out

let give ?timeout_s ~paused ~on_line ~on_end w text =
  let fresh = w.given = 0 in
  match w.job_w with
  | Some fd when idle w ->
    Lineio.feed w.out (framed text);
    (* the first write tells a live worker from one that has closed
       its stdin to retire (or died) since its last terminal frame *)
    if not (Lineio.flush w.out fd) then retire w;
    if w.job_w = None && not fresh then false
    else begin
      w.given <- w.given + 1;
      w.job <-
        Some
          { paused; on_line; on_end;
            cap = Option.map (fun s -> Unix.gettimeofday () +. s) timeout_s };
      true
    end
  | Some _ | None -> false

let watch w =
  ( (match w.frames, w.job with
     | Some _, Some j when j.paused () -> []
     | Some fd, _ -> [ fd ]
     | None, _ -> []),
    if Lineio.pending w.out > 0 then Option.to_list w.job_w else [] )

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

(* Complete lines go to the job's [on_line] until it answers
   [`Terminal], which ends the job (returned, for [on_end] to run once
   the pipe's state is known); what a worker writes between jobs is
   read and dropped. *)
let rec deliver w ended =
  match Lineio.next w.lines with
  | Some (Lineio.Line line) ->
    (match w.job with
     | Some j when j.on_line line = `Terminal ->
       w.job <- None;
       deliver w (Some j)
     | Some _ | None -> deliver w ended)
  | Some Lineio.Too_long -> deliver w ended
  | Some Lineio.Eof | None -> ended

let classify w status =
  if w.killed then Crashed Hung
  else
    match status with
    | Unix.WEXITED n ->
      (* [Exited 0] is a protocol violation: a clean exit with no
         terminal frame still counts as a crash — the job did not
         finish *)
      Crashed (Exited n)
    | Unix.WSIGNALED s | Unix.WSTOPPED s -> Crashed (Signaled s)

let reaped w outcome =
  w.gone <- true;
  match w.job with
  | Some j ->
    w.job <- None;
    j.on_end outcome
  | None -> ()

let step w ~readable ~writable ~stop =
  let now = Unix.gettimeofday () in
  (match w.job_w with
   | Some fd when List.memq fd writable ->
     (* a failed write is EPIPE: the worker is gone, and its EOF on
        the frames pipe tells the rest *)
     if not (Lineio.flush w.out fd) then retire w
   | _ -> ());
  let ended =
    match w.frames with
    | Some fd when List.memq fd readable ->
      Lineio.read w.lines fd;
      let ended = deliver w None in
      if w.lines.Lineio.eof then begin
        ignoring_unix (fun () -> Unix.close fd);
        w.frames <- None;
        retire w
      end;
      ended
    | _ -> None
  in
  (match w.job with
   | Some j when w.frames <> None ->
     if stop then soft_kill w now;
     (match j.cap with Some cap when now > cap -> soft_kill w now | _ -> ());
     (match w.termed with
      | Some at when now -. at > w.grace_s -> hard_kill w
      | _ -> ())
   | Some _ -> ()
   | None ->
     (* a SIGTERMed worker drains and goes: it takes no further job *)
     if stop || w.termed <> None then retire w);
  (* a worker whose stdin is closed, or whose pipe hit EOF, but that
     will not die still must not become a zombie *)
  if w.reap_by = None && (w.frames = None || (w.job = None && w.job_w = None))
  then w.reap_by <- Some (now +. w.grace_s);
  (match w.reap_by with Some t when now > t -> hard_kill w | _ -> ());
  Option.iter (fun j -> j.on_end Terminal) ended;
  (* reap only after EOF: every frame the worker wrote is read first *)
  if w.frames = None && not w.gone then
    match Unix.waitpid [ Unix.WNOHANG ] w.pid with
    | 0, _ -> ()
    | _, status -> reaped w (classify w status)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error (_, _, _) -> reaped w (classify w (Unix.WEXITED 0))

let wake_at w =
  let earliest a b =
    match a, b with
    | Some x, Some y -> Some (Float.min x y)
    | Some _, None -> a
    | None, _ -> b
  in
  if w.gone then None
  else if w.frames = None then
    (* exited, or exiting: try the reap again on the next turn *)
    Some (Unix.gettimeofday () +. 0.001)
  else if w.killed then None
  else
    earliest w.reap_by
      (match w.job, w.termed with
       | Some j, None -> j.cap
       | Some _, Some at -> Some (at +. w.grace_s)
       | None, _ -> None)
