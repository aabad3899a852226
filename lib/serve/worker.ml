(* Spawn-and-supervise: run one campaign in a worker process and
   stream its response frames back to the daemon over a pipe.

   This is the crash-only boundary.  Whatever happens inside the
   worker — an OOM kill, a segfault in a C stub, a stray signal, a
   runaway model — the damage is confined to that process; the daemon
   observes an EOF on the pipe, reaps the corpse, classifies how it
   died, and decides whether to restart from the journal checkpoint.

   Workers are fresh processes of the running executable, started with
   [Unix.create_process] (posix_spawn), never [fork]: a forked child of
   a multi-threaded OCaml process inherits whatever runtime lock
   another thread held and can deadlock on its first allocation, and
   OCaml 5 refuses [fork] outright once the process has ever spawned
   a domain.  An exec'd worker starts a clean runtime instead, so
   nothing about the daemon's threads or domains reaches it.  The
   price is that nothing crosses the boundary but bytes: the worker
   reads its whole job from stdin and writes frames to stdout, and
   the executable must route the {!arg} invocation to the worker
   entry point before doing anything else.

   Every pipe end is created close-on-exec (the spawn dup2s the
   worker's two ends onto its stdin and stdout, which clears the flag
   there only): a worker spawned concurrently by another thread must
   not inherit this worker's stdout write end, or this worker's death
   would never read as EOF. *)

type crash =
  | Exited of int  (* worker exited without delivering a terminal frame *)
  | Signaled of int  (* killed by a signal (OCaml signal numbering) *)
  | Hung  (* blew through its wall-clock cap; SIGKILLed by us *)

type outcome =
  | Terminal  (* the worker delivered Report/Drained/Refused *)
  | Crashed of crash

let signal_name s =
  if s = Sys.sigkill then "SIGKILL"
  else if s = Sys.sigterm then "SIGTERM"
  else if s = Sys.sigsegv then "SIGSEGV"
  else if s = Sys.sigabrt then "SIGABRT"
  else if s = Sys.sigbus then "SIGBUS"
  else if s = Sys.sigill then "SIGILL"
  else if s = Sys.sigfpe then "SIGFPE"
  else Printf.sprintf "signal %d" s

let describe = function
  | Exited n -> Printf.sprintf "exited with code %d before finishing" n
  | Signaled s -> Printf.sprintf "was killed by %s" (signal_name s)
  | Hung -> "missed its wall-clock cap and was killed"

let ignoring_unix f = try f () with Unix.Unix_error (_, _, _) -> ()

let arg = "worker"

let supervise ?timeout_s ~grace_s ~should_stop ~on_spawn ~job ~on_line () =
  (* a worker that dies before reading its whole job must cost an
     EPIPE on the write below, not the supervising process *)
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
  on_spawn pid;
  (* the job goes out from the pump loop below, never in a blocking
     write: a worker that stops reading must not wedge the supervisor
     past its drain flag and wall cap *)
  Unix.set_nonblock job_w;
  let sent = ref 0 in
  let job_open = ref true in
  let close_job () =
    if !job_open then begin
      job_open := false;
      ignoring_unix (fun () -> Unix.close job_w)
    end
  in
  let send () =
    match
      Unix.write_substring job_w job !sent
        (min 65536 (String.length job - !sent))
    with
    | n ->
      sent := !sent + n;
      if !sent = String.length job then close_job ()
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
      ()
    | exception Unix.Unix_error (_, _, _) ->
      (* EPIPE: the worker is gone; its EOF on [r] tells the rest *)
      close_job ()
  in
  let t0 = Unix.gettimeofday () in
  let terminal = ref false in
  let termed = ref None in  (* when we sent SIGTERM *)
  let killed = ref false in
  let soft_kill () =
    match !termed with
    | Some _ -> ()
    | None ->
      termed := Some (Unix.gettimeofday ());
      ignoring_unix (fun () -> Unix.kill pid Sys.sigterm)
  in
  let hard_kill () =
    if not !killed then begin
      killed := true;
      ignoring_unix (fun () -> Unix.kill pid Sys.sigkill)
    end
  in
  (* pump complete lines to [on_line] until a terminal frame or EOF,
     turning drain requests and wall caps into signals as we go *)
  let pending = ref "" in
  let feed data =
    pending := !pending ^ data;
    let rec split () =
      if not !terminal then
        match String.index_opt !pending '\n' with
        | None -> ()
        | Some i ->
          let line = String.sub !pending 0 i in
          pending :=
            String.sub !pending (i + 1) (String.length !pending - i - 1);
          (match on_line line with
           | `Terminal -> terminal := true
           | `Continue -> ());
          split ()
    in
    split ()
  in
  let chunk = Bytes.create 65536 in
  let rec pump () =
    if not !terminal then begin
      if should_stop () then soft_kill ();
      (match timeout_s with
       | Some cap when Unix.gettimeofday () -. t0 > cap -> soft_kill ()
       | _ -> ());
      (match !termed with
       | Some at when Unix.gettimeofday () -. at > grace_s -> hard_kill ()
       | _ -> ());
      match
        Unix.select [ r ] (if !job_open then [ job_w ] else []) [] 0.05
      with
      | readable, writable, _ ->
        if writable <> [] then send ();
        if readable = [] then pump ()
        else (
          match Unix.read r chunk 0 (Bytes.length chunk) with
          | 0 -> ()  (* EOF: the worker is gone or closed its end *)
          | n ->
            feed (Bytes.sub_string chunk 0 n);
            pump ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> pump ()
          | exception Unix.Unix_error (_, _, _) -> ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> pump ()
    end
  in
  pump ();
  close_job ();
  (* a worker's stdout closes as it exits: after a terminal frame,
     wait for that EOF rather than poll for the exit, so the caller
     gets its lane back as soon as the worker is gone *)
  let rec await_eof deadline =
    let left = deadline -. Unix.gettimeofday () in
    if left > 0. then
      match Unix.select [ r ] [] [] left with
      | [], _, _ -> ()
      | _ ->
        (match Unix.read r chunk 0 (Bytes.length chunk) with
         | 0 -> ()
         | _ -> await_eof deadline
         | exception Unix.Unix_error (Unix.EINTR, _, _) -> await_eof deadline
         | exception Unix.Unix_error (_, _, _) -> ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> await_eof deadline
  in
  if !terminal then await_eof (Unix.gettimeofday () +. grace_s);
  ignoring_unix (fun () -> Unix.close r);
  (* reap, escalating to SIGKILL if the worker lingers past grace —
     a worker that delivered its terminal frame but will not die
     still must not become a zombie *)
  let rec reap deadline =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
      if Unix.gettimeofday () > deadline then begin
        hard_kill ();
        match Unix.waitpid [] pid with
        | _, st -> st
        | exception Unix.Unix_error (_, _, _) -> Unix.WEXITED 0
      end
      else begin
        Thread.delay 0.001;
        reap deadline
      end
    | _, st -> st
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> Unix.WEXITED 0
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap deadline
  in
  let status = reap (Unix.gettimeofday () +. grace_s) in
  if !terminal then Terminal
  else if !killed then Crashed Hung
  else
    (match status with
     | Unix.WEXITED 0 ->
       (* protocol violation: a clean exit with no terminal frame
          still counts as a crash — the campaign did not finish *)
       Crashed (Exited 0)
     | Unix.WEXITED n -> Crashed (Exited n)
     | Unix.WSIGNALED s | Unix.WSTOPPED s -> Crashed (Signaled s))
