(* Deterministic chaos harness for the crash-only daemon.

   The signature invariant of the service (docs/SERVICE.md): after ANY
   injected failure sequence, the recovered campaign report is
   byte-identical to what undisturbed offline [csrtl inject] prints,
   and the daemon itself keeps answering.  This module drives a real
   engine — the exact code [csrtl serve] runs, minus the socket —
   through seeded sequences of:

   - worker SIGKILL at a random point of its job (before the journal
     opens, mid-append, near completion);
   - torn journal tails (truncate a random number of bytes off the
     end, including mid-line tears);
   - ENOSPC on the Nth journal append and EIO on the checkpoint fsync
     (via the {!Csrtl_fault.Journal.set_chaos} seam; the supervisor
     hands the armed injections to every worker it spawns, and a
     scheduled injection that never fires is a violation);
   - per-frame delivery delays on a streamed campaign.

   Everything derives from one splitmix64 seed, so a failure is a
   reproducible failure.  Interleaved with the chaos, a healthy client
   runs campaigns on an untouched model and must always complete —
   the "never drops a healthy client" half of the invariant. *)

module C = Csrtl_core
module F = Csrtl_fault
module S = Csrtl_serve

module Rng = Csrtl_fuzz.Fuzz.Rng

(* -- the corpus ----------------------------------------------------- *)

(* Same shape as the Makefile smoke model: an ADD chain alternating its
   destination register.  Different transfer counts give structurally
   distinct models — distinct digests, tokens, and journals — so chaos
   aimed at one model cannot splash onto the healthy one. *)
let model_text ~name ~transfers =
  let b = Buffer.create 256 in
  Printf.bprintf b "model %s\n" name;
  Printf.bprintf b "csmax %d\n" ((2 * transfers) + 1);
  Buffer.add_string b "reg R0 init 1\n";
  Buffer.add_string b "reg R1 init 2\n";
  Buffer.add_string b "bus BA BB\n";
  Buffer.add_string b "unit ADD ops add latency 1\n";
  for i = 0 to transfers - 1 do
    let r = (2 * i) + 1 in
    let d = if i mod 2 = 1 then "R0" else "R1" in
    Printf.bprintf b "transfer R0 BA R1 BB %d ADD %d BA %s\n" r (r + 1) d
  done;
  Buffer.contents b

type target = {
  text : string;
  expected : string;  (* offline inject stdout, the oracle *)
  mutable token : string;  (* learned from the priming run *)
  mutable journal : string;
  mutable job_s : float;  (* fastest warm job, handout to report *)
}

(* -- fault plan ----------------------------------------------------- *)

type fault =
  | Worker_kill of int  (* SIGKILL the worker n/16 into its job's kill span *)
  | Torn_tail of int  (* truncate n bytes off the journal tail *)
  | Journal_enospc of int  (* the nth append raises ENOSPC *)
  | Journal_eio  (* the checkpoint fsync raises EIO *)
  | Frame_delay of int  (* delay each streamed frame by n ms *)

let fault_label = function
  | Worker_kill n -> Printf.sprintf "worker-kill@%d/16" n
  | Torn_tail n -> Printf.sprintf "torn-tail-%db" n
  | Journal_enospc n -> Printf.sprintf "enospc@append-%d" n
  | Journal_eio -> "eio@sync"
  | Frame_delay ms -> Printf.sprintf "frame-delay-%dms" ms

let pick_fault rng =
  match Rng.int rng 5 with
  | 0 -> Worker_kill (Rng.int rng 16)
  | 1 -> Torn_tail (1 + Rng.int rng 200)
  | 2 -> Journal_enospc (1 + Rng.int rng 10)
  | 3 -> Journal_eio
  | _ -> Frame_delay (1 + Rng.int rng 3)

type summary = {
  runs : int;
  kills : int;
  torn : int;
  enospc : int;
  eio : int;
  delays : int;
  crashes : int;  (* worker deaths the supervisor observed *)
  restarts : int;  (* journal-checkpoint restarts it performed *)
  healthy : int;  (* concurrent healthy campaigns completed *)
  violations : string list;  (* empty = invariant held everywhere *)
}

(* -- harness -------------------------------------------------------- *)

let base_inject model =
  { S.Frame.model; engine = `Auto; batch = 32; limit = None;
    budget_ms = None; deadline_ms = None; table = false; stream = false;
    resume = true }

let run ?(log = fun _ -> ()) ~seed ~runs () =
  let rng = Rng.make seed in
  let state_dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "csrtl-chaos-%d" (Unix.getpid ()))
  in
  (* the kill hook: arm (token, delay, shots) before a scenario; every
     job handed out for that token has its worker SIGKILLed [delay]
     seconds later, from the due list [pump] honours, until the shots
     run out.  Filtering by token keeps the healthy model's workers
     safe.  The delay is a share of the first [kill_span] of the
     target's fastest warm job, so the kill lands inside its own job
     (over the whole job, about 1 kill in 180 fell after a job that
     ran faster than its primes); should the job still end first, the
     scenario drops the kill, since workers outlive their jobs and a
     late kill would land on an idle worker or on a later job *)
  let kill_span = 0.75 in
  let armed : (string * float * int ref) option ref = ref None in
  let due_kills = ref [] in  (* (due time, pid) *)
  let handed_at = ref 0. in  (* when the last job was handed out *)
  let on_worker ~pid ~token =
    handed_at := Unix.gettimeofday ();
    match !armed with
    | Some (t, delay_s, shots) when t = token && !shots > 0 ->
      decr shots;
      due_kills := (!handed_at +. delay_s, pid) :: !due_kills
    | _ -> ()
  in
  let eng =
    S.Engine.create
      { S.Engine.default_config with
        state_dir; jobs = 1; cache_capacity = 8; max_pending = 2;
        (* one restart then give up: chaos wants to see both the
           recovery path and the exhausted-restarts refusal quickly *)
        max_restarts = 1; backoff_base_ms = 10; backoff_cap_ms = 50;
        (* quarantine off: the harness injects crash storms on purpose
           and must keep being served; the breaker has its own unit
           tests *)
        quarantine_threshold = 0; worker_grace_ms = 500;
        on_worker = Some on_worker }
  in
  let violations = ref [] in
  let violate fmt =
    Printf.ksprintf
      (fun msg ->
        violations := msg :: !violations;
        log ("VIOLATION: " ^ msg))
      fmt
  in
  (* one turn of the engine's loop, firing the kills that fall due *)
  let pump () =
    let now = Unix.gettimeofday () in
    let due, later = List.partition (fun (at, _) -> at <= now) !due_kills in
    due_kills := later;
    List.iter
      (fun (_, pid) ->
        try Unix.kill pid Sys.sigkill with Unix.Unix_error (_, _, _) -> ())
      due;
    let timeout =
      List.fold_left (fun acc (at, _) -> Float.min acc (at -. now)) 1. later
    in
    ignore (S.Engine.poll eng ~read:[] ~write:[] ~timeout)
  in
  (* start a request; the returned thunk tells whether it is terminal *)
  let submit ?(tap = fun _ -> ()) q =
    let frames = ref [] and finished = ref false in
    S.Engine.submit eng (S.Frame.Inject q) ~emit:(fun r ->
        tap r;
        frames := r :: !frames;
        if S.Engine.terminal r then finished := true);
    fun () -> if !finished then Some (List.rev !frames) else None
  in
  let rec await result =
    match result () with
    | Some frames -> frames
    | None ->
      pump ();
      await result
  in
  let request ?tap q = await (submit ?tap q) in
  let report_text frames =
    match List.rev frames with
    | S.Frame.Report { text; _ } :: _ -> Some text
    | _ -> None
  in
  (* resend until a Report lands: transient chaos (exhausted restarts,
     still-armed injectors the scenario has since disarmed) heals by
     resending the request, exactly as a real client would *)
  let recover ~label (target : target) =
    let rec go attempt =
      if attempt > 4 then
        violate "%s: no report after %d recovery resends" label attempt
      else
        let frames = request (base_inject target.text) in
        match report_text frames with
        | Some text ->
          if text <> target.expected then
            violate "%s: recovered report differs from offline inject" label
        | None -> go (attempt + 1)
    in
    go 0
  in
  (* a Report must be offline's bytes; no Report heals by resending *)
  let settle ~label ~what (target : target) frames =
    match report_text frames with
    | Some text -> if text <> target.expected then violate "%s: %s" label what
    | None -> recover ~label target
  in
  let ping_alive label =
    let got = ref false in
    S.Engine.handle eng S.Frame.Ping
      ~emit:(fun r -> if r = S.Frame.Pong { version = "csrtl-serve/3" } then got := true);
    if not !got then violate "%s: daemon stopped answering ping" label
  in
  (* -- corpus + priming --------------------------------------------- *)
  let mk name transfers =
    let text = model_text ~name ~transfers in
    let expected =
      match C.Rtm.parse ~file:"<chaos>" text with
      | Ok (m, _) ->
        F.Campaign.render_report ~table:false
          (F.Campaign.run ~engine:`Auto ~batch:32 m)
      | Error _ -> failwith "chaos: corpus model failed to parse"
    in
    { text; expected; token = ""; journal = ""; job_s = 0. }
  in
  let corpus = [| mk "chaos_a" 3; mk "chaos_b" 4; mk "chaos_c" 5 |] in
  let healthy_t = mk "chaos_healthy" 6 in
  let prime (target : target) =
    let frames = request { (base_inject target.text) with resume = false } in
    (match
       List.find_map
         (function
           | S.Frame.Started { token; _ } -> Some token
           | _ -> None)
         frames
     with
     | Some token ->
       target.token <- token;
       target.journal <-
         Filename.concat state_dir ("inj-" ^ token ^ ".jsonl")
     | None -> failwith "chaos: priming run produced no Started frame");
    (match report_text frames with
     | Some text when text = target.expected -> ()
     | _ -> failwith "chaos: priming run did not match offline inject");
    (* time three warm jobs, the shape a kill scenario sends *)
    let warm_job () =
      let ended = ref 0. in
      let frames =
        request
          ~tap:(fun r ->
            if S.Engine.terminal r then ended := Unix.gettimeofday ())
          { (base_inject target.text) with resume = false }
      in
      if report_text frames <> Some target.expected then
        failwith "chaos: warm priming run did not match offline inject";
      !ended -. !handed_at
    in
    target.job_s <-
      List.fold_left Float.min infinity (List.init 3 (fun _ -> warm_job ()))
  in
  Array.iter prime corpus;
  prime healthy_t;
  let kills = ref 0 and torn = ref 0 and enospc = ref 0 in
  let eio = ref 0 and delays = ref 0 and healthy_done = ref 0 in
  (* Arm one journal fault for a fresh campaign on [target], then
     disarm.  Every worker the supervisor spawns meanwhile installs it
     with a fresh count, so the failure recurs across restarts until
     the restart budget runs out — disk "full" until now, and the
     resend must recover everything journaled.  A firing injection
     kills its worker, so a request that ends with no crash observed
     means the fault was scheduled but never reached a worker *)
  let journal_fault ~label (target : target) inj =
    let crashes0 = (S.Engine.stats eng).S.Frame.crashes in
    F.Journal.set_chaos [ inj ];
    let frames = request { (base_inject target.text) with resume = false } in
    F.Journal.set_chaos [];
    if (S.Engine.stats eng).S.Frame.crashes = crashes0 then
      violate "%s: scheduled journal fault never fired" label;
    settle ~label ~what:"report differs from offline inject" target frames
  in
  (* -- one scenario ------------------------------------------------- *)
  let scenario i =
    let target = corpus.(Rng.int rng (Array.length corpus)) in
    let fault = pick_fault rng in
    let label = Printf.sprintf "run %d [%s]" i (fault_label fault) in
    (* every 4th run, a healthy client works the untouched model
       concurrently with the chaos — it must always complete *)
    let healthy =
      if i mod 4 = 0 then Some (submit (base_inject healthy_t.text)) else None
    in
    (match fault with
     | Worker_kill sixteenths ->
       incr kills;
       armed :=
         Some
           (target.token,
            float_of_int sixteenths /. 16. *. kill_span *. target.job_s,
            ref 1);
       let frames =
         request
           ~tap:(fun r -> if S.Engine.terminal r then due_kills := [])
           { (base_inject target.text) with resume = false }
       in
       armed := None;
       settle ~label ~what:"report differs from offline inject" target frames
     | Torn_tail n ->
       incr torn;
       (* make sure the journal is complete, then tear its tail *)
       if not (Sys.file_exists target.journal) then
         ignore (request (base_inject target.text));
       (match In_channel.with_open_bin target.journal In_channel.input_all with
        | text ->
          let size = String.length text in
          let header_end =
            match String.index_opt text '\n' with Some i -> i + 1 | None -> size
          in
          (try Unix.truncate target.journal (max header_end (size - n))
           with Unix.Unix_error (_, _, _) -> ());
          settle ~label ~what:"resumed report differs after tear" target
            (request (base_inject target.text))
        | exception Sys_error _ ->
          violate "%s: journal vanished before tear" label)
     | Journal_enospc n ->
       incr enospc;
       journal_fault ~label target
         { F.Journal.path = target.journal; op = `Append; nth = n;
           errno = `ENOSPC }
     | Journal_eio ->
       incr eio;
       journal_fault ~label target
         { F.Journal.path = target.journal; op = `Sync; nth = 1;
           errno = `EIO }
     | Frame_delay ms ->
       incr delays;
       let frames =
         request
           ~tap:(fun r ->
             match r with
             | S.Frame.Entry _ -> Unix.sleepf (float_of_int ms /. 1000.)
             | _ -> ())
           { (base_inject target.text) with stream = true; resume = false }
       in
       settle ~label ~what:"slow-consumer report differs" target frames);
    ping_alive label;
    (match Option.map await healthy with
     | None -> ()
     | Some frames when report_text frames = Some healthy_t.expected ->
       incr healthy_done
     | Some _ -> violate "%s: healthy concurrent campaign disturbed" label);
    if (i + 1) mod 25 = 0 then
      log
        (Printf.sprintf "chaos: %d/%d scenarios, %d violation(s)" (i + 1)
           runs (List.length !violations))
  in
  for i = 0 to runs - 1 do
    scenario i
  done;
  S.Engine.shutdown eng;
  let stats = S.Engine.stats eng in
  (* best-effort scrub of the scratch state dir *)
  (try
     Array.iter
       (fun f -> try Sys.remove (Filename.concat state_dir f) with _ -> ())
       (Sys.readdir state_dir);
     Unix.rmdir state_dir
   with _ -> ());
  { runs; kills = !kills; torn = !torn; enospc = !enospc; eio = !eio;
    delays = !delays; crashes = stats.S.Frame.crashes;
    restarts = stats.S.Frame.restarts; healthy = !healthy_done;
    violations = List.rev !violations }
