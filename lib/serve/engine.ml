(* The daemon's brain, socket-free and single-threaded: [submit]
   starts a request and emits what it can at once; [poll] runs one
   select turn over the worker pipes (plus the caller's descriptors)
   and fires the continuations it wakes.  The differential tests, the
   chaos harness and the frame fuzzer drive the exact code the daemon
   runs; the server adds line framing and output queues around [poll].

   The engine is crash-only, and it never runs a campaign itself.
   Every campaign runs in a worker process supervised here: a worker
   that crashes, hangs, or is killed is reaped, classified, and
   restarted from its journal checkpoint with capped exponential
   backoff; a model whose campaigns keep crashing trips a circuit
   breaker and is quarantined for a cooloff.  What is left in the
   daemon is parsing, tier lookups, admission and moving bytes.
   Admission is a bounded per-client-fair queue ({!Admission}), and
   busy/quarantined refusals carry a [retry_after_ms] hint. *)

module C = Csrtl_core
module Diag = Csrtl_diag.Diag
module F = Csrtl_fault
module Par = Csrtl_par.Par

type config = {
  state_dir : string;
  jobs : int;
  cache_capacity : int;
  plan_cache_capacity : int;
  golden_cache_capacity : int;
  limits : Diag.Limits.t;
  max_pending : int;
  default_deadline_ms : int option;
  max_queue : int;
  max_queue_per_client : int;
  max_restarts : int;
  backoff_base_ms : int;
  backoff_cap_ms : int;
  quarantine_threshold : int;
  quarantine_cooloff_ms : int;
  worker_grace_ms : int;
  worker_timeout_ms : int option;
  on_worker : (pid:int -> token:string -> unit) option;
}

let default_config =
  { state_dir = "csrtl-serve-state"; jobs = 0; cache_capacity = 64;
    plan_cache_capacity = 64; golden_cache_capacity = 64;
    limits = Diag.Limits.default; max_pending = 4;
    default_deadline_ms = None; max_queue = 16; max_queue_per_client = 8;
    max_restarts = 3; backoff_base_ms = 25; backoff_cap_ms = 1000;
    quarantine_threshold = 3; quarantine_cooloff_ms = 30_000;
    worker_grace_ms = 2000; worker_timeout_ms = None; on_worker = None }

type compiled = { model : C.Model.t; digest : string }

type counters = {
  mutable requests : int;
  mutable campaigns : int;
  mutable drained : int;
  mutable refused : int;
  mutable restarts : int;
  mutable crashes : int;
}

(* Per-model circuit breaker, keyed by the compile-cache digest.
   Consecutive worker crashes past the threshold open it; while open,
   requests for that model are refused with [serve.quarantined] and
   the remaining cooloff as the retry hint.  After the cooloff the
   next request probes (half-open): success closes the breaker,
   another crash re-opens it immediately. *)
type breaker = {
  mutable crashes : int;
  mutable opened_until : float;
}

type t = {
  cfg : config;
  cache : compiled Cache.t;
  (* the two warm tiers above the parsed-model cache, keyed by
     (structural model digest | config tag).  [None] when disabled by
     a zero capacity.  The plan tier holds a model's full fault
     enumeration, which a limited request subsamples without
     re-walking the model; the worker compiles its own batch plan,
     since a compiled plan (closures) cannot cross into it.  The
     golden tier holds the {!F.Artifact.to_string} bytes a worker
     built and sent home (both goldens and their measured cost),
     handed unparsed to the next worker for the model: the daemon
     never runs a campaign, so parsing them here would be pure cost. *)
  plans : F.Fault.t list Cache.t option;
  goldens : string Cache.t option;
  mutable stop : bool;
  adm : Admission.t;
  (* a held resume token -> the requests waiting for it ([token_enter]) *)
  inflight : (string, (unit -> unit) Queue.t) Hashtbl.t;
  breakers : (string, breaker) Hashtbl.t;
  counters : counters;
  (* every live worker process, running a job or idle between jobs *)
  mutable workers : Worker.t list;
  mutable timers : (float * (unit -> unit)) list;  (* due time, action *)
}

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir)
  then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let create cfg =
  mkdir_p cfg.state_dir;
  let tier capacity =
    if capacity <= 0 then None else Some (Cache.create ~capacity)
  in
  { cfg; cache = Cache.create ~capacity:cfg.cache_capacity;
    plans = tier cfg.plan_cache_capacity;
    goldens = tier cfg.golden_cache_capacity;
    stop = false;
    adm =
      Admission.create ~max_active:cfg.max_pending ~max_queue:cfg.max_queue
        ~max_per_client:cfg.max_queue_per_client ();
    inflight = Hashtbl.create 8; breakers = Hashtbl.create 8;
    counters =
      { requests = 0; campaigns = 0; drained = 0; refused = 0;
        restarts = 0; crashes = 0 };
    workers = []; timers = [] }

let request_stop t = t.stop <- true
let stopping t = t.stop

(* The offline exit-code contract for a finished campaign (without
   [--strict]): hard evidence of a defect is 5, hangs are 4. *)
let inject_code (r : F.Campaign.report) =
  if r.F.Campaign.crashed > 0 || r.F.Campaign.disagreements > 0
     || r.F.Campaign.law_violations > 0
  then 5
  else if r.F.Campaign.hung > 0 then 4
  else 0

(* ---- resume tokens ----------------------------------------------- *)

(* A token names a campaign, not a connection: md5 over (model
   structural digest, config tag, fault-list digest), truncated for
   human handling.  The same request always maps to the same token and
   journal file, which is what makes crash recovery a no-op: resend
   the request and the daemon resumes whatever the journal holds. *)
let token_of ~digest ~config_tag ~faults_digest =
  String.sub
    (Digest.to_hex
       (Digest.string (digest ^ "|" ^ config_tag ^ "|" ^ faults_digest)))
    0 16

let journal_path cfg token =
  Filename.concat cfg.state_dir ("inj-" ^ token ^ ".jsonl")

(* ---- circuit breaker --------------------------------------------- *)

let quarantine_check t key =
  match Hashtbl.find_opt t.breakers key with
  | Some b when t.cfg.quarantine_threshold > 0 ->
    let now = Unix.gettimeofday () in
    if now < b.opened_until then
      `Quarantined (int_of_float ((b.opened_until -. now) *. 1000.) + 1)
    else `Ok  (* closed, or cooled off: half-open, let a probe in *)
  | Some _ | None -> `Ok

(* Returns whether this crash opened (or re-opened) the breaker. *)
let breaker_crash t key =
  t.cfg.quarantine_threshold > 0
  &&
  let b =
    match Hashtbl.find_opt t.breakers key with
    | Some b -> b
    | None ->
      let b = { crashes = 0; opened_until = 0. } in
      Hashtbl.replace t.breakers key b;
      b
  in
  b.crashes <- b.crashes + 1;
  let opened = b.crashes >= t.cfg.quarantine_threshold in
  if opened then
    b.opened_until <-
      Unix.gettimeofday ()
      +. (float_of_int t.cfg.quarantine_cooloff_ms /. 1000.);
  opened

let quarantined_count t =
  let now = Unix.gettimeofday () in
  Hashtbl.fold
    (fun _ b acc -> if now < b.opened_until then acc + 1 else acc)
    t.breakers 0

(* ---- request handling -------------------------------------------- *)

let refuse ?retry_after_ms t ~emit status diags =
  t.counters.refused <- t.counters.refused + 1;
  emit (Frame.Refused { status; retry_after_ms; diags })

(* the [Bug:] marker: an escaped exception is a defect of the daemon,
   not of the request *)
let bug t ~emit e =
  refuse t ~emit 3
    [ Diag.error ~rule:"serve.bug" "Bug: unexpected exception: %s"
        (Printexc.to_string e) ]

let compile t (q : Frame.inject) =
  let key = Digest.to_hex (Digest.string q.Frame.model) in
  match Cache.find t.cache key with
  | Some c -> (true, Ok c)
  | None ->
    (match C.Rtm.parse ~limits:t.cfg.limits ~file:"<request>" q.Frame.model with
     | Error diags -> (false, Error diags)
     | Ok (model, _warnings) ->
       let diags = C.Model.validate_diags ~limits:t.cfg.limits model in
       if Diag.has_errors diags then (false, Error diags)
       else begin
         let c = { model; digest = C.Snapshot.digest_of_model model } in
         Cache.add t.cache key c;
         (false, Ok c)
       end)

(* ---- the campaign worker ----------------------------------------- *)

(* The campaign core a worker runs: it streams entries through [emit]
   and returns the terminal frame, with the domains the campaign ran
   on.  [stopping] is the drain flag only (the worker's SIGTERM, or its
   supervisor's death); the deadline is computed here from [t0]. *)
let exec_campaign ~warm ~jobs ~stopping ~journal ~t0
    ~default_deadline_ms (q : Frame.inject) ~model ~digest ~faults ~labels
    ~token ~emit =
  let label_arr = Array.of_list labels in
  let total = List.length faults in
  let deadline =
    match
      (match q.Frame.deadline_ms with
       | Some _ as d -> d
       | None -> default_deadline_ms)
    with
    | None -> None
    | Some 0 -> Some neg_infinity  (* already expired: drain now *)
    | Some ms -> Some (t0 +. (float_of_int ms /. 1000.))
  in
  let should_stop () =
    stopping ()
    || (match deadline with
        | Some d -> Unix.gettimeofday () > d
        | None -> false)
  in
  let on_entry =
    if not q.Frame.stream then None
    else
      Some
        (fun i (e : F.Campaign.entry) ->
          emit
            (Frame.Entry
               { F.Journal.index = i; fault_label = label_arr.(i);
                 kernel = e.F.Campaign.kernel_outcome;
                 interp = e.F.Campaign.interp_outcome;
                 cycles = e.F.Campaign.kernel_cycles;
                 law_ok = e.F.Campaign.law_ok }))
  in
  let budget =
    Option.map (fun ms -> float_of_int ms /. 1000.) q.Frame.budget_ms
  in
  let run ~resume =
    F.Campaign.run_journaled ~jobs ~digest ~faults ?budget
      ~engine:q.Frame.engine ~batch:q.Frame.batch ~warm ~should_stop
      ?on_entry ~journal ~resume model
  in
  let resume = q.Frame.resume && Sys.file_exists journal in
  let result =
    match run ~resume with
    | Error _ when resume ->
      (* a stale or alien journal at this token (e.g. the state dir
         survived a config change): degrade to a fresh run instead of
         failing the request *)
      run ~resume:false
    | r -> r
  in
  match result with
  | Error msg ->
    ( Frame.Refused
        { status = 2; retry_after_ms = None;
          diags = [ Diag.error ~rule:"serve.journal" "%s" msg ] },
      0 )
  | Ok (report, info) ->
    ( (if info.F.Campaign.remaining > 0 then
         Frame.Drained
           { status = 1; token;
             completed = info.F.Campaign.reused + info.F.Campaign.rerun;
             total;
             reason = (if stopping () then "shutdown" else "deadline") }
       else
         let code = inject_code report in
         Frame.Report
           { status = (if code = 0 then 0 else 1); code; token;
             reused = info.F.Campaign.reused; rerun = info.F.Campaign.rerun;
             torn = info.F.Campaign.torn;
             text = F.Campaign.render_report ~table:q.Frame.table report }),
      info.F.Campaign.domains )

(* What a worker process is told, as bytes on its stdin: line 1 is the
   request as the wire encodes it; line 2 a JSON object with the config
   fields a worker reads, the golden-tier decision and the armed
   journal injections ({!F.Journal.set_chaos}); the rest, on a golden
   hit, is the artifact's {!F.Artifact.to_string} text.  Nothing else
   crosses the exec: the worker rebuilds the model, fault list and plan
   from the request text. *)
type job = {
  cfg : config;  (* state_dir, jobs, limits, default_deadline_ms *)
  q : Frame.inject;
  golden : [ `Off | `Miss of string | `Hit of string ];
      (* [`Miss] carries the tier key, [`Hit] the artifact bytes *)
  chaos : F.Journal.injection list;
}

module Json = F.Journal.Json

let limits_fields (l : Diag.Limits.t) =
  [ ("max_input_bytes", l.Diag.Limits.max_input_bytes);
    ("max_tokens", l.max_tokens); ("max_nesting", l.max_nesting);
    ("max_registers", l.max_registers); ("max_fus", l.max_fus);
    ("max_buses", l.max_buses); ("max_steps", l.max_steps);
    ("max_transfers", l.max_transfers) ]

let journal_ops = [ (`Create, "create"); (`Append, "append"); (`Sync, "sync") ]
let errnos = [ (`ENOSPC, "ENOSPC"); (`EIO, "EIO") ]

let named table name =
  match List.find_opt (fun (_, n) -> n = name) table with
  | Some (v, _) -> v
  | None -> raise (Json.Bad ("unknown name " ^ name))

let encode_job j =
  let injection (i : F.Journal.injection) =
    Json.Obj
      [ ("path", Json.Str i.F.Journal.path);
        ("op", Json.Str (List.assoc i.F.Journal.op journal_ops));
        ("nth", Json.Int i.F.Journal.nth);
        ("errno", Json.Str (List.assoc i.F.Journal.errno errnos)) ]
  in
  let header =
    Json.Obj
      ([ ("state_dir", Json.Str j.cfg.state_dir); ("jobs", Json.Int j.cfg.jobs);
         ( "limits",
           Json.Obj
             (List.map (fun (k, v) -> (k, Json.Int v))
                (limits_fields j.cfg.limits)) );
         ( "golden",
           Json.Str
             (match j.golden with
              | `Off -> "off"
              | `Miss _ -> "miss"
              | `Hit _ -> "hit") );
         ("chaos", Json.Arr (List.map injection j.chaos)) ]
      @ (match j.cfg.default_deadline_ms with
         | Some ms -> [ ("deadline_ms", Json.Int ms) ]
         | None -> [])
      @ match j.golden with `Miss key -> [ ("key", Json.Str key) ] | _ -> [])
  in
  String.concat ""
    [ Frame.encode_request (Frame.Inject j.q); "\n"; Json.to_string header;
      "\n"; (match j.golden with `Hit bytes -> bytes | `Off | `Miss _ -> "") ]

(* Raises [Json.Bad] on anything {!encode_job} would not produce. *)
let decode_job text =
  let cut s =
    match String.index_opt s '\n' with
    | Some i ->
      (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
    | None -> raise (Json.Bad "truncated worker job")
  in
  let request, rest = cut text in
  let header, artifact = cut rest in
  let h = Json.parse header in
  let l =
    match Json.field "limits" h with
    | Some l -> l
    | None -> raise (Json.Bad "missing limits")
  in
  let int k = Json.int_field k l in
  let limits =
    { Diag.Limits.max_input_bytes = int "max_input_bytes";
      max_tokens = int "max_tokens"; max_nesting = int "max_nesting";
      max_registers = int "max_registers"; max_fus = int "max_fus";
      max_buses = int "max_buses"; max_steps = int "max_steps";
      max_transfers = int "max_transfers" }
  in
  let q =
    match Frame.decode_request ~limits request with
    | Ok (Frame.Inject q) -> q
    | Ok _ | Error _ -> raise (Json.Bad "worker job carries no inject request")
  in
  let injection j =
    { F.Journal.path = Json.str_field "path" j;
      op = named journal_ops (Json.str_field "op" j);
      nth = Json.int_field "nth" j;
      errno = named errnos (Json.str_field "errno" j) }
  in
  { cfg =
      { default_config with
        state_dir = Json.str_field "state_dir" h;
        jobs = Json.int_field "jobs" h; limits;
        default_deadline_ms =
          (match Json.field "deadline_ms" h with
           | Some (Json.Int ms) -> Some ms
           | _ -> None) };
    q;
    golden =
      (match Json.str_field "golden" h with
       | "off" -> `Off
       | "miss" -> `Miss (Json.str_field "key" h)
       | "hit" -> `Hit artifact
       | g -> raise (Json.Bad ("unknown golden decision " ^ g)));
    chaos =
      (match Json.field "chaos" h with
       | Some (Json.Arr js) -> List.map injection js
       | _ -> raise (Json.Bad "missing chaos list")) }

(* One job, in a worker process: fresh journal injections, fresh
   journal writer, the worker's own domains — nothing shared with the
   daemon beyond the pipes and the journal file (O_APPEND, so even an
   orphan from a killed daemon interleaves safely until it drains), and
   nothing carried from the worker's earlier jobs but its heap.  The
   parent already validated the model from the same bytes, so a parse
   failure here is unreachable; it still exits cleanly rather than
   trusting that.  Returns the job's terminal frame, unsent, and the
   domains its campaign ran on.

   The plan is compiled here, at most once: a [Batch.plan] holds
   closures and cannot be sent.  [golden] is the golden-tier decision:
   [`Hit] brings the artifact's bytes; [`Miss key] makes this worker
   build it and ship it back over the pipe ({!Frame.Artifact}) {e
   before} the campaign runs, so the parent's tier warms even if the
   worker later crashes mid-campaign; [`Off] disables the tier. *)
let child_main ~stopping ~t0 { cfg; q; golden; chaos } fd =
  F.Journal.set_chaos chaos;
  let wlock = Mutex.create () in
  let emit resp =
    Mutex.lock wlock;
    let ok =
      Fun.protect ~finally:(fun () -> Mutex.unlock wlock)
        (fun () -> Lineio.write_line fd (Frame.encode_response resp))
    in
    (* supervisor gone mid-campaign: keep going — every finished fault
       still lands in the journal, so the work is not lost *)
    ignore ok
  in
  match C.Rtm.parse ~limits:cfg.limits ~file:"<request>" q.Frame.model with
  | Error _ -> exit 2
  | Ok (model, _warnings) ->
    if Diag.has_errors (C.Model.validate_diags ~limits:cfg.limits model)
    then exit 2;
    let digest = C.Snapshot.digest_of_model model in
    let faults = F.Fault.enumerate ?limit:q.Frame.limit model in
    let labels = List.map F.Fault.to_string faults in
    let config_tag = F.Journal.config_tag C.Simulate.default in
    let faults_digest = F.Journal.faults_digest labels in
    let token = token_of ~digest ~config_tag ~faults_digest in
    let journal = journal_path cfg token in
    let jobs =
      if cfg.jobs <= 0 then Par.available_parallelism () else cfg.jobs
    in
    let plan () =
      match C.Batch.plan model with p -> Some p | exception _ -> None
    in
    let fresh ?key plan =
      (* build the campaign's golden work once and ship it to the
         parent before touching a single fault: a later crash then
         costs a restart, not the artifact *)
      match F.Campaign.prepare ?plan model with
      | a ->
        (match key with
         | Some key ->
           emit (Frame.Artifact { key; text = F.Artifact.to_string a })
         | None -> ());
        Some a
      | exception _ -> None
    in
    (* the plan and a hit's artifact are built only when a fault is
       left to run: a replay of a finished journal needs neither *)
    let warm =
      match golden with
      | `Off -> fun () -> (plan (), None)
      | `Miss key ->
        let plan = plan () in
        let golden = fresh ~key plan in
        fun () -> (plan, golden)
      | `Hit text ->
        fun () ->
          let plan = plan () in
          (* the tier's bytes came from an earlier worker's [to_string];
             re-check the content-addressed header against this
             worker's own parse — O(1), so a daemon bug can only cost
             the optimization, never the report.  [validate]'s only
             costly step is re-digesting the model, whose digest this
             worker already holds *)
          ( plan,
            match F.Artifact.of_string text with
            | Ok a when F.Artifact.matches ~digest ~config_tag a -> Some a
            | Ok _ | Error _ -> fresh plan )
    in
    exec_campaign ~warm ~jobs ~stopping ~journal ~t0
      ~default_deadline_ms:cfg.default_deadline_ms q ~model ~digest ~faults
      ~labels ~token ~emit

(* The recycle rule ([retires]): a worker leaves after its job's
   terminal frame once it has run [max_jobs] jobs, once its major heap
   has passed [max_heap_words], or when the job ran on more than one
   domain.

   Measured on a 2-vCPU host, OCaml 5.1.  A worker that ran 1000
   serve-mix-shaped jobs (80-transfer chains, [--limit 200]: cold,
   warm and replay) held its heap at 4-5 MB and its RSS at 13.5 MB from
   the 100th job on, with no drift in job time; the job cap only bounds
   what such a run cannot show, and amortizes a 3 ms start over 1000
   jobs.  A full 200-transfer chain leaves 5 MB.  One IKS
   [--limit 100] job leaves 80 MB of heap (114 MB RSS) that later small
   jobs never give back, and three leave 162 MB: the cap sits at six
   times the small-model plateau, so such a worker goes after its
   job.  From the fourth pool a process spawns, each further spawn
   costs about ten times the first three (4 ms against 0.3-0.8 ms),
   which would eat what reuse saves. *)
let max_jobs = 1000
let max_heap_words = 32 * 1024 * 1024 / (Sys.word_size / 8)

let retires ~ran ~domains ~heap_words =
  ran >= max_jobs || domains > 1 || heap_words > max_heap_words

let worker_entry () =
  if Array.length Sys.argv = 2 && Sys.argv.(1) = Worker.arg then begin
    let stop = Atomic.make false in
    (* a drain's SIGTERM may arrive while a job is still being read *)
    Sys.set_signal Sys.sigterm
      (Sys.Signal_handle (fun _ -> Atomic.set stop true));
    Sys.set_signal Sys.sigint Sys.Signal_ignore;
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    (* a worker whose supervisor died (a SIGKILLed daemon) drains as on
       SIGTERM: the restarted daemon's worker resumes the same journal,
       and an orphan still computing would only duplicate its faults *)
    let ppid = Unix.getppid () in
    let stopping () = Atomic.get stop || Unix.getppid () <> ppid in
    let rec serve ran =
      match Worker.read_job stdin with
      | `Eof -> exit 0
      | `Bad -> exit 2
      | `Job text ->
        (* a job's deadline anchors when the job is read *)
        let t0 = Unix.gettimeofday () in
        let job = try decode_job text with Json.Bad _ -> exit 2 in
        let terminal, domains =
          try child_main ~stopping ~t0 job Unix.stdout with _ -> exit 1
        in
        let last =
          stopping ()
          || retires ~ran:(ran + 1) ~domains
               ~heap_words:(Gc.quick_stat ()).Gc.heap_words
        in
        (* closed before the frame: a job sent after it cannot be
           written, so it never lands on a worker that is leaving *)
        if last then Unix.close Unix.stdin;
        ignore (Lineio.write_line Unix.stdout (Frame.encode_response terminal));
        if last then exit 0 else serve (ran + 1)
    in
    serve 0
  end

let backoff_s cfg attempt =
  let ms =
    min cfg.backoff_cap_ms (cfg.backoff_base_ms * (1 lsl min attempt 16))
  in
  float_of_int ms /. 1000.

(* a golden-tier decision: hit (the cached value), miss (with the key
   a worker ships its build under) or off *)
let tier_lookup tier key =
  match tier with
  | None -> `Off
  | Some cache ->
    (match Cache.find cache key with Some v -> `Hit v | None -> `Miss key)

let is_hit = function `Hit _ -> true | `Miss _ | `Off -> false

(* Every request's last frame; after it the request holds nothing but,
   at most, a worker still to be reaped. *)
let terminal = function
  | Frame.Report _ | Frame.Drained _ | Frame.Refused _ | Frame.Pong _
  | Frame.Stats_reply _ | Frame.Bye ->
    true
  | Frame.Started _ | Frame.Entry _ | Frame.Queued _ | Frame.Artifact _ ->
    false

let at t time k = t.timers <- (time, k) :: t.timers

(* One campaign per resume token at a time: two workers must not
   interleave appends in one journal.  A waiter starts when the
   holder's last job ends (a worker writes its terminal frame only
   after closing the journal) and resumes the holder's journal;
   it keeps its admission lane meanwhile — bounded by [max_pending],
   so this cannot deadlock. *)
let token_enter t token k =
  match Hashtbl.find_opt t.inflight token with
  | Some waiters -> Queue.add k waiters
  | None ->
    Hashtbl.replace t.inflight token (Queue.create ());
    k ()

let token_exit t token =
  match Hashtbl.find_opt t.inflight token with
  | Some waiters when not (Queue.is_empty waiters) -> (Queue.pop waiters) ()
  | Some _ | None -> Hashtbl.remove t.inflight token

(* Hand a job to an idle worker, or to a fresh one when none takes it
   or [fresh] asks for one.  An idle worker that has closed its stdin
   to retire refuses the job, so the job never runs on a worker that is
   leaving, and never counts as its crash.  Live workers, running or
   idle, never outnumber the admission lanes, which {!Server.accepts}
   counts on: a worker is spawned only when no idle one is left, for a
   job holding a lane, or to restart a crashed job, whose worker was
   reaped first. *)
let dispatch (t : t) ~fresh ?timeout_s ~grace_s ~paused ~on_line ~on_end text =
  let give w = Worker.give ?timeout_s ~paused ~on_line ~on_end w text in
  match if fresh then None else List.find_opt give t.workers with
  | Some w -> w
  | None ->
    let w = Worker.spawn ~grace_s in
    t.workers <- w :: t.workers;
    ignore (give w);
    w

(* Supervision: hand the job to a worker, relay its frames, and on a
   crash restart it on a fresh worker — resuming from the journal
   checkpoint — after a capped exponential backoff timer, up to
   [max_restarts] times or until the circuit breaker opens.  The
   client sees at most one terminal frame; entries already journaled
   before a crash are reused, not re-streamed.  The token is held until
   the job's terminal frame, or until its crashed worker is reaped. *)
let run_worker (t : t) (q : Frame.inject) ~paused ~key ~tier_key ~golden0
    ~token ~emit =
  let cfg = t.cfg in
  let grace_s = float_of_int cfg.worker_grace_ms /. 1000. in
  let timeout_s =
    let deadline_ms =
      match q.Frame.deadline_ms with
      | Some _ as d -> d
      | None -> cfg.default_deadline_ms
    in
    match deadline_ms, cfg.worker_timeout_ms with
    | Some ms, _ ->
      (* backstop for a worker that fails to honour its own deadline *)
      Some ((float_of_int ms /. 1000.) +. (2. *. grace_s) +. 1.)
    | None, Some wt -> Some (float_of_int wt /. 1000.)
    | None, None -> None
  in
  let on_line line =
    match Frame.decode_response ~limits:cfg.limits line with
    | Ok (Frame.Artifact { key = akey; text }) ->
      (* the worker's golden work, shipped home: deposit the bytes
         unparsed and never relay — clients speak campaign frames
         only.  The next worker for this key parses and checks them;
         keyed-elsewhere ones are dropped *)
      (match t.goldens with
       | Some cache when akey = tier_key -> Cache.add cache tier_key text
       | Some _ | None -> ());
      `Continue
    | Ok (Frame.Entry _ as resp) ->
      emit resp;
      `Continue
    | Ok ((Frame.Report _ | Frame.Drained _ | Frame.Refused _) as resp) ->
      (* counted before it goes out: a client that asks for [--stats]
         as soon as it reads its report finds the campaign counted *)
      let c = t.counters in
      (match resp with
       | Frame.Report _ ->
         Hashtbl.remove t.breakers key;
         c.campaigns <- c.campaigns + 1
       | Frame.Drained _ -> c.drained <- c.drained + 1
       | _ -> c.refused <- c.refused + 1);
      emit resp;
      `Terminal
    | Ok _ | Error _ ->
      (* a worker emitting junk is a worker bug; dropping the line
         (rather than relaying rot) keeps the client's stream
         well-formed, and a missing terminal frame will surface as a
         crash *)
      `Continue
  in
  let rec attempt n ~resume =
    (* re-consult the golden tier on restarts: the first spawn ships
       the artifact before campaigning, so a crash-restart is already
       warm — it resumes from the journal AND skips the golden
       rebuild.  Attempt 0 reuses the lookup [start] already did for
       the [Started] flags *)
    let golden = if n = 0 then golden0 else tier_lookup t.goldens tier_key in
    match
      dispatch t ~fresh:(n > 0) ?timeout_s ~grace_s ~paused ~on_line
        ~on_end:(exited n)
        (encode_job
           { cfg; q = { q with Frame.resume }; golden;
             chaos = F.Journal.chaos () })
    with
    | exception e ->
      bug t ~emit e;
      token_exit t token
    | w -> Option.iter (fun f -> f ~pid:(Worker.pid w) ~token) cfg.on_worker
  and exited n = function
    | Worker.Terminal -> token_exit t token
    | Worker.Crashed crash ->
      t.counters.crashes <- t.counters.crashes + 1;
      let opened = breaker_crash t key in
      if (not opened) && n < cfg.max_restarts && not t.stop then begin
        t.counters.restarts <- t.counters.restarts + 1;
        at t (Unix.gettimeofday () +. backoff_s cfg n) (fun () ->
            attempt (n + 1) ~resume:true)
      end
      else begin
        refuse t ~emit 3
          [ Diag.error ~rule:"serve.worker"
              "campaign worker %s (attempt %d/%d)%s; completed work is \
               journaled under token %s — resend the request to resume"
              (Worker.describe crash) (n + 1) (cfg.max_restarts + 1)
              (if opened then "; model quarantined" else "")
              token ];
        token_exit t token
      end
  in
  attempt 0 ~resume:q.Frame.resume

(* ---- the front door ---------------------------------------------- *)

let draining t ~emit =
  refuse t ~emit 1
    [ Diag.error ~rule:"serve.draining"
        "daemon is draining; resend the request to the next instance" ]

(* A granted request: compile, consult the tiers, announce [Started],
   and queue for the token.  The lane is free before the terminal
   frame goes out, so the client's next request is never queued
   behind, or counted with, the campaign it has just seen finish. *)
let start t (q : Frame.inject) ~key ~paused ~emit =
  let started = Unix.gettimeofday () in
  let released = ref false in
  let emit resp =
    if terminal resp && not !released then begin
      released := true;
      Admission.release t.adm
        ~wall_ms:((Unix.gettimeofday () -. started) *. 1000.)
    end;
    emit resp
  in
  try
    if t.stop then draining t ~emit
    else
      match compile t q with
      | _, Error diags -> refuse t ~emit 2 diags
      | cached, Ok { model; digest } ->
        let config_tag = F.Journal.config_tag C.Simulate.default in
        (* warm tiers, keyed by (structural digest | config tag) —
           content-addressed, so an edited model is a different key,
           never a stale hit *)
        let tier_key = digest ^ "|" ^ config_tag in
        let all_faults, plan_cached =
          match t.plans with
          | None -> (F.Fault.enumerate model, false)
          | Some cache ->
            (match Cache.find cache tier_key with
             | Some faults -> (faults, true)
             | None ->
               (* enumerate once in the daemon: bounded, deterministic,
                  exception-fenced work, safe outside the crash boundary *)
               let faults = F.Fault.enumerate model in
               Cache.add cache tier_key faults;
               (faults, false))
        in
        let faults =
          match q.Frame.limit with
          | None -> all_faults
          | Some n -> F.Fault.subsample n all_faults
        in
        let labels = List.map F.Fault.to_string faults in
        let faults_digest = F.Journal.faults_digest labels in
        let token = token_of ~digest ~config_tag ~faults_digest in
        let golden0 = tier_lookup t.goldens tier_key in
        emit
          (Frame.Started
             { token; total = List.length faults; cached; plan_cached;
               golden_cached = is_hit golden0 });
        token_enter t token (fun () ->
            run_worker t q ~paused ~key ~tier_key ~golden0 ~token ~emit)
  with e -> bug t ~emit e

let submit_inject t (q : Frame.inject) ~client ~paused ~emit =
  let t0 = Unix.gettimeofday () in
  if t.stop then draining t ~emit
  else
    match Diag.Limits.check_input_bytes ~file:"<request>" t.cfg.limits
            q.Frame.model with
    | Some d -> refuse t ~emit 2 [ d ]
    | None ->
      let key = Digest.to_hex (Digest.string q.Frame.model) in
      (match quarantine_check t key with
       | `Quarantined retry_after_ms ->
         refuse t ~emit ~retry_after_ms 1
           [ Diag.error ~rule:"serve.quarantined"
               "model is quarantined after repeated worker crashes; retry \
                after the cooloff" ]
       | `Ok ->
         let qdeadline =
           (* the request's own deadline bounds its queue wait too;
              deadline 0 is the deterministic drain-to-token request
              and must reach the engine, so it queues without one *)
           match
             (match q.Frame.deadline_ms with
              | Some _ as d -> d
              | None -> t.cfg.default_deadline_ms)
           with
           | None | Some 0 -> None
           | Some ms -> Some (t0 +. (float_of_int ms /. 1000.))
         in
         let busy ~retry_after_ms why =
           refuse t ~emit ~retry_after_ms 1
             [ Diag.error ~rule:"serve.busy" "%s; retry after the hint" why ]
         in
         let on_wake = function
           | Admission.Granted ->
             (* at the end of this turn: the release that granted the
                lane is about to send its own terminal frame *)
             at t neg_infinity (fun () -> start t q ~key ~paused ~emit)
           | Admission.Expired { Admission.retry_after_ms } ->
             busy ~retry_after_ms "request deadline expired while queued"
           | Admission.Draining -> draining t ~emit
         in
         match Admission.admit t.adm ~client ~deadline:qdeadline ~on_wake with
         | Admission.Admitted -> start t q ~key ~paused ~emit
         | Admission.Queued { position; retry_after_ms } ->
           emit (Frame.Queued { position; retry_after_ms })
         | Admission.Busy { Admission.retry_after_ms } ->
           busy ~retry_after_ms "daemon at capacity (admission queue full)")

let tier_stats = function
  | None ->
    { Frame.hits = 0; misses = 0; evictions = 0; entries = 0; capacity = 0 }
  | Some cache ->
    let cs = Cache.stats cache in
    { Frame.hits = cs.Cache.hits; misses = cs.Cache.misses;
      evictions = cs.Cache.evictions; entries = cs.Cache.entries;
      capacity = cs.Cache.capacity }

let stats t =
  let snap = Admission.snapshot t.adm in
  let c = t.counters in
  { Frame.requests = c.requests; campaigns = c.campaigns;
    drained = c.drained; refused = c.refused;
    active = snap.Admission.active; queued = snap.Admission.queued;
    restarts = c.restarts; crashes = c.crashes;
    quarantined = quarantined_count t; model = tier_stats (Some t.cache);
    plan = tier_stats t.plans; golden = tier_stats t.goldens }

let submit ?(client = 0) ?(paused = fun () -> false) t (req : Frame.request)
    ~emit =
  t.counters.requests <- t.counters.requests + 1;
  match req with
  | Frame.Ping -> emit (Frame.Pong { version = "csrtl-serve/3" })
  | Frame.Stats -> emit (Frame.Stats_reply (stats t))
  | Frame.Shutdown ->
    request_stop t;
    emit Frame.Bye
  | Frame.Inject q ->
    (try submit_inject t q ~client ~paused ~emit with e -> bug t ~emit e)

let poll t ~read ~write ~timeout =
  let now = Unix.gettimeofday () in
  if t.stop then Admission.drain t.adm;
  let workers = t.workers in
  let watched = List.map Worker.watch workers in
  let timeout =
    List.fold_left
      (fun acc due -> Float.min acc (due -. now))
      timeout
      ((Admission.expire t.adm ~now :: List.map fst t.timers)
      @ List.filter_map Worker.wake_at workers)
  in
  let readable, writable =
    match
      Unix.select
        (read @ List.concat_map fst watched)
        (write @ List.concat_map snd watched)
        [] (Float.max 0. timeout)
    with
    | r, w, _ -> (r, w)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [])
  in
  List.iter
    (fun w -> Worker.step w ~readable ~writable ~stop:t.stop)
    workers;
  t.workers <- List.filter (fun w -> not (Worker.gone w)) t.workers;
  let now = Unix.gettimeofday () in
  let due, later = List.partition (fun (time, _) -> time <= now) t.timers in
  t.timers <- later;
  List.iter (fun (_, k) -> k ()) due;
  ( List.filter (fun fd -> List.memq fd readable) read,
    List.filter (fun fd -> List.memq fd writable) write )

let idle t = t.workers = [] && t.timers = []

let shutdown t =
  request_stop t;
  while not (idle t) do
    ignore (poll t ~read:[] ~write:[] ~timeout:1.)
  done

let handle ?client t req ~emit =
  let finished = ref false in
  submit ?client t req ~emit:(fun r ->
      if terminal r then finished := true;
      emit r);
  while not !finished do
    ignore (poll t ~read:[] ~write:[] ~timeout:1.)
  done
