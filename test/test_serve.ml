(* The campaign-as-a-service layer, socket-free: the wire codec's
   round-trip and totality contracts (qcheck), and the engine's
   differential promise — responses byte-identical to offline inject
   output, drains resumable, admission control status-coded.  The cram
   test covers the same flows through a real socket; here the bytes
   are pinned without a daemon process in the loop. *)

module S = Csrtl_serve
module F = Csrtl_fault
module C = Csrtl_core
module Diag = Csrtl_diag.Diag

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* -- generators ------------------------------------------------------------- *)

(* full byte range: the model field carries whatever the client read
   from disk, so the codec must round-trip control bytes and non-UTF8 *)
let gen_bytes n = QCheck.Gen.(string_size ~gen:(map Char.chr (int_bound 255)) (int_bound n))

let gen_opt_int ~min bound =
  QCheck.Gen.(
    oneof [ return None; map (fun i -> Some (min + i)) (int_bound bound) ])

let gen_inject =
  let open QCheck.Gen in
  let* model = gen_bytes 200 in
  let* engine = oneofl [ `Auto; `Kernel; `Compiled ] in
  let* batch = map succ (int_bound 100) in
  let* limit = gen_opt_int ~min:1 100 in
  let* budget_ms = gen_opt_int ~min:1 10_000 in
  let* deadline_ms = gen_opt_int ~min:0 10_000 in
  let* table = bool and* stream = bool and* resume = bool in
  return
    (S.Frame.Inject
       { S.Frame.model; engine; batch; limit; budget_ms; deadline_ms;
         table; stream; resume })

let gen_request =
  QCheck.Gen.(
    frequency
      [ (1, return S.Frame.Ping); (1, return S.Frame.Stats);
        (1, return S.Frame.Shutdown);
        (5, gen_inject) ])

let gen_outcome =
  let open QCheck.Gen in
  let* s = gen_bytes 30 in
  let* step = int_bound 20 in
  let* phase = oneofl [ C.Phase.Ra; Rb; Cm; Wa; Wb; Cr ] in
  oneofl
    [ F.Campaign.Masked; Detected (step, phase, s);
      Corrupted { count = step + 1; first = s }; Hung s; Crashed s ]

let gen_entry =
  let open QCheck.Gen in
  let* index = int_bound 1000 in
  let* fault_label = gen_bytes 60 in
  let* kernel = gen_outcome and* interp = gen_outcome in
  let* cycles = int_bound 100_000 in
  let* law_ok = bool in
  return
    { F.Journal.index; fault_label; kernel; interp; cycles; law_ok }

let gen_diag =
  let open QCheck.Gen in
  let* severity = oneofl [ Diag.Error; Diag.Warning; Diag.Note ] in
  let* rule = gen_bytes 20 and* message = gen_bytes 60 in
  let* span =
    oneof
      [ return None;
        (let* file =
           oneof [ return None; map Option.some (gen_bytes 20) ]
         in
         let* line = int_bound 500 and* col = int_bound 100 in
         let* len = int_bound 40 in
         return (Some { Diag.file; line; col; len })) ]
  in
  return { Diag.severity; rule; span; message }

let gen_response =
  let open QCheck.Gen in
  let str = gen_bytes 60 in
  let nat = int_bound 10_000 in
  frequency
    [ (1, map (fun v -> S.Frame.Pong { version = v }) str);
      ( 2,
        let* token = str and* total = nat and* cached = bool in
        let* plan_cached = bool and* golden_cached = bool in
        return
          (S.Frame.Started
             { token; total; cached; plan_cached; golden_cached }) );
      ( 1,
        let* key = str and* text = gen_bytes 400 in
        return (S.Frame.Artifact { key; text }) );
      (3, map (fun e -> S.Frame.Entry e) gen_entry);
      ( 3,
        let* status = int_bound 3 and* code = int_bound 5 in
        let* token = str and* reused = nat and* rerun = nat in
        let* torn = nat and* text = gen_bytes 400 in
        return
          (S.Frame.Report { status; code; token; reused; rerun; torn; text })
      );
      ( 2,
        let* status = int_bound 3 and* token = str in
        let* completed = nat and* total = nat in
        let* reason = oneofl [ "deadline"; "shutdown" ] in
        return (S.Frame.Drained { status; token; completed; total; reason })
      );
      ( 2,
        let* status = int_bound 3 in
        let* retry_after_ms = gen_opt_int ~min:0 60_000 in
        let* diags = list_size (int_bound 4) gen_diag in
        return (S.Frame.Refused { status; retry_after_ms; diags }) );
      ( 1,
        let* position = map succ (int_bound 100) in
        let* retry_after_ms = nat in
        return (S.Frame.Queued { position; retry_after_ms }) );
      ( 1,
        let gen_tier =
          let* hits = nat and* misses = nat in
          let* evictions = nat and* entries = nat and* capacity = nat in
          return { S.Frame.hits; misses; evictions; entries; capacity }
        in
        let* requests = nat and* campaigns = nat and* drained = nat in
        let* refused = nat and* active = nat and* queued = nat in
        let* restarts = nat and* crashes = nat and* quarantined = nat in
        let* model = gen_tier and* plan = gen_tier and* golden = gen_tier in
        return
          (S.Frame.Stats_reply
             { requests; campaigns; drained; refused; active; queued;
               restarts; crashes; quarantined; model; plan; golden }) );
      (1, return S.Frame.Bye) ]

(* -- codec properties ------------------------------------------------------- *)

let request_round_trip =
  QCheck.Test.make ~name:"request encode/decode identity" ~count:500
    (QCheck.make gen_request) (fun req ->
      match S.Frame.decode_request (S.Frame.encode_request req) with
      | Ok req2 -> req2 = req
      | Error ds ->
        QCheck.Test.fail_reportf "own encoding rejected: %s"
          (Diag.render_all ds))

let response_round_trip =
  QCheck.Test.make ~name:"response encode/decode identity" ~count:500
    (QCheck.make gen_response) (fun resp ->
      match S.Frame.decode_response (S.Frame.encode_response resp) with
      | Ok r2 -> r2 = resp
      | Error ds ->
        QCheck.Test.fail_reportf "own encoding rejected: %s"
          (Diag.render_all ds))

let decode_total =
  QCheck.Test.make ~name:"decoders are total on arbitrary bytes" ~count:1000
    (QCheck.make (gen_bytes 300)) (fun s ->
      (match S.Frame.decode_request s with
       | Ok _ -> ()
       | Error [] -> QCheck.Test.fail_report "rejected without diagnostics"
       | Error _ -> ());
      (match S.Frame.decode_response s with
       | Ok _ -> ()
       | Error [] -> QCheck.Test.fail_report "rejected without diagnostics"
       | Error _ -> ());
      true)

let test_decode_hostile () =
  (* nesting bombs must come back as diagnostics, not stack overflows *)
  let bomb = String.make 200_000 '[' in
  (match S.Frame.decode_request bomb with
   | Ok _ -> Alcotest.fail "nesting bomb accepted"
   | Error ds -> check_bool "diagnostic produced" true (ds <> []));
  (* trailing garbage after a valid frame is transport rot *)
  (match
     S.Frame.decode_request
       "{\"csrtl\":\"req\",\"v\":3,\"op\":\"ping\"} extra"
   with
   | Ok _ -> Alcotest.fail "trailing garbage accepted"
   | Error _ -> ());
  (* wrong version — past or future — is refused deterministically *)
  (match S.Frame.decode_request "{\"csrtl\":\"req\",\"v\":2,\"op\":\"ping\"}" with
   | Ok _ -> Alcotest.fail "stale protocol version accepted"
   | Error _ -> ());
  match S.Frame.decode_request "{\"csrtl\":\"req\",\"v\":4,\"op\":\"ping\"}" with
  | Ok _ -> Alcotest.fail "future protocol version accepted"
  | Error ds ->
    check_bool "names the version" true
      (List.exists
         (fun (d : Diag.t) ->
           d.Diag.rule = "serve.request"
           &&
           match String.index_opt d.Diag.message '4' with
           | Some _ -> true
           | None -> false)
         ds)

(* -- engine differential ---------------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      really_input_string ic (in_channel_length ic))

let fig1_text () =
  (* dune runtest runs in test/; dune exec wherever it was invoked *)
  if Sys.file_exists "corpus/fig1.rtm" then read_file "corpus/fig1.rtm"
  else read_file "test/corpus/fig1.rtm"

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* every campaign runs in a worker process: a re-execution of this
   binary (see the [worker_entry] call in main) *)
let with_engine ?(tweak = fun c -> c) f =
  let dir = Filename.temp_file "csrtl_serve" ".state" in
  Sys.remove dir;
  let cfg = tweak { S.Engine.default_config with state_dir = dir } in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () ->
      f (S.Engine.create cfg))

(* collect every emitted frame, in order; emit runs on the calling
   thread, so a plain accumulator will do *)
let collect t req =
  let acc = ref [] in
  S.Engine.handle t req ~emit:(fun r -> acc := r :: !acc);
  List.rev !acc

let basic_inject model =
  { S.Frame.model; engine = `Auto; batch = 32; limit = None;
    budget_ms = None; deadline_ms = None; table = false; stream = false;
    resume = true }

type rep = { status : int; code : int; reused : int; text : string }

let report_of = function
  | [ S.Frame.Started _;
      S.Frame.Report { status; code; reused; text; _ } ] ->
    { status; code; reused; text }
  | rs ->
    Alcotest.failf "expected Started; Report, got %d frame(s)"
      (List.length rs)

let test_engine_matches_offline () =
  let text = fig1_text () in
  let m, _ = Result.get_ok (C.Rtm.parse text) in
  with_engine (fun t ->
      List.iter
        (fun (engine, batch, table) ->
          let q = { (basic_inject text) with engine; batch; table } in
          let rs = collect t (S.Frame.Inject { q with resume = false }) in
          let r = report_of rs in
          let offline = F.Campaign.run ~engine ~batch m in
          Alcotest.(check string)
            (Printf.sprintf "bytes at engine=%s batch=%d table=%b"
               (match engine with
                | `Auto -> "auto"
                | `Kernel -> "kernel"
                | `Compiled -> "compiled")
               batch table)
            (F.Campaign.render_report ~table offline)
            r.text;
          check_int "offline exit code" (S.Engine.inject_code offline) r.code;
          check_int "status is the diag contract"
            (if r.code = 0 then 0 else 1)
            r.status)
        [ (`Auto, 32, false); (`Kernel, 1, false); (`Compiled, 8, true);
          (`Kernel, 32, true) ])

let test_cache_and_token_stability () =
  let text = fig1_text () in
  with_engine (fun t ->
      let q = basic_inject text in
      let started = function
        | S.Frame.Started { token; total = _; cached; plan_cached; golden_cached }
          :: _ ->
          (token, cached, plan_cached, golden_cached)
        | _ -> Alcotest.fail "no Started frame"
      in
      let tok1, cached1, plan1, golden1 =
        started (collect t (S.Frame.Inject q))
      in
      check_bool "first compile misses" false cached1;
      check_bool "first plan misses" false plan1;
      check_bool "first golden misses" false golden1;
      let tok2, cached2, plan2, golden2 =
        started (collect t (S.Frame.Inject q))
      in
      check_bool "second compile hits" true cached2;
      check_bool "second plan hits" true plan2;
      check_bool "second golden hits" true golden2;
      check_bool "token is stable" true (tok1 = tok2);
      check_int "token is 16 hex chars" 16 (String.length tok1);
      let stats = S.Engine.stats t in
      check_int "one model miss" 1 stats.S.Frame.model.S.Frame.misses;
      check_int "one model hit" 1 stats.S.Frame.model.S.Frame.hits;
      check_int "one plan miss" 1 stats.S.Frame.plan.S.Frame.misses;
      check_int "one plan hit" 1 stats.S.Frame.plan.S.Frame.hits;
      check_int "one golden miss" 1 stats.S.Frame.golden.S.Frame.misses;
      check_int "one golden hit" 1 stats.S.Frame.golden.S.Frame.hits;
      (* tokens key the campaign identity, not the raw bytes: a
         comment-only edit keeps the token (and its journal), while a
         different fault list gets its own *)
      let tok3, cached3, plan3, golden3 =
        started
          (collect t (S.Frame.Inject (basic_inject (text ^ "# tail\n"))))
      in
      check_bool "comment-only edit keeps the token" true (tok3 = tok1);
      check_bool "but recompiles (cache keys raw bytes)" false cached3;
      (* ... while the artifact tiers key the parsed model's digest, so
         the comment-only edit still rides the warm plan and golden *)
      check_bool "comment-only edit keeps the plan" true plan3;
      check_bool "comment-only edit keeps the golden" true golden3;
      let tok4, _, _, _ =
        started
          (collect t (S.Frame.Inject { q with limit = Some 3 }))
      in
      check_bool "different fault list, different token" true (tok4 <> tok1))

let test_deadline_drain_then_resume () =
  let text = fig1_text () in
  let m, _ = Result.get_ok (C.Rtm.parse text) in
  let offline = F.Campaign.run m in
  with_engine (fun t ->
      let q = basic_inject text in
      (* deadline 0: already expired, drains before the first fault *)
      (match
         collect t (S.Frame.Inject { q with deadline_ms = Some 0 })
       with
       | [ S.Frame.Started s; S.Frame.Drained d ] ->
         check_int "drained with status 1" 1 d.status;
         check_bool "token matches Started" true (d.token = s.token);
         check_int "nothing completed" 0 d.completed;
         Alcotest.(check string) "reason" "deadline" d.reason
       | _ -> Alcotest.fail "expected Started; Drained");
      (* resending without the deadline completes from the journal *)
      let r = report_of (collect t (S.Frame.Inject q)) in
      Alcotest.(check string) "resumed report = offline bytes"
        (F.Campaign.render_report ~table:false offline)
        r.text)

(* A journal in an older format at a campaign's token (a state dir
   kept across an upgrade) is refused by the reader, so the daemon
   reruns the campaign fresh instead of failing the request. *)
let test_old_journal_version_reruns () =
  let text = fig1_text () in
  let m, _ = Result.get_ok (C.Rtm.parse text) in
  let offline = F.Campaign.run m in
  let dir = ref "" in
  with_engine ~tweak:(fun c -> dir := c.S.Engine.state_dir; c) (fun t ->
      let q = basic_inject text in
      let token =
        match collect t (S.Frame.Inject q) with
        | S.Frame.Started { token; _ } :: _ -> token
        | _ -> Alcotest.fail "no Started frame"
      in
      let journal = Filename.concat !dir ("inj-" ^ token ^ ".jsonl") in
      let downgrade line =
        let v2 = "{\"journal\":\"csrtl-fault-campaign\",\"v\":2," in
        let n = String.length v2 in
        if not (String.starts_with ~prefix:v2 line) then
          Alcotest.failf "unexpected journal header %s" line;
        "{\"journal\":\"csrtl-fault-campaign\",\"v\":1,"
        ^ String.sub line n (String.length line - n)
      in
      (match String.split_on_char '\n' (read_file journal) with
       | header :: entries ->
         let oc = open_out_bin journal in
         output_string oc (String.concat "\n" (downgrade header :: entries));
         close_out oc
       | [] -> Alcotest.fail "empty journal");
      let r = report_of (collect t (S.Frame.Inject q)) in
      check_int "nothing reused from the old journal" 0 r.reused;
      Alcotest.(check string) "fresh rerun = offline bytes"
        (F.Campaign.render_report ~table:false offline)
        r.text;
      match F.Journal.read journal with
      | Ok (_, entries, 0) ->
        check_int "journal rewritten in the current format"
          offline.F.Campaign.total (List.length entries)
      | Ok (_, _, torn) -> Alcotest.failf "%d torn lines after rerun" torn
      | Error e -> Alcotest.failf "journal unreadable after rerun: %s" e)

let test_shutdown_drain_then_resume () =
  let text = fig1_text () in
  let m, _ = Result.get_ok (C.Rtm.parse text) in
  let offline = F.Campaign.run ~engine:`Kernel m in
  let dir = Filename.temp_file "csrtl_serve" ".state" in
  Sys.remove dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let cfg = { S.Engine.default_config with state_dir = dir } in
  (* kernel path computes fault-by-fault, so stopping after the first
     streamed entry drains mid-campaign with work still remaining *)
  let q =
    { (basic_inject text) with engine = `Kernel; stream = true }
  in
  let t1 = S.Engine.create cfg in
  let drained =
    let acc = ref [] in
    S.Engine.handle t1 (S.Frame.Inject q) ~emit:(fun r ->
        acc := r :: !acc;
        match r with
        | S.Frame.Entry _ -> S.Engine.request_stop t1
        | _ -> ());
    List.rev !acc
  in
  (match List.rev drained with
   | S.Frame.Drained d :: _ ->
     check_bool "some work completed" true (d.completed >= 1);
     check_bool "work remains" true (d.completed < d.total);
     Alcotest.(check string) "reason" "shutdown" d.reason
   | _ -> Alcotest.fail "expected a Drained tail after request_stop");
  (* a fresh engine over the same state dir resumes to the full,
     byte-identical report *)
  let t2 = S.Engine.create cfg in
  let r = report_of (collect t2 (S.Frame.Inject { q with stream = false })) in
  check_bool "journal prefix reused" true (r.reused >= 1);
  Alcotest.(check string) "resumed report = offline bytes"
    (F.Campaign.render_report ~table:false offline)
    r.text

let refused = function
  | [ S.Frame.Refused { status; diags; _ } ] -> (status, diags)
  | rs ->
    Alcotest.failf "expected a single Refused, got %d frame(s)"
      (List.length rs)

let rule_of (r : S.Frame.response) =
  match r with
  | S.Frame.Refused { diags = d :: _; _ } -> d.Diag.rule
  | _ -> ""

let test_admission_control () =
  let text = fig1_text () in
  (* an over-large model is limits-checked before compilation *)
  with_engine
    ~tweak:(fun c ->
      { c with
        S.Engine.limits =
          { c.S.Engine.limits with Diag.Limits.max_input_bytes = 16 } })
    (fun t ->
      let status, diags =
        refused (collect t (S.Frame.Inject (basic_inject text)))
      in
      check_int "status 2: bad input" 2 status;
      check_bool "diags name the limit" true (diags <> []));
  (* a saturated daemon refuses instead of queueing without bound *)
  with_engine
    ~tweak:(fun c -> { c with S.Engine.max_pending = 0 })
    (fun t ->
      let rs = collect t (S.Frame.Inject (basic_inject text)) in
      let status, _ = refused rs in
      check_int "status 1: busy" 1 status;
      Alcotest.(check string) "rule" "serve.busy" (rule_of (List.hd rs)));
  (* a model that does not parse is a status-2 refusal with located
     diagnostics, exactly like offline inject *)
  with_engine (fun t ->
      let status, diags =
        refused (collect t (S.Frame.Inject (basic_inject "not a model")))
      in
      check_int "status 2" 2 status;
      check_bool "parser diagnostics forwarded" true (diags <> []));
  (* a draining engine refuses new campaigns *)
  with_engine (fun t ->
      S.Engine.request_stop t;
      let rs = collect t (S.Frame.Inject (basic_inject text)) in
      check_int "status 1" 1 (fst (refused rs));
      Alcotest.(check string) "rule" "serve.draining" (rule_of (List.hd rs)))

let test_control_requests () =
  with_engine (fun t ->
      (match collect t S.Frame.Ping with
       | [ S.Frame.Pong _ ] -> ()
       | _ -> Alcotest.fail "ping answered wrongly");
      (match collect t S.Frame.Stats with
       | [ S.Frame.Stats_reply s ] ->
         (* ping + stats themselves are counted *)
         check_bool "requests counted" true (s.S.Frame.requests >= 2)
       | _ -> Alcotest.fail "stats answered wrongly");
      match collect t S.Frame.Shutdown with
      | [ S.Frame.Bye ] -> check_bool "now draining" true (S.Engine.stopping t)
      | _ -> Alcotest.fail "shutdown answered wrongly")

(* -- admission queue -------------------------------------------------------- *)

let admit_simple a ~client ?deadline ?(stopping = fun () -> false) () =
  S.Admission.admit a ~client ~deadline ~stopping
    ~on_queued:(fun ~position:_ ~retry_after_ms:_ -> ())

let wait_queued a n =
  let rec go i =
    if (S.Admission.snapshot a).S.Admission.queued >= n then ()
    else if i > 1000 then Alcotest.failf "queue never reached %d waiters" n
    else begin
      Thread.delay 0.005;
      go (i + 1)
    end
  in
  go 0

let test_admission_fairness () =
  let a =
    S.Admission.create ~max_active:1 ~max_queue:8 ~max_per_client:4 ()
  in
  (match admit_simple a ~client:1 () with
   | S.Admission.Admitted -> ()
   | _ -> Alcotest.fail "empty queue must admit on the fast path");
  let order = ref [] and lock = Mutex.create () in
  let spawn label client =
    Thread.create
      (fun () ->
        match admit_simple a ~client () with
        | S.Admission.Admitted ->
          Mutex.lock lock;
          order := label :: !order;
          Mutex.unlock lock;
          S.Admission.release a ~wall_ms:(-1.)
        | _ -> ())
      ()
  in
  (* client 1 queues two requests, then client 2 queues one; the
     grant order must interleave clients, not drain client 1 first *)
  let t1 = spawn "A2" 1 in
  wait_queued a 1;
  let t2 = spawn "A3" 1 in
  wait_queued a 2;
  let t3 = spawn "B1" 2 in
  wait_queued a 3;
  S.Admission.release a ~wall_ms:(-1.);
  List.iter Thread.join [ t1; t2; t3 ];
  Alcotest.(check (list string))
    "round-robin across clients" [ "A2"; "B1"; "A3" ] (List.rev !order);
  let snap = S.Admission.snapshot a in
  check_int "no lanes leak" 0 snap.S.Admission.active;
  check_int "queue empty" 0 snap.S.Admission.queued

let test_admission_bounds () =
  (* a full queue refuses with a backpressure hint *)
  let a =
    S.Admission.create ~max_active:1 ~max_queue:0 ~max_per_client:4 ()
  in
  (match admit_simple a ~client:1 () with
   | S.Admission.Admitted -> ()
   | _ -> Alcotest.fail "first admit");
  (match admit_simple a ~client:2 () with
   | S.Admission.Busy { retry_after_ms } ->
     check_bool "hint at least the floor" true (retry_after_ms >= 50)
   | _ -> Alcotest.fail "full queue must refuse, not block");
  S.Admission.release a ~wall_ms:100.;
  (* a queued request whose deadline passes is abandoned as Expired *)
  let a = S.Admission.create ~max_active:1 ~max_queue:4 ~max_per_client:4 () in
  (match admit_simple a ~client:1 () with
   | S.Admission.Admitted -> ()
   | _ -> Alcotest.fail "first admit");
  (match
     admit_simple a ~client:2 ~deadline:(Unix.gettimeofday () -. 1.) ()
   with
   | S.Admission.Expired _ -> ()
   | _ -> Alcotest.fail "past deadline must expire in the queue");
  (* one client cannot take the whole queue, and draining releases
     every waiter *)
  let a = S.Admission.create ~max_active:1 ~max_queue:8 ~max_per_client:1 () in
  (match admit_simple a ~client:1 () with
   | S.Admission.Admitted -> ()
   | _ -> Alcotest.fail "first admit");
  let stop = Atomic.make false in
  let got = ref None in
  let th =
    Thread.create
      (fun () ->
        got :=
          Some
            (admit_simple a ~client:2
               ~stopping:(fun () -> Atomic.get stop)
               ()))
      ()
  in
  wait_queued a 1;
  (match admit_simple a ~client:2 () with
   | S.Admission.Busy _ -> ()
   | _ -> Alcotest.fail "per-client share must refuse the second waiter");
  Atomic.set stop true;
  Thread.join th;
  (match !got with
   | Some S.Admission.Draining -> ()
   | _ -> Alcotest.fail "drain must release the waiter as Draining");
  check_int "queue empty after drain" 0
    (S.Admission.snapshot a).S.Admission.queued

(* -- cache tiers ------------------------------------------------------------ *)

let test_cache_lru_stamp_refresh () =
  (* regression: a second insert under the same key must refresh the
     LRU stamp (it is a use), not silently drop and leave the entry
     cold — and must keep the first writer's value *)
  let c = S.Cache.create ~capacity:2 in
  S.Cache.add c "a" 1;
  S.Cache.add c "b" 2;
  S.Cache.add c "a" 9;
  S.Cache.add c "c" 3;
  (match S.Cache.find c "a" with
   | Some v ->
     check_int "first writer's value kept" 1 v
   | None -> Alcotest.fail "re-added entry evicted: stamp not refreshed");
  check_bool "b was the LRU victim" true (S.Cache.find c "b" = None);
  check_bool "c resident" true (S.Cache.find c "c" = Some 3);
  let st = S.Cache.stats c in
  check_int "exactly one eviction" 1 st.S.Cache.evictions;
  check_int "at capacity" 2 st.S.Cache.entries

let test_cache_concurrent_threads () =
  (* capacity 1 under 8 threads: every op total, entries stay bounded,
     hit/miss accounting covers every find *)
  let c = S.Cache.create ~capacity:1 in
  let n_threads = 8 and per = 200 in
  let ts =
    List.init n_threads (fun tid ->
        Thread.create
          (fun () ->
            for k = 0 to per - 1 do
              let key = Printf.sprintf "%d-%d" tid (k mod 5) in
              (match S.Cache.find c key with Some _ | None -> ());
              S.Cache.add c key ((tid * per) + k)
            done)
          ())
  in
  List.iter Thread.join ts;
  let st = S.Cache.stats c in
  check_int "entries bounded by capacity" 1 st.S.Cache.entries;
  check_int "every find accounted"
    (n_threads * per)
    (st.S.Cache.hits + st.S.Cache.misses);
  check_bool "churn evicted" true (st.S.Cache.evictions > 0)

let test_warm_requests_byte_identical () =
  (* second identical request rides the plan and golden tiers; the
     response bytes must not move *)
  let text = fig1_text () in
  let m, _ = Result.get_ok (C.Rtm.parse text) in
  List.iter
    (fun (engine, batch) ->
      let offline =
        F.Campaign.render_report ~table:false
          (F.Campaign.run ~engine ~batch m)
      in
      with_engine (fun t ->
          let q = { (basic_inject text) with engine; batch; resume = false } in
          let cold = report_of (collect t (S.Frame.Inject q)) in
          let warm = report_of (collect t (S.Frame.Inject q)) in
          Alcotest.(check string) "cold = offline" offline cold.text;
          Alcotest.(check string) "warm = offline" offline warm.text))
    [ (`Auto, 32); (`Kernel, 1); (`Compiled, 8) ]

let test_tiers_disabled_byte_identical () =
  let text = fig1_text () in
  let m, _ = Result.get_ok (C.Rtm.parse text) in
  let offline = F.Campaign.render_report ~table:false (F.Campaign.run m) in
  with_engine
    ~tweak:(fun c ->
      { c with
        S.Engine.plan_cache_capacity = 0; golden_cache_capacity = 0 })
    (fun t ->
      let q = { (basic_inject text) with resume = false } in
      let r1 = report_of (collect t (S.Frame.Inject q)) in
      Alcotest.(check string) "disabled tiers = offline bytes" offline
        r1.text;
      (match collect t (S.Frame.Inject q) with
       | S.Frame.Started { plan_cached; golden_cached; _ } :: _ ->
         check_bool "no plan hit when disabled" false plan_cached;
         check_bool "no golden hit when disabled" false golden_cached
       | _ -> Alcotest.fail "no Started frame");
      let st = S.Engine.stats t in
      check_int "disabled plan tier shows zero capacity" 0
        st.S.Frame.plan.S.Frame.capacity;
      check_int "disabled golden tier shows zero capacity" 0
        st.S.Frame.golden.S.Frame.capacity)

let test_tier_eviction_under_concurrency () =
  (* distinct models churning width-1 tiers from three threads: the
     reports stay byte-identical to offline and the tiers stay bounded
     while evicting *)
  let module V = Csrtl_verify in
  let models =
    List.init 4 (fun i -> V.Consist.random_model ((i * 7) + 1))
  in
  let jobs =
    List.map
      (fun m ->
        ( C.Rtm.to_string m,
          F.Campaign.render_report ~table:false
            (F.Campaign.run ~limit:8 m) ))
      models
  in
  with_engine
    ~tweak:(fun c ->
      { c with
        S.Engine.cache_capacity = 1; plan_cache_capacity = 1;
        golden_cache_capacity = 1; max_pending = 4; max_queue = 64;
        max_queue_per_client = 16 })
    (fun t ->
      let failures = ref [] in
      let lock = Mutex.create () in
      let worker tid =
        Thread.create
          (fun () ->
            List.iteri
              (fun i (text, want) ->
                let q =
                  { (basic_inject text) with
                    limit = Some 8; resume = false }
                in
                match report_of (collect t (S.Frame.Inject q)) with
                | r when r.text = want -> ()
                | _ ->
                  Mutex.lock lock;
                  failures := (tid, i) :: !failures;
                  Mutex.unlock lock
                | exception e ->
                  Mutex.lock lock;
                  failures := (tid, i) :: !failures;
                  Mutex.unlock lock;
                  ignore e)
              jobs)
          ()
      in
      let ts = List.init 3 worker in
      List.iter Thread.join ts;
      (match !failures with
       | [] -> ()
       | (tid, i) :: _ ->
         Alcotest.failf "thread %d model %d: report differs under churn"
           tid i);
      let st = S.Engine.stats t in
      check_bool "plan tier evicted" true
        (st.S.Frame.plan.S.Frame.evictions > 0);
      check_bool "golden tier evicted" true
        (st.S.Frame.golden.S.Frame.evictions > 0);
      check_bool "tiers stayed bounded" true
        (st.S.Frame.plan.S.Frame.entries <= 1
        && st.S.Frame.golden.S.Frame.entries <= 1))

(* -- workers ---------------------------------------------------------------- *)

(* one domain per worker and a short restart backoff *)
let with_workers ?(tweak = fun c -> c) f =
  with_engine
    ~tweak:(fun c ->
      tweak
        { c with S.Engine.jobs = 1; backoff_base_ms = 10; backoff_cap_ms = 20 })
    f

let test_forked_matches_offline () =
  let text = fig1_text () in
  let m, _ = Result.get_ok (C.Rtm.parse text) in
  let offline = F.Campaign.run ~batch:32 m in
  with_workers (fun t ->
      let r =
        report_of
          (collect t (S.Frame.Inject { (basic_inject text) with resume = false }))
      in
      Alcotest.(check string) "forked worker report = offline bytes"
        (F.Campaign.render_report ~table:false offline)
        r.text;
      check_int "exit code over the wire" (S.Engine.inject_code offline)
        r.code;
      (* the worker shipped its artifact home before campaigning, so
         the retry is warm — and still byte-identical *)
      let rs2 =
        collect t (S.Frame.Inject { (basic_inject text) with resume = false })
      in
      (match rs2 with
       | S.Frame.Started { golden_cached; _ } :: _ ->
         check_bool "second forked request is golden-warm" true
           golden_cached
       | _ -> Alcotest.fail "no Started frame");
      Alcotest.(check string) "warm forked report = offline bytes"
        (F.Campaign.render_report ~table:false offline)
        (report_of rs2).text;
      let stats = S.Engine.stats t in
      check_int "no crashes" 0 stats.S.Frame.crashes;
      check_int "no restarts" 0 stats.S.Frame.restarts)

(* OCaml 5 refuses to fork a process for the rest of its life once it
   has spawned a domain, joined or not; a worker started without fork
   does not care *)
let test_forked_after_domain () =
  Domain.join (Domain.spawn ignore);
  let text = fig1_text () in
  let m, _ = Result.get_ok (C.Rtm.parse text) in
  let offline = F.Campaign.run ~batch:32 m in
  with_workers (fun t ->
      let r =
        report_of
          (collect t (S.Frame.Inject { (basic_inject text) with resume = false }))
      in
      Alcotest.(check string) "forked report after a domain = offline bytes"
        (F.Campaign.render_report ~table:false offline)
        r.text)

(* A client that asks for the stats as soon as it reads its report
   must find that campaign counted and its lane free.  [stats] taken
   inside [emit] sees the engine exactly as the report leaves it. *)
let test_stats_settled_at_report () =
  let text = fig1_text () in
  with_engine @@ fun t ->
  let seen = ref None in
  S.Engine.handle t
    (S.Frame.Inject { (basic_inject text) with resume = false })
    ~emit:(function
      | S.Frame.Report _ -> seen := Some (S.Engine.stats t)
      | _ -> ());
  match !seen with
  | Some s ->
    check_int "campaign counted" 1 s.S.Frame.campaigns;
    check_int "lane released" 0 s.S.Frame.active
  | None -> Alcotest.fail "no Report frame"

let test_worker_kill_restart () =
  let text = fig1_text () in
  let m, _ = Result.get_ok (C.Rtm.parse text) in
  let offline = F.Campaign.run ~batch:32 m in
  let killed = ref false in
  with_workers
    ~tweak:(fun c ->
      { c with
        S.Engine.max_restarts = 2; quarantine_threshold = 0;
        on_worker =
          Some
            (fun ~pid ~token:_ ->
              if not !killed then begin
                killed := true;
                Unix.kill pid Sys.sigkill
              end) })
    (fun t ->
      let r =
        report_of
          (collect t (S.Frame.Inject { (basic_inject text) with resume = false }))
      in
      Alcotest.(check string)
        "report after SIGKILL + journal restart = offline bytes"
        (F.Campaign.render_report ~table:false offline)
        r.text;
      let stats = S.Engine.stats t in
      check_int "one crash observed" 1 stats.S.Frame.crashes;
      check_int "one restart performed" 1 stats.S.Frame.restarts;
      check_int "nothing quarantined" 0 stats.S.Frame.quarantined)

let test_quarantine () =
  let text = fig1_text () in
  let arm = ref true in
  with_workers
    ~tweak:(fun c ->
      { c with
        S.Engine.max_restarts = 0; quarantine_threshold = 2;
        quarantine_cooloff_ms = 60_000;
        on_worker =
          Some
            (fun ~pid ~token:_ -> if !arm then Unix.kill pid Sys.sigkill) })
    (fun t ->
      let ask text = collect t (S.Frame.Inject (basic_inject text)) in
      let last rs = List.nth rs (List.length rs - 1) in
      (* two crashing campaigns open the breaker... *)
      (match last (ask text) with
       | S.Frame.Refused { status; _ } as r ->
         check_int "worker failure is a bug status" 3 status;
         Alcotest.(check string) "rule" "serve.worker" (rule_of r)
       | _ -> Alcotest.fail "crashing campaign must end Refused");
      (match last (ask text) with
       | S.Frame.Refused _ as r ->
         Alcotest.(check string) "rule" "serve.worker" (rule_of r)
       | _ -> Alcotest.fail "second crash must also end Refused");
      (* ...so the third request never spawns a worker *)
      (match ask text with
       | [ S.Frame.Refused { status; retry_after_ms; _ } as r ] ->
         check_int "quarantine is transient (status 1)" 1 status;
         Alcotest.(check string) "rule" "serve.quarantined" (rule_of r);
         check_bool "cooloff hint present" true (retry_after_ms <> None)
       | _ -> Alcotest.fail "quarantined model must be refused pre-spawn");
      (* an unrelated model is unaffected by the quarantine *)
      arm := false;
      (match last (ask (text ^ "# tail\n")) with
       | S.Frame.Report _ -> ()
       | _ -> Alcotest.fail "other models must keep being served");
      let stats = S.Engine.stats t in
      check_int "one model quarantined" 1 stats.S.Frame.quarantined;
      check_int "crashes counted" 2 stats.S.Frame.crashes)

(* -- daemon SIGKILL recovery (satellite: resume-token reuse) ---------------- *)

let test_daemon_sigkill_resume () =
  let text = fig1_text () in
  let m, _ = Result.get_ok (C.Rtm.parse text) in
  let offline =
    F.Campaign.render_report ~table:false (F.Campaign.run ~engine:`Kernel m)
  in
  let dir = Filename.temp_file "csrtl_serve" ".state" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let sock = Filename.concat dir "d.sock" in
  let state = Filename.concat dir "state" in
  (* the daemon is the real csrtl binary in its own process, built
     next to this test (a test/dune dependency) *)
  let csrtl =
    List.fold_left Filename.concat
      (Filename.dirname Sys.executable_name)
      [ Filename.parent_dir_name; "bin"; "csrtl.exe" ]
  in
  let spawn_daemon () =
    Unix.create_process csrtl
      [| csrtl; "serve"; "--socket"; sock; "--state-dir"; state; "--jobs";
         "1"; "--quiet" |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  let connect () =
    match S.Client.connect ~retries:200 ~delay:0.02 sock with
    | Ok c -> c
    | Error msg -> Alcotest.failf "connect: %s" msg
  in
  let q =
    { (basic_inject text) with engine = `Kernel; batch = 1; stream = true }
  in
  let pid1 = spawn_daemon () in
  let c = connect () in
  (match S.Client.send c (S.Frame.Inject q) with
   | Ok () -> ()
   | Error msg -> Alcotest.failf "send: %s" msg);
  (* wait for the first streamed entry so the kill lands mid-campaign *)
  let rec await_entry () =
    match S.Client.next c with
    | Some (_, Ok (S.Frame.Entry _)) -> ()
    | Some _ -> await_entry ()
    | None -> Alcotest.fail "daemon died before streaming an entry"
  in
  await_entry ();
  Unix.kill pid1 Sys.sigkill;
  (match Unix.waitpid [] pid1 with
   | _, Unix.WSIGNALED s ->
     check_bool "killed by SIGKILL" true (s = Sys.sigkill)
   | _ -> Alcotest.fail "daemon should die by signal");
  S.Client.close c;
  (try Sys.remove sock with Sys_error _ -> ());
  (* restart over the same state dir; the resend resumes the journal *)
  let pid2 = spawn_daemon () in
  let c = connect () in
  (match S.Client.send c (S.Frame.Inject { q with stream = false }) with
   | Ok () -> ()
   | Error msg -> Alcotest.failf "resend: %s" msg);
  let rec read_report () =
    match S.Client.next c with
    | Some (_, Ok (S.Frame.Report { reused; text; _ })) -> (reused, text)
    | Some (_, Ok (S.Frame.Started _ | S.Frame.Entry _ | S.Frame.Queued _))
      ->
      read_report ()
    | Some (_, Ok _) | Some (_, Error _) ->
      Alcotest.fail "resent request must finish with a Report"
    | None -> Alcotest.fail "daemon hung up during the resumed campaign"
  in
  let reused, report = read_report () in
  check_bool "journal prefix survived the SIGKILL" true (reused >= 1);
  Alcotest.(check string) "recovered report = offline bytes" offline report;
  S.Client.close c;
  (* graceful shutdown of the second daemon *)
  let c = connect () in
  (match S.Client.send c S.Frame.Shutdown with
   | Ok () -> ()
   | Error msg -> Alcotest.failf "shutdown: %s" msg);
  (match S.Client.next c with
   | Some (_, Ok S.Frame.Bye) -> ()
   | _ -> Alcotest.fail "shutdown must answer Bye");
  S.Client.close c;
  ignore (Unix.waitpid [] pid2)

(* -- an orphaned worker drains itself ------------------------------------------- *)

(* A worker whose supervisor dies (a SIGKILLed daemon) must stop at its
   next work item instead of finishing the campaign that a restarted
   daemon's worker resumes from the same journal.  The supervisor here
   is a shell that starts the worker and is then SIGKILLed; the worker
   keeps the frames pipe open, so EOF on it marks the worker's exit. *)
let test_orphaned_worker_drains () =
  let m = Chain_model.chain 160 in
  let total = List.length (F.Fault.enumerate m) in
  let dir = Filename.temp_file "csrtl_orphan" ".state" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let state = Filename.concat dir "state" in
  Unix.mkdir state 0o700;
  let job = Filename.concat dir "job" and pidfile = Filename.concat dir "pid" in
  let limits =
    let l = Diag.Limits.default in
    F.Journal.Json.Obj
      (List.map
         (fun (k, v) -> (k, F.Journal.Json.Int v))
         [ ("max_input_bytes", l.Diag.Limits.max_input_bytes);
           ("max_tokens", l.max_tokens); ("max_nesting", l.max_nesting);
           ("max_registers", l.max_registers); ("max_fus", l.max_fus);
           ("max_buses", l.max_buses); ("max_steps", l.max_steps);
           ("max_transfers", l.max_transfers) ])
  in
  Out_channel.with_open_bin job (fun oc ->
      output_string oc
        (S.Frame.encode_request
           (S.Frame.Inject
              { (basic_inject (C.Rtm.to_string m)) with
                engine = `Kernel; resume = false }));
      output_char oc '\n';
      output_string oc
        (F.Journal.Json.to_string
           (F.Journal.Json.Obj
              [ ("state_dir", F.Journal.Json.Str state);
                ("jobs", F.Journal.Json.Int 1); ("limits", limits);
                ("golden", F.Journal.Json.Str "off");
                ("chaos", F.Journal.Json.Arr []) ]));
      output_char oc '\n');
  let csrtl =
    List.fold_left Filename.concat
      (Filename.dirname Sys.executable_name)
      [ Filename.parent_dir_name; "bin"; "csrtl.exe" ]
  in
  let r, w = Unix.pipe ~cloexec:true () in
  let shell =
    Unix.create_process "/bin/sh"
      [| "/bin/sh"; "-c"; "\"$0\" worker < \"$1\" & echo $! > \"$2\"; wait";
         csrtl; job; pidfile |]
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let journal_entries () =
    match
      List.find_opt
        (fun f -> Filename.check_suffix f ".jsonl")
        (Array.to_list (Sys.readdir state))
    with
    | None -> 0
    | Some f ->
      let text =
        In_channel.with_open_bin (Filename.concat state f)
          In_channel.input_all
      in
      List.length (String.split_on_char '\n' text) - 2
  in
  let worker_pid () =
    try int_of_string (String.trim (In_channel.with_open_bin pidfile
                                      In_channel.input_all))
    with _ -> 0
  in
  (* kill the supervisor once the worker is computing *)
  let t0 = Unix.gettimeofday () in
  while journal_entries () < 1 && Unix.gettimeofday () -. t0 < 10. do
    Unix.sleepf 0.005
  done;
  Unix.kill shell Sys.sigkill;
  ignore (Unix.waitpid [] shell);
  let killed = Unix.gettimeofday () in
  let buf = Bytes.create 65536 in
  let rec until_eof () =
    let left = killed +. 1.5 -. Unix.gettimeofday () in
    if left <= 0. then false
    else
      match Unix.select [ r ] [] [] left with
      | [], _, _ -> false
      | _ -> if Unix.read r buf 0 (Bytes.length buf) = 0 then true
        else until_eof ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> until_eof ()
  in
  let exited = until_eof () in
  Unix.close r;
  if not exited then begin
    (match worker_pid () with
     | 0 -> ()
     | pid -> (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()));
    Alcotest.fail "the orphaned worker was still running 1.5 s after its \
                   supervisor died"
  end;
  let entries = journal_entries () in
  check_bool
    (Printf.sprintf "the orphan stopped early (%d of %d entries)" entries
       total)
    true
    (entries >= 1 && entries < total)

(* -- client retry policy ---------------------------------------------------- *)

let test_client_retry_policy () =
  let refusal ?retry_after_ms rule status =
    S.Frame.Refused
      { status; retry_after_ms;
        diags = [ { Diag.severity = Diag.Error; rule; span = None;
                    message = "m" } ] }
  in
  (match S.Client.retryable (refusal ~retry_after_ms:250 "serve.busy" 1) with
   | Some (Some 250) -> ()
   | _ -> Alcotest.fail "busy with hint is retryable");
  (match S.Client.retryable (refusal "serve.draining" 1) with
   | Some None -> ()
   | _ -> Alcotest.fail "draining without hint is retryable");
  (match S.Client.retryable (refusal "serve.quarantined" 1) with
   | Some _ -> ()
   | _ -> Alcotest.fail "quarantined is retryable");
  (match S.Client.retryable (refusal "serve.request" 2) with
   | None -> ()
   | _ -> Alcotest.fail "bad input is not retryable");
  (match S.Client.retryable (refusal "serve.worker" 3) with
   | None -> ()
   | _ -> Alcotest.fail "worker bugs are not retryable");
  (match S.Client.retryable S.Frame.Bye with
   | None -> ()
   | _ -> Alcotest.fail "only refusals are retryable");
  (* the delay grows with attempts, honours the hint as a floor, and
     jitters within [d/2, d] *)
  let d0 = S.Client.backoff_delay ~attempt:0 ~retry_after_ms:None (fun () -> 1.0) in
  let d3 = S.Client.backoff_delay ~attempt:3 ~retry_after_ms:None (fun () -> 1.0) in
  check_bool "exponential growth" true (d3 > d0);
  let hinted =
    S.Client.backoff_delay ~attempt:0 ~retry_after_ms:(Some 900)
      (fun () -> 1.0)
  in
  check_bool "hint floors the delay" true (hinted >= 0.9);
  let lo = S.Client.backoff_delay ~attempt:0 ~retry_after_ms:(Some 1000) (fun () -> 0.0) in
  let hi = S.Client.backoff_delay ~attempt:0 ~retry_after_ms:(Some 1000) (fun () -> 1.0) in
  check_bool "jitter lower bound is half" true (lo >= 0.49 && lo <= 0.51);
  check_bool "jitter upper bound is full" true (hi >= 0.99 && hi <= 1.01);
  let capped =
    S.Client.backoff_delay ~attempt:20 ~retry_after_ms:None (fun () -> 1.0)
  in
  check_bool "cap holds" true (capped <= 2.0 +. 1e-9)

(* With a pinned rng the whole curve is deterministic: rng () = 1.0
   makes the jittered delay exactly d, rng () = 0.0 exactly d/2, so
   the exponential schedule, the hint floor and the 2s cap can be
   pinned as bytes rather than inequalities. *)
let test_backoff_curve () =
  let check_f = Alcotest.(check (float 1e-9)) in
  let at ?retry_after_ms attempt rng =
    S.Client.backoff_delay ~attempt ~retry_after_ms (fun () -> rng)
  in
  check_f "attempt 0 = base" 0.05 (at 0 1.0);
  check_f "attempt 1 doubles" 0.1 (at 1 1.0);
  check_f "attempt 2" 0.2 (at 2 1.0);
  check_f "attempt 3" 0.4 (at 3 1.0);
  check_f "attempt 4" 0.8 (at 4 1.0);
  check_f "attempt 5" 1.6 (at 5 1.0);
  check_f "attempt 6 hits the 2s cap" 2.0 (at 6 1.0);
  check_f "attempt 30 stays capped" 2.0 (at 30 1.0);
  (* the daemon's hint floors the exponential *)
  check_f "hint floor" 0.5 (at ~retry_after_ms:500 0 1.0);
  check_f "hint loses to a bigger exponent" 0.8
    (at ~retry_after_ms:500 4 1.0);
  check_f "hint is capped too" 2.0 (at ~retry_after_ms:10_000 0 1.0);
  (* jitter spans exactly [d/2, d] *)
  check_f "rng 0 = half" 0.025 (at 0 0.0);
  check_f "rng 1/2 = three quarters" 0.0375 (at 0 0.5)

(* -- transport units -------------------------------------------------------- *)

(* the satellite regression: an unterminated final line at EOF must be
   delivered, not silently discarded — it is a drained daemon's last
   frame or a hand-piped request *)
let test_lineio_final_line () =
  let feed bytes =
    let rd, wr = Unix.pipe () in
    ignore (Unix.write_substring wr bytes 0 (String.length bytes));
    Unix.close wr;
    (rd, S.Lineio.reader rd)
  in
  let rd, r = feed "one\ntwo" in
  (match S.Lineio.read_line r with
   | S.Lineio.Line "one" -> ()
   | _ -> Alcotest.fail "terminated line reads normally");
  (match S.Lineio.read_line r with
   | S.Lineio.Line "two" -> ()
   | _ -> Alcotest.fail "unterminated final line must be delivered");
  (match S.Lineio.read_line r with
   | S.Lineio.Eof -> ()
   | _ -> Alcotest.fail "then Eof");
  Unix.close rd;
  (* a lone unterminated line *)
  let rd, r = feed "solo" in
  (match S.Lineio.read_line r with
   | S.Lineio.Line "solo" -> ()
   | _ -> Alcotest.fail "lone unterminated line must be delivered");
  (match S.Lineio.read_line r with
   | S.Lineio.Eof -> ()
   | _ -> Alcotest.fail "then Eof after the lone line");
  Unix.close rd;
  (* an empty stream is just Eof — no phantom empty Line *)
  let rd, r = feed "" in
  (match S.Lineio.read_line r with
   | S.Lineio.Eof -> ()
   | _ -> Alcotest.fail "empty stream is Eof");
  Unix.close rd

let contains ~sub s =
  let n = String.length sub in
  let rec at i =
    i + n <= String.length s && (String.sub s i n = sub || at (i + 1))
  in
  at 0

let scratch_dir prefix =
  let dir = Filename.temp_file prefix ".d" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  dir

(* the hints an operator meets most: no socket file at all, and a
   socket file nobody listens on (a crashed daemon's leftover) *)
let test_connect_hints () =
  let dir = scratch_dir "csrtl_hint" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let path = Filename.concat dir "d.sock" in
  (match S.Client.connect path with
   | Error msg ->
     check_bool "missing path: daemon not started?" true
       (contains ~sub:"daemon not started?" msg)
   | Ok _ -> Alcotest.fail "connect to a missing path must fail");
  (* bound but never listening: the stale-socket shape *)
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  Unix.bind fd (Unix.ADDR_UNIX path);
  (match S.Client.dial path with
   | Error Unix.ECONNREFUSED -> ()
   | Ok _ | Error _ -> Alcotest.fail "a non-listening socket refuses");
  match S.Client.connect ~retries:2 ~delay:0.001 path with
  | Error msg ->
    check_bool "errno named" true
      (contains ~sub:(Unix.error_message Unix.ECONNREFUSED) msg);
    check_bool "stale socket hint" true (contains ~sub:"stale socket" msg)
  | Ok _ -> Alcotest.fail "connect to a non-listening socket must fail"

(* One socket path, one live daemon: a second daemon on a live path
   refuses to start and leaves the first reachable; a stale socket
   file is replaced; a daemon whose file was replaced by a successor
   leaves the successor's socket alone when it exits. *)
let test_socket_ownership () =
  let dir = scratch_dir "csrtl_own" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let sock = Filename.concat dir "d.sock" in
  let config state =
    { S.Server.default_config with
      S.Server.socket = sock; signals = false;
      engine =
        { S.Engine.default_config with
          S.Engine.state_dir = Filename.concat dir state; jobs = 1 } }
  in
  let start state =
    let result = ref (Error "never ran") in
    let th =
      Thread.create
        (fun () -> result := S.Server.serve ~config:(config state) ())
        ()
    in
    (th, result)
  in
  let finished label (th, result) =
    Thread.join th;
    match !result with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "%s: %s" label msg
  in
  let connect () =
    match S.Client.connect ~retries:500 ~delay:0.01 sock with
    | Ok c -> c
    | Error msg -> Alcotest.failf "connect: %s" msg
  in
  let ask c req =
    (match S.Client.send c req with
     | Ok () -> ()
     | Error msg -> Alcotest.failf "send: %s" msg);
    match S.Client.next c with
    | Some (_, Ok resp) -> resp
    | _ -> Alcotest.fail "no decodable answer"
  in
  let ping label =
    let c = connect () in
    (match ask c S.Frame.Ping with
     | S.Frame.Pong _ -> ()
     | _ -> Alcotest.failf "%s: ping must pong" label);
    S.Client.close c
  in
  let shutdown c =
    (match ask c S.Frame.Shutdown with
     | S.Frame.Bye -> ()
     | _ -> Alcotest.fail "shutdown must answer Bye");
    S.Client.close c
  in
  let a = start "a" in
  ping "a";
  (match S.Server.serve ~config:(config "b") () with
   | Error msg ->
     check_bool "refusal names the live daemon" true
       (contains ~sub:("another daemon is listening on " ^ sock) msg)
   | Ok () -> Alcotest.fail "a second daemon on a live socket must refuse");
  check_bool "the refused daemon never touched its state dir" false
    (Sys.file_exists (Filename.concat dir "b"));
  ping "a after the refusal";
  (* A's file is replaced under it by a successor; A then exits *)
  let to_a = connect () in
  Sys.remove sock;
  let b = start "b" in
  ping "b";
  shutdown to_a;
  finished "a" a;
  check_bool "a left the successor's socket file" true (Sys.file_exists sock);
  ping "b after a exited";
  shutdown (connect ());
  finished "b" b;
  check_bool "b removed its own socket file" false (Sys.file_exists sock);
  (* a stale socket file (bound, nobody listening) is replaced *)
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX sock);
  Unix.close fd;
  let c = start "c" in
  ping "restart over a stale socket";
  shutdown (connect ());
  finished "c" c;
  (* a path that is not a socket is never unlinked *)
  Out_channel.with_open_bin sock (fun oc -> output_string oc "data");
  (match S.Server.serve ~config:(config "d") () with
   | Error msg ->
     check_bool "not a socket" true (contains ~sub:"not a socket" msg)
   | Ok () -> Alcotest.fail "a regular file at the path must refuse");
  Alcotest.(check string) "the regular file is intact" "data"
    (read_file sock)

let () =
  (* engines re-execute this binary as their campaign workers *)
  S.Engine.worker_entry ();
  Alcotest.run "serve"
    [ ( "codec",
        [ QCheck_alcotest.to_alcotest ~long:false request_round_trip;
          QCheck_alcotest.to_alcotest ~long:false response_round_trip;
          QCheck_alcotest.to_alcotest ~long:false decode_total;
          Alcotest.test_case "hostile frames" `Quick test_decode_hostile ] );
      ( "differential",
        [ Alcotest.test_case "responses = offline inject bytes" `Quick
            test_engine_matches_offline ] );
      ( "cache",
        [ Alcotest.test_case "hit accounting and token stability" `Quick
            test_cache_and_token_stability;
          Alcotest.test_case "re-add refreshes the LRU stamp" `Quick
            test_cache_lru_stamp_refresh;
          Alcotest.test_case "concurrent threads, capacity 1" `Quick
            test_cache_concurrent_threads;
          Alcotest.test_case "warm requests byte-identical" `Quick
            test_warm_requests_byte_identical;
          Alcotest.test_case "disabled tiers byte-identical" `Quick
            test_tiers_disabled_byte_identical;
          Alcotest.test_case "tier eviction under concurrency" `Quick
            test_tier_eviction_under_concurrency ] );
      ( "drain",
        [ Alcotest.test_case "deadline drain then resume" `Quick
            test_deadline_drain_then_resume;
          Alcotest.test_case "shutdown drain then resume" `Quick
            test_shutdown_drain_then_resume;
          Alcotest.test_case "old journal version reruns fresh" `Quick
            test_old_journal_version_reruns ] );
      ( "admission",
        [ Alcotest.test_case "limits, busy, draining" `Quick
            test_admission_control;
          Alcotest.test_case "ping, stats, shutdown" `Quick
            test_control_requests;
          Alcotest.test_case "per-client round-robin fairness" `Quick
            test_admission_fairness;
          Alcotest.test_case "queue bounds, deadlines, drain" `Quick
            test_admission_bounds;
          Alcotest.test_case "stats settled when the report goes out" `Quick
            test_stats_settled_at_report ] );
      ( "workers",
        [ Alcotest.test_case "forked report = offline bytes" `Quick
            test_forked_matches_offline;
          Alcotest.test_case "SIGKILL mid-campaign, journal restart" `Quick
            test_worker_kill_restart;
          Alcotest.test_case "repeated crashes quarantine the model" `Quick
            test_quarantine;
          Alcotest.test_case "daemon SIGKILL, restart, token reuse" `Quick
            test_daemon_sigkill_resume;
          Alcotest.test_case "orphaned worker drains itself" `Quick
            test_orphaned_worker_drains;
          Alcotest.test_case "forked report after a domain ran" `Quick
            test_forked_after_domain ] );
      ( "client",
        [ Alcotest.test_case "retry classification and backoff" `Quick
            test_client_retry_policy;
          Alcotest.test_case "deterministic backoff curve" `Quick
            test_backoff_curve ] );
      ( "transport",
        [ Alcotest.test_case "unterminated final line at EOF" `Quick
            test_lineio_final_line;
          Alcotest.test_case "connect hints" `Quick test_connect_hints;
          Alcotest.test_case "socket ownership" `Quick
            test_socket_ownership ] ) ]
