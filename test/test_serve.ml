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

(* the real daemon binary, built next to this test (a test/dune
   dependency) *)
let csrtl_exe () =
  List.fold_left Filename.concat
    (Filename.dirname Sys.executable_name)
    [ Filename.parent_dir_name; "bin"; "csrtl.exe" ]

(* every campaign runs in a worker process: a re-execution of this
   binary (see the [worker_entry] call in main) *)
let with_engine ?(tweak = fun c -> c) f =
  let dir = Filename.temp_file "csrtl_serve" ".state" in
  Sys.remove dir;
  let cfg = tweak { S.Engine.default_config with state_dir = dir } in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () ->
      let t = S.Engine.create cfg in
      (* workers wait for their next job: drain them with the engine *)
      Fun.protect ~finally:(fun () -> S.Engine.shutdown t) (fun () -> f t))

(* collect every emitted frame, in order; the engine is
   single-threaded, so a plain accumulator will do *)
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

(* The queue is a plain data structure: every call decides at once,
   and a lane freed by [release] is granted within that call. *)
let admit a ~client ?deadline ?(on_wake = fun _ -> ()) () =
  S.Admission.admit a ~client ~deadline ~on_wake

let queued = function
  | S.Admission.Queued { position; _ } -> position
  | _ -> Alcotest.fail "expected the request to queue"

let test_admission_fairness () =
  let a =
    S.Admission.create ~max_active:1 ~max_queue:8 ~max_per_client:4 ()
  in
  (match admit a ~client:1 () with
   | S.Admission.Admitted -> ()
   | _ -> Alcotest.fail "empty queue must admit on the fast path");
  let order = ref [] in
  let wait label client =
    queued
      (admit a ~client
         ~on_wake:(function
           | S.Admission.Granted -> order := label :: !order
           | _ -> Alcotest.failf "%s woken without a grant" label)
         ())
  in
  (* client 1 queues two requests, then client 2 queues one; the
     grant order must interleave clients, not drain client 1 first *)
  check_int "A2 first in line" 1 (wait "A2" 1);
  check_int "A3 second" 2 (wait "A3" 1);
  check_int "B1 third" 3 (wait "B1" 2);
  List.iteri
    (fun i _ ->
      S.Admission.release a ~wall_ms:(-1.);
      check_int "granted inside the release, no wait" (i + 1)
        (List.length !order))
    [ (); (); () ];
  Alcotest.(check (list string))
    "round-robin across clients" [ "A2"; "B1"; "A3" ] (List.rev !order);
  S.Admission.release a ~wall_ms:(-1.);
  let snap = S.Admission.snapshot a in
  check_int "no lanes leak" 0 snap.S.Admission.active;
  check_int "queue empty" 0 snap.S.Admission.queued

let test_admission_bounds () =
  (* a full queue refuses with a backpressure hint *)
  let a =
    S.Admission.create ~max_active:1 ~max_queue:0 ~max_per_client:4 ()
  in
  (match admit a ~client:1 () with
   | S.Admission.Admitted -> ()
   | _ -> Alcotest.fail "first admit");
  (match admit a ~client:2 () with
   | S.Admission.Busy { retry_after_ms } ->
     check_bool "hint at least the floor" true (retry_after_ms >= 50)
   | _ -> Alcotest.fail "full queue must refuse, not block");
  S.Admission.release a ~wall_ms:100.;
  (* a queued request whose deadline passes is abandoned as Expired at
     the loop's next [expire]; one with time left stays *)
  let a = S.Admission.create ~max_active:1 ~max_queue:4 ~max_per_client:4 () in
  (match admit a ~client:1 () with
   | S.Admission.Admitted -> ()
   | _ -> Alcotest.fail "first admit");
  let now = Unix.gettimeofday () in
  let late = ref None and patient = ref None in
  ignore
    (queued
       (admit a ~client:2 ~deadline:(now -. 1.)
          ~on_wake:(fun w -> late := Some w) ()));
  ignore
    (queued
       (admit a ~client:3 ~deadline:(now +. 60.)
          ~on_wake:(fun w -> patient := Some w) ()));
  Alcotest.(check (float 0.)) "the survivor's deadline is the next wake"
    (now +. 60.) (S.Admission.expire a ~now);
  (match !late with
   | Some (S.Admission.Expired { retry_after_ms }) ->
     check_bool "expiry carries a hint" true (retry_after_ms >= 50)
   | _ -> Alcotest.fail "past deadline must expire in the queue");
  check_bool "a deadline still ahead keeps its place" true (!patient = None);
  S.Admission.release a ~wall_ms:(-1.);
  check_bool "the survivor is granted at the release" true
    (!patient = Some S.Admission.Granted);
  (* one client cannot take the whole queue, and draining releases
     every waiter *)
  let a = S.Admission.create ~max_active:1 ~max_queue:8 ~max_per_client:1 () in
  (match admit a ~client:1 () with
   | S.Admission.Admitted -> ()
   | _ -> Alcotest.fail "first admit");
  let got = ref None in
  ignore (queued (admit a ~client:2 ~on_wake:(fun w -> got := Some w) ()));
  (match admit a ~client:2 () with
   | S.Admission.Busy _ -> ()
   | _ -> Alcotest.fail "per-client share must refuse the second waiter");
  S.Admission.drain a;
  (match !got with
   | Some S.Admission.Draining -> ()
   | _ -> Alcotest.fail "drain must release the waiter as Draining");
  check_int "queue empty after drain" 0
    (S.Admission.snapshot a).S.Admission.queued;
  S.Admission.release a ~wall_ms:(-1.);
  check_int "nothing granted after the drain" 0
    (S.Admission.snapshot a).S.Admission.active

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

(* Submit without waiting; the thunk answers the frames (Queued frames
   dropped) once the request is terminal. *)
let submit ?client t req =
  let acc = ref [] and finished = ref false in
  S.Engine.submit ?client t req ~emit:(fun r ->
      (match r with S.Frame.Queued _ -> () | _ -> acc := r :: !acc);
      if S.Engine.terminal r then finished := true);
  fun () -> if !finished then Some (List.rev !acc) else None

(* poll the engine until every submitted request is terminal *)
let settle t pending =
  let rec go () =
    match List.map (fun p -> p ()) pending with
    | rs when List.for_all Option.is_some rs -> List.map Option.get rs
    | _ ->
      ignore (S.Engine.poll t ~read:[] ~write:[] ~timeout:1.);
      go ()
  in
  go ()

let test_tier_eviction_under_concurrency () =
  (* distinct models churning width-1 tiers from three clients' requests
     interleaved on one engine: the reports stay byte-identical to
     offline and the tiers stay bounded while evicting *)
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
      let pending =
        List.concat_map
          (fun client ->
            List.map
              (fun (text, _) ->
                submit ~client t
                  (S.Frame.Inject
                     { (basic_inject text) with
                       limit = Some 8; resume = false }))
              jobs)
          [ 0; 1; 2 ]
      in
      List.iteri
        (fun i rs ->
          let want = snd (List.nth jobs (i mod List.length jobs)) in
          if (report_of rs).text <> want then
            Alcotest.failf "client %d model %d: report differs under churn"
              (i / List.length jobs) (i mod List.length jobs))
        (settle t pending);
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

(* Two requests for one campaign share its token and journal: the
   second's job is handed out only once the first's has ended (its
   worker writes the terminal frame after closing the journal), and
   then resumes every entry the first journaled. *)
let test_same_token_waits_for_reap () =
  let text = fig1_text () in
  let m, _ = Result.get_ok (C.Rtm.parse text) in
  let offline =
    F.Campaign.render_report ~table:false (F.Campaign.run ~batch:32 m)
  in
  let jobs = ref 0 in
  let first_ended = ref (fun () -> false) in
  with_workers
    ~tweak:(fun c ->
      { c with
        S.Engine.on_worker =
          Some
            (fun ~pid:_ ~token:_ ->
              if !jobs = 1 && not (!first_ended ()) then
                Alcotest.fail "second job handed out before the first ended";
              incr jobs) })
    (fun t ->
      let q = basic_inject text in
      let first = submit t (S.Frame.Inject { q with resume = false }) in
      (first_ended := fun () -> Option.is_some (first ()));
      let second = submit t (S.Frame.Inject q) in
      match settle t [ first; second ] with
      | [ first; second ] ->
        let total =
          match second with
          | S.Frame.Started { total; _ } :: _ -> total
          | _ -> Alcotest.fail "no Started frame"
        in
        check_int "two jobs" 2 !jobs;
        check_int "the first ran fresh" 0 (report_of first).reused;
        check_int "the second reused every entry" total
          (report_of second).reused;
        Alcotest.(check string) "first = offline bytes" offline
          (report_of first).text;
        Alcotest.(check string) "second = offline bytes" offline
          (report_of second).text
      | _ -> Alcotest.fail "two requests, two answers")

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

(* -- warm workers: one process, many jobs ------------------------------------ *)

(* [f t pids dir]: [pids ()] lists the pid behind each job handed out,
   oldest first; [dir] is the engine's state directory *)
let with_job_pids ?(tweak = fun c -> c) ?(kill = fun _ -> false) f =
  let pids = ref [] and dir = ref "" in
  with_workers
    ~tweak:(fun c ->
      dir := c.S.Engine.state_dir;
      tweak
        { c with
          S.Engine.on_worker =
            Some
              (fun ~pid ~token:_ ->
                pids := pid :: !pids;
                if kill (List.length !pids) then Unix.kill pid Sys.sigkill) })
    (fun t -> f t (fun () -> List.rev !pids) !dir)

let offline_text ?(table = false) ?(engine = `Auto) m =
  F.Campaign.render_report ~table (F.Campaign.run ~engine ~batch:32 m)

let ask t q = report_of (collect t (S.Frame.Inject q))

let check_crashes t n =
  let stats = S.Engine.stats t in
  check_int "crashes" n stats.S.Frame.crashes;
  check_int "restarts" n stats.S.Frame.restarts

(* Cold, warm, replay, kernel-engine and table requests, one after
   another: one worker runs all five jobs, and every report is the
   offline bytes. *)
let test_warm_worker_runs_many () =
  let text = fig1_text () in
  let m, _ = Result.get_ok (C.Rtm.parse text) in
  with_job_pids @@ fun t pids _ ->
  let q = basic_inject text in
  let check what expected q =
    Alcotest.(check string) what expected (ask t q).text
  in
  check "cold" (offline_text m) { q with resume = false };
  check "warm" (offline_text m) { q with resume = false };
  check "replay" (offline_text m) q;
  check "kernel engine" (offline_text ~engine:`Kernel m)
    { q with engine = `Kernel; batch = 1; resume = false };
  check "replay with a table" (offline_text ~table:true m) { q with table = true };
  (match pids () with
   | [ p; p2; p3; p4; p5 ] ->
     check_bool "one pid for all five jobs" true
       (List.for_all (( = ) p) [ p2; p3; p4; p5 ])
   | l -> Alcotest.failf "%d jobs handed out, expected 5" (List.length l));
  check_crashes t 0

(* Journal injections are per job: a job that armed one (aimed at
   another campaign's journal, so it never fires) leaves nothing armed
   for the next job on the same worker, which writes that very journal
   intact. *)
let test_warm_worker_chaos_not_inherited () =
  let fig1 = fig1_text () in
  let fm, _ = Result.get_ok (C.Rtm.parse fig1) in
  let cm = Chain_model.chain 4 in
  let chain = C.Rtm.to_string cm in
  with_job_pids @@ fun t pids dir ->
  let cq = { (basic_inject chain) with resume = false } in
  let token =
    match collect t (S.Frame.Inject cq) with
    | S.Frame.Started { token; _ } :: _ -> token
    | _ -> Alcotest.fail "no Started frame"
  in
  F.Journal.set_chaos
    [ { F.Journal.path = Filename.concat dir ("inj-" ^ token ^ ".jsonl");
        op = `Append; nth = 1; errno = `ENOSPC } ];
  let armed =
    Fun.protect ~finally:(fun () -> F.Journal.set_chaos []) (fun () ->
        ask t { (basic_inject fig1) with resume = false })
  in
  Alcotest.(check string) "armed job = offline bytes" (offline_text fm)
    armed.text;
  Alcotest.(check string) "next job = offline bytes" (offline_text cm)
    (ask t cq).text;
  let replay = ask t { cq with resume = true } in
  Alcotest.(check string) "replay = offline bytes" (offline_text cm)
    replay.text;
  check_int "the journal is whole" (List.length (F.Fault.enumerate cm))
    replay.reused;
  (match pids () with
   | p :: rest ->
     check_bool "one worker" true (List.for_all (( = ) p) rest)
   | [] -> Alcotest.fail "no job handed out");
  check_crashes t 0

(* A SIGKILLed worker is never handed another job: the restart and the
   next request run on other pids, with offline bytes. *)
let test_job_after_kill_new_pid () =
  let text = fig1_text () in
  let m, _ = Result.get_ok (C.Rtm.parse text) in
  with_job_pids ~kill:(fun n -> n = 2) @@ fun t pids _ ->
  let q = { (basic_inject text) with resume = false } in
  for i = 1 to 3 do
    Alcotest.(check string)
      (Printf.sprintf "request %d = offline bytes" i)
      (offline_text m) (ask t q).text
  done;
  (match pids () with
   | [ p1; killed; restart; next ] ->
     check_bool "the killed job ran on a reused worker" true (p1 = killed);
     check_bool "the restart runs on a new pid" true (restart <> killed);
     check_bool "the next job runs on a new pid" true (next <> killed)
   | l -> Alcotest.failf "%d jobs handed out, expected 4" (List.length l));
  check_crashes t 1

(* The recycle rule itself, on any host: a job count, a heap cap and
   a fan-out each retire a worker. *)
let test_recycle_rule () =
  let retires = S.Engine.retires in
  let small = 1024 * 1024 in
  check_bool "a small one-domain job keeps its worker" false
    (retires ~ran:1 ~domains:1 ~heap_words:small);
  check_bool "a job that ran nothing keeps its worker" false
    (retires ~ran:999 ~domains:0 ~heap_words:small);
  check_bool "the 1000th job retires it" true
    (retires ~ran:1000 ~domains:1 ~heap_words:small);
  check_bool "a fan-out retires it" true
    (retires ~ran:1 ~domains:2 ~heap_words:small);
  check_bool "a heap past 32 MB retires it" true
    (retires ~ran:1 ~domains:1
       ~heap_words:((32 * 1024 * 1024 / (Sys.word_size / 8)) + 1))

(* The multi-domain legs below go through the campaign's own gate,
   which clamps its pool to the host's cores: a one-core host cannot
   fan out, and skips them. *)
let needs_two_cores () =
  if Csrtl_par.Par.available_parallelism () < 2 then Alcotest.skip ()

(* A job whose campaign ran on a pool leaves its worker retiring: the
   next job gets a new process, and the retirement is no crash.  A
   16-transfer chain on the kernel engine takes tens of milliseconds,
   well past the gate's break-even, so two jobs fan out. *)
let test_fanned_out_worker_retires () =
  needs_two_cores ();
  let m = Chain_model.chain 16 in
  let q =
    { (basic_inject (C.Rtm.to_string m)) with
      engine = `Kernel; batch = 1; resume = false }
  in
  with_job_pids ~tweak:(fun c -> { c with S.Engine.jobs = 2 })
  @@ fun t pids _ ->
  for i = 1 to 2 do
    Alcotest.(check string)
      (Printf.sprintf "request %d = offline bytes" i)
      (offline_text ~engine:`Kernel m) (ask t q).text
  done;
  (match pids () with
   | [ p1; p2 ] -> check_bool "a new worker after a fan-out" true (p1 <> p2)
   | l -> Alcotest.failf "%d jobs handed out, expected 2" (List.length l));
  check_crashes t 0

(* A retiring worker closes its stdin before its last terminal frame,
   so a job handed to it as that frame is read is refused, never sent
   to a process that is leaving.  Driven through [Worker] directly: the
   first job fans out, which retires the worker. *)
let test_retiring_worker_refuses_jobs () =
  needs_two_cores ();
  let m = Chain_model.chain 16 in
  let dir = Filename.temp_file "csrtl_retire" ".state" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let job =
    S.Engine.encode_job
      { S.Engine.cfg =
          { S.Engine.default_config with state_dir = dir; jobs = 2 };
        q =
          { (basic_inject (C.Rtm.to_string m)) with
            engine = `Kernel; resume = false };
        golden = `Off; chaos = [] }
  in
  let give w ~on_line ~on_end =
    S.Worker.give ~paused:(fun () -> false) ~on_line ~on_end w job
  in
  let w = S.Worker.spawn ~grace_s:2. in
  let refused = ref None in
  let on_line line =
    match S.Frame.decode_response ~limits:Diag.Limits.default line with
    | Ok (S.Frame.Report _) -> `Terminal
    | Ok _ | Error _ -> `Continue
  in
  let on_end = function
    | S.Worker.Terminal ->
      refused :=
        Some
          (not
             (give w ~on_line:(fun _ -> `Continue) ~on_end:(fun _ -> ())))
    | S.Worker.Crashed c -> Alcotest.failf "the worker %s" (S.Worker.describe c)
  in
  check_bool "a fresh worker takes its job" true (give w ~on_line ~on_end);
  (* a worker that stays after its fan-out would keep the loop going *)
  let deadline = Unix.gettimeofday () +. 30. in
  while not (S.Worker.gone w) do
    if Unix.gettimeofday () > deadline then begin
      (try Unix.kill (S.Worker.pid w) Sys.sigkill
       with Unix.Unix_error _ -> ());
      Alcotest.fail "the worker did not leave after its fan-out"
    end;
    let r, wr = S.Worker.watch w in
    let r, wr, _ =
      try Unix.select r wr [] 0.05
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    S.Worker.step w ~readable:r ~writable:wr ~stop:false
  done;
  match !refused with
  | Some refused -> check_bool "the retiring worker refused the job" true refused
  | None -> Alcotest.fail "the first job never ended"

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
  let csrtl = csrtl_exe () in
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
        (S.Worker.framed
           (String.concat ""
              [ S.Frame.encode_request
                  (S.Frame.Inject
                     { (basic_inject (C.Rtm.to_string m)) with
                       engine = `Kernel; resume = false });
                "\n";
                F.Journal.Json.to_string
                  (F.Journal.Json.Obj
                     [ ("state_dir", F.Journal.Json.Str state);
                       ("jobs", F.Journal.Json.Int 1); ("limits", limits);
                       ("golden", F.Journal.Json.Str "off");
                       ("chaos", F.Journal.Json.Arr []) ]);
                "\n" ])));
  let csrtl = csrtl_exe () in
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
    let r = S.Lineio.reader () in
    (rd, fun () -> S.Lineio.read_line r rd)
  in
  let rd, next = feed "one\ntwo" in
  (match next () with
   | S.Lineio.Line "one" -> ()
   | _ -> Alcotest.fail "terminated line reads normally");
  (match next () with
   | S.Lineio.Line "two" -> ()
   | _ -> Alcotest.fail "unterminated final line must be delivered");
  (match next () with
   | S.Lineio.Eof -> ()
   | _ -> Alcotest.fail "then Eof");
  Unix.close rd;
  (* a lone unterminated line *)
  let rd, next = feed "solo" in
  (match next () with
   | S.Lineio.Line "solo" -> ()
   | _ -> Alcotest.fail "lone unterminated line must be delivered");
  (match next () with
   | S.Lineio.Eof -> ()
   | _ -> Alcotest.fail "then Eof after the lone line");
  Unix.close rd;
  (* an empty stream is just Eof — no phantom empty Line *)
  let rd, next = feed "" in
  (match next () with
   | S.Lineio.Eof -> ()
   | _ -> Alcotest.fail "empty stream is Eof");
  Unix.close rd

(* The splitter's contract on a whole stream: each terminated line,
   less one trailing CR, is a Line within the cap and Too_long past
   it; an unterminated tail is a Line within the cap, dropped past it. *)
let lines_of_stream ~max_line stream =
  let parts = String.split_on_char '\n' stream in
  let rec go = function
    | [] -> []
    | [ tail ] ->
      if tail = "" || String.length tail > max_line then []
      else [ S.Lineio.Line tail ]
    | l :: rest ->
      let n = String.length l in
      let l = if n > 0 && l.[n - 1] = '\r' then String.sub l 0 (n - 1) else l in
      (if String.length l > max_line then S.Lineio.Too_long
       else S.Lineio.Line l)
      :: go rest
  in
  go parts

let lineio_chunking =
  let gen =
    QCheck.Gen.(
      let* stream =
        string_size ~gen:(oneofl [ 'a'; 'b'; '\n'; '\r' ]) (int_bound 120)
      in
      let* cuts = list_size (int_bound 12) (int_bound 120) in
      let* max_line = int_bound 10 in
      return (stream, cuts, max_line))
  in
  let print (stream, cuts, max_line) =
    Printf.sprintf "%S cut at [%s], cap %d" stream
      (String.concat "; " (List.map string_of_int cuts))
      max_line
  in
  QCheck.Test.make ~name:"any chunking yields the lines of one chunk"
    ~count:1000 (QCheck.make ~print gen) (fun (stream, cuts, max_line) ->
      let split chunks =
        let r = S.Lineio.reader ~max_line () in
        let rec take acc =
          match S.Lineio.next r with
          | None -> acc
          | Some S.Lineio.Eof -> acc
          | Some l -> take (l :: acc)
        in
        let acc =
          List.fold_left (fun acc c -> S.Lineio.feed r c; take acc) [] chunks
        in
        r.S.Lineio.eof <- true;
        List.rev (take acc)
      in
      let n = String.length stream in
      let cuts = List.sort_uniq compare (List.filter (fun c -> c < n) cuts) in
      let chunks =
        List.map2
          (fun a b -> String.sub stream a (b - a))
          (0 :: cuts) (cuts @ [ n ])
      in
      let whole = split [ stream ] in
      whole = lines_of_stream ~max_line stream && split chunks = whole)

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

let test_connection_bound () =
  let limit ~max_pending =
    let rec go n =
      if S.Server.accepts ~live:n ~max_pending then go (n + 1) else n
    in
    go 0
  in
  let l4 = limit ~max_pending:4 in
  check_bool "hundreds of clients fit" true (l4 >= 512);
  check_bool "connections and 4 lanes' worker pipes stay below FD_SETSIZE"
    true (l4 + (3 * 4) < 1024);
  check_int "each lane costs three connections" (l4 - 3) (limit ~max_pending:5);
  check_bool "the connection past the bound is refused" false
    (S.Server.accepts ~live:l4 ~max_pending:4);
  check_bool "the largest --max-pending still takes connections" true
    (limit ~max_pending:S.Server.max_pending_cap >= 128)

(* Connection A streams a long campaign (~1 MB of entry frames) and
   never reads a byte; once A's worker has stalled behind the full
   buffers, B's exchange must still complete, byte-identical to
   offline.  A then hangs up unread, and its campaign still journals to
   the end: a resend reuses every entry. *)
let test_slow_client_isolated () =
  let dir = scratch_dir "csrtl_slow" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let sock = Filename.concat dir "d.sock" in
  let csrtl = csrtl_exe () in
  let daemon =
    Unix.create_process csrtl
      [| csrtl; "serve"; "--socket"; sock; "--state-dir";
         Filename.concat dir "state"; "--jobs"; "1"; "--quiet" |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  (* a daemon left behind by a failure would hold the test's output *)
  Fun.protect ~finally:(fun () ->
      (try Unix.kill daemon Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] daemon) with Unix.Unix_error _ -> ())
  @@ fun () ->
  (match S.Client.connect ~retries:500 ~delay:0.01 sock with
   | Ok c -> S.Client.close c
   | Error msg -> Alcotest.failf "connect: %s" msg);
  let dial () = Result.get_ok (S.Client.dial sock) in
  let send fd req =
    check_bool "sent" true (S.Lineio.write_line fd (S.Frame.encode_request req))
  in
  (* a stalled daemon fails the test instead of hanging it *)
  let answer fd =
    let r = S.Lineio.reader () and deadline = Unix.gettimeofday () +. 30. in
    let rec go acc =
      match S.Lineio.next r with
      | Some (S.Lineio.Line l) ->
        (match S.Frame.decode_response l with
         | Ok resp when S.Engine.terminal resp -> List.rev (resp :: acc)
         | Ok (S.Frame.Queued _) -> go acc
         | Ok resp -> go (resp :: acc)
         | Error _ -> Alcotest.fail "undecodable frame")
      | Some (S.Lineio.Too_long | S.Lineio.Eof) ->
        Alcotest.fail "connection closed before a terminal frame"
      | None ->
        if Unix.gettimeofday () > deadline then
          Alcotest.fail "no terminal frame within 30 s";
        (match Unix.select [ fd ] [] [] 1. with
         | [], _, _ -> ()
         | _ -> S.Lineio.read r fd);
        go acc
    in
    go []
  in
  let big = Chain_model.chain 600 in
  let q_big =
    { (basic_inject (C.Rtm.to_string big)) with stream = true; resume = false }
  in
  let a = dial () in
  send a (S.Frame.Inject q_big);
  (* A's journal grows an entry per fault until its frames back up *)
  let journal_bytes () =
    Array.fold_left
      (fun acc f ->
        if Filename.check_suffix f ".jsonl" then
          acc + (Unix.stat (Filename.concat dir ("state/" ^ f))).Unix.st_size
        else acc)
      0
      (try Sys.readdir (Filename.concat dir "state") with Sys_error _ -> [||])
  in
  let rec stalled last still tries =
    Unix.sleepf 0.05;
    let now = journal_bytes () in
    if tries > 0 && (now = 0 || now <> last || still < 6) then
      stalled now (if now = last then still + 1 else 0) (tries - 1)
  in
  stalled 0 0 400;
  let text = fig1_text () in
  let m, _ = Result.get_ok (C.Rtm.parse text) in
  let b = dial () in
  send b (S.Frame.Inject { (basic_inject text) with resume = false });
  Alcotest.(check string) "B's report = offline bytes"
    (F.Campaign.render_report ~table:false (F.Campaign.run ~batch:32 m))
    (report_of (answer b)).text;
  Unix.close b;
  Unix.close a;
  let c = dial () in
  send c (S.Frame.Inject { q_big with stream = false; resume = true });
  (match answer c with
   | [ S.Frame.Started { total; _ }; S.Frame.Report { reused; text; _ } ] ->
     check_int "A's journal was complete" total reused;
     Alcotest.(check string) "A's campaign = offline bytes"
       (F.Campaign.render_report ~table:false (F.Campaign.run ~batch:32 big))
       text
   | _ -> Alcotest.fail "expected Started; Report");
  send c S.Frame.Shutdown;
  check_bool "bye" true (answer c = [ S.Frame.Bye ]);
  Unix.close c;
  match Unix.waitpid [] daemon with
  | _, Unix.WEXITED 0 -> ()
  | _ -> Alcotest.fail "the daemon did not drain to exit 0"

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
      S.Server.socket = sock;
      engine =
        { S.Engine.default_config with
          S.Engine.state_dir = Filename.concat dir state; jobs = 1 } }
  in
  let start state =
    let csrtl = csrtl_exe () in
    Unix.create_process csrtl
      [| csrtl; "serve"; "--socket"; sock; "--state-dir";
         Filename.concat dir state; "--jobs"; "1"; "--quiet" |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  let finished label pid =
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> ()
    | _ -> Alcotest.failf "%s: the daemon did not exit 0" label
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
          Alcotest.test_case "same token waits for the reap" `Quick
            test_same_token_waits_for_reap;
          Alcotest.test_case "repeated crashes quarantine the model" `Quick
            test_quarantine;
          Alcotest.test_case "daemon SIGKILL, restart, token reuse" `Quick
            test_daemon_sigkill_resume;
          Alcotest.test_case "orphaned worker drains itself" `Quick
            test_orphaned_worker_drains;
          Alcotest.test_case "forked report after a domain ran" `Quick
            test_forked_after_domain;
          Alcotest.test_case "five jobs, one warm worker" `Quick
            test_warm_worker_runs_many;
          Alcotest.test_case "journal injections are per job" `Quick
            test_warm_worker_chaos_not_inherited;
          Alcotest.test_case "the job after a SIGKILL gets a new pid" `Quick
            test_job_after_kill_new_pid;
          Alcotest.test_case "the recycle rule" `Quick test_recycle_rule;
          Alcotest.test_case "a worker that fanned out is not reused" `Quick
            test_fanned_out_worker_retires;
          Alcotest.test_case "a retiring worker refuses the next job" `Quick
            test_retiring_worker_refuses_jobs ] );
      ( "client",
        [ Alcotest.test_case "retry classification and backoff" `Quick
            test_client_retry_policy;
          Alcotest.test_case "deterministic backoff curve" `Quick
            test_backoff_curve ] );
      ( "transport",
        [ Alcotest.test_case "unterminated final line at EOF" `Quick
            test_lineio_final_line;
          QCheck_alcotest.to_alcotest ~long:false lineio_chunking;
          Alcotest.test_case "connection bound below FD_SETSIZE" `Quick
            test_connection_bound;
          Alcotest.test_case "a client that never reads stalls nobody"
            `Quick test_slow_client_isolated;
          Alcotest.test_case "connect hints" `Quick test_connect_hints;
          Alcotest.test_case "socket ownership" `Quick
            test_socket_ownership ] ) ]
