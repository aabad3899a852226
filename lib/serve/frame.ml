(* The wire codec for campaign-as-a-service: one JSON object per line,
   in the same hand-rolled JSON subset the journal speaks
   ({!Csrtl_fault.Journal.Json}) — the daemon streams journal-shaped
   entry objects, so one codec serves both the durable file and the
   socket.

   Decoding sits on the untrusted frontier and follows the PR 5
   totality discipline: any byte sequence comes back as either a
   request/response or a list of located diagnostics — never an escaped
   exception, an OOM, or a stack overflow (the JSON parser bounds
   nesting).  The fuzz harness drives [decode_request] with the same
   grammar-aware generators the [.rtm] reader gets. *)

module Diag = Csrtl_diag.Diag
module Journal = Csrtl_fault.Journal
module Json = Journal.Json
open Json

let version = 3

type engine = [ `Auto | `Kernel | `Compiled ]

type inject = {
  model : string;  (* inline .rtm text *)
  engine : engine;
  batch : int;
  limit : int option;
  budget_ms : int option;
  deadline_ms : int option;
  table : bool;
  stream : bool;
  resume : bool;
}

type request =
  | Ping
  | Stats
  | Shutdown
  | Inject of inject

type tier = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
  capacity : int;
}

type stats = {
  requests : int;
  campaigns : int;
  drained : int;
  refused : int;
  active : int;
  queued : int;
  restarts : int;
  crashes : int;
  quarantined : int;
  model : tier;
  plan : tier;
  golden : tier;
}

type response =
  | Pong of { version : string }
  | Started of {
      token : string;
      total : int;
      cached : bool;
      plan_cached : bool;
      golden_cached : bool;
    }
  | Artifact of { key : string; text : string }
  | Entry of Journal.entry
  | Report of {
      status : int;
      code : int;
      token : string;
      reused : int;
      rerun : int;
      torn : int;
      text : string;
    }
  | Drained of {
      status : int;
      token : string;
      completed : int;
      total : int;
      reason : string;
    }
  | Queued of { position : int; retry_after_ms : int }
  | Refused of {
      status : int;
      retry_after_ms : int option;
          (* backpressure hint: how long a well-behaved client should
             wait before resending (busy/quarantined refusals) *)
      diags : Diag.t list;
    }
  | Stats_reply of stats
  | Bye

(* ---- diagnostics on the wire ------------------------------------- *)

let severity_to_string = function
  | Diag.Error -> "error"
  | Diag.Warning -> "warning"
  | Diag.Note -> "note"

let severity_of_string = function
  | "error" -> Diag.Error
  | "warning" -> Diag.Warning
  | "note" -> Diag.Note
  | s -> raise (Bad (Printf.sprintf "unknown severity %S" s))

let json_of_diag (d : Diag.t) =
  let span_fields =
    match d.Diag.span with
    | None -> []
    | Some sp ->
      (match sp.Diag.file with
       | None -> []
       | Some f -> [ ("file", Str f) ])
      @ [ ("line", Int sp.Diag.line); ("col", Int sp.Diag.col);
          ("len", Int sp.Diag.len) ]
  in
  Obj
    ([ ("severity", Str (severity_to_string d.Diag.severity));
       ("rule", Str d.Diag.rule); ("message", Str d.Diag.message) ]
     @ span_fields)

let diag_of_json j =
  let span =
    match Json.field "line" j with
    | None -> None
    | Some _ ->
      Some
        { Diag.file =
            (match Json.field "file" j with
             | Some (Str f) -> Some f
             | _ -> None);
          line = int_field "line" j; col = int_field "col" j;
          len = int_field "len" j }
  in
  { Diag.severity = severity_of_string (str_field "severity" j);
    rule = str_field "rule" j; span; message = str_field "message" j }

(* ---- encoding ----------------------------------------------------- *)

let hdr kind = [ ("csrtl", Str kind); ("v", Int version) ]

let engine_to_string = function
  | `Auto -> "auto"
  | `Kernel -> "kernel"
  | `Compiled -> "compiled"

let opt_int name = function None -> [] | Some i -> [ (name, Int i) ]

let encode_request = function
  | Ping -> to_string (Obj (hdr "req" @ [ ("op", Str "ping") ]))
  | Stats -> to_string (Obj (hdr "req" @ [ ("op", Str "stats") ]))
  | Shutdown -> to_string (Obj (hdr "req" @ [ ("op", Str "shutdown") ]))
  | Inject q ->
    to_string
      (Obj
         (hdr "req"
          @ [ ("op", Str "inject"); ("model", Str q.model);
              ("engine", Str (engine_to_string q.engine));
              ("batch", Int q.batch) ]
          @ opt_int "limit" q.limit
          @ opt_int "budget_ms" q.budget_ms
          @ opt_int "deadline_ms" q.deadline_ms
          @ [ ("table", Bool q.table); ("stream", Bool q.stream);
              ("resume", Bool q.resume) ]))

let json_of_entry (e : Journal.entry) =
  Obj
    (hdr "resp"
     @ [ ("resp", Str "entry"); ("i", Int e.Journal.index);
         ("fault", Str e.Journal.fault_label);
         ("kernel", Journal.json_of_outcome e.Journal.kernel);
         ("interp", Journal.json_of_outcome e.Journal.interp);
         ("cycles", Int e.Journal.cycles);
         ("law_ok", Bool e.Journal.law_ok) ])

let encode_response = function
  | Pong { version = v } ->
    to_string (Obj (hdr "resp" @ [ ("resp", Str "pong"); ("version", Str v) ]))
  | Started { token; total; cached; plan_cached; golden_cached } ->
    to_string
      (Obj
         (hdr "resp"
          @ [ ("resp", Str "start"); ("token", Str token);
              ("total", Int total); ("cached", Bool cached);
              ("plan_cached", Bool plan_cached);
              ("golden_cached", Bool golden_cached) ]))
  | Artifact { key; text } ->
    to_string
      (Obj
         (hdr "resp"
          @ [ ("resp", Str "artifact"); ("key", Str key);
              ("text", Str text) ]))
  | Entry e -> to_string (json_of_entry e)
  | Report { status; code; token; reused; rerun; torn; text } ->
    to_string
      (Obj
         (hdr "resp"
          @ [ ("resp", Str "report"); ("status", Int status);
              ("code", Int code); ("token", Str token);
              ("reused", Int reused); ("rerun", Int rerun);
              ("torn", Int torn); ("text", Str text) ]))
  | Drained { status; token; completed; total; reason } ->
    to_string
      (Obj
         (hdr "resp"
          @ [ ("resp", Str "drained"); ("status", Int status);
              ("token", Str token); ("done", Int completed);
              ("total", Int total); ("reason", Str reason) ]))
  | Queued { position; retry_after_ms } ->
    to_string
      (Obj
         (hdr "resp"
          @ [ ("resp", Str "queued"); ("position", Int position);
              ("retry_after_ms", Int retry_after_ms) ]))
  | Refused { status; retry_after_ms; diags } ->
    to_string
      (Obj
         (hdr "resp"
          @ [ ("resp", Str "refused"); ("status", Int status) ]
          @ opt_int "retry_after_ms" retry_after_ms
          @ [ ("diags", Arr (List.map json_of_diag diags)) ]))
  | Stats_reply s ->
    let tier prefix (t : tier) =
      [ (prefix ^ "_hits", Int t.hits); (prefix ^ "_misses", Int t.misses);
        (prefix ^ "_evictions", Int t.evictions);
        (prefix ^ "_entries", Int t.entries);
        (prefix ^ "_capacity", Int t.capacity) ]
    in
    to_string
      (Obj
         (hdr "resp"
          @ [ ("resp", Str "stats"); ("requests", Int s.requests);
              ("campaigns", Int s.campaigns); ("drained", Int s.drained);
              ("refused", Int s.refused); ("active", Int s.active);
              ("queued", Int s.queued); ("restarts", Int s.restarts);
              ("crashes", Int s.crashes);
              ("quarantined", Int s.quarantined) ]
          @ tier "model" s.model @ tier "plan" s.plan
          @ tier "golden" s.golden))
  | Bye -> to_string (Obj (hdr "resp" @ [ ("resp", Str "bye") ]))

(* ---- decoding ----------------------------------------------------- *)

(* A semantic rejection distinct from [Json.Bad]: the frame is valid
   JSON but not a valid request — reported under its own rule so
   clients can tell transport rot from API misuse. *)
exception Reject of string

let check_header ~kind j =
  (match Json.field "csrtl" j with
   | Some (Str k) when k = kind -> ()
   | Some (Str k) ->
     raise (Reject (Printf.sprintf "frame kind %S, expected %S" k kind))
   | _ -> raise (Reject "not a csrtl frame (missing \"csrtl\" field)"));
  match Json.field "v" j with
  | Some (Int v) when v = version -> ()
  | Some (Int v) ->
    raise
      (Reject
         (Printf.sprintf "unsupported protocol version %d (this is v%d)" v
            version))
  | _ -> raise (Reject "missing protocol version")

let opt_int_field ~min name j =
  match Json.field name j with
  | None -> None
  | Some (Int i) when i >= min -> Some i
  | Some (Int i) ->
    raise (Reject (Printf.sprintf "%S must be >= %d (got %d)" name min i))
  | Some _ -> raise (Reject (Printf.sprintf "%S must be an integer" name))

let opt_bool_field ~default name j =
  match Json.field name j with
  | None -> default
  | Some (Bool b) -> b
  | Some _ -> raise (Reject (Printf.sprintf "%S must be a boolean" name))

let request_of_json j =
  check_header ~kind:"req" j;
  match str_field "op" j with
  | "ping" -> Ping
  | "stats" -> Stats
  | "shutdown" -> Shutdown
  | "inject" ->
    let model =
      match Json.field "model" j with
      | Some (Str s) -> s
      | Some _ -> raise (Reject "\"model\" must be a string")
      | None -> raise (Reject "inject request without a \"model\"")
    in
    let engine =
      match Json.field "engine" j with
      | None -> `Auto
      | Some (Str "auto") -> `Auto
      | Some (Str "kernel") -> `Kernel
      | Some (Str "compiled") -> `Compiled
      | Some (Str e) ->
        raise
          (Reject
             (Printf.sprintf
                "unknown engine %S (expected auto, kernel or compiled)" e))
      | Some _ -> raise (Reject "\"engine\" must be a string")
    in
    let batch =
      Option.value (opt_int_field ~min:1 "batch" j) ~default:32
    in
    Inject
      { model; engine; batch;
        limit = opt_int_field ~min:1 "limit" j;
        budget_ms = opt_int_field ~min:1 "budget_ms" j;
        (* 0 is legal and means "already expired": drain immediately
           to a resume token — the deterministic drain the lifecycle
           tests rely on *)
        deadline_ms = opt_int_field ~min:0 "deadline_ms" j;
        table = opt_bool_field ~default:false "table" j;
        stream = opt_bool_field ~default:false "stream" j;
        resume = opt_bool_field ~default:true "resume" j }
  | op -> raise (Reject (Printf.sprintf "unknown op %S" op))

let entry_of_json j =
  { Journal.index = int_field "i" j; fault_label = str_field "fault" j;
    kernel =
      (match Json.field "kernel" j with
       | Some o -> Journal.outcome_of_json o
       | None -> raise (Bad "missing kernel outcome"));
    interp =
      (match Json.field "interp" j with
       | Some o -> Journal.outcome_of_json o
       | None -> raise (Bad "missing interp outcome"));
    cycles = int_field "cycles" j; law_ok = bool_field "law_ok" j }

let int_field_min ~min name j =
  let i = int_field name j in
  if i < min then
    raise (Reject (Printf.sprintf "%S must be >= %d (got %d)" name min i));
  i

let response_of_json j =
  check_header ~kind:"resp" j;
  match str_field "resp" j with
  | "pong" -> Pong { version = str_field "version" j }
  | "start" ->
    Started
      { token = str_field "token" j;
        total = int_field_min ~min:0 "total" j;
        cached = bool_field "cached" j;
        plan_cached = bool_field "plan_cached" j;
        golden_cached = bool_field "golden_cached" j }
  | "artifact" ->
    Artifact { key = str_field "key" j; text = str_field "text" j }
  | "entry" -> Entry (entry_of_json j)
  | "report" ->
    Report
      { status = int_field_min ~min:0 "status" j;
        code = int_field_min ~min:0 "code" j; token = str_field "token" j;
        reused = int_field_min ~min:0 "reused" j;
        rerun = int_field_min ~min:0 "rerun" j;
        torn = int_field_min ~min:0 "torn" j; text = str_field "text" j }
  | "drained" ->
    Drained
      { status = int_field_min ~min:0 "status" j;
        token = str_field "token" j;
        completed = int_field_min ~min:0 "done" j;
        total = int_field_min ~min:0 "total" j;
        reason = str_field "reason" j }
  | "queued" ->
    Queued
      { position = int_field_min ~min:1 "position" j;
        retry_after_ms = int_field_min ~min:0 "retry_after_ms" j }
  | "refused" ->
    let diags =
      match Json.field "diags" j with
      | Some (Arr ds) -> List.map diag_of_json ds
      | _ -> raise (Reject "refused response without a \"diags\" array")
    in
    Refused
      { status = int_field_min ~min:0 "status" j;
        retry_after_ms = opt_int_field ~min:0 "retry_after_ms" j; diags }
  | "stats" ->
    let f name = int_field_min ~min:0 name j in
    let tier prefix =
      { hits = f (prefix ^ "_hits"); misses = f (prefix ^ "_misses");
        evictions = f (prefix ^ "_evictions");
        entries = f (prefix ^ "_entries");
        capacity = f (prefix ^ "_capacity") }
    in
    Stats_reply
      { requests = f "requests"; campaigns = f "campaigns";
        drained = f "drained"; refused = f "refused"; active = f "active";
        queued = f "queued"; restarts = f "restarts";
        crashes = f "crashes"; quarantined = f "quarantined";
        model = tier "model"; plan = tier "plan"; golden = tier "golden" }
  | "bye" -> Bye
  | r -> raise (Reject (Printf.sprintf "unknown response kind %S" r))

let decode of_json ?(limits = Diag.Limits.default) line =
  match Json.parse ~max_depth:limits.Diag.Limits.max_nesting line with
  | exception Bad msg ->
    Error [ Diag.error ~rule:"serve.frame" "bad frame: %s" msg ]
  | j ->
    (match of_json j with
     | v -> Ok v
     | exception Bad msg ->
       Error [ Diag.error ~rule:"serve.frame" "bad frame: %s" msg ]
     | exception Reject msg ->
       Error [ Diag.error ~rule:"serve.request" "%s" msg ])

let decode_request ?limits line = decode request_of_json ?limits line
let decode_response ?limits line = decode response_of_json ?limits line
