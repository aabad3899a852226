(* In-process side of the benchmark (see README.md).

   probe.exe iks-rtm L1 L2 PX PY OUT
     Writes the IKS inverse-kinematics microprogram for one target,
     translated to transfers, as an .rtm file.

   probe.exe trace --engine E --jobs N [--limit K] [--artifact]
                   --events FILE --summary FILE MODEL.rtm...
     Runs every model through the library's public campaign pipeline
     (parse, validate, plan, enumerate, prepare, faults, render, report
     frame decode) in three passes: spans on, off, on.  Span events of
     the first pass go to --events as a JSON array of Chrome trace
     events; the per-layer summary, the exact counts and each rendered
     report go to --summary as one JSON object.  Without --artifact the
     pipeline is csrtl inject's; with it, the daemon's: the golden
     artifact is built first (Campaign.prepare), its wire form round-trips,
     and the campaign starts from it. *)

module C = Csrtl_core
module F = Csrtl_fault
module Frame = Csrtl_serve.Frame

let now_us () = Unix.gettimeofday () *. 1e6

(* -- spans ------------------------------------------------------------- *)

type span = {
  name : string;
  id : int;  (** index of the model the span works on *)
  key : int;
  parent : int;  (** key of the enclosing span, or -1 *)
  ts : float;
  dur : float;
}

let recording = ref true
let spans : span list ref = ref []
let next_key = ref 0
let open_keys = ref []

(* Spans nest by call structure; each remembers its parent's key so
   self time is exact without interval arithmetic. *)
let span name id f =
  if not !recording then f ()
  else begin
    let key = !next_key in
    incr next_key;
    let parent = match !open_keys with p :: _ -> p | [] -> -1 in
    open_keys := key :: !open_keys;
    let t0 = now_us () in
    let r = Fun.protect ~finally:(fun () -> open_keys := List.tl !open_keys) f in
    spans := { name; id; key; parent; ts = t0; dur = now_us () -. t0 } :: !spans;
    r
  end

(* -- JSON output ------------------------------------------------------- *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields)
  ^ "}"

let json_float x = Printf.sprintf "%.6f" x

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* -- one campaign through the public pipeline --------------------------- *)

type counts = {
  mutable faults : int;
  mutable batched : int;
  mutable kernel_path : int;
  mutable retired_early : int;
  mutable delta_cycles : int;
  mutable law_violations : int;
  mutable disagreements : int;
  mutable minor_words : float;
  mutable report_bytes : int;
  mutable artifact_bytes : int;
  mutable failures : string list;
}

let counts () =
  { faults = 0; batched = 0; kernel_path = 0; retired_early = 0;
    delta_cycles = 0; law_violations = 0; disagreements = 0;
    minor_words = 0.; report_bytes = 0; artifact_bytes = 0; failures = [] }

let fail c fmt = Printf.ksprintf (fun s -> c.failures <- s :: c.failures) fmt

(* One campaign through the public pipeline, inside a "campaign" span;
   returns the rendered report, the bytes [csrtl inject --table]
   prints.  The checks after it are the benchmark's own and untimed. *)
let campaign ~engine ~jobs ~limit ~artifact c id path =
  let m, r, st, report =
    span "campaign" id @@ fun () ->
    let text = read_file path in
    let m =
      span "rtm.parse" id (fun () ->
          match C.Rtm.parse ~file:path text with
          | Ok (m, _) -> m
          | Error _ -> failwith (path ^ ": parse error"))
    in
    span "model.validate" id (fun () -> C.Model.validate_exn m);
    let plan = span "batch.plan" id (fun () -> C.Batch.plan m) in
    let faults =
      span "fault.enumerate" id (fun () -> F.Fault.enumerate ?limit m)
    in
    (* the daemon's path builds the golden artifact up front (its golden
       tier) and ships its wire form between processes; the offline
       path computes its golden work inside the campaign call *)
    let golden =
      if not artifact then None
      else begin
        let a =
          span "campaign.prepare" id (fun () -> F.Campaign.prepare ~plan m)
        in
        let s =
          span "artifact.to_string" id (fun () -> F.Artifact.to_string a)
        in
        c.artifact_bytes <- c.artifact_bytes + String.length s;
        (match
           span "artifact.of_string" id (fun () -> F.Artifact.of_string s)
         with
         | Ok _ -> ()
         | Error why -> fail c "%s: artifact round trip: %s" path why);
        Some a
      end
    in
    let g0 = Gc.minor_words () in
    let r, st =
      span "campaign.faults" id (fun () ->
          F.Campaign.run_with_stats ?jobs ~faults ~engine ~plan ?golden m)
    in
    c.minor_words <- c.minor_words +. (Gc.minor_words () -. g0);
    let report =
      span "campaign.render" id (fun () ->
          let b = Buffer.create 4096 in
          let ppf = Format.formatter_of_buffer b in
          List.iter
            (fun e -> Format.fprintf ppf "%a@." F.Campaign.pp_entry e)
            r.F.Campaign.entries;
          Format.fprintf ppf "%a@." F.Campaign.pp_report r;
          Buffer.contents b)
    in
    (m, r, st, report)
  in
  (* the daemon's report frame for this report, decoded as a client
     would *)
  let frame =
    Frame.encode_response
      (Frame.Report
         { status = 0; code = 0; token = "probe"; reused = 0;
           rerun = r.F.Campaign.total; torn = 0; text = report })
  in
  c.report_bytes <- c.report_bytes + String.length frame;
  (match span "frame.decode" id (fun () -> Frame.decode_response frame) with
   | Ok (Frame.Report { text; _ }) when text = report -> ()
   | _ -> fail c "%s: report frame does not round-trip" path);
  (* the paper's law as exact counts: the clean kernel run takes
     [Simulate.expected_cycles] delta cycles (6 per control step), and
     every faulted kernel run the count its injection predicts from its
     restore boundary *)
  let clean = C.Simulate.run m in
  if clean.C.Simulate.cycles <> C.Simulate.expected_cycles m then
    c.law_violations <- c.law_violations + 1;
  List.iter
    (fun (e : F.Campaign.entry) ->
      c.delta_cycles <- c.delta_cycles + e.F.Campaign.kernel_cycles;
      match e.F.Campaign.kernel_outcome with
      | F.Campaign.Hung _ | F.Campaign.Crashed _ -> ()
      | _ ->
        let f = e.F.Campaign.fault in
        let s0 = max 0 (F.Campaign.boundary_of_fault m f) in
        let expect =
          C.Simulate.expected_cycles_injected ~inject:(F.Fault.to_inject f) m
            s0
        in
        if e.F.Campaign.kernel_cycles <> expect then
          c.law_violations <- c.law_violations + 1)
    r.F.Campaign.entries;
  c.law_violations <- c.law_violations + r.F.Campaign.law_violations;
  c.disagreements <- c.disagreements + r.F.Campaign.disagreements;
  c.faults <- c.faults + r.F.Campaign.total;
  c.batched <- c.batched + st.F.Campaign.batched;
  c.kernel_path <- c.kernel_path + st.F.Campaign.kernel_path;
  c.retired_early <- c.retired_early + st.F.Campaign.retired_early;
  report

(* -- trace mode --------------------------------------------------------- *)

(* Per layer name: span count, total time and self time (duration minus
   the direct children's durations). *)
let layers all =
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let t = try Hashtbl.find child_time s.parent with Not_found -> 0. in
      Hashtbl.replace child_time s.parent (t +. s.dur))
    all;
  let names = List.sort_uniq compare (List.map (fun s -> s.name) all) in
  List.map
    (fun n ->
      let mine = List.filter (fun s -> s.name = n) all in
      let total = List.fold_left (fun a s -> a +. s.dur) 0. mine in
      let self =
        List.fold_left
          (fun a s ->
            a +. s.dur
            -. (try Hashtbl.find child_time s.key with Not_found -> 0.))
          0. mine
      in
      ( n,
        json_obj
          [ ("count", string_of_int (List.length mine));
            ("total_ms", json_float (total /. 1000.));
            ("self_ms", json_float (self /. 1000.)) ] ))
    names

let trace args =
  let engine = ref `Auto and jobs = ref 1 and limit = ref None in
  let artifact = ref false and events = ref "" and summary = ref "" in
  let models = ref [] in
  Arg.parse_argv ~current:(ref 1) args
    [ ("--engine",
       Arg.Symbol
         ([ "auto"; "kernel" ],
          fun s -> engine := if s = "kernel" then `Kernel else `Auto),
       "");
      ("--jobs", Arg.Set_int jobs, "");
      ("--limit", Arg.Int (fun k -> limit := Some k), "");
      ("--artifact", Arg.Set artifact, "");
      ("--events", Arg.Set_string events, "");
      ("--summary", Arg.Set_string summary, "") ]
    (fun m -> models := m :: !models)
    "probe.exe trace [options] MODEL.rtm...";
  let models = Array.of_list (List.rev !models) in
  let jobs = if !jobs = 0 then None else Some !jobs in
  let pass ~traced =
    recording := traced;
    let c = counts () in
    let t0 = now_us () in
    let reports =
      Array.mapi
        (fun i path ->
          campaign ~engine:!engine ~jobs ~limit:!limit ~artifact:!artifact c i
            path)
        models
    in
    (c, reports, now_us () -. t0)
  in
  (* traced, untraced, traced: the per-layer figures and GC numbers
     come from the first (fresh-process) pass; the tracing overhead
     compares the untraced pass with the mean of the two around it *)
  let c, reports, t1 = pass ~traced:true in
  let top_heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
  let first = !spans in
  let c2, reports2, t_off = pass ~traced:false in
  let c3, reports3, t3 = pass ~traced:true in
  spans := first;
  let overhead = ((t1 +. t3) /. 2. /. t_off) -. 1. in
  let failures =
    c.failures @ c2.failures @ c3.failures
    @ (if reports2 = reports && reports3 = reports then []
       else [ "reports differ between passes" ])
  in
  let events_json =
    "[\n"
    ^ String.concat ",\n"
        (List.rev_map
           (fun s ->
             json_obj
               [ ("name", json_string s.name); ("cat", json_string "probe");
                 ("ph", json_string "X"); ("ts", json_float s.ts);
                 ("dur", json_float s.dur); ("pid", "1"); ("tid", "1");
                 ("args", json_obj [ ("model", json_string models.(s.id)) ]) ])
           first)
    ^ "\n]\n"
  in
  write_file !events events_json;
  let fi = float_of_int in
  write_file !summary
    (json_obj
       [ ("faults", string_of_int c.faults);
         ("batched", string_of_int c.batched);
         ("kernel_path", string_of_int c.kernel_path);
         ("retired_early", string_of_int c.retired_early);
         ("delta_cycles", string_of_int c.delta_cycles);
         ("law_violations",
          string_of_int (c.law_violations + c2.law_violations + c3.law_violations));
         ("disagreements",
          string_of_int (c.disagreements + c2.disagreements + c3.disagreements));
         ("minor_words_per_fault",
          json_float (if c.faults = 0 then 0. else c.minor_words /. fi c.faults));
         ("top_heap_mb",
          json_float (fi (top_heap_words * (Sys.word_size / 8)) /. 1048576.));
         ("report_bytes", string_of_int c.report_bytes);
         ("artifact_bytes", string_of_int c.artifact_bytes);
         ("trace_overhead_frac", json_float overhead);
         ("failures", "[" ^ String.concat ", " (List.map json_string failures) ^ "]");
         ("layers", json_obj (layers first));
         ("reports",
          "[" ^ String.concat ", " (Array.to_list (Array.map json_string reports))
          ^ "]") ])

let () =
  match Array.to_list Sys.argv with
  | [ _; "iks-rtm"; l1; l2; px; py; out ] ->
    let f s = Csrtl_iks.Fixed.of_float (float_of_string s) in
    let t =
      Csrtl_iks.Ikprog.build ~l1:(f l1) ~l2:(f l2) ~px:(f px) ~py:(f py)
    in
    C.Rtm.to_file
      (Csrtl_iks.Translate.to_model ~inputs:t.Csrtl_iks.Ikprog.inputs
         ~reg_init:t.Csrtl_iks.Ikprog.reg_init t.Csrtl_iks.Ikprog.program)
      out
  | _ :: "trace" :: _ -> trace Sys.argv
  | _ ->
    prerr_endline "usage: probe.exe iks-rtm L1 L2 PX PY OUT | probe.exe trace ...";
    exit 2
