module Diag = Csrtl_diag.Diag
module C = Csrtl_core
module V = Csrtl_vhdl
module H = Csrtl_hls
module S = Csrtl_serve
module J = Csrtl_fault.Journal
module Par = Csrtl_par.Par

(* -- deterministic PRNG (splitmix64) -------------------------------------- *)

module Rng = struct
  type t = { mutable s : int64 }

  let make seed = { s = Int64.of_int seed }

  let next r =
    let open Int64 in
    r.s <- add r.s 0x9E3779B97F4A7C15L;
    let z = r.s in
    let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
    logxor z (shift_right_logical z 31)

  (* uniform in [0, bound) for bound >= 1 *)
  let int r bound =
    if bound <= 0 then 0
    else Int64.to_int (Int64.rem (Int64.logand (next r) Int64.max_int)
                         (Int64.of_int bound))

  let bool r = int r 2 = 0
  let pick r arr = arr.(int r (Array.length arr))
  let pick_list r l = List.nth l (int r (List.length l))

  (* derive an independent stream for run [i] of master seed [s] *)
  let split seed i =
    let r = make (seed lxor (0x2545F491 * (i + 1))) in
    ignore (next r);
    r
end

(* -- targets ---------------------------------------------------------------- *)

type target = Vhdl | Rtm | Alg | Frame | Journal | Snapshot | Artifact | Job

let all_targets = [ Vhdl; Rtm; Alg; Frame; Journal; Snapshot; Artifact; Job ]

let target_to_string = function
  | Vhdl -> "vhdl"
  | Rtm -> "rtm"
  | Alg -> "alg"
  | Frame -> "frame"
  | Journal -> "journal"
  | Snapshot -> "snapshot"
  | Artifact -> "artifact"
  | Job -> "job"

let target_of_string = function
  | "vhdl" -> Some Vhdl
  | "rtm" -> Some Rtm
  | "alg" -> Some Alg
  | "frame" -> Some Frame
  | "journal" -> Some Journal
  | "snapshot" -> Some Snapshot
  | "artifact" -> Some Artifact
  | "job" -> Some Job
  | _ -> None

let extension = function
  | Vhdl -> ".vhd"
  | Rtm -> ".rtm"
  | Alg -> ".alg"
  | Frame -> ".json"
  | Journal -> ".jsonl"
  | Snapshot -> ".snap"
  | Artifact -> ".art"
  | Job -> ".job"

(* -- seed corpus ------------------------------------------------------------ *)

(* A tiny valid model: enough structure for Emit / Rtm round-trips to
   give the mutators meaningful bytes to chew on. *)
let tiny_model =
  let open C in
  {
    Model.name = "fuzzseed";
    cs_max = 3;
    registers = [ Model.register ~init:(Word.nat 1) "A"; Model.register "B" ];
    fus = [ Model.fu ~ops:[ Ops.Pass ] "P1" ];
    buses = [ "B1"; "B2" ];
    inputs = [];
    outputs = [];
    transfers =
      [
        {
          Transfer.src_a = Some (Transfer.From_reg "A");
          bus_a = Some "B1";
          src_b = None;
          bus_b = None;
          read_step = Some 1;
          fu = "P1";
          op = None;
          write_step = Some 2;
          write_bus = Some "B2";
          dst = Some (Transfer.To_reg "B");
        };
      ];
  }

let vhdl_fragments =
  [|
    "entity"; "architecture"; "package"; "end"; "is"; "of"; "begin";
    "process"; "wait"; "until"; "signal"; "constant"; "port"; "generic";
    "map"; "in"; "out"; "integer"; "and"; "or"; "not"; "if"; "then";
    "elsif"; "else"; "for"; "loop"; "use"; "work.all"; "type"; "<="; ":=";
    "=>"; "("; ")"; ";"; ":"; ","; "'"; "\""; "CS"; "PH"; "0"; "1"; "42";
    "-1"; "R1"; "B1"; "T0"; "--x"; "\n";
  |]

let rtm_fragments =
  [|
    "model"; "csmax"; "reg"; "unit"; "bus"; "input"; "output"; "transfer";
    "init"; "ops"; "latency"; "pipelined"; "nonpipelined";
    "transparent-illegal"; "const"; "schedule"; "add"; "sub"; "pass";
    "mul"; "R1"; "R2"; "B1"; "ADD"; "X!"; "-"; "0"; "1"; "7"; "1:3";
    "ADD:add"; "#c"; "\n";
  |]

let alg_fragments =
  [|
    "program"; "inputs"; "outputs"; "="; "+"; "-"; "*"; "<"; "<s"; "==";
    "("; ")"; ","; "max"; "min"; "abs"; "pass"; "shl"; "x"; "y"; "u";
    "dx"; "3"; "0"; "#c"; "\n";
  |]

let frame_fragments =
  [|
    "{"; "}"; "["; "]"; ":"; ","; "\"csrtl\""; "\"req\""; "\"resp\"";
    "\"v\""; "1"; "2"; "-3"; "\"op\""; "\"ping\""; "\"stats\"";
    "\"shutdown\""; "\"inject\""; "\"model\""; "\"engine\"";
    "\"kernel\""; "\"compiled\""; "\"batch\""; "\"limit\"";
    "\"budget_ms\""; "\"deadline_ms\""; "\"table\""; "\"stream\"";
    "\"resume\""; "true"; "false"; "null"; "32"; "\\n"; "\\u0041"; "\\";
    "\"";
  |]

(* grammar-aware generation: assemble plausible lines, most of them
   well-formed, so mutation explores the deep end of each parser
   instead of bouncing off the first token *)
let gen_vhdl r =
  let b = Buffer.create 256 in
  let name () = Rng.pick r [| "t0"; "reg1"; "ctl"; "top"; "bad_1"; "x" |] in
  let expr () =
    Rng.pick r
      [| "0"; "1"; "CS + 1"; "(CS = 2) and (PH = RA)"; "R1 + R2 * 2";
         "resolve(B1)"; "Phase'pos(PH)"; "-(42)" |]
  in
  let n_units = 1 + Rng.int r 3 in
  for _ = 1 to n_units do
    match Rng.int r 4 with
    | 0 ->
      Buffer.add_string b
        (Printf.sprintf "entity %s is\n  port (%s : in integer);\nend %s;\n"
           (name ()) (name ()) (name ()))
    | 1 ->
      let e = name () and a = name () in
      Buffer.add_string b
        (Printf.sprintf "architecture %s of %s is\n  signal s1 : integer;\n"
           a e);
      Buffer.add_string b "begin\n";
      let n_stmts = Rng.int r 4 in
      for _ = 1 to n_stmts do
        match Rng.int r 3 with
        | 0 ->
          Buffer.add_string b
            (Printf.sprintf "  s1 <= %s;\n" (expr ()))
        | 1 ->
          Buffer.add_string b
            (Printf.sprintf
               "  p : process\n  begin\n    wait until %s;\n    s1 <= %s;\n  end process;\n"
               (expr ()) (expr ()))
        | _ ->
          Buffer.add_string b
            (Printf.sprintf
               "  u%d : entity work.TRANS generic map (%d, RA) port map \
                (CS, PH, s1, s1);\n"
               (Rng.int r 9) (1 + Rng.int r 7))
      done;
      Buffer.add_string b (Printf.sprintf "end %s;\n" a)
    | 2 ->
      Buffer.add_string b
        (Printf.sprintf
           "package %s is\n  type Phase is (RA, RB, CM, WA, WB, CR);\n  \
            constant DISC : integer := -1;\nend %s;\n"
           (name ()) (name ()))
    | _ ->
      (* word salad: pure fragment soup *)
      let n = 3 + Rng.int r 20 in
      for _ = 1 to n do
        Buffer.add_string b (Rng.pick r vhdl_fragments);
        Buffer.add_char b ' '
      done;
      Buffer.add_char b '\n'
  done;
  Buffer.contents b

let gen_rtm r =
  let b = Buffer.create 128 in
  Buffer.add_string b "model fz\n";
  if Rng.int r 8 <> 0 then
    Buffer.add_string b (Printf.sprintf "csmax %d\n" (1 + Rng.int r 9));
  let n = 1 + Rng.int r 8 in
  for _ = 1 to n do
    match Rng.int r 6 with
    | 0 -> Buffer.add_string b (Printf.sprintf "reg R%d\n" (Rng.int r 4))
    | 1 ->
      Buffer.add_string b
        (Printf.sprintf "reg R%d init %d\n" (Rng.int r 4) (Rng.int r 9))
    | 2 ->
      Buffer.add_string b
        (Printf.sprintf "unit U%d ops %s latency %d\n" (Rng.int r 3)
           (Rng.pick r [| "add"; "pass"; "add,sub"; "frobnicate" |])
           (Rng.int r 3))
    | 3 -> Buffer.add_string b (Printf.sprintf "bus B%d\n" (Rng.int r 3))
    | 4 ->
      Buffer.add_string b
        (Printf.sprintf "transfer R%d B%d %s - %d U%d %d B%d R%d\n"
           (Rng.int r 4) (Rng.int r 3)
           (Rng.pick r [| "-"; "R2"; "X!" |])
           (Rng.int r 9) (Rng.int r 3) (Rng.int r 9) (Rng.int r 3)
           (Rng.int r 4))
    | _ ->
      let k = 2 + Rng.int r 8 in
      for _ = 1 to k do
        Buffer.add_string b (Rng.pick r rtm_fragments);
        Buffer.add_char b ' '
      done;
      Buffer.add_char b '\n'
  done;
  Buffer.contents b

let gen_alg r =
  let b = Buffer.create 128 in
  Buffer.add_string b "program fz\n";
  Buffer.add_string b "inputs x y dx\n";
  if Rng.bool r then Buffer.add_string b "outputs x1\n";
  let n = 1 + Rng.int r 5 in
  for _ = 1 to n do
    match Rng.int r 3 with
    | 0 ->
      Buffer.add_string b
        (Printf.sprintf "x1 = x %s y * %d\n"
           (Rng.pick r [| "+"; "-"; "*"; "<"; "<s"; "==" |])
           (Rng.int r 9))
    | 1 ->
      Buffer.add_string b
        (Printf.sprintf "y1 = %s(x, dx)\n"
           (Rng.pick r [| "max"; "min"; "shl"; "bogus" |]))
    | _ ->
      let k = 2 + Rng.int r 8 in
      for _ = 1 to k do
        Buffer.add_string b (Rng.pick r alg_fragments);
        Buffer.add_char b ' '
      done;
      Buffer.add_char b '\n'
  done;
  Buffer.contents b

(* request frames the daemon must accept: the seeds are valid wire
   lines, so the mutators start from deep inside the decoder *)
let gen_frame r =
  match Rng.int r 3 with
  | 0 ->
    (* a well-formed request straight from the encoder *)
    let req =
      match Rng.int r 4 with
      | 0 -> S.Frame.Ping
      | 1 -> S.Frame.Stats
      | 2 -> S.Frame.Shutdown
      | _ ->
        S.Frame.Inject
          { S.Frame.model =
              (if Rng.bool r then C.Rtm.to_string tiny_model else gen_rtm r);
            engine = Rng.pick r [| `Auto; `Kernel; `Compiled |];
            batch = 1 + Rng.int r 64;
            limit = (if Rng.bool r then None else Some (1 + Rng.int r 99));
            budget_ms =
              (if Rng.bool r then None else Some (1 + Rng.int r 999));
            deadline_ms = (if Rng.bool r then None else Some (Rng.int r 999));
            table = Rng.bool r; stream = Rng.bool r; resume = Rng.bool r }
    in
    S.Frame.encode_request req
  | 1 ->
    (* hand-assembled object: valid header, shuffled tail *)
    let b = Buffer.create 128 in
    Buffer.add_string b "{\"csrtl\":\"req\",\"v\":1";
    let key () =
      Rng.pick r
        [| "op"; "model"; "engine"; "batch"; "limit"; "budget_ms";
           "deadline_ms"; "table"; "stream"; "resume"; "x" |]
    in
    let value () =
      Rng.pick r
        [| "\"ping\""; "\"stats\""; "\"inject\"";
           "\"model m\\ncsmax 2\\nreg A\\n\""; "\"auto\""; "\"kernel\"";
           "\"frobnicate\""; "1"; "32"; "-3"; "true"; "false"; "null";
           "[]"; "{}"; "[1,2]" |]
    in
    let n = Rng.int r 8 in
    for _ = 1 to n do
      Buffer.add_string b (Printf.sprintf ",%S:%s" (key ()) (value ()))
    done;
    Buffer.add_char b '}';
    Buffer.contents b
  | _ ->
    (* token soup *)
    let b = Buffer.create 64 in
    let k = 2 + Rng.int r 24 in
    for _ = 1 to k do
      Buffer.add_string b (Rng.pick r frame_fragments)
    done;
    Buffer.contents b

(* campaign journals: a header and entry lines from the writer itself,
   with valid hashes, so mutation starts inside the line decoder;
   indices stray out of range and lines repeat, as a crash or two
   racing writers leave them *)
let gen_journal r =
  let text () =
    let b = Buffer.create 16 in
    for _ = 0 to Rng.int r 4 do
      Buffer.add_string b
        (Rng.pick r
           [| "stuck-at 3 on B1"; "R1"; " "; "\""; "\\"; "\n"; "\t";
              "\001"; "\127"; "\200"; "/"; "at step 4: 7 vs 13" |])
    done;
    Buffer.contents b
  in
  let total = Rng.int r 6 in
  let header =
    { J.model = "fuzz"; digest = Rng.pick r [| "d0"; "475c87b3"; "" |];
      config = "keyed+incr+record"; total; faults_digest = "f0" }
  in
  let outcome () =
    match Rng.int r 5 with
    | 0 -> Csrtl_fault.Outcome.Masked
    | 1 ->
      Csrtl_fault.Outcome.Detected
        (Rng.int r 9, Rng.pick_list r C.Phase.all, text ())
    | 2 ->
      Csrtl_fault.Outcome.Corrupted { count = 1 + Rng.int r 9; first = text () }
    | 3 -> Csrtl_fault.Outcome.Hung (text ())
    | _ -> Csrtl_fault.Outcome.Crashed (text ())
  in
  let b = Buffer.create 512 in
  Buffer.add_string b (J.header_line header);
  for _ = 0 to Rng.int r 8 do
    Buffer.add_char b '\n';
    if Rng.int r 8 > 0 then
      Buffer.add_string b
        (J.entry_line ~digest:header.J.digest
           { J.index = Rng.int r (total + 2) - 1; fault_label = text ();
             kernel = outcome (); interp = outcome (); cycles = Rng.int r 99;
             law_ok = Rng.bool r })
  done;
  if Rng.bool r then Buffer.add_char b '\n';
  Buffer.contents b

(* The snapshot and artifact readers are fuzzed against the paper's
   Fig. 1 model: its plan is built on first use only, so linking the
   fuzzer costs a program nothing until it fuzzes. *)
let fig1 = lazy (C.Builder.fig1 ())
let fig1_plan = lazy (C.Batch.plan (Lazy.force fig1))

let random_word r =
  match Rng.int r 6 with
  | 0 -> C.Word.disc
  | 1 -> C.Word.illegal
  | 2 -> Rng.int r 4
  | _ -> Rng.int r (1 lsl 20)

(* a Fig. 1 snapshot at a random boundary with its machine state and
   observation prefix scrambled: still structurally valid, so most
   reach the arena's resume *)
let gen_snapshot r =
  let m = Lazy.force fig1 in
  let s = C.Interp.snapshot_at ~step:(Rng.int r (m.C.Model.cs_max + 1)) m in
  let scramble = Array.map (fun v -> if Rng.bool r then random_word r else v) in
  let s =
    { s with
      C.Snapshot.regs =
        List.map
          (fun (n, v) -> (n, if Rng.bool r then random_word r else v))
          s.C.Snapshot.regs;
      fu_out = List.map (fun (n, _) -> (n, random_word r)) s.C.Snapshot.fu_out;
      fu_slots =
        List.map (fun (n, a) -> (n, scramble a)) s.C.Snapshot.fu_slots;
      trace = List.map (fun (n, a) -> (n, scramble a)) s.C.Snapshot.trace;
      conflicts =
        (if Rng.bool r then s.C.Snapshot.conflicts
         else
           [ ( Rng.int r (s.C.Snapshot.step + 1),
               Rng.pick_list r C.Phase.all,
               Rng.pick r [| "B1"; "ADD.in1"; "R1.in"; "x" |] ) ]) }
  in
  C.Snapshot.to_string s

(* a Fig. 1 artifact whose goldens are the real ones or each other,
   with a digest and config tag that mostly match *)
let gen_artifact r =
  let m = Lazy.force fig1 in
  let golden = C.Interp.run m in
  let other =
    { golden with C.Observation.conflicts = [ (1, C.Phase.Ra, "B1") ] }
  in
  Csrtl_fault.Artifact.to_string
    { Csrtl_fault.Artifact.digest =
        (if Rng.int r 4 > 0 then C.Snapshot.digest_of_model m else "d0");
      config =
        (if Rng.int r 4 > 0 then J.config_tag C.Simulate.default
         else "halt");
      golden_k = (if Rng.bool r then golden else other);
      golden_i = (if Rng.bool r then golden else other) }

(* worker jobs from the encoder: random config fields, a request, a
   golden decision with its key or artifact bytes, journal injections *)
let gen_job r =
  let str () = Rng.pick r [| ""; "state"; "a\"b"; "x\ny"; "\t\000é" |] in
  let limits =
    if Rng.int r 4 > 0 then Diag.Limits.default
    else
      let n () = Rng.int r 100_000 in
      { Diag.Limits.max_input_bytes = n (); max_tokens = n ();
        max_nesting = n (); max_registers = n (); max_fus = n ();
        max_buses = n (); max_steps = n (); max_transfers = n () }
  in
  S.Engine.encode_job
    { S.Engine.cfg =
        { S.Engine.default_config with
          state_dir = str (); jobs = Rng.int r 9 - 1; limits;
          default_deadline_ms =
            (if Rng.bool r then None else Some (Rng.int r 999)) };
      q =
        { S.Frame.model =
            (if Rng.bool r then C.Rtm.to_string tiny_model else gen_rtm r);
          engine = Rng.pick r [| `Auto; `Kernel; `Compiled |];
          batch = 1 + Rng.int r 64;
          limit = (if Rng.bool r then None else Some (1 + Rng.int r 99));
          budget_ms = (if Rng.bool r then None else Some (1 + Rng.int r 999));
          deadline_ms = (if Rng.bool r then None else Some (Rng.int r 999));
          table = Rng.bool r; stream = Rng.bool r; resume = Rng.bool r };
      golden =
        (match Rng.int r 3 with
         | 0 -> `Off
         | 1 -> `Miss (str ())
         | _ -> `Hit (gen_artifact r));
      chaos =
        List.init (Rng.int r 3) (fun _ ->
            { J.path = str ();
              op = Rng.pick r [| `Create; `Append; `Sync |];
              nth = Rng.int r 5;
              errno = Rng.pick r [| `ENOSPC; `EIO |] }) }

let seeds target =
  match target with
  | Vhdl -> [ V.Emit.to_string tiny_model; "entity e is\nend e;\n" ]
  | Rtm -> [ C.Rtm.to_string tiny_model; "model m\ncsmax 2\nreg A\n" ]
  | Alg -> [ "program p\ninputs x\noutputs y\ny = x + 1\n" ]
  | Frame ->
    [ S.Frame.encode_request
        (S.Frame.Inject
           { S.Frame.model = C.Rtm.to_string tiny_model; engine = `Auto;
             batch = 32; limit = None; budget_ms = None; deadline_ms = None;
             table = false; stream = false; resume = true });
      S.Frame.encode_request S.Frame.Ping;
      "{\"csrtl\":\"req\",\"v\":1,\"op\":\"stats\"}" ]
  | Journal -> [ gen_journal (Rng.make 1) ]
  | Snapshot -> [ gen_snapshot (Rng.make 1) ]
  | Artifact -> [ gen_artifact (Rng.make 1) ]
  | Job -> [ gen_job (Rng.make 1) ]

(* -- mutation --------------------------------------------------------------- *)

let mutate r s =
  let n = String.length s in
  if n = 0 then String.make 1 (Char.chr (Rng.int r 256))
  else
    match Rng.int r 7 with
    | 0 ->
      (* flip one byte *)
      let b = Bytes.of_string s in
      Bytes.set b (Rng.int r n) (Char.chr (Rng.int r 256));
      Bytes.to_string b
    | 1 ->
      (* truncate *)
      String.sub s 0 (Rng.int r n)
    | 2 ->
      (* delete a span *)
      let i = Rng.int r n in
      let len = min (n - i) (1 + Rng.int r 16) in
      String.sub s 0 i ^ String.sub s (i + len) (n - i - len)
    | 3 ->
      (* insert a fragment *)
      let i = Rng.int r (n + 1) in
      let frag =
        Rng.pick r
          (match Rng.int r 4 with
           | 0 -> vhdl_fragments
           | 1 -> rtm_fragments
           | 2 -> alg_fragments
           | _ -> frame_fragments)
      in
      String.sub s 0 i ^ frag ^ String.sub s i (n - i)
    | 4 ->
      (* insert raw bytes, including non-UTF8 *)
      let i = Rng.int r (n + 1) in
      let k = 1 + Rng.int r 8 in
      let frag = String.init k (fun _ -> Char.chr (Rng.int r 256)) in
      String.sub s 0 i ^ frag ^ String.sub s i (n - i)
    | 5 ->
      (* duplicate a chunk (grows nesting / repetition) *)
      let i = Rng.int r n in
      let len = min (n - i) (1 + Rng.int r 32) in
      let chunk = String.sub s i len in
      String.sub s 0 i ^ chunk ^ chunk ^ String.sub s (i + len) (n - i - len)
    | _ ->
      (* swap two halves *)
      let i = Rng.int r n in
      String.sub s i (n - i) ^ String.sub s 0 i

let gen_fresh r = function
  | Vhdl -> gen_vhdl r
  | Rtm -> gen_rtm r
  | Alg -> gen_alg r
  | Frame -> gen_frame r
  | Journal -> gen_journal r
  | Snapshot -> gen_snapshot r
  | Artifact -> gen_artifact r
  | Job -> gen_job r

let gen_input r target =
  match Rng.int r 4 with
  | 0 ->
    (* fresh grammar-aware generation *)
    gen_fresh r target
  | _ ->
    (* mutate a seed (or a fresh generation) a few times *)
    let base =
      if Rng.bool r then Rng.pick_list r (seeds target)
      else gen_fresh r target
    in
    let rec go s k = if k = 0 then s else go (mutate r s) (k - 1) in
    go base (1 + Rng.int r 4)

(* -- the pipeline under test ------------------------------------------------ *)

let sim_once m =
  (* the watchdog bounds delta cycles, cs_max is already capped by the
     limits, so this terminates on any validated model *)
  ignore (C.Simulate.run ~watchdog:true m)

let exercise ?(limits = Diag.Limits.default) target (src : string) =
  match target with
  | Vhdl ->
    let r = V.Parser.parse ~limits src in
    let findings = V.Lint.check ~spans:r.V.Parser.spans r.V.Parser.units in
    ignore (List.map V.Lint.to_diag findings);
    if Diag.has_errors r.V.Parser.diags then `Rejected
    else (
      match V.Extract.model_of_string_diag ~limits src with
      | Error _ -> `Rejected
      | Ok (m, _) ->
        (match C.Model.validate_diags ~limits m with
         | [] ->
           sim_once m;
           `Clean
         | _ -> `Rejected))
  | Rtm ->
    (match C.Rtm.parse ~limits src with
     | Error _ -> `Rejected
     | Ok (m, _) ->
       (match C.Model.validate_diags ~limits m with
        | [] ->
          sim_once m;
          `Clean
        | _ -> `Rejected))
  | Alg ->
    (match H.Parse.parse ~limits src with
     | Error _ -> `Rejected
     | Ok (p, _) ->
       ignore (H.Dfg.of_program p);
       `Clean)
  | Frame ->
    (* the response decoder must be total on the same bytes *)
    ignore (S.Frame.decode_response ~limits src);
    (match S.Frame.decode_request ~limits src with
     | Error [] -> failwith "Bug: frame rejected without diagnostics"
     | Error _ -> `Rejected
     | Ok req ->
       (* accepted frames must survive an encode/decode round trip:
          the daemon journals and the client replays what the encoder
          emits, so drift here silently corrupts resume *)
       let line = S.Frame.encode_request req in
       (match S.Frame.decode_request ~limits line with
        | Ok req2 when req2 = req -> `Clean
        | Ok _ -> failwith "Bug: request round-trip changed the frame"
        | Error _ -> failwith "Bug: re-encoded request rejected"))
  | Journal ->
    (match J.of_string src with
     | Error _ -> `Rejected
     | Ok (h, entries, torn) ->
       (* every non-blank line after the header is reused or torn, and a
          reused entry is exactly what the writer emits for it *)
       let lines =
         match String.split_on_char '\n' src with
         | [] -> []
         | _ :: rest -> List.filter (fun l -> String.trim l <> "") rest
       in
       if List.length entries + torn <> List.length lines then
         failwith "Bug: a journal line was neither reused nor torn";
       List.iter
         (fun (e : J.entry) ->
           if e.J.index < 0 || e.J.index >= h.J.total then
             failwith "Bug: an out-of-range entry was reused";
           if not (List.mem (J.entry_line ~digest:h.J.digest e) lines) then
             failwith "Bug: a reused entry is not one of the journal's lines")
         entries;
       `Clean)
  | Snapshot ->
    (* [csrtl sim --from-snapshot] hands a file that validates straight
       to the static-schedule arena: it must resume without raising,
       and to the interpreter's observation *)
    (match C.Snapshot.of_string src with
     | Error _ -> `Rejected
     | Ok s ->
       let m = Lazy.force fig1 in
       (match C.Snapshot.validate m s with
        | Error _ -> `Rejected
        | Ok () ->
          let arena = C.Batch.resume (Lazy.force fig1_plan) ~from:s in
          if not (C.Observation.equal arena (C.Interp.resume ~from:s m)) then
            failwith "Bug: arena and interpreter resume disagree";
          `Clean))
  | Artifact ->
    (* a cached artifact is read back from disk or the daemon's golden
       tier: reading and validating must be total, and an accepted one
       must re-serialize to itself *)
    let module A = Csrtl_fault.Artifact in
    (match A.of_string src with
     | Error _ -> `Rejected
     | Ok a ->
       if A.of_string (A.to_string a) <> Ok a then
         failwith "Bug: an accepted artifact does not round-trip";
       (match A.validate (Lazy.force fig1) ~config:C.Simulate.default a with
        | Error _ -> `Rejected
        | Ok () -> `Clean))
  | Job ->
    (* a worker's stdin: [worker_entry] catches only [Json.Bad], so
       anything else escaping [decode_job] leaves the worker as an
       uncaught exception instead of its diagnosed exit 2; an accepted
       job must re-encode to itself *)
    (match S.Engine.decode_job src with
     | exception J.Json.Bad _ -> `Rejected
     | job ->
       (match S.Engine.decode_job (S.Engine.encode_job job) with
        | job2 when job2 = job -> `Clean
        | _ -> failwith "Bug: a worker job does not round-trip"
        | exception J.Json.Bad _ ->
          failwith "Bug: a re-encoded worker job is rejected"))

(* -- crash bookkeeping ------------------------------------------------------ *)

type crash = {
  target : target;
  run : int;
  signature : string;
  error : string;
  input : string;
  original_size : int;
}

type report = {
  runs : int;
  rejected : int;
  accepted : int;
  crashes : crash list;
}

(* collapse digits and hex-ish noise so the same bug at different
   offsets dedups to one signature *)
let signature_of error =
  let first_line =
    match String.index_opt error '\n' with
    | Some i -> String.sub error 0 i
    | None -> error
  in
  String.map
    (fun c -> if c >= '0' && c <= '9' then '#' else c)
    first_line

(* -- shrinking -------------------------------------------------------------- *)

(* does [input] still die with the same signature? *)
let still_crashes ?limits ~budget target signature input =
  match
    Par.run_supervised ~budget ~retries:0 (fun () ->
        exercise ?limits target input)
  with
  | Par.Done _ -> false
  | Par.Crashed { error; _ } -> signature_of error = signature
  | Par.Over_budget _ -> signature = "over-budget"

let shrink ?limits ~budget target signature input =
  let attempts = ref 0 in
  let max_attempts = 300 in
  let try_keep candidate current =
    if
      !attempts < max_attempts
      && String.length candidate < String.length current
      && still_crashes ?limits ~budget target signature candidate
    then (incr attempts; Some candidate)
    else (incr attempts; None)
  in
  (* pass 1: drop lines, coarsest first *)
  let drop_lines input =
    let changed = ref true in
    let cur = ref input in
    while !changed && !attempts < max_attempts do
      changed := false;
      let lines = String.split_on_char '\n' !cur in
      let n = List.length lines in
      let k = ref (max 1 (n / 2)) in
      while !k >= 1 && !attempts < max_attempts do
        let i = ref 0 in
        while !i + !k <= List.length (String.split_on_char '\n' !cur)
              && !attempts < max_attempts do
          let ls = String.split_on_char '\n' !cur in
          let candidate =
            String.concat "\n"
              (List.filteri (fun j _ -> j < !i || j >= !i + !k) ls)
          in
          (match try_keep candidate !cur with
           | Some c ->
             cur := c;
             changed := true
           | None -> i := !i + !k)
        done;
        k := !k / 2
      done
    done;
    !cur
  in
  (* pass 2: chop character spans *)
  let drop_chars input =
    let cur = ref input in
    let k = ref (max 1 (String.length input / 2)) in
    while !k >= 1 && !attempts < max_attempts do
      let i = ref 0 in
      while !i + !k <= String.length !cur && !attempts < max_attempts do
        let s = !cur in
        let candidate =
          String.sub s 0 !i
          ^ String.sub s (!i + !k) (String.length s - !i - !k)
        in
        (match try_keep candidate !cur with
         | Some c -> cur := c
         | None -> i := !i + !k)
      done;
      k := !k / 2
    done;
    !cur
  in
  drop_chars (drop_lines input)

(* -- driver ----------------------------------------------------------------- *)

let run ?limits ?(budget = 5.0) ?out_dir ?progress ~seed ~runs targets =
  let targets = if targets = [] then all_targets else targets in
  let targets = Array.of_list targets in
  let rejected = ref 0 in
  let accepted = ref 0 in
  let crashes = ref [] in
  let seen = Hashtbl.create 16 in
  for i = 0 to runs - 1 do
    let target = targets.(i mod Array.length targets) in
    let r = Rng.split seed i in
    let input = gen_input r target in
    (match
       Par.run_supervised ~budget ~retries:0 (fun () ->
           exercise ?limits target input)
     with
     | Par.Done `Clean -> incr accepted
     | Par.Done `Rejected -> incr rejected
     | Par.Crashed { error; _ } ->
       let signature = signature_of error in
       if not (Hashtbl.mem seen (target, signature)) then begin
         Hashtbl.replace seen (target, signature) ();
         let shrunk = shrink ?limits ~budget target signature input in
         crashes :=
           {
             target;
             run = i;
             signature;
             error;
             input = shrunk;
             original_size = String.length input;
           }
           :: !crashes
       end
     | Par.Over_budget _ ->
       let signature = "over-budget" in
       if not (Hashtbl.mem seen (target, signature)) then begin
         Hashtbl.replace seen (target, signature) ();
         crashes :=
           {
             target;
             run = i;
             signature;
             error = Printf.sprintf "run exceeded the %gs budget" budget;
             input;
             original_size = String.length input;
           }
           :: !crashes
       end);
    match progress with
    | Some f when (i + 1) mod 250 = 0 -> f (i + 1) (List.length !crashes)
    | _ -> ()
  done;
  let crashes = List.rev !crashes in
  (match out_dir with
   | None -> ()
   | Some dir ->
     (try Unix.mkdir dir 0o755 with _ -> ());
     List.iteri
       (fun i c ->
         let stem =
           Printf.sprintf "%s/crash-%02d-%s" dir i
             (target_to_string c.target)
         in
         let write path contents =
           let oc = open_out path in
           output_string oc contents;
           close_out oc
         in
         write (stem ^ extension c.target) c.input;
         write (stem ^ ".err")
           (Printf.sprintf "run: %d\nsignature: %s\nerror: %s\n" c.run
              c.signature c.error))
       crashes);
  { runs; rejected = !rejected; accepted = !accepted; crashes }

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>fuzzed %d inputs: %d accepted, %d rejected with diagnostics, %d \
     crash signature(s)"
    r.runs r.accepted r.rejected (List.length r.crashes);
  List.iter
    (fun c ->
      Format.fprintf ppf "@,  [%s] run %d: %s (%d -> %d bytes)"
        (target_to_string c.target) c.run c.signature c.original_size
        (String.length c.input))
    r.crashes;
  Format.fprintf ppf "@]"
