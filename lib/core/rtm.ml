module Diag = Csrtl_diag.Diag

exception Parse_error of int * string

(* Internal: abandons the current line during diagnostic parsing; the
   driver records the diagnostic and moves on to the next line. *)
exception Line_error of Diag.t

type ctx = { file : string option; line : int }

(* Words with their 1-based starting column. *)
let split_words s =
  let n = String.length s in
  let out = ref [] in
  let i = ref 0 in
  while !i < n do
    while !i < n && (s.[!i] = ' ' || s.[!i] = '\t') do
      incr i
    done;
    if !i < n then begin
      let start = !i in
      while !i < n && s.[!i] <> ' ' && s.[!i] <> '\t' do
        incr i
      done;
      out := (String.sub s start (!i - start), start + 1) :: !out
    end
  done;
  List.rev !out

let fail_at ctx col len fmt =
  Format.kasprintf
    (fun m ->
      raise
        (Line_error
           (Diag.error
              ~span:(Diag.span ?file:ctx.file ~len ~line:ctx.line ~col ())
              ~rule:"rtm.parse" "%s" m)))
    fmt

let fail ctx (s, col) fmt = fail_at ctx col (String.length s) fmt

let strip_comment s =
  match String.index_opt s '#' with
  | None -> s
  | Some i -> String.sub s 0 i

let parse_word ctx ((s, _) as w) =
  match Word.of_string s with
  | Some v -> v
  | None -> fail ctx w "expected a value (natural, DISC or ILLEGAL): %s" s

let parse_op ctx ((s, _) as w) =
  match Ops.of_string s with
  | Some op -> op
  | None -> fail ctx w "unknown operation %s" s

(* [FU] or [FU:op] *)
let parse_fu_field ctx (s, col) =
  match String.index_opt s ':' with
  | None -> (s, None)
  | Some i ->
    let fu = String.sub s 0 i in
    let op = String.sub s (i + 1) (String.length s - i - 1) in
    (fu, Some (parse_op ctx (op, col + i + 1)))

let parse_source (s, _) =
  if s = "-" then None
  else if String.length s > 1 && s.[String.length s - 1] = '!' then
    Some (Transfer.From_input (String.sub s 0 (String.length s - 1)))
  else Some (Transfer.From_reg s)

let parse_dest (s, _) =
  if s = "-" then None
  else if String.length s > 1 && s.[String.length s - 1] = '!' then
    Some (Transfer.To_output (String.sub s 0 (String.length s - 1)))
  else Some (Transfer.To_reg s)

let parse_opt_field (s, _) = if s = "-" then None else Some s

let parse_opt_int ctx ((s, _) as w) =
  if s = "-" then None
  else
    match int_of_string_opt s with
    | Some n -> Some n
    | None -> fail ctx w "expected a step number or -: %s" s

let parse_unit_attrs ctx words =
  let ops = ref [] in
  let latency = ref 1 in
  let pipelined = ref true in
  let sticky = ref true in
  let rec go = function
    | [] -> ()
    | ("ops", _) :: (spec, scol) :: rest ->
      let parts = String.split_on_char ',' spec in
      let col = ref scol in
      ops :=
        List.map
          (fun p ->
            let op = parse_op ctx (p, !col) in
            col := !col + String.length p + 1;
            op)
          parts;
      go rest
    | ("latency", _) :: ((n, _) as nw) :: rest ->
      (match int_of_string_opt n with
       | Some v when v >= 1 -> latency := v
       | Some _ | None -> fail ctx nw "bad latency %s" n);
      go rest
    | ("nonpipelined", _) :: rest ->
      pipelined := false;
      go rest
    | ("pipelined", _) :: rest ->
      pipelined := true;
      go rest
    | ("transparent-illegal", _) :: rest ->
      sticky := false;
      go rest
    | ((w, _) as ww) :: _ -> fail ctx ww "unknown unit attribute %s" w
  in
  go words;
  (match words with
   | [] when !ops = [] -> fail_at ctx 1 1 "unit needs an ops list"
   | ((_, col) as w) :: _ when !ops = [] ->
     fail_at ctx col (String.length (fst w)) "unit needs an ops list"
   | _ -> ());
  (!ops, !latency, !pipelined, !sticky)

let parse_input_drive ctx words =
  match words with
  | [ ("const", _); v ] -> Model.Const (parse_word ctx v)
  | ("schedule", _) :: entries when entries <> [] ->
    let parse_entry ((e, col) as ew) =
      match String.index_opt e ':' with
      | None -> fail ctx ew "schedule entry must be step:value, got %s" e
      | Some i ->
        let s = String.sub e 0 i in
        let v = String.sub e (i + 1) (String.length e - i - 1) in
        (match int_of_string_opt s with
         | Some step -> (step, parse_word ctx (v, col + i + 1))
         | None -> fail ctx ew "bad step in schedule entry %s" e)
    in
    Model.Schedule (List.sort Stdlib.compare (List.map parse_entry entries))
  | [] -> Model.Const Word.disc
  | ((w, _) as ww) :: _ -> fail ctx ww "unknown input drive %s" w

let parse ?(limits = Diag.Limits.default) ?file text =
  let diags = ref [] in
  let record d = diags := d :: !diags in
  match Diag.Limits.check_input_bytes ?file limits text with
  | Some d -> Error [ d ]
  | None ->
    let name = ref "model" in
    let cs_max = ref None in
    let registers = ref [] in
    let fus = ref [] in
    let buses = ref [] in
    let inputs = ref [] in
    let outputs = ref [] in
    let transfers = ref [] in
    let seen_regs = Hashtbl.create 16 in
    let seen_fus = Hashtbl.create 16 in
    (* transfer step operands, remembered with their source positions
       so the range check against csmax (which may appear later in the
       file) can still point at the offending word *)
    let step_sites = ref [] in
    let note_step ctx what ((w, col) : string * int) v =
      match v with
      | None -> ()
      | Some n ->
        step_sites :=
          (ctx.line, col, String.length w, what, n) :: !step_sites
    in
    let handle_line ctx raw =
      let words = split_words (strip_comment raw) in
      match words with
      | [] -> ()
      | [ ("model", _); (n, _) ] -> name := n
      | [ ("csmax", _); nw ] | [ ("cs_max", _); nw ] ->
        (match int_of_string_opt (fst nw) with
         | Some v when v >= 0 && v <= limits.Diag.Limits.max_steps ->
           cs_max := Some v
         | Some v when v > limits.Diag.Limits.max_steps ->
           fail ctx nw "csmax %d exceeds the step limit %d" v
             limits.Diag.Limits.max_steps
         | Some _ | None -> fail ctx nw "bad csmax %s" (fst nw))
      | ("reg", _) :: ((n, _) as nw) :: rest -> (
        if Hashtbl.mem seen_regs n then
          fail ctx nw "register %s is declared twice" n;
        Hashtbl.replace seen_regs n ();
        match rest with
        | [] -> registers := Model.register n :: !registers
        | [ ("init", _); v ] ->
          registers :=
            Model.register ~init:(parse_word ctx v) n :: !registers
        | w :: _ -> fail ctx w "reg takes at most `init <value>`")
      | ("unit", _) :: ((n, _) as nw) :: attrs ->
        if Hashtbl.mem seen_fus n then
          fail ctx nw "unit %s is declared twice" n;
        Hashtbl.replace seen_fus n ();
        let ops, latency, pipelined, sticky_illegal =
          parse_unit_attrs ctx attrs
        in
        fus :=
          Model.fu ~latency ~pipelined ~sticky_illegal ~ops n :: !fus
      | [ ("bus", _); (n, _) ] -> buses := n :: !buses
      | ("bus", _) :: ns when ns <> [] ->
        buses := List.rev_map fst ns @ !buses
      | ("input", _) :: (n, _) :: drive ->
        inputs :=
          { Model.in_name = n; drive = parse_input_drive ctx drive }
          :: !inputs
      | [ ("output", _); (n, _) ] -> outputs := n :: !outputs
      | [ ("transfer", _); sa; ba; sb; bb; rs; fu_field; ws; wb; dst ] ->
        let fu, op = parse_fu_field ctx fu_field in
        let read_step = parse_opt_int ctx rs in
        let write_step = parse_opt_int ctx ws in
        note_step ctx "read" rs read_step;
        note_step ctx "write" ws write_step;
        transfers :=
          { Transfer.src_a = parse_source sa;
            bus_a = parse_opt_field ba;
            src_b = parse_source sb;
            bus_b = parse_opt_field bb;
            read_step; fu; op;
            write_step;
            write_bus = parse_opt_field wb;
            dst = parse_dest dst }
          :: !transfers
      | (("transfer", _) as w) :: _ ->
        fail ctx w "transfer needs 9 tuple fields"
      | ((w, _) as ww) :: _ -> fail ctx ww "unknown directive %s" w
    in
    List.iteri
      (fun i l ->
        let ctx = { file; line = i + 1 } in
        try handle_line ctx l with Line_error d -> record d)
      (String.split_on_char '\n' text);
    let check_count what count cap =
      if count > cap then
        record
          (Diag.error ~rule:"limits.model"
             "%d %s exceed the limit of %d" count what cap)
    in
    check_count "registers" (List.length !registers)
      limits.Diag.Limits.max_registers;
    check_count "units" (List.length !fus) limits.Diag.Limits.max_fus;
    check_count "buses" (List.length !buses) limits.Diag.Limits.max_buses;
    check_count "transfers" (List.length !transfers)
      limits.Diag.Limits.max_transfers;
    (match !cs_max with
     | Some n ->
       List.iter
         (fun (line, col, len, what, v) ->
           if v < 1 || v > n then
             record
               (Diag.error
                  ~span:{ Diag.file; line; col; len }
                  ~rule:"rtm.parse" "%s step %d outside [1, %d]" what v n))
         !step_sites
     | None ->
       record
         (Diag.error
            ~span:{ Diag.file; line = 1; col = 1; len = 1 }
            ~rule:"rtm.parse" "missing csmax directive"));
    let diags = List.stable_sort Diag.by_position (List.rev !diags) in
    if Diag.has_errors diags then Error diags
    else
      Ok
        ({ Model.name = !name;
           cs_max = Option.value ~default:0 !cs_max;
           registers = List.rev !registers;
           fus = List.rev !fus;
           buses = List.rev !buses;
           inputs = List.rev !inputs;
           outputs = List.rev !outputs;
           transfers = List.rev !transfers },
         diags)

let of_string text =
  match parse ~limits:Diag.Limits.unlimited text with
  | Ok (m, _) -> m
  | Error diags ->
    let d = List.find (fun d -> d.Diag.severity = Diag.Error) diags in
    let line = match d.Diag.span with Some s -> s.Diag.line | None -> 0 in
    raise (Parse_error (line, d.Diag.message))

let of_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let text = really_input_string ic n in
  close_in ic;
  of_string text

(* The canonical text under every model digest
   ({!Snapshot.digest_of_model}), so a daemon renders it on every
   request: each line is written straight into one buffer, field by
   field, with no [Format] and no per-line string. *)
let to_string (m : Model.t) =
  let b = Buffer.create 4096 in
  let str = Buffer.add_string b in
  let chr = Buffer.add_char b in
  let int n = str (string_of_int n) in
  let word v = str (Word.to_string v) in
  (* a field after the first: its separating space, then the field *)
  let opt = function None -> str " -" | Some s -> chr ' '; str s in
  let opt_int = function None -> str " -" | Some n -> chr ' '; int n in
  let source = function
    | None -> str " -"
    | Some (Transfer.From_reg r) -> chr ' '; str r
    | Some (Transfer.From_input i) -> chr ' '; str i; chr '!'
  in
  str "model "; str m.name;
  str "\ncsmax "; int m.cs_max; chr '\n';
  List.iter
    (fun (r : Model.register) ->
      str "reg "; str r.reg_name;
      if not (Word.is_disc r.init) then (str " init "; word r.init);
      chr '\n')
    m.registers;
  List.iter
    (fun (f : Model.fu) ->
      str "unit "; str f.fu_name; str " ops ";
      List.iteri
        (fun i op -> if i > 0 then chr ','; str (Ops.to_string op))
        f.ops;
      str " latency "; int f.latency;
      if not f.pipelined then str " nonpipelined";
      if not f.sticky_illegal then str " transparent-illegal";
      chr '\n')
    m.fus;
  List.iter (fun bus -> str "bus "; str bus; chr '\n') m.buses;
  List.iter
    (fun (i : Model.input) ->
      str "input "; str i.in_name;
      (match i.drive with
       | Model.Const v -> str " const "; word v
       | Model.Schedule entries ->
         str " schedule ";
         List.iteri
           (fun k (s, v) -> if k > 0 then chr ' '; int s; chr ':'; word v)
           entries);
      chr '\n')
    m.inputs;
  List.iter (fun o -> str "output "; str o; chr '\n') m.outputs;
  List.iter
    (fun (t : Transfer.t) ->
      str "transfer";
      source t.src_a; opt t.bus_a; source t.src_b; opt t.bus_b;
      opt_int t.read_step;
      chr ' '; str t.fu;
      (match t.op with None -> () | Some op -> chr ':'; str (Ops.to_string op));
      opt_int t.write_step; opt t.write_bus;
      (match t.dst with
       | None -> str " -"
       | Some (Transfer.To_reg r) -> chr ' '; str r
       | Some (Transfer.To_output o) -> chr ' '; str o; chr '!');
      chr '\n')
    m.transfers;
  Buffer.contents b

let to_file m path =
  let oc = open_out path in
  output_string oc (to_string m);
  close_out oc
