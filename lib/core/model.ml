type register = { reg_name : string; init : Word.t }

type fu = {
  fu_name : string;
  ops : Ops.t list;
  latency : int;
  pipelined : bool;
  sticky_illegal : bool;
}

type input_drive = Const of Word.t | Schedule of (int * Word.t) list
type input = { in_name : string; drive : input_drive }

type t = {
  name : string;
  cs_max : int;
  registers : register list;
  fus : fu list;
  buses : string list;
  inputs : input list;
  outputs : string list;
  transfers : Transfer.t list;
}

let register ?(init = Word.disc) name = { reg_name = name; init }

let fu ?(latency = 1) ?(pipelined = true) ?(sticky_illegal = true) ~ops name =
  if ops = [] then invalid_arg "Model.fu: empty operation list";
  if latency < 1 then invalid_arg "Model.fu: latency < 1";
  { fu_name = name; ops; latency; pipelined; sticky_illegal }

let input_value i step =
  match i.drive with
  | Const v -> v
  | Schedule entries ->
    let applicable =
      List.filter (fun (s, _) -> s <= step) entries
    in
    (match List.rev applicable with
     | [] -> Word.disc
     | (_, v) :: _ ->
       (* entries are kept sorted by step; the last applicable wins *)
       v)

let signal_names m =
  List.concat
    [ m.buses;
      List.concat_map
        (fun r -> [ r.reg_name ^ ".in"; r.reg_name ^ ".out" ])
        m.registers;
      List.concat_map
        (fun f ->
          [ f.fu_name ^ ".in1"; f.fu_name ^ ".in2"; f.fu_name ^ ".out";
            f.fu_name ^ ".op" ])
        m.fus;
      List.map (fun i -> i.in_name) m.inputs;
      m.outputs ]

let find_register m name =
  List.find_opt (fun r -> r.reg_name = name) m.registers

let find_fu m name = List.find_opt (fun f -> f.fu_name = name) m.fus

let fu_latency m name =
  match find_fu m name with
  | Some f -> f.latency
  | None -> 1

let effective_op m (t : Transfer.t) =
  match t.op with
  | Some op -> Some op
  | None ->
    (match t.read_step, find_fu m t.fu with
     | Some _, Some f -> (match f.ops with op :: _ -> Some op | [] -> None)
     | _, _ -> None)

type error = { transfer : Transfer.t option; message : string }

let err ?transfer fmt =
  Format.kasprintf (fun message -> { transfer; message }) fmt

let duplicates names =
  let seen = Hashtbl.create 16 in
  List.filter_map
    (fun n ->
      if Hashtbl.mem seen n then Some n
      else begin
        Hashtbl.replace seen n ();
        None
      end)
    names

let validate m =
  let errors = ref [] in
  let add e = errors := e :: !errors in
  if m.cs_max < 1 then add (err "cs_max must be >= 1 (got %d)" m.cs_max);
  let all_names =
    List.map (fun r -> r.reg_name) m.registers
    @ List.map (fun f -> f.fu_name) m.fus
    @ m.buses
    @ List.map (fun i -> i.in_name) m.inputs
    @ m.outputs
  in
  List.iter
    (fun n -> add (err "duplicate resource name %s" n))
    (duplicates all_names);
  let has_reg n = find_register m n <> None in
  let has_bus n = List.mem n m.buses in
  let has_input n = List.exists (fun i -> i.in_name = n) m.inputs in
  let has_output n = List.mem n m.outputs in
  List.iter
    (fun f ->
      if List.exists Ops.is_stateful f.ops && f.latency <> 1 then
        add
          (err "unit %s has a stateful operation but latency %d (must be 1)"
             f.fu_name f.latency))
    m.fus;
  let check_step t what = function
    | None -> ()
    | Some s ->
      if s < 1 || s > m.cs_max then
        add (err ~transfer:t "%s step %d outside [1, %d]" what s m.cs_max)
  in
  let check_source t = function
    | None -> ()
    | Some (Transfer.From_reg r) ->
      if not (has_reg r) then add (err ~transfer:t "unknown register %s" r)
    | Some (Transfer.From_input i) ->
      if not (has_input i) then add (err ~transfer:t "unknown input %s" i)
  in
  let check_bus t = function
    | None -> ()
    | Some b ->
      if not (has_bus b) then add (err ~transfer:t "unknown bus %s" b)
  in
  List.iter
    (fun (t : Transfer.t) ->
      let fu = find_fu m t.fu in
      if fu = None then add (err ~transfer:t "unknown unit %s" t.fu);
      check_source t t.src_a;
      check_source t t.src_b;
      check_bus t t.bus_a;
      check_bus t t.bus_b;
      check_bus t t.write_bus;
      check_step t "read" t.read_step;
      check_step t "write" t.write_step;
      (match t.dst with
       | None -> ()
       | Some (Transfer.To_reg r) ->
         if not (has_reg r) then add (err ~transfer:t "unknown register %s" r)
       | Some (Transfer.To_output o) ->
         if not (has_output o) then
           add (err ~transfer:t "unknown output %s" o));
      (* Structural coherence of the tuple itself. *)
      (match t.src_a, t.bus_a with
       | Some _, None | None, Some _ ->
         add (err ~transfer:t "source A and bus A must be given together")
       | _, _ -> ());
      (match t.src_b, t.bus_b with
       | Some _, None | None, Some _ ->
         add (err ~transfer:t "source B and bus B must be given together")
       | _, _ -> ());
      if (t.src_a <> None || t.src_b <> None) && t.read_step = None then
        add (err ~transfer:t "sources given but no read step");
      if t.dst <> None && t.write_step = None then
        add (err ~transfer:t "destination given but no write step");
      if t.write_step <> None && t.write_bus = None then
        add (err ~transfer:t "write step given but no write bus");
      (match fu with
       | None -> ()
       | Some f ->
         (match t.read_step, t.write_step with
          | Some r, Some w when w <> r + f.latency ->
            add
              (err ~transfer:t
                 "unit %s has latency %d but write step is %d after read \
                  step %d"
                 f.fu_name f.latency w r)
          | _, _ -> ());
         (match effective_op m t with
          | None -> ()
          | Some op ->
            if not (List.mem op f.ops) then
              add
                (err ~transfer:t "unit %s does not implement %s" f.fu_name
                   (Ops.to_string op));
            if t.read_step <> None then begin
              let supplied =
                (if t.src_a <> None then 1 else 0)
                + if t.src_b <> None then 1 else 0
              in
              let needed = Ops.arity op in
              if supplied <> needed then
                add
                  (err ~transfer:t
                     "operation %s needs %d operand(s) but %d supplied"
                     (Ops.to_string op) needed supplied)
            end)))
    m.transfers;
  List.rev !errors

let validate_exn m =
  match validate m with
  | [] -> ()
  | errs ->
    let msgs = List.map (fun e -> e.message) errs in
    invalid_arg
      (Printf.sprintf "model %s: %s" m.name (String.concat "; " msgs))

let error_to_diag m (e : error) =
  let module Diag = Csrtl_diag.Diag in
  let where =
    match e.transfer with
    | None -> m.name
    | Some t -> Printf.sprintf "%s transfer via %s" m.name t.Transfer.fu
  in
  Diag.error ~rule:"model.validate" "%s: %s" where e.message

let check_limits ?(limits = Csrtl_diag.Diag.Limits.default) m =
  let module Diag = Csrtl_diag.Diag in
  let out = ref [] in
  let cap what count cap =
    if count > cap then
      out :=
        Diag.error ~rule:"limits.model" "model %s: %d %s exceed the limit %d"
          m.name count what cap
        :: !out
  in
  cap "registers" (List.length m.registers) limits.Diag.Limits.max_registers;
  cap "units" (List.length m.fus) limits.Diag.Limits.max_fus;
  cap "buses" (List.length m.buses) limits.Diag.Limits.max_buses;
  cap "control steps" m.cs_max limits.Diag.Limits.max_steps;
  cap "transfers" (List.length m.transfers) limits.Diag.Limits.max_transfers;
  List.rev !out

let validate_diags ?limits m =
  check_limits ?limits m @ List.map (error_to_diag m) (validate m)

let build_legs m =
  (* from the last tuple to the first, so each tuple's legs are copied
     once onto the result *)
  List.fold_right
    (fun t (legs, sels) ->
      let t =
        match (t : Transfer.t).op with
        | Some _ -> t
        | None -> { t with op = effective_op m t }
      in
      let l, s = Transfer.decompose t in
      (l @ legs, s @ sels))
    m.transfers ([], [])

(* The decomposition of the last model asked about, keyed by physical
   identity: a model is immutable, so the same value always decomposes
   the same way.  Parsing, scheduling, enumeration and every
   interpreter run of a campaign ask about one model, often from pool
   domains at once; the entry is one immutable pair behind an
   [Atomic.t], so a reader never sees a torn entry, and a lost race
   only costs a rebuild. *)
let last_legs :
    (t * (Transfer.leg list * Transfer.op_select list)) option Atomic.t =
  Atomic.make None

let all_legs m =
  match Atomic.get last_legs with
  | Some (m', legs) when m' == m -> legs
  | Some _ | None ->
    let legs = build_legs m in
    Atomic.set last_legs (Some (m, legs));
    legs

let pp_error ppf e =
  match e.transfer with
  | None -> Format.pp_print_string ppf e.message
  | Some t -> Format.fprintf ppf "%a: %s" Transfer.pp t e.message

let pp ppf m =
  Format.fprintf ppf "@[<v>model %s (cs_max=%d)@," m.name m.cs_max;
  List.iter
    (fun r ->
      Format.fprintf ppf "  reg %s init %a@," r.reg_name Word.pp r.init)
    m.registers;
  List.iter
    (fun f ->
      Format.fprintf ppf "  unit %s latency %d%s ops [%s]@," f.fu_name
        f.latency
        (if f.pipelined then " pipelined" else "")
        (String.concat " " (List.map Ops.to_string f.ops)))
    m.fus;
  List.iter (fun b -> Format.fprintf ppf "  bus %s@," b) m.buses;
  List.iter (fun i -> Format.fprintf ppf "  input %s@," i.in_name) m.inputs;
  List.iter (fun o -> Format.fprintf ppf "  output %s@," o) m.outputs;
  List.iter
    (fun t -> Format.fprintf ppf "  transfer %a@," Transfer.pp t)
    m.transfers;
  Format.fprintf ppf "@]"
