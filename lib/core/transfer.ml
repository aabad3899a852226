type source = From_reg of string | From_input of string
type dest = To_reg of string | To_output of string

type t = {
  src_a : source option;
  bus_a : string option;
  src_b : source option;
  bus_b : string option;
  read_step : int option;
  fu : string;
  op : Ops.t option;
  write_step : int option;
  write_bus : string option;
  dst : dest option;
}

type endpoint =
  | Reg_out of string
  | Reg_in of string
  | Fu_in of string * int
  | Fu_out of string
  | Bus of string
  | In_port of string
  | Out_port of string

type leg = { step : int; phase : Phase.t; src : endpoint; dst : endpoint }
type op_select = { sel_step : int; sel_fu : string; sel_op : Ops.t }

let make ?src_a ?bus_a ?src_b ?bus_b ?read_step ?op ?write_step ?write_bus
    ?dst ~fu () =
  { src_a; bus_a; src_b; bus_b; read_step; fu; op; write_step; write_bus;
    dst }

let full ~src_a ~bus_a ~src_b ~bus_b ~read_step ~fu ?op ~write_step
    ~write_bus ~dst () =
  { src_a = Some src_a; bus_a = Some bus_a; src_b = Some src_b;
    bus_b = Some bus_b; read_step = Some read_step; fu; op;
    write_step = Some write_step; write_bus = Some write_bus;
    dst = Some dst }

let source_endpoint = function
  | From_reg r -> Reg_out r
  | From_input i -> In_port i

let dest_endpoint = function
  | To_reg r -> Reg_in r
  | To_output o -> Out_port o

let leg_source_name = function From_reg n | From_input n -> n
let leg_dest_name = function To_reg n | To_output n -> n

let endpoint_name = function
  | Reg_out r -> r ^ ".out"
  | Reg_in r -> r ^ ".in"
  | Fu_in (f, 1) -> f ^ ".in1"
  | Fu_in (f, 2) -> f ^ ".in2"
  | Fu_in (f, i) -> String.concat "" [ f; ".in"; string_of_int i ]
  | Fu_out f -> f ^ ".out"
  | Bus b -> b
  | In_port p -> p
  | Out_port p -> p

let decompose t =
  (* consed straight into phase order — [Ra] a, [Ra] b, [Rb] a, [Rb] b,
     then the write legs — since every model's leg table is built
     from this *)
  let writes =
    match t.write_step, t.write_bus with
    | Some step, Some b ->
      let bus = Bus b in
      let wb =
        match t.dst with
        | Some d ->
          [ { step; phase = Phase.Wb; src = bus; dst = dest_endpoint d } ]
        | None -> []
      in
      { step; phase = Phase.Wa; src = Fu_out t.fu; dst = bus } :: wb
    | _, _ -> []
  in
  let ra src bus rest =
    match src, bus, t.read_step with
    | Some s, Some b, Some step ->
      { step; phase = Phase.Ra; src = source_endpoint s; dst = Bus b } :: rest
    | _, _, _ -> rest
  in
  let rb port src bus rest =
    match src, bus, t.read_step with
    | Some _, Some b, Some step ->
      { step; phase = Phase.Rb; src = Bus b; dst = Fu_in (t.fu, port) } :: rest
    | _, _, _ -> rest
  in
  let legs =
    ra t.src_a t.bus_a
      (ra t.src_b t.bus_b
         (rb 1 t.src_a t.bus_a (rb 2 t.src_b t.bus_b writes)))
  in
  let selects =
    match t.read_step, t.op with
    | Some step, Some op -> [ { sel_step = step; sel_fu = t.fu; sel_op = op } ]
    | Some _, None | None, _ -> []
  in
  (legs, selects)

(* -- recomposition ---------------------------------------------------- *)

let endpoint_source = function
  | Reg_out r -> Some (From_reg r)
  | In_port p -> Some (From_input p)
  | Reg_in _ | Fu_in _ | Fu_out _ | Bus _ | Out_port _ -> None

let endpoint_dest = function
  | Reg_in r -> Some (To_reg r)
  | Out_port p -> Some (To_output p)
  | Reg_out _ | Fu_in _ | Fu_out _ | Bus _ | In_port _ -> None

let compare_opt cmp a b =
  match a, b with
  | None, None -> 0
  | None, Some _ -> -1
  | Some _, None -> 1
  | Some x, Some y -> cmp x y

let first_step t =
  match t.read_step, t.write_step with
  | Some r, Some w -> min r w
  | Some s, None | None, Some s -> s
  | None, None -> max_int

let compare a b =
  let c = Int.compare (first_step a) (first_step b) in
  if c <> 0 then c
  else
    let c = String.compare a.fu b.fu in
    if c <> 0 then c
    else
      let c = compare_opt Int.compare a.read_step b.read_step in
      if c <> 0 then c
      else
        let c = compare_opt Int.compare a.write_step b.write_step in
        if c <> 0 then c else Stdlib.compare a b

let equal a b = compare a b = 0

let compose legs selects =
  (* Pair Ra legs with Rb legs that forward the same bus at the same
     step; pair Wa legs with Wb legs likewise. *)
  let ra, rest =
    List.partition (fun l -> l.phase = Phase.Ra) legs
  in
  let rb, rest = List.partition (fun l -> l.phase = Phase.Rb) rest in
  let wa, rest = List.partition (fun l -> l.phase = Phase.Wa) rest in
  let wb, _ = List.partition (fun l -> l.phase = Phase.Wb) rest in
  let find_op fu step =
    List.find_map
      (fun s ->
        if s.sel_fu = fu && s.sel_step = step then Some s.sel_op else None)
      selects
  in
  (* Read tuples: one per Rb leg (the leg naming the unit port). *)
  let read_tuples =
    List.map
      (fun l ->
        let bus = match l.src with Bus b -> Some b | _ -> None in
        let fu, port =
          match l.dst with
          | Fu_in (f, p) -> (f, p)
          | _ -> ("?", 1)
        in
        let src =
          List.find_map
            (fun r ->
              if r.step = l.step && r.dst = l.src then
                endpoint_source r.src
              else None)
            ra
        in
        let t =
          { src_a = None; bus_a = None; src_b = None; bus_b = None;
            read_step = Some l.step; fu; op = find_op fu l.step;
            write_step = None; write_bus = None; dst = None }
        in
        if port = 1 then { t with src_a = src; bus_a = bus }
        else { t with src_b = src; bus_b = bus })
      rb
  in
  (* Merge port-1 and port-2 read tuples of the same (fu, step). *)
  let rec merge_reads acc = function
    | [] -> List.rev acc
    | t :: rest ->
      let same, rest =
        List.partition
          (fun u -> u.fu = t.fu && u.read_step = t.read_step)
          rest
      in
      let merged =
        List.fold_left
          (fun t u ->
            { t with
              src_a = (match t.src_a with None -> u.src_a | s -> s);
              bus_a = (match t.bus_a with None -> u.bus_a | s -> s);
              src_b = (match t.src_b with None -> u.src_b | s -> s);
              bus_b = (match t.bus_b with None -> u.bus_b | s -> s);
              op = (match t.op with None -> u.op | s -> s) })
          t same
      in
      merge_reads (merged :: acc) rest
  in
  let read_tuples = merge_reads [] read_tuples in
  (* Operation selections without operand legs come from arity-0
     operations (a constant producer): reconstruct their read part so
     the round trip stays exact. *)
  let read_tuples =
    read_tuples
    @ List.filter_map
        (fun (s : op_select) ->
          let covered =
            List.exists
              (fun t ->
                t.fu = s.sel_fu && t.read_step = Some s.sel_step)
              read_tuples
          in
          if covered then None
          else
            Some
              { src_a = None; bus_a = None; src_b = None; bus_b = None;
                read_step = Some s.sel_step; fu = s.sel_fu;
                op = Some s.sel_op; write_step = None; write_bus = None;
                dst = None })
        selects
  in
  (* Write tuples: one per Wa leg. *)
  let write_tuples =
    List.map
      (fun l ->
        let fu = match l.src with Fu_out f -> f | _ -> "?" in
        let bus = match l.dst with Bus b -> Some b | _ -> None in
        let dst =
          List.find_map
            (fun w ->
              if w.step = l.step && w.src = l.dst then endpoint_dest w.dst
              else None)
            wb
        in
        { src_a = None; bus_a = None; src_b = None; bus_b = None;
          read_step = None; fu; op = None; write_step = Some l.step;
          write_bus = bus; dst })
      wa
  in
  List.sort compare (read_tuples @ write_tuples)

let merge ~latency_of tuples =
  let reads, others =
    List.partition
      (fun t -> t.read_step <> None && t.write_step = None)
      tuples
  in
  let writes, rest =
    List.partition
      (fun t -> t.write_step <> None && t.read_step = None)
      others
  in
  let used = Hashtbl.create 8 in
  let merged =
    List.map
      (fun r ->
        let want =
          match r.read_step with
          | Some s -> Some (s + latency_of r.fu)
          | None -> None
        in
        let candidate =
          List.find_opt
            (fun w ->
              (not (Hashtbl.mem used w)) && w.fu = r.fu
              && w.write_step = want)
            writes
        in
        match candidate with
        | Some w ->
          Hashtbl.replace used w ();
          { r with write_step = w.write_step; write_bus = w.write_bus;
            dst = w.dst }
        | None -> r)
      reads
  in
  let leftover = List.filter (fun w -> not (Hashtbl.mem used w)) writes in
  List.sort compare (merged @ leftover @ rest)

(* -- printing ---------------------------------------------------------- *)

let pp_source ppf = function
  | From_reg r -> Format.pp_print_string ppf r
  | From_input i -> Format.fprintf ppf "%s!" i

let pp_dest ppf = function
  | To_reg r -> Format.pp_print_string ppf r
  | To_output o -> Format.fprintf ppf "%s!" o

let pp_opt pp_elt ppf = function
  | None -> Format.pp_print_string ppf "-"
  | Some x -> pp_elt ppf x

let pp ppf t =
  let str = Format.pp_print_string in
  let int ppf = Format.fprintf ppf "%d" in
  Format.fprintf ppf "(%a,%a,%a,%a,%a,%s%a,%a,%a,%a)"
    (pp_opt pp_source) t.src_a
    (pp_opt str) t.bus_a
    (pp_opt pp_source) t.src_b
    (pp_opt str) t.bus_b
    (pp_opt int) t.read_step
    t.fu
    (fun ppf -> function
      | None -> ()
      | Some op -> Format.fprintf ppf ":%s" (Ops.to_string op))
    t.op
    (pp_opt int) t.write_step
    (pp_opt str) t.write_bus
    (pp_opt pp_dest) t.dst

let leg_to_string l =
  String.concat ""
    [ endpoint_name l.src; " -> "; endpoint_name l.dst; " @";
      string_of_int l.step; "/"; Phase.to_string l.phase ]

let pp_leg ppf l = Format.pp_print_string ppf (leg_to_string l)

let to_string t = Format.asprintf "%a" pp t
