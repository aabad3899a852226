type t = {
  model_name : string;
  digest : string;
  step : int;
  regs : (string * Word.t) list;
  fu_out : (string * Word.t) list;
  fu_slots : (string * Word.t array) list;
  trace : (string * Word.t array) list;
  out_writes : (string * (int * Word.t)) list;
  conflicts : (int * Phase.t * string) list;
}

let digest_of_model m = Digest.to_hex (Digest.string (Rtm.to_string m))

let compare_conflict (s1, p1, n1) (s2, p2, n2) =
  match compare (s1 : int) s2 with
  | 0 -> (
      match compare (Phase.to_int p1) (Phase.to_int p2) with
      | 0 -> String.compare n1 n2
      | c -> c)
  | c -> c

let sort_conflicts cs = List.sort_uniq compare_conflict cs

let equal a b = a = b

(* ---- validation ------------------------------------------------- *)

let validate ?digest (m : Model.t) s =
  let err fmt = Printf.ksprintf (fun msg -> Error msg) fmt in
  let digest =
    match digest with Some d -> d | None -> digest_of_model m
  in
  if s.model_name <> m.name then
    err "snapshot is of model %s, not %s" s.model_name m.name
  else if s.digest <> digest then
    err "snapshot digest %s does not match the model (%s)" s.digest digest
  else if s.step < 0 || s.step > m.cs_max then
    err "snapshot step %d outside [0, %d]" s.step m.cs_max
  else
    let reg_names = List.map (fun (r : Model.register) -> r.reg_name) m.registers in
    let fu_names = List.map (fun (f : Model.fu) -> f.fu_name) m.fus in
    if List.map fst s.regs <> reg_names then err "snapshot register set differs"
    else if List.map fst s.fu_out <> fu_names then err "snapshot unit set differs"
    else if List.map fst s.fu_slots <> fu_names then
      err "snapshot unit pipeline set differs"
    else if
      List.exists2
        (fun (f : Model.fu) (_, slots) -> Array.length slots <> f.latency)
        m.fus s.fu_slots
    then err "snapshot pipeline depth differs from unit latency"
    else if List.map fst s.trace <> reg_names then err "snapshot trace set differs"
    else if
      List.exists (fun (_, a) -> Array.length a <> s.step) s.trace
    then err "snapshot trace length differs from its step"
    else if
      List.exists (fun (_, (w, _)) -> w < 1 || w > s.step) s.out_writes
    then err "snapshot output write outside [1, %d]" s.step
    else
      (* each port is written at most once per step, in step order:
         the executors size a port's write log by [cs_max] *)
      let rec writes_ok last = function
        | [] -> Ok ()
        | (n, (w, _)) :: rest ->
          if not (List.mem n m.outputs) then
            err "snapshot writes undeclared output port %s" n
          else if
            match List.assoc_opt n last with Some p -> w <= p | None -> false
          then err "snapshot output %s written out of order at step %d" n w
          else writes_ok ((n, w) :: last) rest
      in
      writes_ok [] s.out_writes

let validate_exn ?digest m s =
  match validate ?digest m s with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Snapshot.validate: " ^ msg)

(* ---- serialization ---------------------------------------------- *)

let magic = "csrtl-snapshot 1"

let to_string s =
  let b = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun l -> Buffer.add_string b l; Buffer.add_char b '\n') fmt in
  let words a = String.concat " " (List.map Word.to_string (Array.to_list a)) in
  line "%s" magic;
  line "model %s" s.model_name;
  line "digest %s" s.digest;
  line "step %d" s.step;
  List.iter (fun (n, v) -> line "reg %s %s" n (Word.to_string v)) s.regs;
  List.iter
    (fun (n, out) ->
      let slots = List.assoc n s.fu_slots in
      line "fu %s %s %s" n (Word.to_string out) (words slots))
    s.fu_out;
  List.iter (fun (n, a) ->
      if Array.length a = 0 then line "trace %s" n else line "trace %s %s" n (words a))
    s.trace;
  List.iter (fun (n, (w, v)) -> line "out %s %d %s" n w (Word.to_string v)) s.out_writes;
  List.iter
    (fun (w, p, n) -> line "conflict %d %s %s" w (Phase.to_string p) n)
    s.conflicts;
  line "end";
  Buffer.contents b

exception Bad of string

let of_string text =
  let bad fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt in
  let word tok =
    match Word.of_string tok with
    | Some w -> w
    | None -> bad "bad word %S" tok
  in
  let int_of tok =
    match int_of_string_opt tok with
    | Some i -> i
    | None -> bad "bad integer %S" tok
  in
  let lines =
    String.split_on_char '\n' text
    |> List.filter (fun l -> String.trim l <> "")
  in
  let fields l = String.split_on_char ' ' l |> List.filter (fun t -> t <> "") in
  try
    match lines with
    | m :: rest when String.trim m = magic ->
      let model_name = ref "" and digest = ref "" and step = ref (-1) in
      let regs = ref [] and fu_out = ref [] and fu_slots = ref [] in
      let trace = ref [] and out_writes = ref [] and conflicts = ref [] in
      let seen_end = ref false in
      List.iter
        (fun l ->
          if !seen_end then bad "content after end marker";
          match fields l with
          | [ "model"; n ] -> model_name := n
          | [ "digest"; d ] -> digest := d
          | [ "step"; s ] -> step := int_of s
          | [ "reg"; n; v ] -> regs := (n, word v) :: !regs
          | "fu" :: n :: out :: slots ->
            if slots = [] then bad "unit %s has no pipeline slots" n;
            fu_out := (n, word out) :: !fu_out;
            fu_slots := (n, Array.of_list (List.map word slots)) :: !fu_slots
          | "trace" :: n :: vs ->
            trace := (n, Array.of_list (List.map word vs)) :: !trace
          | [ "out"; n; w; v ] -> out_writes := (n, (int_of w, word v)) :: !out_writes
          | [ "conflict"; w; p; n ] ->
            let p =
              match Phase.of_string p with
              | Some p -> p
              | None -> bad "bad phase %S" p
            in
            conflicts := (int_of w, p, n) :: !conflicts
          | [ "end" ] -> seen_end := true
          | _ -> bad "unrecognized line %S" l)
        rest;
      if not !seen_end then bad "truncated snapshot (no end marker)";
      if !model_name = "" then bad "missing model line";
      if !digest = "" then bad "missing digest line";
      if !step < 0 then bad "missing step line";
      Ok
        {
          model_name = !model_name;
          digest = !digest;
          step = !step;
          regs = List.rev !regs;
          fu_out = List.rev !fu_out;
          fu_slots = List.rev !fu_slots;
          trace = List.rev !trace;
          out_writes = List.rev !out_writes;
          conflicts = List.rev !conflicts;
        }
    | _ -> Error "not a csrtl snapshot (bad magic line)"
  with Bad msg -> Error msg

let save path s =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_string oc (to_string s))

let load path =
  match
    let ic = open_in path in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
        really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error msg -> Error msg
  | text -> of_string text

let pp ppf s =
  Format.fprintf ppf "@[<v>snapshot of %s at step %d/%s@," s.model_name s.step
    s.digest;
  List.iter (fun (n, v) -> Format.fprintf ppf "  %s = %a@," n Word.pp v) s.regs;
  Format.fprintf ppf "@]"
