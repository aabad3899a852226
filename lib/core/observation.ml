type t = {
  model_name : string;
  cs_max : int;
  regs : (string * Word.t array) list;
  outputs : (string * (int * Word.t) list) list;
  conflicts : (int * Phase.t * string) list;
}

let reg_trace t name = List.assoc_opt name t.regs

let final_reg t name =
  match reg_trace t name with
  | Some arr when Array.length arr > 0 -> Some arr.(Array.length arr - 1)
  | Some _ | None -> None

let output_writes t name =
  Option.value ~default:[] (List.assoc_opt name t.outputs)

let has_conflict t = t.conflicts <> []

let compare_conflict (s1, p1, n1) (s2, p2, n2) =
  let c = Int.compare s1 s2 in
  if c <> 0 then c
  else
    let c = Phase.compare p1 p2 in
    if c <> 0 then c else String.compare n1 n2

let normalize t =
  let by_name (a, _) (b, _) = String.compare a b in
  { t with
    regs = List.sort by_name t.regs;
    outputs =
      List.map (fun (n, ws) -> (n, List.sort Stdlib.compare ws)) t.outputs
      |> List.sort by_name;
    conflicts = List.sort_uniq compare_conflict t.conflicts }

let equal a b = normalize a = normalize b

let cell_line n step x y =
  String.concat ""
    [ n; " at step "; string_of_int step; ": "; Word.to_string x; " vs ";
      Word.to_string y ]

(* The one walk behind [diff] and [witness_normalized]: [cell] gets
   each differing register-trace cell and [say] every other
   difference, in listing order.  [say] gets a renderer for its line
   and [cell] the cell's data, so a caller that only counts
   differences builds no strings and, per cell, allocates nothing: a
   corrupted run of a long schedule differs in about one cell per
   step.  Lines are plain concatenation, not [Format]; journals persist
   a corrupted run's first line, so the fault suite pins their bytes
   against a [Format.kasprintf] reference. *)
let walk_diff a b ~(say : (unit -> string) -> unit)
    ~(cell : string -> int -> Word.t -> Word.t -> unit) =
  if a.cs_max <> b.cs_max then
    say (fun () ->
        String.concat ""
          [ "cs_max: "; string_of_int a.cs_max; " vs "; string_of_int b.cs_max ]);
  let reg_names o = List.map fst o.regs in
  if reg_names a <> reg_names b then
    say (fun () ->
        String.concat ""
          [ "register sets differ: ["; String.concat " " (reg_names a);
            "] vs ["; String.concat " " (reg_names b); "]" ])
  else
    List.iter2
      (fun (n, va) (_, vb) ->
        if va <> vb then
          Array.iteri
            (fun i x ->
              if i < Array.length vb && x <> vb.(i) then
                cell n (i + 1) x vb.(i))
            va)
      a.regs b.regs;
  if a.outputs <> b.outputs then say (fun () -> "output traces differ");
  if a.conflicts <> b.conflicts then
    say (fun () ->
        let show (s, p, n) =
          String.concat "" [ string_of_int s; "/"; Phase.to_string p; ":"; n ]
        in
        String.concat ""
          [ "conflicts: ["; String.concat " " (List.map show a.conflicts);
            "] vs ["; String.concat " " (List.map show b.conflicts); "]" ])

let diff a b =
  let out = ref [] in
  walk_diff (normalize a) (normalize b)
    ~say:(fun line -> out := line () :: !out)
    ~cell:(fun n step x y -> out := cell_line n step x y :: !out);
  List.rev !out

let witness_normalized a b =
  let count = ref 0 and first = ref "" in
  walk_diff a b
    ~say:(fun line ->
      if !count = 0 then first := line ();
      incr count)
    ~cell:(fun n step x y ->
      if !count = 0 then first := cell_line n step x y;
      incr count);
  if !count = 0 then None else Some (!count, !first)

(* ---- serialization ----------------------------------------------
   Same line discipline as {!Snapshot}: one versioned magic line, one
   space-separated record per line, an explicit end marker.  The
   artifact cache embeds these bytes verbatim, so the format must
   round-trip exactly — [of_string (to_string t) = Ok t]. *)

let magic = "csrtl-observation 1"

let to_string t =
  let b = Buffer.create 512 in
  let line fmt =
    Printf.ksprintf
      (fun l ->
        Buffer.add_string b l;
        Buffer.add_char b '\n')
      fmt
  in
  let words a = String.concat " " (List.map Word.to_string (Array.to_list a)) in
  line "%s" magic;
  line "model %s" t.model_name;
  line "cs_max %d" t.cs_max;
  List.iter
    (fun (n, a) ->
      if Array.length a = 0 then line "reg %s" n else line "reg %s %s" n (words a))
    t.regs;
  List.iter
    (fun (n, ws) ->
      let pairs =
        String.concat " "
          (List.map
             (fun (s, v) -> Printf.sprintf "%d %s" s (Word.to_string v))
             ws)
      in
      if ws = [] then line "out %s" n else line "out %s %s" n pairs)
    t.outputs;
  List.iter
    (fun (s, p, n) -> line "conflict %d %s %s" s (Phase.to_string p) n)
    t.conflicts;
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
  let rec pairs = function
    | [] -> []
    | s :: v :: rest -> (int_of s, word v) :: pairs rest
    | [ odd ] -> bad "dangling output token %S" odd
  in
  let lines =
    String.split_on_char '\n' text |> List.filter (fun l -> String.trim l <> "")
  in
  let fields l = String.split_on_char ' ' l |> List.filter (fun t -> t <> "") in
  try
    match lines with
    | m :: rest when String.trim m = magic ->
      let model_name = ref "" and cs_max = ref (-1) in
      let regs = ref [] and outputs = ref [] and conflicts = ref [] in
      let seen_end = ref false in
      List.iter
        (fun l ->
          if !seen_end then bad "content after end marker";
          match fields l with
          | [ "model"; n ] -> model_name := n
          | [ "cs_max"; c ] -> cs_max := int_of c
          | "reg" :: n :: vs ->
            regs := (n, Array.of_list (List.map word vs)) :: !regs
          | "out" :: n :: toks -> outputs := (n, pairs toks) :: !outputs
          | [ "conflict"; s; p; n ] ->
            let p =
              match Phase.of_string p with
              | Some p -> p
              | None -> bad "bad phase %S" p
            in
            conflicts := (int_of s, p, n) :: !conflicts
          | [ "end" ] -> seen_end := true
          | _ -> bad "unrecognized line %S" l)
        rest;
      if not !seen_end then bad "truncated observation (no end marker)";
      if !model_name = "" then bad "missing model line";
      if !cs_max < 0 then bad "missing cs_max line";
      Ok
        {
          model_name = !model_name;
          cs_max = !cs_max;
          regs = List.rev !regs;
          outputs = List.rev !outputs;
          conflicts = List.rev !conflicts;
        }
    | _ -> Error "not a csrtl observation (bad magic line)"
  with Bad msg -> Error msg

let pp ppf t =
  Format.fprintf ppf "@[<v>observation of %s (cs_max=%d)@," t.model_name
    t.cs_max;
  List.iter
    (fun (n, arr) ->
      Format.fprintf ppf "  %s: %s@," n
        (String.concat " "
           (Array.to_list (Array.map Word.to_string arr))))
    t.regs;
  List.iter
    (fun (n, ws) ->
      Format.fprintf ppf "  out %s: %s@," n
        (String.concat " "
           (List.map
              (fun (s, v) -> Printf.sprintf "%d:%s" s (Word.to_string v))
              ws)))
    t.outputs;
  List.iter
    (fun (s, p, n) ->
      Format.fprintf ppf "  ILLEGAL at step %d phase %s on %s@," s
        (Phase.to_string p) n)
    t.conflicts;
  Format.fprintf ppf "@]"
