(* Fault-run classification, shared by {!Campaign} (which produces
   outcomes) and {!Journal} (which persists them).  A separate module
   only to break the dependency cycle; {!Campaign} re-exports the
   constructors, so [Campaign.Masked] keeps working everywhere. *)

open Csrtl_core

type t =
  | Masked
  | Detected of int * Phase.t * string
  | Corrupted of { count : int; first : string }
      (** how many lines {!Csrtl_core.Observation.diff} lists, and the
          first of them *)
  | Hung of string
  | Crashed of string

let agree a b =
  match a, b with
  | Masked, Masked -> true
  | Detected (s1, p1, n1), Detected (s2, p2, n2) ->
    s1 = s2 && Phase.equal p1 p2 && n1 = n2
  | Corrupted _, Corrupted _ -> true
  (* the interpreter cannot hang (fixed iteration count), so a kernel
     hang is intrinsically a disagreement unless the interpreter
     crashed trying *)
  | Hung _, Hung _ -> true
  | Crashed _, Crashed _ -> true
  | _, _ -> false

let to_string = function
  | Masked -> "masked"
  | Detected (s, p, n) ->
    String.concat ""
      [ "detected at ("; string_of_int s; ", "; Phase.to_string p; ") on "; n ]
  | Corrupted { count; _ } ->
    "silent corruption (" ^ string_of_int count ^ " differences)"
  | Hung why -> "hung: " ^ why
  | Crashed why -> "crashed: " ^ why

let pp ppf o = Format.pp_print_string ppf (to_string o)
