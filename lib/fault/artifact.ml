open Csrtl_core

(* The cacheable result of a campaign's golden work: both engines'
   clean observations and the measured golden wall cost that feeds
   chunk planning.  Content-addressed by (model digest, config tag):
   the digest covers the model text, so a changed model can never
   reuse a stale artifact.

   Golden checkpoints are deliberately absent, and so is the plan
   (compiled Sched + Batch closures).  Every control-step boundary is
   quiescent, so the golden state there is one compiled run away; a
   stored checkpoint would carry its whole observation prefix, making
   the artifact quadratic in schedule length, and parsing it costs
   more than recomputing it.  A warm campaign rebuilds the plan and
   the few checkpoints its kernel-path faults read, and skips the
   golden simulations. *)

type t = {
  digest : string;
  config : string;
  golden_k : Observation.t;
  golden_i : Observation.t;
  est_us : float;
}

(* ---- validation ------------------------------------------------- *)

let matches ~digest ~config_tag a =
  a.digest = digest && a.config = config_tag

let validate (m : Model.t) ~config a =
  let err fmt = Printf.ksprintf (fun msg -> Error msg) fmt in
  let digest = Snapshot.digest_of_model m in
  let tag = Journal.config_tag config in
  if a.digest <> digest then
    err "artifact digest %s does not match the model (%s)" a.digest digest
  else if a.config <> tag then
    err "artifact was built for config %s, not %s" a.config tag
  else if a.golden_k.Observation.model_name <> m.Model.name then
    err "artifact golden is of model %s, not %s"
      a.golden_k.Observation.model_name m.Model.name
  else if a.golden_i.Observation.model_name <> m.Model.name then
    err "artifact interpreter golden is of model %s, not %s"
      a.golden_i.Observation.model_name m.Model.name
  else Ok ()

(* ---- serialization ----------------------------------------------
   One versioned text format in {!Snapshot}'s line discipline.  The
   golden observations are embedded verbatim between section markers,
   so their own [end] lines never terminate the artifact — only the
   top-level [end] does. *)

let magic = "csrtl-artifact 2"

let to_string a =
  let b = Buffer.create 1024 in
  let line s =
    Buffer.add_string b s;
    Buffer.add_char b '\n'
  in
  line magic;
  line ("digest " ^ a.digest);
  line ("config " ^ a.config);
  line (Printf.sprintf "est_us %h" a.est_us);
  line "golden-kernel";
  Buffer.add_string b (Observation.to_string a.golden_k);
  line "golden-kernel-end";
  line "golden-interp";
  Buffer.add_string b (Observation.to_string a.golden_i);
  line "golden-interp-end";
  line "end";
  Buffer.contents b

exception Bad of string

let of_string text =
  let bad fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt in
  let lines =
    String.split_on_char '\n' text |> List.filter (fun l -> String.trim l <> "")
  in
  let section_text ls = String.concat "\n" (List.rev ls) ^ "\n" in
  try
    match lines with
    | m :: rest when String.trim m = magic ->
      let digest = ref "" and config = ref "" and est_us = ref 0. in
      let golden_k = ref None and golden_i = ref None in
      let seen_end = ref false in
      (* [section] is [Some (end_marker, deposit, accumulated)] while
         inside an embedded block; its lines are collected verbatim *)
      let section = ref None in
      List.iter
        (fun l ->
          match !section with
          | Some (marker, deposit, acc) ->
            if String.trim l = marker then begin
              deposit (section_text acc);
              section := None
            end
            else section := Some (marker, deposit, l :: acc)
          | None ->
            if !seen_end then bad "content after end marker";
            let fields =
              String.split_on_char ' ' l |> List.filter (fun t -> t <> "")
            in
            (match fields with
             | [ "digest"; d ] -> digest := d
             | [ "config"; c ] -> config := c
             | [ "est_us"; f ] ->
               (match float_of_string_opt f with
                | Some v when v >= 0. -> est_us := v
                | Some _ | None -> bad "bad est_us %S" f)
             | [ "golden-kernel" ] ->
               section :=
                 Some
                   ( "golden-kernel-end",
                     (fun t ->
                       match Observation.of_string t with
                       | Ok o -> golden_k := Some o
                       | Error msg -> bad "kernel golden: %s" msg),
                     [] )
             | [ "golden-interp" ] ->
               section :=
                 Some
                   ( "golden-interp-end",
                     (fun t ->
                       match Observation.of_string t with
                       | Ok o -> golden_i := Some o
                       | Error msg -> bad "interpreter golden: %s" msg),
                     [] )
             | [ "end" ] -> seen_end := true
             | _ -> bad "unrecognized line %S" l))
        rest;
      if !section <> None then bad "truncated artifact (unterminated section)";
      if not !seen_end then bad "truncated artifact (no end marker)";
      if !digest = "" then bad "missing digest line";
      if !config = "" then bad "missing config line";
      (match (!golden_k, !golden_i) with
       | Some golden_k, Some golden_i ->
         Ok
           {
             digest = !digest;
             config = !config;
             golden_k;
             golden_i;
             est_us = !est_us;
           }
       | None, _ -> bad "missing kernel golden"
       | _, None -> bad "missing interpreter golden")
    | _ -> Error "not a csrtl artifact (bad magic line)"
  with Bad msg -> Error msg

let save path a =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () -> try close_out oc with Sys_error _ -> ())
    (fun () -> output_string oc (to_string a));
  (* rename is atomic on POSIX: a concurrent reader sees the old bytes
     or the new, never a torn file *)
  Sys.rename tmp path

let load path =
  match
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error msg -> Error msg
  | text -> of_string text
