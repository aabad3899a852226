(* Crash-durable campaign journal: one JSON object per line, appended
   and flushed as each fault finishes, so a killed campaign loses at
   most the entry being written.  Every entry carries an integrity
   hash over (model digest, entry body); a torn tail line or a line
   from a different campaign fails the hash and is re-run on resume
   instead of poisoning the report.

   There is no JSON library in the toolchain, so a minimal generator
   and recursive-descent parser for the subset we emit (objects,
   arrays, strings, integers, booleans) live here.  The writer is
   mutex-protected: parallel campaigns append from worker domains. *)

open Csrtl_core

(* ------------------------------------------------------------------ *)
(* JSON subset                                                        *)
(* ------------------------------------------------------------------ *)

module Json = struct
  type t =
    | Bool of bool
    | Int of int
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  let buf_add_escaped b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

  let rec buf_add_json b = function
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Int i -> Buffer.add_string b (string_of_int i)
  | Str s ->
    Buffer.add_char b '"';
    buf_add_escaped b s;
    Buffer.add_char b '"'
  | Arr vs ->
    Buffer.add_char b '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char b ',';
        buf_add_json b v)
      vs;
    Buffer.add_char b ']'
  | Obj fields ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        buf_add_json b (Str k);
        Buffer.add_char b ':';
        buf_add_json b v)
      fields;
    Buffer.add_char b '}'

  let to_string v =
    let b = Buffer.create 128 in
    buf_add_json b v;
    Buffer.contents b

  exception Bad of string

  let fail_at pos msg = raise (Bad (Printf.sprintf "%s at offset %d" msg pos))

  (* The one JSON string unescaper.  Reads the literal opening at
     [!pos] and leaves [pos] just past its closing quote.  A literal
     without escapes is one [String.sub].  With [canonical], only the
     bytes [buf_add_escaped] writes are accepted: no raw control byte,
     no [\/], and a [\u] escape only in the lower-case [%04x] form of a
     control byte that has no short escape — so a decoded string
     re-escapes to exactly the bytes it was read from. *)
  let read_string ?(canonical = false) s pos =
    let n = String.length s in
    if !pos >= n || s.[!pos] <> '"' then fail_at !pos "expected \"";
    incr pos;
    let start = !pos in
    let rec plain i =
      if i >= n then (pos := i; fail_at i "unterminated string")
      else
        match s.[i] with
        | '"' -> i
        | '\\' -> -1
        | c when canonical && Char.code c < 0x20 ->
          fail_at i "raw control byte in string"
        | _ -> plain (i + 1)
    in
    match plain start with
    | stop when stop >= 0 ->
      pos := stop + 1;
      String.sub s start (stop - start)
    | _ ->
      let b = Buffer.create 16 in
      let rec loop () =
        if !pos >= n then fail_at !pos "unterminated string";
        match s.[!pos] with
        | '"' -> incr pos
        | '\\' ->
          incr pos;
          if !pos >= n then fail_at !pos "unterminated escape";
          (match s.[!pos] with
           | '"' -> Buffer.add_char b '"'
           | '\\' -> Buffer.add_char b '\\'
           | '/' when not canonical -> Buffer.add_char b '/'
           | 'n' -> Buffer.add_char b '\n'
           | 't' -> Buffer.add_char b '\t'
           | 'r' -> Buffer.add_char b '\r'
           | 'u' ->
             if !pos + 4 >= n then fail_at !pos "truncated \\u escape";
             let hex = String.sub s (!pos + 1) 4 in
             (match int_of_string_opt ("0x" ^ hex) with
              | Some code
                when canonical
                     && (code >= 0x20 || code = 0x09 || code = 0x0a
                         || code = 0x0d
                         || hex <> Printf.sprintf "%04x" code) ->
                fail_at !pos "non-canonical \\u escape"
              | Some code when code < 0x80 -> Buffer.add_char b (Char.chr code)
              | Some _ -> fail_at !pos "non-ASCII \\u escape"
              | None -> fail_at !pos "bad \\u escape");
             pos := !pos + 4
           | _ -> fail_at !pos "unknown escape");
          incr pos;
          loop ()
        | c when canonical && Char.code c < 0x20 ->
          fail_at !pos "raw control byte in string"
        | c ->
          Buffer.add_char b c;
          incr pos;
          loop ()
      in
      loop ();
      Buffer.contents b

  (* [max_depth] bounds container nesting: this parser also sits on the
     serve daemon's wire frontier, where an adversarial ["[[[[..."] line
     must yield a [Bad] diagnostic, not a stack overflow.  Journal lines
     nest two levels deep; the default leaves ample headroom. *)
  let parse ?(max_depth = 64) (s : string) : t =
    let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail msg = fail_at !pos msg in
  let skip_ws () =
    while
      !pos < n && (match s.[!pos] with ' ' | '\t' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    if peek () = Some c then advance ()
    else fail (Printf.sprintf "expected %c" c)
  in
  let literal lit v =
    if !pos + String.length lit <= n && String.sub s !pos (String.length lit) = lit
    then (pos := !pos + String.length lit; v)
    else fail ("expected " ^ lit)
  in
  let parse_string () = read_string s pos in
    let rec parse_value depth =
      if depth > max_depth then fail "nesting too deep";
      skip_ws ();
      match peek () with
      | Some '"' -> Str (parse_string ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then (advance (); Obj [])
        else
          let rec fields acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value (depth + 1) in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); fields ((k, v) :: acc)
            | Some '}' -> advance (); Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected , or }"
          in
          fields []
      | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then (advance (); Arr [])
        else
          let rec items acc =
            let v = parse_value (depth + 1) in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); items (v :: acc)
            | Some ']' -> advance (); Arr (List.rev (v :: acc))
            | _ -> fail "expected , or ]"
          in
          items []
      | Some ('-' | '0' .. '9') ->
        let start = !pos in
        if peek () = Some '-' then advance ();
        while
          !pos < n && match s.[!pos] with '0' .. '9' -> true | _ -> false
        do
          advance ()
        done;
        (match int_of_string_opt (String.sub s start (!pos - start)) with
         | Some i -> Int i
         | None -> fail "bad integer")
      | _ -> fail "expected a JSON value"
    in
    let v = parse_value 0 in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v

  let field name = function
    | Obj fields -> List.assoc_opt name fields
    | _ -> None

  let str_field name j =
    match field name j with
    | Some (Str s) -> s
    | _ -> raise (Bad (Printf.sprintf "missing string field %S" name))

  let int_field name j =
    match field name j with
    | Some (Int i) -> i
    | _ -> raise (Bad (Printf.sprintf "missing integer field %S" name))

  let bool_field name j =
    match field name j with
    | Some (Bool v) -> v
    | _ -> raise (Bad (Printf.sprintf "missing boolean field %S" name))
end

open Json

let json_to_string = Json.to_string
let parse_json s = Json.parse s
let field = Json.field
let str_field = Json.str_field
let int_field = Json.int_field

(* ------------------------------------------------------------------ *)
(* Wire types                                                         *)
(* ------------------------------------------------------------------ *)

type header = {
  model : string;
  digest : string;  (** {!Csrtl_core.Snapshot.digest_of_model} *)
  config : string;  (** {!config_tag} of the campaign's kernel config *)
  total : int;
  faults_digest : string;
}

type entry = {
  index : int;
  fault_label : string;
  kernel : Outcome.t;
  interp : Outcome.t;
  cycles : int;
  law_ok : bool;
}

let config_tag (c : Simulate.config) =
  Printf.sprintf "%s+%s+%s"
    (match c.Simulate.wait_impl with `Keyed -> "keyed" | `Predicate -> "pred")
    (match c.Simulate.resolution_impl with
     | `Incremental -> "incr"
     | `Fold -> "fold")
    (match c.Simulate.on_illegal with
     | Simulate.Halt -> "halt"
     | Simulate.Record -> "record"
     | Simulate.Degrade -> "degrade")

let faults_digest labels =
  Digest.to_hex
    (Digest.string (String.concat "\n" labels))

(* ------------------------------------------------------------------ *)
(* Outcome (de)serialization                                          *)
(* ------------------------------------------------------------------ *)

let json_of_outcome = function
  | Outcome.Masked -> Obj [ ("o", Str "masked") ]
  | Outcome.Detected (step, phase, sink) ->
    Obj
      [ ("o", Str "detected"); ("step", Int step);
        ("phase", Str (Phase.to_string phase)); ("sink", Str sink) ]
  | Outcome.Corrupted { count; first } ->
    Obj [ ("o", Str "corrupted"); ("n", Int count); ("first", Str first) ]
  | Outcome.Hung why -> Obj [ ("o", Str "hung"); ("why", Str why) ]
  | Outcome.Crashed why -> Obj [ ("o", Str "crashed"); ("why", Str why) ]

let outcome_of_json j =
  match str_field "o" j with
  | "masked" -> Outcome.Masked
  | "detected" ->
    let phase =
      match Phase.of_string (str_field "phase" j) with
      | Some p -> p
      | None -> raise (Bad "bad phase in detected outcome")
    in
    Outcome.Detected (int_field "step" j, phase, str_field "sink" j)
  | "corrupted" ->
    let count = int_field "n" j in
    if count < 1 then raise (Bad "corrupted outcome with no differences");
    Outcome.Corrupted { count; first = str_field "first" j }
  | "hung" -> Outcome.Hung (str_field "why" j)
  | "crashed" -> Outcome.Crashed (str_field "why" j)
  | other -> raise (Bad (Printf.sprintf "unknown outcome %S" other))

(* ------------------------------------------------------------------ *)
(* Lines                                                              *)
(* ------------------------------------------------------------------ *)

(* v2 records silent corruption as a count plus its first difference
   ({"o":"corrupted","n":N,"first":S}); v1 listed every difference, so
   a v1 journal is refused, never misread. *)
let version = 2

let header_line h =
  json_to_string
    (Obj
       [ ("journal", Str "csrtl-fault-campaign"); ("v", Int version);
         ("model", Str h.model); ("digest", Str h.digest);
         ("config", Str h.config); ("total", Int h.total);
         ("faults", Str h.faults_digest) ])

let header_of_line line =
  let j = parse_json line in
  if field "journal" j <> Some (Str "csrtl-fault-campaign") then
    raise (Bad "not a campaign journal");
  if field "v" j <> Some (Int version) then
    raise (Bad "unsupported journal version");
  { model = str_field "model" j; digest = str_field "digest" j;
    config = str_field "config" j; total = int_field "total" j;
    faults_digest = str_field "faults" j }

(* The integrity hash binds an entry to its campaign: md5 over the
   model digest and the entry body (the line without the "h" field).
   A line truncated by a crash, or copied from another campaign's
   journal, fails the check and counts as torn. *)
let entry_body (e : entry) =
  json_to_string
    (Obj
       [ ("i", Int e.index); ("fault", Str e.fault_label);
         ("kernel", json_of_outcome e.kernel);
         ("interp", json_of_outcome e.interp); ("cycles", Int e.cycles);
         ("law_ok", Bool e.law_ok) ])

let entry_hash ~digest body = Digest.to_hex (Digest.string (digest ^ body))

let entry_line ~digest e =
  let body = entry_body e in
  let h = entry_hash ~digest body in
  json_to_string
    (Obj
       [ ("i", Int e.index); ("fault", Str e.fault_label);
         ("kernel", json_of_outcome e.kernel);
         ("interp", json_of_outcome e.interp); ("cycles", Int e.cycles);
         ("law_ok", Bool e.law_ok); ("h", Str h) ])

(* An entry line is decoded in one pass over its own bytes, without a
   JSON tree: each field must sit exactly where [entry_line] puts it,
   in its exact spelling, so a line that decodes re-encodes to itself.
   The hash then covers the line's own body bytes — everything before
   [,"h":] plus the closing brace — and nothing is re-serialized.  Any
   other line (reordered fields, added whitespace, a truncation, a
   foreign or non-canonical escape) is torn: re-run, never misread. *)
exception Torn

let decode ~digest s start stop =
  let pos = ref start in
  let lit l =
    let k = String.length l in
    if !pos + k > stop then raise Torn;
    for j = 0 to k - 1 do
      if String.unsafe_get s (!pos + j) <> String.unsafe_get l j then
        raise Torn
    done;
    pos := !pos + k
  in
  let int () =
    let neg = !pos < stop && s.[!pos] = '-' in
    if neg then incr pos;
    let first = !pos in
    (* accumulated as a non-positive number, so [min_int] fits *)
    let acc = ref 0 in
    while !pos < stop && s.[!pos] >= '0' && s.[!pos] <= '9' do
      let d = Char.code s.[!pos] - 48 in
      if !acc < (min_int + d) / 10 then raise Torn;
      acc := (!acc * 10) - d;
      incr pos
    done;
    let len = !pos - first in
    if len = 0 || (s.[first] = '0' && (len > 1 || neg)) then raise Torn;
    if neg then !acc else if !acc = min_int then raise Torn else - !acc
  in
  let str () =
    (* a canonical string holds no raw newline, so it cannot run past
       [stop] into the next line *)
    match Json.read_string ~canonical:true s pos with
    | v -> v
    | exception Bad _ -> raise Torn
  in
  let outcome () =
    lit "{\"o\":";
    let o =
      match str () with
      | "masked" -> Outcome.Masked
      | "detected" ->
        lit ",\"step\":";
        let step = int () in
        lit ",\"phase\":";
        let name = str () in
        let phase =
          match Phase.of_string name with
          | Some p when Phase.to_string p = name -> p
          | _ -> raise Torn
        in
        lit ",\"sink\":";
        Outcome.Detected (step, phase, str ())
      | "corrupted" ->
        lit ",\"n\":";
        let count = int () in
        if count < 1 then raise Torn;
        lit ",\"first\":";
        Outcome.Corrupted { count; first = str () }
      | "hung" ->
        lit ",\"why\":";
        Outcome.Hung (str ())
      | "crashed" ->
        lit ",\"why\":";
        Outcome.Crashed (str ())
      | _ -> raise Torn
    in
    lit "}";
    o
  in
  lit "{\"i\":";
  let index = int () in
  lit ",\"fault\":";
  let fault_label = str () in
  lit ",\"kernel\":";
  let kernel = outcome () in
  lit ",\"interp\":";
  let interp = outcome () in
  lit ",\"cycles\":";
  let cycles = int () in
  lit ",\"law_ok\":";
  let law_ok =
    if !pos < stop && s.[!pos] = 't' then (lit "true"; true)
    else (lit "false"; false)
  in
  let body_end = !pos in
  lit ",\"h\":\"";
  let h = !pos in
  pos := h + 32;
  lit "\"}";
  if !pos <> stop then raise Torn;
  let dl = String.length digest and bl = body_end - start in
  let b = Bytes.create (dl + bl + 1) in
  Bytes.blit_string digest 0 b 0 dl;
  Bytes.blit_string s start b dl bl;
  Bytes.set b (dl + bl) '}';
  let want = Digest.to_hex (Digest.bytes b) in
  for j = 0 to 31 do
    if s.[h + j] <> want.[j] then raise Torn
  done;
  { index; fault_label; kernel; interp; cycles; law_ok }

let entry_of_line ~digest line =
  match decode ~digest line 0 (String.length line) with
  | e -> Some e
  | exception Torn -> None

(* ------------------------------------------------------------------ *)
(* Writer                                                             *)
(* ------------------------------------------------------------------ *)

(* Fault-injection seam for the chaos harness: armed injections are
   consulted before each journal I/O operation, [[]] in production (one
   load per append).  An injection that fires raises the errno a full
   or dying disk would, so the daemon's crash-only recovery path can be
   driven deterministically.  Injections are plain data so that a
   supervisor can hand them to the worker processes it spawns; each
   process counts matching operations from its own arming. *)
type injection = {
  path : string;
  op : [ `Create | `Append | `Sync ];
  nth : int;
  errno : [ `ENOSPC | `EIO ];
}

let armed : (injection * int Atomic.t) list Atomic.t = Atomic.make []
let chaos () = List.map fst (Atomic.get armed)

let set_chaos injs =
  Atomic.set armed (List.map (fun i -> (i, Atomic.make 0)) injs)

let chaos_poke op path =
  match Atomic.get armed with
  | [] -> ()
  | armed ->
    List.iter
      (fun (i, count) ->
        if i.op = op && i.path = path
           && Atomic.fetch_and_add count 1 + 1 = i.nth
        then
          raise
            (Unix.Unix_error
               ( (match i.errno with `ENOSPC -> Unix.ENOSPC | `EIO -> Unix.EIO),
                 (match op with
                  | `Create -> "open"
                  | `Append -> "write"
                  | `Sync -> "fsync"),
                 path )))
      armed

type writer = {
  oc : out_channel;
  path : string;
  digest : string;
  lock : Mutex.t;
}

(* Durability of the file's *existence*: creating and fsyncing a file
   pins its bytes, but the name lives in the directory — until the
   directory is fsynced too, a crash can forget the journal entirely
   and a resumed campaign silently starts from zero. *)
let fsync_dir path =
  match Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY ] 0 with
  | fd ->
    Fun.protect
      ~finally:(fun () ->
        try Unix.close fd with Unix.Unix_error (_, _, _) -> ())
      (fun () -> try Unix.fsync fd with Unix.Unix_error (_, _, _) -> ())
  | exception Unix.Unix_error (_, _, _) -> ()

let start path (h : header) =
  chaos_poke `Create path;
  (* O_APPEND even for a fresh journal: if two daemons race on the same
     path (or a stale writer survives a partial shutdown), appends from
     both interleave at line granularity instead of overwriting each
     other — the reader's integrity hash then sorts out any torn line *)
  let oc =
    open_out_gen [ Open_wronly; Open_creat; Open_trunc; Open_append ] 0o644 path
  in
  output_string oc (header_line h);
  output_char oc '\n';
  flush oc;
  fsync_dir path;
  { oc; path; digest = h.digest; lock = Mutex.create () }

let reopen path (h : header) =
  (* a crash can leave a torn final line without its newline; seal it
     so the next append starts a fresh line and the torn one stays an
     isolated parse failure *)
  let needs_newline =
    match open_in_bin path with
    | ic ->
      let len = in_channel_length ic in
      let missing =
        len > 0
        && (seek_in ic (len - 1);
            input_char ic <> '\n')
      in
      close_in ic;
      missing
    | exception Sys_error _ -> false
  in
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  if needs_newline then (output_char oc '\n'; flush oc);
  { oc; path; digest = h.digest; lock = Mutex.create () }

let append w (e : entry) =
  let line = entry_line ~digest:w.digest e in
  Mutex.lock w.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock w.lock)
    (fun () ->
      chaos_poke `Append w.path;
      output_string w.oc line;
      output_char w.oc '\n';
      flush w.oc)

let sync w =
  Mutex.lock w.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock w.lock)
    (fun () ->
      chaos_poke `Sync w.path;
      flush w.oc;
      (* flush hands the bytes to the kernel; fsync pins them to the
         platter.  Called at checkpoint boundaries (campaign completion,
         daemon drain) — per-entry fsync would serialize the campaign on
         disk latency for durability nobody asked for *)
      try Unix.fsync (Unix.descr_of_out_channel w.oc)
      with Unix.Unix_error (_, _, _) -> ())

let close w = close_out w.oc

(* ------------------------------------------------------------------ *)
(* Reader                                                             *)
(* ------------------------------------------------------------------ *)

let is_blank s start stop =
  let rec go i =
    i >= stop
    || (match s.[i] with
        | ' ' | '\t' | '\n' | '\r' | '\012' -> go (i + 1)
        | _ -> false)
  in
  go start

let of_string text : (header * entry list * int, string) result =
  let len = String.length text in
  let line_end i =
    match String.index_from_opt text i '\n' with Some j -> j | None -> len
  in
  if len = 0 then Error "empty journal (no header line)"
  else
    let first = line_end 0 in
    match header_of_line (String.sub text 0 first) with
    | exception Bad msg -> Error (Printf.sprintf "bad journal header: %s" msg)
    | h ->
      let torn = ref 0 in
      let seen = Hashtbl.create 64 in
      let rec lines acc i =
        if i >= len then List.rev acc
        else
          let stop = line_end i in
          let acc =
            if is_blank text i stop then acc
            else
              match decode ~digest:h.digest text i stop with
              | e when e.index >= 0 && e.index < h.total
                       && not (Hashtbl.mem seen e.index) ->
                Hashtbl.replace seen e.index ();
                e :: acc
              | _ | (exception Torn) -> incr torn; acc
          in
          lines acc (stop + 1)
      in
      let entries = lines [] (first + 1) in
      Ok (h, entries, !torn)

let read path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | text -> of_string text
