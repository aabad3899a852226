(** Crash-durable campaign journal (JSONL).

    A campaign appends one line per finished fault.  The lines of one
    work item (a batched chunk, or a single kernel-path fault) are
    written and flushed together, so a killed run loses at most the
    work item in flight.
    The header line pins the campaign identity (model name, model
    digest, kernel-config tag, fault count, digest of the fault
    labels); each entry line carries an md5 integrity hash over the
    model digest and the entry body.  {!read} treats any line that
    is not exactly what the writer emits, fails its hash, is out of
    range, or duplicates an index as {e torn}: reported by count and
    re-run on resume, never folded into a report.

    The format is version 2: a corrupted outcome is stored as its
    difference count and first difference,
    [{"o":"corrupted","n":N,"first":S}].  A journal of any other
    version fails {!read} with "unsupported journal version". *)

open Csrtl_core

(** The JSON subset the journal speaks (objects, arrays, strings,
    integers, booleans) — there is no JSON library in the toolchain, so
    this generator/parser pair is shared with the serve daemon's wire
    frames.  {!Json.parse} is total modulo {!Json.Bad}: malformed
    input, over-deep nesting, and non-ASCII escapes all raise [Bad],
    never anything else. *)
module Json : sig
  type t =
    | Bool of bool
    | Int of int
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  exception Bad of string

  val to_string : t -> string

  val parse : ?max_depth:int -> string -> t
  (** Parse one value spanning the whole string (trailing garbage is
      [Bad]).  [max_depth] (default 64) bounds container nesting so a
      hostile ["[[[[..."] frame cannot overflow the stack. *)

  val field : string -> t -> t option
  (** [field k (Obj ...)] — [None] for a missing key or a non-object. *)

  val str_field : string -> t -> string
  (** Raise {!Bad} when missing or not a string; similarly below. *)

  val int_field : string -> t -> int
  val bool_field : string -> t -> bool
end

type header = {
  model : string;
  digest : string;  (** {!Csrtl_core.Snapshot.digest_of_model} *)
  config : string;  (** {!config_tag} of the campaign's kernel config *)
  total : int;  (** faults in the campaign *)
  faults_digest : string;  (** {!faults_digest} of the fault labels *)
}

type entry = {
  index : int;  (** position in the campaign's fault list *)
  fault_label : string;  (** {!Fault.to_string}, cross-checked on resume *)
  kernel : Outcome.t;
  interp : Outcome.t;
  cycles : int;
  law_ok : bool;
}

val config_tag : Simulate.config -> string
(** Stable tag of the config fields that shape outcomes, e.g.
    ["keyed+incr+record"].  (The watchdog flag is excluded: campaigns
    always force it on.) *)

val faults_digest : string list -> string
(** md5 over the newline-joined fault labels — resuming against a
    different fault list (other [--limit], edited model) must be
    rejected, not silently misindexed. *)

val json_of_outcome : Outcome.t -> Json.t

val outcome_of_json : Json.t -> Outcome.t
(** Raises {!Json.Bad} on anything {!json_of_outcome} would not
    produce.  Exposed so the serve daemon can stream journal-shaped
    entry objects over the wire without a second codec. *)

type writer
(** Append handle; thread-safe (one mutex-protected write+flush per
    {!append}), shared across pool domains.  The file is opened with
    [O_APPEND], so concurrent writers interleave at line granularity
    instead of clobbering each other's offsets. *)

type injection = {
  path : string;  (** the journal it targets, so concurrent healthy
                      campaigns are left alone *)
  op : [ `Create | `Append | `Sync ];
  nth : int;  (** the [nth] such operation on [path] fails (1-based);
                  every other one succeeds *)
  errno : [ `ENOSPC | `EIO ];
}
(** One scheduled journal I/O failure.  Plain data, so a supervisor
    can hand its armed injections to the worker processes it spawns. *)

val set_chaos : injection list -> unit
(** Fault-injection seam for the chaos harness ([lib/chaos]): arm
    these injections in this process, replacing any armed before and
    counting operations afresh; [[]] disarms.  An injection that fires
    raises [Unix.Unix_error] with its errno before the operation
    touches the file, exactly as a full or dying disk would.  Nothing
    is armed in production — the cost is one atomic load per
    create/append/sync.  Set only from tests and harnesses. *)

val chaos : unit -> injection list
(** The injections armed in this process. *)

val start : string -> header -> writer
(** Truncate/create the file and write the header line.  The
    containing directory is fsynced after creation so a crash just
    after [start] cannot forget the file's very existence (the data
    fsync at checkpoints would otherwise pin bytes for a name that
    never got pinned). *)

val reopen : string -> header -> writer
(** Open for append, trusting the caller verified the on-disk header
    (see {!read}).  If a crash left a torn final line without its
    newline, a newline is inserted first so the torn line stays an
    isolated parse failure. *)

val append : writer -> entry list -> unit
(** Append one work item's entries and flush once: each line is built
    by {!entry_line} and passes the [`Append] injection seam on its
    own, and all of them reach the kernel in one write. *)

val sync : writer -> unit
(** Flush and [fsync] — a checkpoint boundary.  Appends are flushed
    per work item (a crash loses at most the item being written); [sync]
    additionally survives the machine dying, so campaigns call it at
    completion and the daemon at drain points.  fsync failure (e.g. a
    filesystem that refuses it) is swallowed: durability degrades, the
    journal stays usable. *)

val close : writer -> unit

val header_line : header -> string
(** The first line of a journal for this campaign, without its
    newline. *)

val entry_line : digest:string -> entry -> string
(** The line {!append} writes for [e] in a journal whose header
    carries the model digest [digest], without its newline. *)

val entry_of_line : digest:string -> string -> entry option
(** The inverse of {!entry_line}, decoded in one pass over the line's
    own bytes: [Some e] exactly when the line is, byte for byte, what
    [entry_line ~digest e] writes.  Anything else — a truncation, a
    failed hash, a line hashed under another digest, reordered fields,
    added whitespace, a non-canonical escape — is [None], a torn
    line. *)

val read : string -> (header * entry list * int, string) result
(** [Ok (header, entries, torn)] — [entries] are the lines that
    decode and pass their integrity hash, first occurrence winning per
    index; [torn] counts the rest.  The hash covers the line's own
    body bytes (everything before [,"h":], then the closing brace), so
    nothing is re-serialized to check it, and a line that is not
    byte for byte what the writer emits ({!entry_of_line}) counts as
    torn.  [Error] for an unreadable file or a malformed/alien header
    line. *)

val of_string : string -> (header * entry list * int, string) result
(** {!read} on a journal's contents: total on any bytes. *)
