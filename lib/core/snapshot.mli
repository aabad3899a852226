(** Durable machine state at a control-step boundary.

    The six-phase discipline makes every control-step boundary a
    quiescent point (SEMANTICS §10): after [cr] of step [k] every bus
    and port has been released — or is about to be released, with no
    reader left to observe it — so the complete machine state is the
    register contents plus the functional-unit pipelines.  A snapshot
    captures exactly that, together with the observation prefix
    (register trace, output writes, conflicts) accumulated so far, so
    that resuming from a snapshot reproduces the uninterrupted run's
    {!Observation} bit for bit.

    Snapshots are engine-independent: the kernel, the interpreter and
    the static-schedule arena ({!Batch}) all capture and accept the
    same value,
    and for the same model and step they produce byte-identical
    serializations.  Snapshots are only defined for uninjected
    (golden) runs; resuming {e with} an injection is how fault
    campaigns skip the fault-free prefix. *)

type t = {
  model_name : string;
  digest : string;
      (** hex digest of the canonical model text ({!digest_of_model});
          guards against restoring into a different model *)
  step : int;  (** completed control steps, [0 <= step <= cs_max] *)
  regs : (string * Word.t) list;  (** declaration order *)
  fu_out : (string * Word.t) list;
      (** output-port latch of each unit, declaration order *)
  fu_slots : (string * Word.t array) list;
      (** pipeline slots of each unit, newest first *)
  trace : (string * Word.t array) list;
      (** per-register observed values for steps [1..step] *)
  out_writes : (string * (int * Word.t)) list;
      (** output-port writes so far, chronological *)
  conflicts : (int * Phase.t * string) list;
      (** conflicts so far, sorted canonically (step, phase, sink) *)
}

val digest_of_model : Model.t -> string
(** Hex digest of [Rtm.to_string m] — the canonical model text. *)

val sort_conflicts :
  (int * Phase.t * string) list -> (int * Phase.t * string) list
(** Canonical order: by step, then phase, then sink name.  Engines
    discover simultaneous conflicts in different (equivalent) orders;
    snapshots store the sorted form so serializations agree. *)

val validate : ?digest:string -> Model.t -> t -> (unit, string) result
(** Structural compatibility with a model: digest, step range,
    register/unit names and order, pipeline depths, trace lengths,
    output writes (declared ports, each written at most once per step
    and in step order).
    [digest], when given, must be [digest_of_model m]: a caller that
    already holds it (a campaign restoring the checkpoints it captured
    from [m]) skips re-rendering and hashing the model, and every
    other check still runs.  A file loaded from disk is checked
    without it. *)

val validate_exn : ?digest:string -> Model.t -> t -> unit
(** Raises [Invalid_argument] when {!validate} fails. *)

val equal : t -> t -> bool

val to_string : t -> string
(** Stable line-based text form; [of_string (to_string s) = Ok s]. *)

val of_string : string -> (t, string) result

val save : string -> t -> unit
(** Write [to_string] to a file. *)

val load : string -> (t, string) result
(** Read a file written by {!save}; [Error] on I/O or parse failure. *)

val pp : Format.formatter -> t -> unit
