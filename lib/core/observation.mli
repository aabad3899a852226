(** What a simulation of a clock-free model observes.

    Both execution paths — the event-driven kernel ({!Simulate}) and
    the direct control-step interpreter ({!Interp}) — produce this
    record, so consistency between the paper's semantics and the VHDL
    simulation semantics is checkable by structural equality. *)

type t = {
  model_name : string;
  cs_max : int;
  regs : (string * Word.t array) list;
      (** per register, the value at the {e end} of each control step
          (index [step - 1]); registers keep DISC until first latched *)
  outputs : (string * (int * Word.t) list) list;
      (** per output port, the non-DISC values seen at phase [cr],
          with their step *)
  conflicts : (int * Phase.t * string) list;
      (** resolved sinks that {e became} ILLEGAL: control step, phase
          at which the value is visible, canonical signal name *)
}

val reg_trace : t -> string -> Word.t array option
val final_reg : t -> string -> Word.t option
(** Register value after the last control step. *)

val output_writes : t -> string -> (int * Word.t) list
val has_conflict : t -> bool
val normalize : t -> t
(** Sort all association lists and conflict entries, for comparison. *)

val equal : t -> t -> bool
(** Equality modulo {!normalize}. *)

val diff : t -> t -> string list
(** Human-readable differences (empty iff {!equal}). *)

val witness_normalized : t -> t -> (int * string) option
(** How a campaign records silent corruption: the number of
    differences and the first one, [None] iff {!equal}, for two
    observations already passed through {!normalize} (a caller
    comparing many runs against one golden normalizes the golden
    once).  One walk with {!diff} that renders only the first line, so
    [witness_normalized (normalize a) (normalize b)] is
    [Some (List.length (diff a b), List.hd (diff a b))] whenever the
    diff is non-empty. *)

val to_string : t -> string
(** Versioned text serialization in {!Snapshot}'s line discipline
    (magic ["csrtl-observation 1"], one record per line, explicit end
    marker).  Round-trips exactly through {!of_string} — the on-disk
    golden-artifact cache embeds these bytes verbatim. *)

val of_string : string -> (t, string) result
(** Total inverse of {!to_string}: any input yields [Ok] or a
    human-readable [Error], never an exception. *)

val pp : Format.formatter -> t -> unit
