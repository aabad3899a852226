(** A complete clock-free register-transfer model (paper §2.7).

    "A concrete register transfer model consists of ... the control
    step and phase signals, ... ports of functional units and the
    buses, register, module and transfer processes."  Here a model is
    the declarative description; {!Elaborate} turns it into kernel
    processes and {!Interp} executes it directly. *)

type register = {
  reg_name : string;
  init : Word.t;  (** usually [Word.disc]; registers drive their
                      output only once a first value was latched *)
}

type fu = {
  fu_name : string;
  ops : Ops.t list;  (** operations selectable by transfers; nonempty *)
  latency : int;  (** control steps from operand read to result write *)
  pipelined : bool;  (** if false, overlapping uses produce ILLEGAL *)
  sticky_illegal : bool;
      (** paper ADD semantics: once the internal variable is ILLEGAL
          it stays ILLEGAL *)
}

type input_drive =
  | Const of Word.t  (** the port holds one value for the whole run *)
  | Schedule of (int * Word.t) list
      (** step [s] onwards the port holds the mapped value; steps
          before the first entry read [Word.disc] *)

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

val register : ?init:Word.t -> string -> register
val fu :
  ?latency:int -> ?pipelined:bool -> ?sticky_illegal:bool ->
  ops:Ops.t list -> string -> fu

val input_value : input -> int -> Word.t
(** Value the input port presents during the given control step. *)

val signal_names : t -> string list
(** Every resource-signal name the elaboration declares for this
    model: buses, [R.in]/[R.out] per register, [F.in1]/[F.in2]/[F.out]/
    [F.op] per unit, input and output ports.  Both execution paths use
    it to reject injections on nonexistent sinks identically. *)

val find_register : t -> string -> register option
val find_fu : t -> string -> fu option
val fu_latency : t -> string -> int
(** Latency of a unit, 1 if unknown (used by {!Transfer.merge}). *)

val effective_op : t -> Transfer.t -> Ops.t option
(** The operation a tuple selects: its [op] field or the unit's first
    operation; [None] if the tuple has no read part or no unit. *)

type error = {
  transfer : Transfer.t option;
  message : string;
}

val validate : t -> error list
(** Static well-formedness: unique names; referenced resources exist;
    steps within [1, cs_max]; operation supported by the unit and of
    matching arity; full tuples respect [write = read + latency];
    stateful operations only on latency-1 units. *)

val validate_exn : t -> unit
(** Raises [Invalid_argument] with all messages if {!validate} is
    nonempty. *)

val error_to_diag : t -> error -> Csrtl_diag.Diag.t
(** A validation error in the shared diagnostic type (rule
    [model.validate]); the message names the model and, for tuple
    errors, the transfer's unit. *)

val check_limits :
  ?limits:Csrtl_diag.Diag.Limits.t -> t -> Csrtl_diag.Diag.t list
(** Resource-guard check of the elaborated size — registers, units,
    buses, control steps, transfers — against the caps (rule
    [limits.model]).  Empty when the model is within bounds. *)

val validate_diags :
  ?limits:Csrtl_diag.Diag.Limits.t -> t -> Csrtl_diag.Diag.t list
(** {!check_limits} followed by {!validate}, all as diagnostics; the
    no-crash entry point for untrusted models. *)

val all_legs : t -> Transfer.leg list * Transfer.op_select list
(** Decomposition of every transfer, with operation defaults filled
    in from the units.  The last model asked about is remembered by
    physical identity: a second call on it returns the same lists and
    allocates nothing.  Safe to call from any domain. *)

val pp_error : Format.formatter -> error -> unit
val pp : Format.formatter -> t -> unit
