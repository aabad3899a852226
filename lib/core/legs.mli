(** Per-model facts about the transfer legs of {!Model.all_legs},
    computed once and read per fault.

    A fault campaign asks the same questions of every fault: which
    step a dropped leg sits in, when a sink is first written, whether a
    driver survives into the final [wb] slot.  Answering them by
    walking {!Model.all_legs} rebuilds the whole leg list per question;
    this table answers each in time proportional to the fault instead.
    A value is immutable after {!of_model}, so campaign domains share
    one read-only. *)

type t = private {
  model : Model.t;
  leg_step : int array;  (** per leg, in {!Model.all_legs} order *)
  first_write : (string, int) Hashtbl.t;
      (** per bus and per sink some leg writes: the earliest step a leg
          writes it, [cs_max + 1] for a bus no leg writes *)
  final_wb : int array;
      (** indices of the legs in the final step's [wb] slot, ascending *)
}

val of_model : Model.t -> t

val step : t -> int -> int option
(** The control step of the [index]-th leg, [None] when out of
    range. *)
