(** Fault taxonomy over clock-free models.

    A fault names a single structural corruption of a model's
    realization — not of the model text — and compiles to an
    {!Csrtl_core.Inject.t} plan that both execution paths apply
    identically (kernel: wrapped resolutions and saboteur processes;
    interpreter: tampered phase flips). *)

open Csrtl_core

type t =
  | Stuck_sink of { sink : string; value : Word.t }
      (** every resolution of the sink yields [value]; [sink] is a bus
          or a register output ([R.out]).  Stuck-at-ILLEGAL models a
          permanently conflicting net, stuck-at-DISC a net whose
          drivers never connect. *)
  | Dropped_leg of { index : int; desc : string }
      (** the [index]-th transfer leg of {!Model.all_legs} is never
          instantiated: an open switch in the interconnect *)
  | Extra_driver of { sink : string; step : int; phase : Phase.t; value : Word.t }
      (** a spurious driver contributes [value] to [sink] during
          (step, phase), releasing one phase later — a short between
          control lines *)
  | Fu_latency of { fu : string; latency : int }
      (** the unit's pipeline depth differs from what the schedule was
          validated against *)
  | Transient of { sink : string; step : int; phase : Phase.t; value : Word.t }
      (** a single-(step, phase) corruption of one resolution — an SEU
          at an exact visibility slot *)
  | Oscillator of { sink : string; step : int; phase : Phase.t }
      (** from (step, phase) on, a metastable driver toggles [sink]
          every delta cycle and never settles.  The kernel path
          livelocks (watchdog trip); the interpreter proves the
          missing fixpoint ({!Interp.Unstable}); a campaign classifies
          both as [Hung].  Not part of {!enumerate} — single-fault
          lists stay settle-able; inject it explicitly via
          [Campaign.run ~faults]. *)

val enumerate : ?limit:int -> Model.t -> t list
(** Deterministic single-fault list for a model: three stuck values
    per bus and per register output, every dropped leg, an extra
    driver on an active and on an idle slot per bus, latency [±1] per
    unit, and an ILLEGAL plus a value transient at the first write
    slot of each bus.  [limit] stride-subsamples the list (order
    preserved) for large models. *)

val subsample : int -> t list -> t list
(** The deterministic stride-subsample [enumerate ~limit] applies:
    [subsample n (enumerate m)] = [enumerate ~limit:n m].  Exposed so
    a cached full enumeration (the daemon's plan tier) can be limited
    without re-walking the model.  Raises [Invalid_argument] when
    [n < 1], exactly as [enumerate ~limit] does. *)

val to_inject : t -> Inject.t

val first_step : Model.t -> t -> int
(** Earliest control step at which the fault can make the faulted run
    diverge from the golden one — a {e sound lower bound}, never an
    exact answer.  A campaign may therefore restore a golden
    checkpoint of any boundary strictly below it instead of
    re-simulating from step 0; [first_step m f - 1] is the latest such
    boundary.  Returns [cs_max + 1] when the fault can never act
    (e.g. a stuck bus that nothing writes). *)

val last_step : Model.t -> t -> int
(** Last control step in which the fault's mechanism can still act —
    a {e sound upper bound}, the dual of {!first_step}.  Past this
    boundary the faulted realization has the golden transition
    function again, so a batched lockstep run ({!Csrtl_core.Batch})
    whose state row has re-converged with the golden row may retire
    the variant early.  Point faults (a transient, an extra driver, a
    dropped leg) end at their slot's step; faults that rewrite the
    realization permanently (stuck sinks, latency overrides,
    oscillators) return [cs_max] — they are never retired early. *)

val first_step_in : Legs.t -> t -> int
val last_step_in : Legs.t -> t -> int
(** {!first_step} and {!last_step} read off a leg table built once per
    model ({!Csrtl_core.Legs.of_model}, or a batch plan's
    {!Csrtl_core.Batch.legs}): time proportional to the fault, not to
    the model.  [first_step m f = first_step_in (Legs.of_model m) f],
    likewise for [last_step]. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
