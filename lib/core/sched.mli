(** The schedule compiler behind the static-schedule executor.

    A conflict-free model's run is a static schedule: every
    contribution sits in one (control step, phase) slot.  [compile]
    lowers the model's legs and op-selections onto integer sink ids
    and flattens them into one action array per slot.  {!Batch}
    executes this representation — a single golden run is its K = 0
    case — so there is one static-schedule executor to keep in step
    with {!Interp} and the kernel.

    An injection plan ({!Inject.t}) compiles into the same structure —
    the overlay that lets fault campaigns stay on the fast path:

    - a {e dropped leg} is simply not compiled into its slot;
    - a {e saboteur} becomes one extra constant action in its slot
      (the spurious driver's release is the ordinary one-phase-later
      re-resolution every action already has);
    - {e tampers} become per-sink wrappers applied at each
      re-resolution ([sink_tamper]), or — for register outputs, which
      are not resolved sinks — a wrapper on the latched view
      ([reg_tamper], mirroring {!Interp}'s tampered register view);
    - a {e latency override} rewrites the unit's pipeline depth before
      its state is created.

    Oscillators have no static schedule and are rejected
    ([Invalid_argument]); {!compilable} reports them (and every other
    blocker) before anything calls {!overlay}. *)

type src =
  | Const of Word.t  (** input-port reads, op-select indices, saboteurs *)
  | Reg of int  (** register file index (read through the latched view) *)
  | Bus of int  (** sink id (a bus is also a sink) *)
  | Fu of int  (** functional-unit output latch index *)

type action = { src : src; dst : int }

type fu_plan = {
  fu : Model.fu;  (** latency override already applied *)
  op_sink : int;
  in1_sink : int;
  in2_sink : int;
}

type t = {
  model : Model.t;
  inject : Inject.t;
  nsinks : int;
  sink_name : string array;
  sink_index : (string, int) Hashtbl.t;
      (** name -> sink id, kept so overlays can validate saboteur
          sinks without rebuilding the table *)
  slots : action array array;
      (** the base compile's slot table, index
          [(step - 1) * Phase.count + phase]; an overlay shares it
          physically and patches it through [patch_slot].  Executors
          read slots through {!slot}. *)
  slot_prov : int array array;
      (** provenance, parallel to [slots]: the leg index
          ({!Model.all_legs} order) that produced each action, [-1] for
          op-selects *)
  leg_slot : int array;
      (** the inverse of [slot_prov]: leg index -> slot index, so an
          overlay dropping a leg patches that one slot *)
  patch_slot : int array;
      (** the overlay's patched slot indices, sorted ascending; empty
          on a clean compile *)
  patch_acts : action array array;
      (** the patched slots' contents, parallel to [patch_slot] *)
  static_actions : int;
  fu_plans : fu_plan array;
  nregs : int;
  reg_init : Word.t array;
  reg_in_sink : int array;
  out_sink : int array;  (** per model output, in declaration order *)
  sink_tamper : Inject.tamper option array;
  reg_tamper : Inject.tamper option array;
      (** register-output tampers, by register index *)
  last_patched : int;
      (** highest patched slot index (the last of [patch_slot]); [-1]
          on a clean compile.  The batch executor derives its earliest
          sound retirement boundary from this. *)
}

val compilable :
  ?inject:Inject.t -> ?config:Simulate.config -> Model.t ->
  (unit, string) result
(** [Ok ()] when the model/run combination has a static schedule the
    compiler covers; [Error why] names {e every} feature that forces
    the kernel path ("; "-separated): an oscillator in the plan, a
    saboteur contributing during [cr], or a conflict policy other than
    [Record].  Tampers, dropped legs, non-[cr] saboteurs and latency
    overrides compile. *)

val compile : Model.t -> t
(** Flatten the clean model into slots.  The model is {e not}
    validated here — executors call {!Model.validate_exn} once.  An
    injection compiles as {!overlay} of this. *)

val overlay : t -> Inject.t -> t
(** Patch an injection overlay onto a clean compile without
    recompiling or copying the slot table: the result shares the
    base's [slots] and records only the slots a dropped leg or an
    in-range saboteur touches, as a sorted sparse patch set (with
    [compile]'s action ordering — surviving legs, then op-selects,
    then saboteurs), so an overlay costs the same on any schedule
    length.  [last_patched] records the highest patched slot and
    [static_actions] is the base's count plus the patch delta.  Tamper
    wrappers and latency overrides rebuild only their own small
    arrays.  Raises [Invalid_argument] on an oscillator, an unknown
    saboteur sink (both with [compile]'s messages), or a base that is
    itself an overlay.  A campaign compiles the model once and
    overlays each fault, which is what makes per-chunk batch setup
    cheap. *)

val slot : t -> int -> action array
(** [slot t k] is the action array of slot [k]: the patch when [k] is
    in [patch_slot], otherwise physically the base compile's array —
    physical equality with the base is the batch executor's "this slot
    is unpatched" relation.  Allocation-free; a slot past
    [last_patched] costs one comparison. *)

(** {1 Overlay semantics helpers}

    Both executors apply tampers through these, so the overlay has one
    definition.  They mirror {!Interp}: a sink tamper wraps every
    re-resolution (value or release-to-DISC); a register tamper wraps
    the latched output view at its next visibility point. *)

val resolve_value : t -> int -> step:int -> phase:Phase.t -> Word.t -> Word.t
(** Tamper applied to a value re-resolution of sink [id]. *)

val resolve_release : t -> int -> step:int -> phase:Phase.t -> Word.t
(** Tamper applied to a release re-resolution (clean value DISC). *)

val reg_view_init : t -> int -> Word.t
(** Initial latched view of register [r] (tampered when its init
    drives the output, i.e. is not DISC). *)

val reg_view_latch : t -> int -> step:int -> Word.t -> Word.t
(** View after a latch at [step]'s [cr]: the tamper fires at the
    value's next visibility point ([step + 1], capped at [cs_max]). *)

val reg_view_resume : t -> int -> boundary:int -> Word.t -> Word.t
(** View reinstalled from a snapshot at [boundary] — the same rule as
    a latch in the uninterrupted run. *)
