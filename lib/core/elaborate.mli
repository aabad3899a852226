(** Elaboration: turn a {!Model.t} into kernel signals and processes.

    Mirrors the paper's §2.7 structural VHDL architecture: one
    CONTROLLER instance, one resolved signal per bus / unit input
    port / register input / op-select port, one plain signal per
    unit output / register output / entity port, one REG process per
    register, one module process per unit, and one TRANS process per
    transfer leg. *)

type t = {
  kernel : Csrtl_kernel.Scheduler.t;
  model : Model.t;
  ctrl : Controller.t;
  signal_of : Transfer.endpoint -> Csrtl_kernel.Signal.t;
      (** lookup by endpoint; raises [Invalid_argument] naming the
          resource and the reference site for unknown names *)
  find_signal : string -> Csrtl_kernel.Signal.t option;
      (** non-raising lookup by canonical signal name ([R.out],
          [ADD.in1], bus and port names, ...) *)
  fu_states : (string * Fu_state.t) list;
      (** the pipeline state each module process closes over, in
          declaration order — read by {!Simulate.snapshot_at} *)
}

val build :
  ?kernel:Csrtl_kernel.Scheduler.t ->
  ?wait_impl:[ `Keyed | `Predicate ] ->
  ?resolution_impl:[ `Incremental | `Fold ] ->
  ?inject:Inject.t ->
  ?degrade_illegal:bool ->
  ?digest:string ->
  ?from:Snapshot.t ->
  Model.t -> t
(** Validates the model ({!Model.validate_exn}) and instantiates all
    processes on a fresh kernel (or the given one).  Running the
    kernel then simulates the model; use {!Simulate.run} for the
    packaged observation flow.

    [wait_impl] selects how TRANS/REG/module processes suspend:
    [`Keyed] (default) uses the kernel's value-indexed waits, so a
    process is only scanned when its phase value occurs; [`Predicate]
    is the literal VHDL [wait until CS = S and PH = P], re-evaluated
    on every control-signal event.  [resolution_impl] likewise selects
    O(1) counter-based bus resolution ([`Incremental], default) or a
    fold over all drivers per update ([`Fold]).  All four combinations
    are observably identical (tested); the bench report's ablation
    table (A) quantifies the differences.

    [inject] realizes a fault-injection plan ({!Inject}) on the
    kernel without touching the model: tampers wrap the resolution
    functions of the named sinks, dropped legs skip their TRANS
    instantiation, saboteurs become extra driver processes, and
    latency overrides replace the per-unit pipeline depth.
    [degrade_illegal] switches the REG processes to fail-soft
    latching: an ILLEGAL register input is ignored instead of stored
    (used by {!Simulate}'s [Degrade] policy).

    [from] resumes from a control-step boundary: the controller starts
    at the snapshot step, register and unit-output initial assignments
    come from the snapshot (the unit pipelines are restored in place),
    scheduled inputs begin at the boundary's value, and every
    statically-scheduled process (TRANS leg, op selection, saboteur,
    oscillator) whose slot lies at or before the boundary is not
    elaborated — the quiescence property of SEMANTICS §10 makes this
    complete.  Raises [Invalid_argument] when the snapshot does not
    validate against the model ({!Snapshot.validate}; a caller holding
    the model's [digest] passes it to skip re-digesting), or when a
    latency override conflicts with the snapshot's pipeline depth. *)

val bus_signals : t -> (string * Csrtl_kernel.Signal.t) list
val register_outputs : t -> (string * Csrtl_kernel.Signal.t) list
val output_ports : t -> (string * Csrtl_kernel.Signal.t) list
