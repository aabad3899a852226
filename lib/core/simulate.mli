(** Event-driven simulation of a clock-free model with observation.

    Elaborates the model onto the kernel, attaches monitors (register
    snapshots at the start of each step, output-port sampling at [cr],
    ILLEGAL localization on every resolved sink), runs to quiescence,
    and packages an {!Observation.t} plus kernel statistics. *)

type illegal_policy =
  | Halt  (** stop the kernel at the first localized conflict *)
  | Record  (** keep simulating, collect every conflict (default) *)
  | Degrade
      (** fail-soft: conflicts are recorded but registers refuse to
          latch ILLEGAL and output ports refuse to sample it, so the
          machine keeps its last good state *)

type outcome =
  | Finished  (** ran to quiescence *)
  | Halted of int * Phase.t * string
      (** [Halt] policy stopped the run at the first conflict —
          (control step, phase, sink) of that conflict *)
  | Watchdog_tripped of int
      (** the watchdog cut the run after this many delta cycles *)
  | Kernel_overflow of Csrtl_kernel.Types.delta_overflow
      (** runaway delta iteration within one time point; the kernel is
          poisoned (see {!Csrtl_kernel.Scheduler.run}) but the partial
          observation is still reported *)

type config = {
  wait_impl : [ `Keyed | `Predicate ];
  resolution_impl : [ `Incremental | `Fold ];
  on_illegal : illegal_policy;
  watchdog : bool;
}
(** Everything about a kernel run that is policy rather than model:
    the wait and resolution implementations (ablation choices), the
    conflict policy, and the watchdog.  Collected in one record so
    campaign drivers, the parallel engine and the CLI thread a single
    value instead of four optional arguments. *)

val default : config
(** [`Keyed], [`Incremental], [Record], watchdog off — the defaults
    {!run} has always had. *)

type result = {
  obs : Observation.t;
  cycles : int;  (** simulation cycles executed: [6 * cs_max], plus one
                     when a transfer writes back in the final step *)
  stats : Csrtl_kernel.Types.stats;
  elaborated : Elaborate.t;
  outcome : outcome;
}

val run_cfg :
  ?vcd:Buffer.t -> ?trace:bool -> ?inject:Inject.t -> ?config:config ->
  Model.t -> result
(** Like {!run}, with the four policy choices bundled in a {!config}
    (default {!default}). *)

val run :
  ?vcd:Buffer.t -> ?trace:bool -> ?wait_impl:[ `Keyed | `Predicate ] ->
  ?resolution_impl:[ `Incremental | `Fold ] -> ?inject:Inject.t ->
  ?on_illegal:illegal_policy -> ?watchdog:bool ->
  Model.t -> result
(** [vcd] streams a waveform of all signals (delta-cycle axis).
    [trace] additionally prints each event to the [csrtl.sim] log
    source (debug level).  [inject] realizes a fault-injection plan
    ({!Inject}) during elaboration.  [on_illegal] selects the failure
    policy (default [Record], today's behaviour).  [watchdog] (default
    off) bounds the run at {!expected_cycles} plus a fixed slack, so a
    fault that stalls or livelocks the controller surfaces as
    [Watchdog_tripped] instead of a hang.  Never raises for in-model
    failures: kernel delta overflow comes back as [Kernel_overflow]. *)

val expected_cycles : Model.t -> int
(** The paper's delta-cycle law for this model: [6 * cs_max], plus the
    trailing driver-release/register-update cycle if any transfer
    writes back in step [cs_max]. *)

val expected_cycles_from : Model.t -> int -> int
(** The law for the segment of a run resumed at boundary [s0]:
    [6 * (cs_max - s0)] plus the same trailing cycle.
    [expected_cycles m = expected_cycles_from m 0]. *)

val expected_cycles_injected : inject:Inject.t -> Model.t -> int -> int
(** The law for a {e faulted} segment resumed at boundary [s0]: an
    injection moves only the trailing driver-release edge, so the
    count is [6 * (cs_max - s0)] plus one exactly when a final-step
    [wb] driver survives it — a [wb] leg the plan does not drop, or a
    saboteur contributing at [(cs_max, wb)].  Tampers and latency
    overrides never change the count (they rewrite values, not
    transactions).  This is what the batch executor reports as a
    variant's kernel cycles; the differential suite pins it against
    the event kernel.  [expected_cycles_injected ~inject:Inject.none m
    s0 = expected_cycles_from m s0]. *)

val expected_cycles_with : Legs.t -> inject:Inject.t -> int -> int
(** {!expected_cycles_injected} read off a leg table built once per
    model: time proportional to the injection, not to the model. *)

val snapshot_at : ?config:config -> step:int -> Model.t -> Snapshot.t
(** Run the model uninjected through control step [step] (0 means the
    initial state) and capture the machine state at that boundary —
    the kernel realization of {!Interp.snapshot_at}; for the same
    model and step all engines produce byte-identical serializations.
    Raises [Invalid_argument] when [step] is outside [0, cs_max]. *)

val resume :
  ?vcd:Buffer.t -> ?trace:bool -> ?inject:Inject.t -> ?config:config ->
  ?digest:string -> from:Snapshot.t -> Model.t -> result
(** Reinstall a snapshot (from any engine) and run the remaining
    control steps on the kernel.  Without [inject] the observation
    equals the uninterrupted run's; the reported [cycles] cover only
    the resumed segment ({!expected_cycles_from}).  With [inject] the
    result is meaningful when the fault cannot act at or before the
    boundary ({!Csrtl_fault.Fault.first_step}); the watchdog, when
    enabled, bounds the segment by its own law.  Raises
    [Invalid_argument] when the snapshot does not validate
    ({!Snapshot.validate}, which [digest] skips re-digesting). *)

val watchdog_slack : int
(** Delta cycles of grace beyond {!expected_cycles} before the
    watchdog classifies a run as hung. *)

val pp_outcome : Format.formatter -> outcome -> unit
