(** Direct control-step interpreter — the paper's dedicated semantics.

    Executes a model by iterating steps and phases directly, with no
    event kernel: values contributed by transfers during one phase
    are resolved and become visible in the next phase, exactly the
    one-delta lag of the VHDL realization.  §2.7 argues this "close
    relationship of the register transfer model to the VHDL
    simulation delta cycle allows to prove the consistency of the
    dedicated semantics with VHDL simulation semantics";
    {!Csrtl_verify.Consist} checks that theorem empirically against
    {!Simulate}.  The interpreter is also the fast execution path
    (see table C3 of the bench report). *)

exception Unstable of int * Phase.t * string
(** Raised at the trigger slot of an injected {!Inject.oscillator}:
    the phase the oscillating driver engages in has no fixpoint, so
    the dedicated semantics cannot assign the run a meaning.  The
    kernel path exhibits the same fault as a livelock (watchdog trip
    or delta overflow); {!Csrtl_fault.Campaign} classifies both as
    hung. *)

val run : ?inject:Inject.t -> Model.t -> Observation.t
(** Validates and runs the model for [cs_max] control steps.

    [inject] applies the same fault-injection plan the kernel path
    realizes in {!Elaborate.build}: sink tampers rewrite each
    re-resolution (value or driver-release) at its visibility flip,
    dropped legs never contribute, saboteurs contribute like an extra
    transfer leg, and latency overrides reshape the unit pipelines.
    Tampers are supported on buses, ports and register outputs;
    register-output tampers must be step/phase-insensitive (stuck
    faults) for the two paths to agree on the reported conflict
    point.  Saboteur and oscillator sinks must exist in the model
    ([Invalid_argument] otherwise, mirroring the kernel elaboration);
    oscillators raise {!Unstable}. *)

type hook = step:int -> phase:Phase.t -> sink:string -> Word.t -> unit

val run_with_hook :
  ?on_visible:hook -> ?inject:Inject.t -> Model.t -> Observation.t
(** Like {!run}, also reporting every resolved sink value as it
    becomes visible (used by the symbolic/diagnostic layers). *)

val snapshot_at : step:int -> Model.t -> Snapshot.t
(** Run the model uninjected through control step [step] (0 means
    before the first step) and capture the machine state at that
    boundary.  Raises [Invalid_argument] when [step] is outside
    [0, cs_max]. *)

val snapshots_at : steps:int list -> Model.t -> Snapshot.t list
(** One golden run, capturing every requested boundary; returned in
    ascending step order with duplicates removed. *)

val resume :
  ?digest:string -> ?inject:Inject.t -> from:Snapshot.t -> Model.t ->
  Observation.t
(** Reinstall a snapshot and run the remaining [cs_max - from.step]
    control steps.  Without [inject], the result equals the
    uninterrupted {!run} observation-for-observation.  With [inject],
    this is only meaningful when the injection cannot act before the
    snapshot boundary (the campaign guarantees it via
    {!Csrtl_fault.Fault.first_step}); latency overrides that reshape a
    unit pipeline are rejected with [Invalid_argument].  Raises
    [Invalid_argument] when the snapshot does not validate against the
    model ({!Snapshot.validate}, which [digest] skips re-digesting). *)
