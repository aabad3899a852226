(** Batched lockstep execution of fault variants on the compiled
    schedule.

    A fault campaign runs the same model hundreds of times, each run
    differing from the golden one by a small injection overlay.  This
    executor runs K faulted variants {e plus} the golden run in one
    pass over the shared static schedule ({!Sched}): the per-variant
    state lives in one structure-of-arrays {e arena} — flat unboxed
    [Word.t] (and [int]) arrays with one contiguous row per variant,
    the golden run in row 0 — stepped in lockstep over the golden
    plan's slot table, read through {!Sched.slot} so each variant sees
    its overlay's sparse patches ({!Sched.overlay}) and the golden
    arrays everywhere else.

    The arena is preallocated and cached per domain ({!Domain.DLS}):
    consecutive campaign chunks dispatched to the same worker reuse
    the same rows (grown monotonically, never shrunk), so the steady
    state of a campaign performs {e zero} minor-heap allocation in the
    step loop — the law {!alloc_probe} exposes and the scaling suite
    pins.  Rows are row-major and stride-contiguous, so a variant's
    whole state is cache-linear and no step boxes a value.

    Three campaign-shaped shortcuts make this faster than K independent
    compiled runs:

    - {e joining}: a variant whose fault provably cannot act before
      control step [join + 1] ({!Csrtl_fault.Fault.first_step}) skips
      its prefix entirely — at boundary [join] the golden row's state
      is copied into it (the in-memory equivalent of restoring a
      golden checkpoint, including the tampered register view and the
      snapshot's sorted conflict prefix, so its observation is
      byte-identical to a kernel resumed from that snapshot).  No
      {!Snapshot.t} is read, so a campaign builds checkpoints only for
      faults off this path, and on demand for a batched fault that
      falls back to one;
    - {e early retirement}: a variant whose fault can no longer act
      (past [settle] and past its overlay's [last_patched] slot) and
      whose state row has re-converged with the golden row — with no
      observable delta accrued — is retired as {!Converged}: its remaining
      future is the golden row's, so its full observation equals the
      golden observation and a campaign classifies it masked without
      executing the tail;
    - {e early detection}: a variant that records, at step [s], a
      conflict the golden row did not record at [s] (same phase, same
      sink) stops at the end of [s] as {!Detected} at the least such
      conflict, without building its observation.  A campaign's
      [Detected] outcome is the least conflict of the full run that the
      golden run lacks; every conflict a later step records carries a
      larger step, so no later step can produce an earlier one, and the
      verdict is the full run's diagnosis point.  Only rows that
      recorded a conflict in the step are examined, which keeps the
      conflict-free step loop allocation-free.

    Soundness of retirement rests on the static schedule: at a step
    boundary the pending set is empty and the live driver set is
    exactly the destination set of the (step, [wb]) slot, so no patch
    left ahead plus state-row equality implies equal futures.  The
    arena layout itself is observation-invariant (SEMANTICS §10): the
    differential suite ([test/test_batch.ml]) pins batched results
    against the kernel, the interpreter and the per-variant compiled
    overlay, and the scaling suite ([test/test_scaling.ml]) pins
    report bytes across every (engine, jobs, batch) combination. *)

type variant_spec = {
  inject : Inject.t;  (** must be compilable ({!Compiled.compilable}) *)
  join : int;
      (** golden boundary to join from, [0 .. cs_max]; must be strictly
          below the first step the injection can act in ([0] = run the
          variant from reset) *)
  settle : int;
      (** last control step the injection can act in
          ({!Csrtl_fault.Fault.last_step}); the variant is not
          considered for retirement before this boundary *)
}

type verdict =
  | Finished of Observation.t  (** ran (or joined and ran) to [cs_max] *)
  | Converged of int
      (** retired at this boundary: the full observation provably
          equals the golden run's *)
  | Detected of int * Phase.t * string
      (** stopped at the end of this control step: the least
          (step, {!Phase.to_int}, sink) conflict of the full run that
          the golden run does not have *)

type result = {
  verdict : verdict;
  cycles : int;
      (** what the kernel would report for this variant resumed at
          [join]: {!Simulate.expected_cycles_injected}, read off the
          plan's leg table *)
}

type plan
(** The reusable per-model part: the validated model, its compiled
    base schedule, its leg table ({!Legs}) and the per-unit pipeline
    profiles.  Building one
    per campaign (instead of per chunk) is what lets parallel workers
    share the compilation work — only the arena is per-domain. *)

val plan : Model.t -> plan
(** Validate and compile the model once.  Raises [Invalid_argument]
    when the model does not validate. *)

val base_sched : plan -> Sched.t
(** The plan's uninjected compiled schedule — campaigns derive their
    golden fast path ({!Compiled.of_sched}) and checkpoints from it
    instead of recompiling. *)

val legs : plan -> Legs.t
(** The plan's leg table, built with it: campaigns read their per-fault
    leg facts ({!Csrtl_fault.Fault.first_step_in}, cycle laws) from it
    instead of rebuilding {!Model.all_legs} per fault. *)

val run_with : plan -> variant_spec list -> result list
(** Execute the golden run and every variant in lockstep on the
    calling domain's cached arena; results are in input order.  Raises
    [Invalid_argument] when a spec's injection has no static schedule
    ({!Compiled.compilable}); campaigns route those variants to the
    kernel instead. *)

val golden_with : plan -> variant_spec list -> Observation.t * result list
(** Like {!run_with}, also returning the golden row's observation
    (equal to {!Compiled.run} of the uninjected plan). *)

val run : Model.t -> variant_spec list -> result list
(** [run m specs] is [run_with (plan m) specs]. *)

val golden : Model.t -> variant_spec list -> Observation.t * result list
(** [golden m specs] is [golden_with (plan m) specs]. *)

val alloc_probe : plan -> variant_spec list -> float
(** Minor-heap words allocated by the lockstep step loop alone — arena
    binding and result materialization excluded, the probe's own
    bookkeeping calibrated out.  The scaling suite asserts this is [0.]
    for conflict-free specs; recording a conflict is the one step-loop
    path allowed to allocate (it conses the localization). *)
