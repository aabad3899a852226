(** Golden-vs-faulted campaigns over both execution paths.

    For every enumerated fault, the campaign runs the faulted model on
    the event kernel ({!Csrtl_core.Simulate}, watchdog armed) and on
    the reference interpreter ({!Csrtl_core.Interp}), compares each
    against its own clean golden run, and classifies the outcome.  A
    campaign never raises for in-model failures: anything escaping a
    run is reported as [Crashed].

    Two robustness layers wrap every fault run:

    - {b checkpoint restore}: under the default [Record] policy both
      engines resume from a golden checkpoint at the last boundary
      before the fault can act ({!Fault.first_step}), instead of
      re-simulating the healthy prefix from step 0.  Classifications
      are unchanged — SEMANTICS §10's quiescence property makes the
      restored state indistinguishable from the simulated one.  Only
      kernel-path faults get a prebuilt checkpoint; a batched variant
      joins the golden row in memory at the same boundary, and the
      rare batched fault that needs a snapshot after all (a chunk
      falling back to the kernel path, an interpreter rerun) computes
      it on first use;
    - {b supervision}: a run that raises is retried once then
      classified [Crashed]; with [budget], a run exceeding its
      wall-clock budget classifies as [Hung] — neither aborts the
      campaign or its pool. *)

open Csrtl_core

type outcome = Outcome.t =
  | Masked  (** observation identical to the golden run *)
  | Detected of int * Phase.t * string
      (** a conflict the golden run does not have, localized to the
          first (control step, phase, sink) where it became visible *)
  | Corrupted of { count : int; first : string }
      (** silent data corruption: no new conflict, but the observation
          differs — in [count] places, the first being [first]
          ({!Csrtl_core.Observation.witness_normalized}) *)
  | Hung of string  (** watchdog trip, kernel delta overflow, or
                        work-budget overrun *)
  | Crashed of string  (** an exception escaped the run *)

type entry = {
  fault : Fault.t;
  kernel_outcome : outcome;
  interp_outcome : outcome;
  kernel_cycles : int;
  law_ok : bool;
      (** for masked kernel runs: delta cycles within one of the
          law for the simulated segment ({!Simulate.expected_cycles},
          or {!Simulate.expected_cycles_from} the restored boundary) *)
}

type report = {
  model : string;
  total : int;
  masked : int;
  detected : int;
  corrupted : int;
  hung : int;
  crashed : int;  (** counts over kernel outcomes *)
  disagreements : int;  (** entries where the two paths differ in class *)
  law_violations : int;
  coverage : float option;
      (** [detected / (total - masked)]; [None] if all masked *)
  entries : entry list;
}

type engine = [ `Auto | `Kernel | `Compiled ]
(** Which realization runs the faulted observations.  [`Kernel] is the
    event kernel plus the interpreter per fault — the reference path.
    [`Auto] (the default) and [`Compiled] batch every fault whose
    injection compiles into the static schedule
    ({!Csrtl_core.Sched.compilable}) onto the lockstep executor
    ({!Csrtl_core.Batch}) and derive both engines' outcomes from the
    one batched observation — classified once when the kernel and
    interpreter goldens are equal (as under [Record]), against each
    golden otherwise.  A variant the executor stops at its first new
    conflict ({!Csrtl_core.Batch.Detected}) is detected there on both
    engines; only when the goldens differ does its interpreter side
    rerun on the interpreter.  Faults with no static schedule
    (oscillators, [cr] saboteurs) and non-[Record] configs stay on the
    kernel path either way.  Reports, journals and classifications are
    byte-identical across engines — the batched path is a pure
    optimization, pinned by the determinism suite. *)

type batch_stats = {
  batched : int;  (** faults that ran on the batched lockstep path *)
  kernel_path : int;  (** faults that ran the reference path *)
  retired_early : int;
      (** batched variants retired at a re-convergence boundary
          before [cs_max] ({!Csrtl_core.Batch.Converged}) *)
  detected_early : int;
      (** batched variants stopped at their first conflict the golden
          run lacks ({!Csrtl_core.Batch.Detected}) *)
  merged : int;
      (** batched variants that stopped stepping at a boundary where
          their state equalled another running row's and took that
          row's future ({!Csrtl_core.Batch.result}'s [merged]); they
          are counted under their verdict too *)
  checkpoints : int;
      (** golden snapshots the campaign built: one per distinct
          boundary a kernel-path fault restores from, plus any a
          batched fault needed on a fallback path.  An {!Artifact}
          carries none, so a warm campaign builds the same ones as a
          cold one.  Batched variants join from the arena's golden
          row, so an all-batchable campaign builds none. *)
  domains : int;
      (** domains that ran at least one work item, the caller included:
          [1] for a campaign too small to repay a pool
          ({!Csrtl_par.Par.map_gated}) *)
}

val boundary_of_fault : Model.t -> Fault.t -> int
(** The latest golden boundary a run of this fault may restore from:
    [min (Fault.first_step m f - 1) cs_max]. *)

val prepare :
  ?config:Simulate.config -> ?plan:Batch.plan -> Model.t -> Artifact.t
(** Compute the campaign's golden work once, as a cacheable
    {!Artifact}: both engines' clean golden runs.  No fault is
    enumerated and no boundary is snapshotted: a campaign builds the
    checkpoints its kernel-path faults restore from itself, warm or
    cold, so both restore from the same boundaries.  [plan] reuses an existing compile.  Passing the
    artifact back through [?golden] below yields byte-identical
    reports to a cold run — the warm path is a pure optimization. *)

val run :
  ?pool:Csrtl_par.Par.t -> ?jobs:int ->
  ?config:Simulate.config -> ?limit:int -> ?faults:Fault.t list ->
  ?budget:float -> ?restore:bool -> ?engine:engine -> ?batch:int ->
  ?plan:Batch.plan -> ?golden:Artifact.t ->
  Model.t -> report
(** Run the campaign, its fault list sharded across domains.
    [faults] overrides {!Fault.enumerate} (then [limit] is unused).
    [config] selects the kernel policies of every run (default
    {!Simulate.default}); the watchdog is always forced on so a
    stalling fault classifies as [Hung] instead of hanging the
    campaign.  The clean kernel golden is the static-schedule arena's
    golden row ({!Csrtl_core.Batch.golden_with}) when [config]
    permits.  [budget] bounds each fault run's wall
    clock (seconds; overruns classify as [Hung]; a batched chunk that
    overruns falls back to budgeted per-fault kernel runs).  [restore]
    (default on) enables the checkpoint fast path; it only engages
    under the [Record] policy, where golden checkpoints are
    engine-independent.  [engine] (default [`Auto]) selects the
    batched fast path; [batch] (default 32) is the lockstep batch
    size K — results do not depend on it.

    The goldens and kernel-path checkpoints are computed once in the
    caller; each faulted run owns its kernel/interpreter state, so
    runs are embarrassingly parallel.  A work item is one kernel-path
    fault, or a batched chunk of K faults stepping K + 1 arena rows.
    The items run on the calling domain, timed, until their measured
    times say the rest repays a pool of [jobs] (default one per core,
    {!Csrtl_par.Par.available_parallelism}; [Invalid_argument] when
    [jobs < 1]), which then takes them ({!Csrtl_par.Par.map_gated}):
    a small campaign never spawns a domain.  [pool] instead fans the
    items out on an existing pool at once (then [jobs] is ignored).
    Entry order follows the fault list regardless of scheduling: the
    report is the same bytes from {!pp_report} at any
    [jobs]/[pool]/[batch], which the determinism suite checks.  The
    measurements shape scheduling only, never the report bytes.

    [plan] supplies a pre-compiled {!Csrtl_core.Batch.plan} (a
    plan-cache hit) and [golden] a pre-built {!Artifact} (a golden
    hit): with both, the campaign skips compilation and the golden
    simulations entirely; it still builds the checkpoints its
    kernel-path faults read, from one golden-row run
    ({!Csrtl_core.Batch.snapshots_at}).
    Both are pure optimizations — report bytes are unchanged, which
    the warm-path qcheck suite pins.  A [golden] whose digest or
    config tag does not match this campaign raises
    [Invalid_argument]; validate cached artifacts before passing
    them. *)

type resume_info = {
  reused : int;  (** journal entries accepted without re-running *)
  rerun : int;  (** faults (re)computed this invocation *)
  torn : int;  (** journal lines discarded: truncated by a crash,
                   failed their integrity hash, out of range,
                   duplicated, or label-mismatched *)
  remaining : int;
      (** faults left unrun because [should_stop] drained the
          campaign; [0] for a completed run.  When non-zero the
          report is partial — its [total] counts only the entries it
          has — and re-invoking with [resume:true] finishes it. *)
  domains : int;
      (** domains that ran a work item this invocation, the caller
          included ({!batch_stats}[.domains]); [0] when nothing ran.
          Above [1] the campaign spawned a pool, which a daemon's
          worker reads as its cue to retire *)
}

val run_journaled :
  ?pool:Csrtl_par.Par.t -> ?jobs:int ->
  ?config:Simulate.config -> ?digest:string -> ?limit:int ->
  ?faults:Fault.t list ->
  ?budget:float -> ?restore:bool -> ?engine:engine -> ?batch:int ->
  ?warm:(unit -> Batch.plan option * Artifact.t option) ->
  ?should_stop:(unit -> bool) -> ?on_entry:(int -> entry -> unit) ->
  journal:string -> resume:bool ->
  Model.t -> (report * resume_info, string) result
(** {!run} (on [pool], or behind the gate at [jobs]) with
    crash durability: each work item (a batched chunk, or one
    kernel-path fault) appends its finished faults to the JSONL
    [journal] ({!Journal}) in one write and flush before the campaign
    moves on, so a crash loses at most the item in flight, and the
    journal is fsynced ({!Journal.sync}) when the
    campaign completes or drains with new entries — a wholesale replay
    writes nothing and skips the fsync.  With [resume] false the
    journal is truncated and the whole campaign runs.  [digest], when
    given, must be [Snapshot.digest_of_model m] (a caller that already
    computed it — a daemon's campaign worker — skips the model re-render
    and hash; a wrong value can only fail the header match, never
    corrupt a report).  With [resume] true the
    journal is read first: entries that decode
    ({!Journal.entry_of_line}), pass their integrity hash and match the
    fault list are reused verbatim; torn or
    missing entries are re-run (and appended).  The resumed report is
    byte-identical to an uninterrupted run's — reused entries
    round-trip through the journal losslessly.  [Error] when the
    journal is unreadable, malformed, or was written for a different
    campaign (model digest, config tag, or fault-list digest
    disagree).

    [warm] supplies {!run}'s [plan] and [golden].  It is called at most
    once, and only when a fault is left to run: a resume whose journal
    already covers every fault compiles no plan, reads no artifact, and
    runs no golden or checkpoint — it costs the journal read.

    [should_stop] is polled between work items (from pool domains —
    it must be thread-safe and cheap, e.g. an [Atomic.t] read or a
    deadline comparison); once true, unstarted items are skipped and
    the run returns early with [resume_info.remaining] counting the
    skipped faults — the daemon's graceful-drain path.  [on_entry]
    fires for each computed entry once its work item's lines are
    written and flushed (also from pool domains), so a streaming
    consumer never sees an entry the journal could lose. *)

val run_with_stats :
  ?pool:Csrtl_par.Par.t -> ?jobs:int ->
  ?config:Simulate.config -> ?limit:int -> ?faults:Fault.t list ->
  ?budget:float -> ?restore:bool -> ?engine:engine -> ?batch:int ->
  ?plan:Batch.plan -> ?golden:Artifact.t ->
  Model.t -> report * batch_stats
(** {!run}, additionally reporting how the faults were
    dispatched — perfbench's probe reads the early-retirement hit rate
    and the batched/kernel split. *)

val outcomes_agree : outcome -> outcome -> bool
(** Same class; [Detected] additionally requires the same localization. *)

val classify : golden:Observation.t -> Observation.t -> outcome
(** Classification of one faulted observation against a golden one
    (no Hung/Crashed cases — those come from the runner). *)

val pp_outcome : Format.formatter -> outcome -> unit
val pp_entry : Format.formatter -> entry -> unit
val pp_report : Format.formatter -> report -> unit

val render_report : table:bool -> report -> string
(** Exactly the bytes [csrtl inject] writes to stdout for this report:
    when [table], one {!pp_entry} line per entry, then the {!pp_report}
    block, each newline-terminated.  The entry lines are built by
    concatenation, not through [Format], so a campaign's table costs
    one buffer; the CLI, the daemon and the chaos harnesses all print
    through this. *)
