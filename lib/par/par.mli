(** Deterministic fan-out over OCaml 5 domains.

    A {!pool} owns up to [jobs - 1] worker domains (the caller is
    worker 0); {!map} splits the index space into contiguous chunks
    that workers grab from a shared atomic counter and writes each
    result into its input's slot, so the {e result order is a pure
    function of the input} — independent of scheduling, of [jobs], and
    of [chunks].  Campaign drivers rely on this: the same seed
    produces a byte-identical report at [--jobs 1] and [--jobs 8].

    The pool is a plain fork-join primitive: no work stealing, no
    nested parallelism ({!map} from inside a worker runs inline), and
    exceptions from workers are re-raised in the caller after all
    workers have drained.

    {b Sizing.}  Under OCaml 5's stop-the-world minor collections,
    domains beyond the machine's cores are worse than useless: every
    minor GC is a global barrier across all domains, so oversubscribing
    multiplies GC synchronization while adding no compute — measured
    campaign throughput {e inverts} (multi-job slower than [--jobs 1]).
    {!create} therefore clamps the spawn count to
    {!available_parallelism}; asking for more parallelism than the
    host has quietly gives you the host's. *)

type t
(** A pool of worker domains.  One {!map} runs at a time; the workers
    sleep on a condition variable between jobs. *)

exception Task_error of int * exn
(** A {!map} application raised: the 0-based index of the failing
    input, and the exception it raised.  Without the index a campaign
    cannot tell {e which} fault run died. *)

val available_parallelism : unit -> int
(** [Domain.recommended_domain_count ()] — the core count the runtime
    advertises, and the clamp {!create} applies. *)

val default_jobs : unit -> int
(** Alias of {!available_parallelism} — the default worker count. *)

val create : ?oversubscribe:bool -> jobs:int -> unit -> t
(** Spawn worker domains ([Invalid_argument] when [jobs < 1]).  The
    spawn target is [min jobs (available_parallelism ())] unless
    [oversubscribe] (default [false]) forces the requested count —
    tests use that to exercise real cross-domain hand-off on small
    hosts; production campaigns never should (see the sizing note
    above).

    A [jobs = 1] (or fully clamped) pool has no domains and {!map}
    runs entirely in the caller.  When the runtime cannot provide all
    the target domains (the [Domain.spawn] cap), the pool keeps the
    domains it got and shrinks — degrading gracefully down to a
    sequential pool instead of raising; {!jobs} reports the effective
    count. *)

val jobs : t -> int
(** Effective worker count (caller included) after clamping and
    degradation. *)

val shutdown : t -> unit
(** Join the worker domains.  Idempotent; the pool is unusable after. *)

val with_pool : ?oversubscribe:bool -> jobs:int -> (t -> 'a) -> 'a
(** [create], run, [shutdown] (also on exception). *)

val plan_chunks : jobs:int -> items:int -> item_cost_us:float -> int
(** Chunk count for a {!map} of [items] tasks costing roughly
    [item_cost_us] µs each: about 5 ms of work per chunk, clamped to
    [\[jobs, 4 * jobs\]] and to one chunk per item — and [1] when the
    whole job is under ~1 ms (fan-out overhead would dominate) or
    [jobs <= 1].  Deterministic in its inputs; campaigns feed it a
    {e measured} cost, so the chunk count may vary run to run — chunk
    count never changes {!map} results, only scheduling. *)

val map : ?chunks:int -> t -> ('a -> 'b) -> 'a list -> 'b list
(** Apply [f] to every element, fanning chunks out across the pool.
    [chunks] defaults to [4 * jobs] (bounded by the list length) —
    small enough to amortize hand-off, large enough to rebalance when
    items vary in cost; pass {!plan_chunks} of a measured cost to do
    better.  The result list matches the input order exactly.  If any
    application raises, the first failure (by completion time) is
    re-raised after all workers finish their in-flight chunks, wrapped
    as {!Task_error} carrying the failing input's index.

    [f] runs on arbitrary domains: it must not touch shared mutable
    state.  Kernel/interpreter/compiled runs are safe — each run owns
    its state — but a single {!Csrtl_core.Compiled.t} plan must not be
    shared across items. *)

type worker_stat = {
  w_chunks : int;  (** chunks this worker executed *)
  w_items : int;  (** items this worker executed *)
  w_busy : float;  (** seconds spent inside [f] *)
}

val last_stats : t -> worker_stat array
(** Per-worker accounting of the most recent {!map} (index 0 is the
    caller).  One slot per {e requested} worker — a clamped pool
    reports the requested width with the unused slots zero, so
    accounting shape does not depend on the host.  Wall-clock based,
    so only meaningful for reporting — never fold it into
    deterministic output. *)

(** {1 Per-task supervision}

    A supervisor around one unit of work: run it, retry a failure or a
    budget trip a bounded number of times, and classify the survivor
    instead of letting the exception abort the pool. *)

type 'a task_outcome =
  | Done of 'a
  | Crashed of { attempts : int; error : string }
      (** every attempt raised; [error] prints the last exception *)
  | Over_budget of { attempts : int; budget : float; elapsed : float }
      (** the last attempt exceeded the wall-clock budget (seconds);
          [elapsed] is the measured time across all attempts,
          [budget] the configured bound *)

val run_supervised :
  ?budget:float -> ?retries:int -> (unit -> 'a) -> 'a task_outcome
(** Run [f] with at most [retries] (default 1) re-runs after a raise
    or a budget overrun.  The budget is checked {e after} each run — a
    cooperative bound for work whose inner loops are already bounded
    (the campaign kernel watchdog bounds delta cycles; this bounds
    wall clock).  The budget also acts as an overall deadline checked
    {e between} attempts: once total elapsed time exceeds it, no
    further retry is granted — a crashing task is classified
    [Crashed] immediately, and an attempt that itself overran the
    budget never re-runs, so the caller waits at most roughly one
    budget, not [(retries + 1)] of them.  [Over_budget] carries both
    the configured [budget] (byte-stable for classification messages)
    and the measured [elapsed] time (for operator-facing reporting
    only — never fold it into deterministic output). *)
