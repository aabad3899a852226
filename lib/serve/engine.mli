(** The daemon's request engine, socket-free.

    {!handle} maps one decoded request to a sequence of emitted
    responses and {e never raises}: admission failures, bad models,
    stale journals and even daemon bugs all come back as status-coded
    [Refused] frames.  The server layer adds line framing and threads;
    the differential, chaos, and fuzz suites drive [handle] directly,
    so the bytes they pin are the bytes the socket carries.

    Campaign responses are byte-identical to offline [csrtl inject]
    stdout for the same (model, fault list, config) — the report
    renderer is margin-independent, and campaigns reuse
    {!Csrtl_fault.Campaign.run_journaled} unchanged.

    The engine is {e crash-only}: every campaign runs in a supervised
    worker process, restarted from its journal checkpoint (capped
    exponential backoff) when it crashes, and a model whose workers
    keep crashing is quarantined by a per-digest circuit breaker; the
    engine itself never runs a campaign.  Admission is a bounded per-client-fair queue
    ({!Admission}); busy and quarantined refusals carry a
    [retry_after_ms] hint. *)

module Diag = Csrtl_diag.Diag
module F = Csrtl_fault

type config = {
  state_dir : string;  (** journals live here, one per resume token *)
  jobs : int;
      (** each worker's domain-pool width; [<= 0] means
          {!Csrtl_par.Par.default_jobs} *)
  cache_capacity : int;  (** compile-cache entries (LRU beyond that) *)
  plan_cache_capacity : int;
      (** fault-enumeration tier, keyed by (model digest | config
          tag); [<= 0] disables it — every request then enumerates its
          model's faults again.  The batch plan is not cached: it holds
          closures, cannot cross into a worker, and each worker
          compiles its own *)
  golden_cache_capacity : int;
      (** golden {!Csrtl_fault.Artifact} tier (both clean observations
          and their measured cost, as the bytes a worker shipped home),
          same key; [<= 0] disables it.  Warm campaigns skip the golden
          simulations entirely; reports stay byte-identical either
          way *)
  limits : Diag.Limits.t;  (** applied to every request's model text *)
  max_pending : int;
      (** campaigns running concurrently; excess requests queue.
          [<= 0] means always busy (refuse immediately) — the
          zero-width configuration the admission tests use *)
  default_deadline_ms : int option;
      (** server-wide per-request deadline when the request names none *)
  max_queue : int;  (** total requests waiting in the admission queue *)
  max_queue_per_client : int;  (** one client's share of that queue *)
  max_restarts : int;
      (** crash-restarts per request before giving up with
          [serve.worker]; each restart resumes from the journal *)
  backoff_base_ms : int;  (** restart backoff: base * 2^attempt ... *)
  backoff_cap_ms : int;  (** ... capped here *)
  quarantine_threshold : int;
      (** consecutive worker crashes (per model digest) that open the
          circuit breaker; [<= 0] disables quarantine *)
  quarantine_cooloff_ms : int;
      (** how long an open breaker refuses the model before letting a
          half-open probe through *)
  worker_grace_ms : int;
      (** SIGTERM-to-SIGKILL grace when draining or timing out a
          worker — long enough to checkpoint, short enough to die *)
  worker_timeout_ms : int option;
      (** wall cap for workers on requests with no deadline; [None]
          means no cap (deadlined requests get deadline + grace) *)
  on_worker : (pid:int -> token:string -> unit) option;
      (** test/chaos hook: called with each spawned worker pid *)
}

val default_config : config
(** max_pending 4, queue 16 (8 per client), 3 restarts with 25ms..1s
    backoff, quarantine after 3 crashes for 30s, 2s worker grace. *)

type t

val create : config -> t
(** Creates the state directory.  The engine starts its workers as
    fresh processes of the running executable, which must therefore
    call {!worker_entry} first thing in its main. *)

val worker_entry : unit -> unit
(** The campaign worker's entry point.  When this process was started
    as an engine's worker ([argv] is exactly the executable and
    {!Worker.arg}), read the job from stdin, run the campaign, write
    its frames to stdout and exit — 0 after a terminal frame, 1 on an
    escaped exception, 2 on an unreadable job.  Otherwise return at
    once.  Every executable that creates an engine calls it at the top
    of its main, before parsing its own command line. *)

val request_stop : t -> unit
(** Flip the drain flag: in-flight workers get SIGTERM and the grace
    period to checkpoint at the next work-item boundary and answer
    [Drained]; queued requests are
    released with [serve.draining]; new inject requests are refused.
    Signal-handler safe (one atomic store). *)

val stopping : t -> bool

val handle :
  ?client:int -> t -> Frame.request -> emit:(Frame.response -> unit) -> unit
(** Process one request, calling [emit] for each response frame in
    order.  [client] identifies the connection for queue fairness
    (default 0 — embedders that don't multiplex clients get plain
    FIFO).  Never raises; [emit] runs only on the calling thread,
    which also supervises the campaign's worker. *)

val stats : t -> Frame.stats

val inject_code : F.Campaign.report -> int
(** The offline exit code for a finished campaign: 5 for crashes,
    disagreements or law violations; 4 for hangs; else 0. *)

val token_of :
  digest:string -> config_tag:string -> faults_digest:string -> string
(** The deterministic resume token: truncated md5 over the campaign
    identity.  Same request, same token, same journal — crash recovery
    is "resend the request". *)
