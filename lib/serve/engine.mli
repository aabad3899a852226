(** The daemon's request engine, socket-free and single-threaded.

    {!submit} starts one decoded request and {!poll} runs one turn of
    the select loop that carries it on: together they map a request to
    a sequence of emitted responses and {e never raise}: admission
    failures, bad models, stale journals and even daemon bugs all come
    back as status-coded [Refused] frames.  The server layer adds line
    framing and output queues around {!poll}; the differential, chaos,
    and fuzz suites drive the same calls (or {!handle}), so the bytes
    they pin are the bytes the socket carries.

    Campaign responses are byte-identical to offline [csrtl inject]
    stdout for the same (model, fault list, config) — the report
    renderer is margin-independent, and campaigns reuse
    {!Csrtl_fault.Campaign.run_journaled} unchanged.

    The engine is {e crash-only}: every campaign runs in a supervised
    worker process (one job at a time; a worker takes the next job
    when its last one ended cleanly), restarted on a fresh worker from
    its journal checkpoint (capped exponential backoff) when it
    crashes, and a model whose workers
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
          {!Csrtl_par.Par.available_parallelism} *)
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
      (** test/chaos hook: called once per job handed to a worker,
          with the pid of the worker that runs it *)
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
    {!Worker.arg}), read {!Worker.framed} jobs from stdin until EOF,
    running each job's campaign and writing its frames to stdout, and
    exit — 0 at EOF or after a terminal frame that retires the worker
    ({!retires}, or a drain), 1 on an escaped exception, 2 on an
    unreadable job.  Otherwise return at once.  Every executable that
    creates an engine calls it at the top of its main, before parsing
    its own command line. *)

val retires : ran:int -> domains:int -> heap_words:int -> bool
(** The recycle rule a worker applies after each job's campaign:
    whether it leaves once that job's terminal frame is out, having run
    [ran] jobs, the last on [domains] domains, with a major heap of
    [heap_words] words.  It leaves after 1000 jobs, past a 32 MB heap,
    or when the job ran on more than one domain (a process pays more
    for each pool it spawns after its third). *)

type job = {
  cfg : config;
      (** the fields a worker reads — [state_dir], [jobs], [limits] and
          [default_deadline_ms]; the rest decode as {!default_config} *)
  q : Frame.inject;
  golden : [ `Off | `Miss of string | `Hit of string ];
      (** the golden-tier decision: [`Miss] carries the tier key,
          [`Hit] the artifact bytes *)
  chaos : F.Journal.injection list;  (** armed journal injections *)
}
(** What a worker reads on its stdin: everything a campaign needs that
    the request text does not carry. *)

val encode_job : job -> string

val decode_job : string -> job
(** Inverse of {!encode_job}: a job it encodes decodes to an equal job
    when its [limits] admit its request.  Raises
    [Csrtl_fault.Journal.Json.Bad] on anything else, and nothing else —
    {!worker_entry} catches only that (exit 2). *)

val request_stop : t -> unit
(** Flip the drain flag: busy workers get SIGTERM and the grace
    period to checkpoint at the next work-item boundary and answer
    [Drained], and idle workers are retired; queued requests are
    released with [serve.draining]; new inject requests are refused.
    Signal-handler safe (one field store). *)

val stopping : t -> bool

val submit :
  ?client:int -> ?paused:(unit -> bool) -> t -> Frame.request ->
  emit:(Frame.response -> unit) -> unit
(** Start one request, emitting at once what needs no wait: a control
    reply, a [Refused] or [Queued], or [Started] after compile and
    fault enumeration.  Later {!poll} turns emit the rest, ending with
    exactly one {!terminal} frame.  [client] identifies the connection
    for queue fairness (default 0: plain FIFO).  While [paused] holds,
    the request's worker pipe is left unread, so a slow consumer
    throttles only its own worker.  [emit] must not raise. *)

val poll :
  t ->
  read:Unix.file_descr list ->
  write:Unix.file_descr list ->
  timeout:float ->
  Unix.file_descr list * Unix.file_descr list
(** One select turn of at most [timeout] seconds over the worker pipes
    and the caller's descriptors, returning the caller's ready ones.
    It relays frames, reaps, fires restart timers and queue-deadline
    expiry and, once the stop flag is up, drains the queue, sends every
    busy worker SIGTERM and retires the idle ones. *)

val terminal : Frame.response -> bool
(** A request's last frame: [Report], [Drained], [Refused] or a
    control reply. *)

val idle : t -> bool
(** No worker process left, busy or idle, and no restart pending.  An
    engine keeps idle workers until it drains, so this holds only after
    {!request_stop}. *)

val shutdown : t -> unit
(** {!request_stop}, then {!poll} until {!idle}: every worker is
    retired or drained and reaped. *)

val handle :
  ?client:int -> t -> Frame.request -> emit:(Frame.response -> unit) -> unit
(** {!submit}, then {!poll} until the request's terminal frame (its
    worker stays for the next job, or is reaped by a later {!poll}). *)

val stats : t -> Frame.stats

val inject_code : F.Campaign.report -> int
(** The offline exit code for a finished campaign: 5 for crashes,
    disagreements or law violations; 4 for hangs; else 0. *)

val token_of :
  digest:string -> config_tag:string -> faults_digest:string -> string
(** The deterministic resume token: truncated md5 over the campaign
    identity.  Same request, same token, same journal — crash recovery
    is "resend the request". *)
