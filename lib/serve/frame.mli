(** Line-delimited JSON wire frames for the [csrtl serve] daemon.

    One request or response per line, in the journal's JSON subset
    ({!Csrtl_fault.Journal.Json}): streamed entry frames are
    journal-shaped, so a client can treat the socket as a live view of
    the campaign journal.

    Decoding is {e total}: {!decode_request} and {!decode_response}
    turn any byte sequence into a value or a list of diagnostics —
    never an exception, an OOM, or a stack overflow.  Malformed JSON
    reports under rule [serve.frame]; well-formed JSON that is not a
    valid frame under [serve.request].  The fuzz harness pins this the
    same way it pins the [.rtm] reader.

    Status codes on responses are the diagnostic contract's exit codes
    (docs/DIAGNOSTICS.md): 0 success, 1 findings (campaign found
    something, daemon busy, or campaign drained), 2 bad input, 3
    internal bug. *)

module Diag = Csrtl_diag.Diag
module Journal = Csrtl_fault.Journal

val version : int
(** Protocol version, 3; frames carry it as ["v"].  It is the one
    protocol the daemon speaks: a frame with any other version is
    refused under [serve.request]. *)

type engine = [ `Auto | `Kernel | `Compiled ]

type inject = {
  model : string;  (** inline [.rtm] source text *)
  engine : engine;  (** default [`Auto] *)
  batch : int;  (** lockstep batch size K, default 32 *)
  limit : int option;  (** cap the enumerated fault list *)
  budget_ms : int option;  (** per-fault wall-clock budget *)
  deadline_ms : int option;
      (** whole-request deadline; on expiry the campaign drains to its
          journal and answers [Drained].  [Some 0] means already
          expired: checkpoint immediately and hand back the token. *)
  table : bool;  (** include the per-fault table in [Report.text] *)
  stream : bool;  (** stream [Entry] frames as faults finish *)
  resume : bool;
      (** resume from an existing journal for this token (default
          true); false truncates and recomputes *)
}

type request =
  | Ping
  | Stats
  | Shutdown  (** ask the daemon to drain and exit *)
  | Inject of inject

type tier = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;  (** currently resident *)
  capacity : int;
}
(** One cache tier's counters, as reported per tier in {!stats}. *)

type stats = {
  requests : int;  (** frames accepted since startup *)
  campaigns : int;  (** inject requests that ran to completion *)
  drained : int;  (** campaigns checkpointed by deadline or shutdown *)
  refused : int;
      (** requests the engine refused: admission control, bad models,
          draining.  (Frames the transport could not even decode are
          answered directly by the server layer and not counted.) *)
  active : int;  (** campaigns running right now *)
  queued : int;  (** requests waiting in the admission queue *)
  restarts : int;  (** crashed workers restarted from their journal *)
  crashes : int;  (** worker processes that died without a terminal frame *)
  quarantined : int;  (** models currently held by an open circuit breaker *)
  model : tier;  (** parsed-model compile cache (keyed by text md5) *)
  plan : tier;  (** compiled {!Csrtl_core.Batch.plan} cache *)
  golden : tier;  (** golden {!Csrtl_fault.Artifact} cache *)
}

type response =
  | Pong of { version : string }
  | Started of {
      token : string;
      total : int;
      cached : bool;
      plan_cached : bool;
      golden_cached : bool;
    }
      (** accepted: resume token, fault count, and which cache tiers
          hit — model (parse skipped), plan (fault enumeration
          skipped), golden (clean simulations skipped) *)
  | Artifact of { key : string; text : string }
      (** internal worker→daemon frame: a campaign worker ships the
          golden artifact it built ({!Csrtl_fault.Artifact.to_string}
          bytes under the golden-tier [key]) back over its pipe before
          running the campaign, so the parent's golden cache warms
          even if the worker later crashes.  The supervisor consumes
          it; clients never see one. *)
  | Entry of Journal.entry  (** one streamed fault outcome *)
  | Report of {
      status : int;  (** 0 clean, 1 findings *)
      code : int;  (** offline [csrtl inject] exit code (0/4/5) *)
      token : string;
      reused : int;
      rerun : int;
      torn : int;
      text : string;  (** byte-identical to offline inject stdout *)
    }
  | Drained of {
      status : int;  (** always 1 *)
      token : string;  (** resend the same request to resume *)
      completed : int;
      total : int;
      reason : string;  (** ["deadline"] or ["shutdown"] *)
    }
  | Queued of { position : int; retry_after_ms : int }
      (** the request is waiting in the admission queue: its position
          (1 = next) and the estimated wait — sent once on entry so an
          interactive client can tell backpressure from a hang *)
  | Refused of {
      status : int;
      retry_after_ms : int option;
          (** busy/quarantined refusals carry a backpressure hint: wait
              roughly this long before resending.  [None] on refusals
              where retrying cannot help (bad model, daemon bug). *)
      diags : Diag.t list;
    }
      (** 1 = busy/quarantined/draining, 2 = bad request or model,
          3 = daemon bug or a worker that kept crashing *)
  | Stats_reply of stats
  | Bye  (** shutdown acknowledged *)

val encode_request : request -> string
(** One line, no trailing newline. *)

val encode_response : response -> string

val decode_request :
  ?limits:Diag.Limits.t -> string -> (request, Diag.t list) result
(** Total on arbitrary bytes.  [limits.max_nesting] bounds JSON
    nesting. *)

val decode_response :
  ?limits:Diag.Limits.t -> string -> (response, Diag.t list) result
