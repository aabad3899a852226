(** Bounded, per-client-fair admission queue for campaign requests.

    Replaces the hard [serve.busy] refusal: up to [max_active]
    campaigns run concurrently, excess requests wait in per-client
    FIFOs granted round-robin across clients (one grant per client per
    turn), and only when the queue itself is full — overall or for
    that client — is the request refused, carrying a [retry_after_ms]
    backpressure hint derived from observed campaign wall times.

    A plain, deterministic data structure for the daemon's one loop:
    {!admit} decides at once, {!release} hands the freed lane to the
    next waiter before it returns, and the loop's timer ({!expire})
    and stop flag ({!drain}) end the other waits. *)

type t

val create : max_active:int -> max_queue:int -> max_per_client:int -> unit -> t
(** [max_active <= 0] means "always busy" — every admission attempt is
    refused immediately (the deliberate zero-width configuration the
    admission tests use).  [max_queue] bounds total waiters;
    [max_per_client] bounds one client's waiters. *)

type refusal = { retry_after_ms : int }
(** Backpressure hint: roughly one queue-drain at recently observed
    campaign wall times, clamped to [50, 60_000] ms. *)

type decision =
  | Admitted  (** a lane is held; the caller must {!release} it *)
  | Queued of { position : int; retry_after_ms : int }
      (** waiting; [on_wake] fires exactly once, later *)
  | Busy of refusal  (** queue full (or zero-width daemon) — refused *)

type wake =
  | Granted  (** a lane is held; the caller must {!release} it *)
  | Expired of refusal  (** the request's deadline passed while queued *)
  | Draining  (** the daemon began draining while the request waited *)

val admit :
  t -> client:int -> deadline:float option -> on_wake:(wake -> unit) ->
  decision
(** [deadline] is absolute ([Unix.gettimeofday] clock).  [on_wake] is
    called only for a [Queued] request. *)

val release : t -> wall_ms:float -> unit
(** Return a lane and grant it to the next waiter in round-robin
    order, whose [on_wake Granted] runs before [release] returns.
    [wall_ms] is the campaign's wall time, fed to the EWMA behind
    [retry_after_ms]; a negative value skips the sample. *)

val expire : t -> now:float -> float
(** Wake every waiter whose deadline is before [now] with [Expired];
    returns the earliest deadline left ([infinity] if none), when the
    loop must next call it. *)

val drain : t -> unit
(** Wake every waiter with [Draining]. *)

type snapshot = { active : int; queued : int }

val snapshot : t -> snapshot
