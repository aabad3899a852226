(** Deterministic chaos harness for the crash-only daemon.

    Drives a real {!Csrtl_serve.Engine} — the code [csrtl serve] runs,
    minus the socket — through a seeded sequence of injected failures
    (worker SIGKILL, torn journal tails, ENOSPC on append, EIO on
    checkpoint fsync, delayed frames) and checks the service's
    signature invariant after every one:

    - the recovered campaign report is byte-identical to undisturbed
      offline [csrtl inject] output;
    - the daemon keeps answering (ping after every scenario);
    - a healthy client's concurrent campaign on an untouched model
      always completes, byte-identically.

    A scheduled journal fault (ENOSPC/EIO) reaches the workers as
    data ({!Csrtl_fault.Journal.set_chaos}); one that no observed
    worker crash follows never fired, and counts as a violation.

    Everything derives from the splitmix64 [seed]: same seed, same
    fault sequence, same verdict — a chaos failure is a reproducible
    failure.  Exposed to the CLI as [csrtl chaos] and to CI as
    [make chaos-smoke]. *)

type summary = {
  runs : int;
  kills : int;  (** worker-SIGKILL scenarios injected *)
  torn : int;  (** torn-journal-tail scenarios *)
  enospc : int;  (** ENOSPC-on-append scenarios *)
  eio : int;  (** EIO-on-fsync scenarios *)
  delays : int;  (** frame-delay scenarios *)
  crashes : int;  (** worker deaths the supervisor observed *)
  restarts : int;  (** journal-checkpoint restarts it performed *)
  healthy : int;  (** concurrent healthy campaigns completed *)
  violations : string list;  (** empty iff the invariant held throughout *)
}

val run : ?log:(string -> unit) -> seed:int -> runs:int -> unit -> summary
(** Run [runs] seeded failure scenarios against a fresh engine in a
    scratch state directory (removed afterwards).  [log] receives
    progress lines and violation reports as they happen. *)
