(** Process suspension primitives.

    Kernel processes are ordinary OCaml functions; they suspend by
    performing the {!Wait} effect, which the scheduler handles by
    capturing the continuation.  These functions may only be called
    from inside a process body started by {!Scheduler.add_process}. *)

type wait_spec = {
  on : Types.signal list;  (** sensitivity list *)
  until : (unit -> bool) option;
      (** [wait until]: after an event on [on], resume only when the
          predicate holds (VHDL re-suspends otherwise). *)
  for_ : Time.t option;  (** timeout clause *)
  keyed : (Types.signal * Types.value * (Types.signal * Types.value) option)
          option;
      (** value-keyed wait, see {!wait_keyed} *)
}

type _ Effect.t += Wait : wait_spec -> unit Effect.t

val wait_on : Types.signal list -> unit
(** Suspend until an event occurs on any listed signal. *)

val wait_until : Types.signal list -> (unit -> bool) -> unit
(** VHDL [wait until cond]: suspend; on each event on the sensitivity
    list evaluate [cond]; resume when it is true.  Note that, as in
    VHDL, the process suspends even if [cond] already holds. *)

val wait_for : Time.t -> unit
(** Suspend for a physical-time delay. *)

val wait_forever : unit -> unit
(** Suspend permanently (VHDL [wait;]). *)

val wait_keyed :
  ?extra:Types.signal * Types.value -> Types.signal -> Types.value -> unit
(** [wait_keyed s v] suspends until an event sets [s] to exactly [v];
    with [~extra:(s2, v2)] the process additionally requires
    [s2 = v2] at that moment (it stays registered otherwise).
    Semantically equal to [wait_until [s; s2] (fun () -> ...)] for
    monotonic control signals, but the kernel indexes the waiters by
    value, so only matching processes are scanned per event — the
    optimization that makes the paper's statically-scheduled TRANS
    processes cheap.  See the ablation table (A) of the bench report. *)

val name : Types.process -> string
val activations : Types.process -> int
