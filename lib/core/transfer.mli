(** Register transfers: the paper's 9-tuples and their legs.

    A concrete register transfer is written as the tuple
    [(srcA, busA, srcB, busB, readStep, module, writeStep, writeBus,
    dstReg)] (paper Fig. 1); any field except the module may be absent
    ("-" in the paper).  A tuple {e decomposes} into up to six [TRANS]
    process instances — its {e legs} — one per phase slot, and legs
    {e recompose} into (partial) tuples.  This bidirectional mapping
    is the paper's §2.7 formal-semantics bridge; we also implement the
    [merge] the paper leaves implicit: joining a read-part and a
    write-part of the same functional unit whose step distance equals
    the unit's latency. *)

type source =
  | From_reg of string
  | From_input of string  (** entity input port, readable like a register output *)

type dest =
  | To_reg of string
  | To_output of string  (** entity output port, writable like a register input *)

type t = {
  src_a : source option;
  bus_a : string option;
  src_b : source option;
  bus_b : string option;
  read_step : int option;
  fu : string;
  op : Ops.t option;  (** §3 extension; [None] = unit's first operation *)
  write_step : int option;
  write_bus : string option;
  dst : dest option;
}

(** Sinks and sources of individual phase legs. *)
type endpoint =
  | Reg_out of string
  | Reg_in of string
  | Fu_in of string * int  (** port 1 or 2 *)
  | Fu_out of string
  | Bus of string
  | In_port of string
  | Out_port of string

(** One [TRANS] process instance: at control step [step], phase
    [phase], the value at [src] is transferred to [dst]. *)
type leg = {
  step : int;
  phase : Phase.t;
  src : endpoint;
  dst : endpoint;
}

(** Operation selection accompanying the read part of a transfer:
    which operation the unit performs on the operands read at
    [sel_step]. *)
type op_select = {
  sel_step : int;
  sel_fu : string;
  sel_op : Ops.t;
}

val make :
  ?src_a:source -> ?bus_a:string -> ?src_b:source -> ?bus_b:string ->
  ?read_step:int -> ?op:Ops.t -> ?write_step:int -> ?write_bus:string ->
  ?dst:dest -> fu:string -> unit -> t

val full :
  src_a:source -> bus_a:string -> src_b:source -> bus_b:string ->
  read_step:int -> fu:string -> ?op:Ops.t -> write_step:int ->
  write_bus:string -> dst:dest -> unit -> t
(** The complete 9-tuple of Fig. 1. *)

val decompose : t -> leg list * op_select list
(** Legs in phase order ([Ra] a, [Ra] b, [Rb] a, [Rb] b, [Wa], [Wb]),
    plus the op selection if the tuple has a read part. *)

val compose : leg list -> op_select list -> t list
(** Recompose legs into partial tuples, the inverse direction of the
    paper's §2.7 mapping.  Read legs pair by (step, bus, unit port);
    write legs pair by (step, bus, unit).  Unpairable legs yield
    tuples with the known fields only.  The result is sorted. *)

val merge : latency_of:(string -> int) -> t list -> t list
(** Join read-only and write-only partial tuples of the same unit when
    [write_step = read_step + latency], producing full tuples. *)

val leg_source_name : source -> string
val leg_dest_name : dest -> string

val endpoint_name : endpoint -> string
(** Canonical signal name, e.g. [R1.out], [ADD.in1], [B1]. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
(** Paper notation: [(R1,B1,R2,B2,5,ADD,6,B1,R1)], with ["-"] for
    absent fields and [:op] after the unit when an operation is
    selected. *)

val leg_to_string : leg -> string
(** [src -> dst @step/phase], e.g. [R1.out -> B1 @5/ra]. *)

val pp_leg : Format.formatter -> leg -> unit
(** Prints {!leg_to_string}. *)

val to_string : t -> string
