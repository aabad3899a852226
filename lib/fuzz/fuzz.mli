(** Deterministic fuzzing of the untrusted-input frontier.

    Every entry point that accepts bytes from outside — the VHDL
    lexer/parser/linter/extractor, the [.rtm] corpus reader, the
    [.alg] program parser, the serve daemon's wire-frame decoder,
    the campaign journal reader, the snapshot and golden-artifact
    readers, the campaign worker's job decoder, model validation and one bounded
    simulation step — promises to return diagnostics instead of raising.  This
    harness hammers that promise: seeded grammar-aware generation plus
    byte-level mutation produce inputs, each input is pushed through
    the full pipeline under {!Csrtl_par.Par.run_supervised}, and {e
    any} escaped exception is a bug.

    Everything is a pure function of [seed]: the PRNG is a local
    splitmix64, no wall clock or global [Random] state is consulted,
    so a crash found on one machine replays everywhere.  Crashes are
    deduplicated by signature (exception text with digits masked) and
    shrunk greedily before being reported or written out. *)

(** The splitmix64 generator behind every seeded harness: the fuzzer
    and the chaos gate ([csrtl chaos]). *)
module Rng : sig
  type t

  val make : int -> t

  val int : t -> int -> int
  (** [int r bound] is uniform in [0 .. bound - 1] for [bound >= 1], and
      0 otherwise. *)
end

type target = Vhdl | Rtm | Alg | Frame | Journal | Snapshot | Artifact | Job

val target_of_string : string -> target option
val target_to_string : target -> string
val all_targets : target list

type crash = {
  target : target;
  run : int;  (** 0-based index of the run that found it *)
  signature : string;  (** dedup key: first line, digits masked *)
  error : string;  (** the escaped exception, verbatim *)
  input : string;  (** shrunk reproducer *)
  original_size : int;  (** bytes before shrinking *)
}

type report = {
  runs : int;  (** inputs executed *)
  rejected : int;  (** inputs answered with error diagnostics *)
  accepted : int;  (** inputs that sailed through cleanly *)
  crashes : crash list;  (** deduplicated, in discovery order *)
}

val exercise :
  ?limits:Csrtl_diag.Diag.Limits.t -> target -> string -> [ `Clean | `Rejected ]
(** One pipeline pass over one input: parse, lint, extract/validate,
    and — when everything is accepted — one bounded simulation under
    the watchdog.  [`Rejected] means error diagnostics came back.
    The [Frame] target drives the serve daemon's wire codec instead:
    both decoders must be total, a rejected frame must carry
    diagnostics, and an accepted request must survive an
    encode/decode round trip unchanged.  The [Journal] target reads
    the bytes as a campaign journal ({!Csrtl_fault.Journal.of_string}):
    it must answer [Ok] or [Error], count every line it does not reuse
    as torn, and reuse only lines the writer would emit.  The
    [Snapshot] target reads a control-step snapshot
    ({!Csrtl_core.Snapshot.of_string}); one that validates against
    the paper's Fig. 1 model must resume on the static-schedule arena
    ({!Csrtl_core.Batch.resume}) without raising, to the interpreter's
    observation.  The [Artifact] target reads a campaign golden
    artifact ({!Csrtl_fault.Artifact.of_string}): reading and
    validating must be total, and an accepted artifact must
    re-serialize to itself.  The [Job] target decodes a campaign
    worker's stdin ({!Csrtl_serve.Engine.decode_job}): it must return a
    job or raise [Json.Bad], and an accepted job must survive an
    encode/decode round trip unchanged.  Raising is precisely the bug
    the fuzzer exists to find; the {!run} driver supervises this
    call, tests may call it directly. *)

val run :
  ?limits:Csrtl_diag.Diag.Limits.t ->
  ?budget:float ->
  ?out_dir:string ->
  ?progress:(int -> int -> unit) ->
  seed:int -> runs:int -> target list -> report
(** Fuzz [runs] inputs spread round-robin over the targets.  [budget]
    (seconds, default 5.0) is the supervision bound per input — an
    input that exceeds it counts as a crash (the pipeline is supposed
    to be internally bounded).  With [out_dir], each deduplicated
    crash is written as a reproducer file plus an [.err] sidecar.
    [progress] is called with (runs done, crashes so far) every few
    hundred inputs. *)

val pp_report : Format.formatter -> report -> unit
