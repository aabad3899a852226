(** The cacheable golden work of a fault campaign.

    An artifact holds what a warm campaign cannot cheaply rebuild:
    both engines' clean golden observations.  Build one with
    {!Campaign.prepare}; pass it back via the campaign entry points'
    [?golden] argument and the warm campaign skips the golden
    simulations.

    Golden checkpoints are not part of it.  Every control-step
    boundary is quiescent (SEMANTICS §10), so the golden state at a
    boundary is one golden-row run of the static schedule away
    ({!Csrtl_core.Batch.snapshots_at}), while a
    stored {!Csrtl_core.Snapshot} carries its whole observation prefix
    and made the artifact quadratic in schedule length.  A warm
    campaign builds the checkpoints its kernel-path faults read
    exactly as a cold one does, so both restore from the same
    boundaries.  Nor is the compiled plan (closures don't serialize
    and recompiling is cheap); {!Csrtl_core.Batch.plan} rebuilds it.

    Artifacts are content-addressed by (model digest, config tag):
    {!Csrtl_core.Snapshot.digest_of_model} covers the raw model text,
    so editing the model can never reuse a stale artifact — the key
    changes, the old entry ages out of its LRU.

    The daemon keys its in-memory golden tier with these; [csrtl
    inject --artifact-cache DIR] stores {!to_string} bytes on disk,
    one file per key. *)

open Csrtl_core

type t = {
  digest : string;  (** {!Csrtl_core.Snapshot.digest_of_model} *)
  config : string;  (** {!Journal.config_tag} of the build config *)
  golden_k : Observation.t;  (** kernel-side clean golden *)
  golden_i : Observation.t;  (** interpreter clean golden *)
}

val matches : digest:string -> config_tag:string -> t -> bool
(** O(1) header check: the artifact records exactly this model digest
    and config tag.  Sufficient wherever the caller already holds the
    model's digest — the daemon's tiers, which are content-addressed
    by (digest | config tag), and a worker handed the tier's bytes.
    An artifact read from disk gets the full {!validate} instead. *)

val validate : Model.t -> config:Simulate.config -> t -> (unit, string) result
(** Structural check against the model and config the artifact is
    about to serve: digest and config tag must match and goldens must
    be of this model.  An artifact read from disk must pass this
    before use — a corrupt or mismatched entry is a cache miss, never
    a crash. *)

val to_string : t -> string
(** Versioned text serialization (magic ["csrtl-artifact 3"]): the
    golden observations are embedded verbatim in their own versioned
    format between section markers.  Its size is linear in the
    schedule length. *)

val of_string : string -> (t, string) result
(** Total inverse of {!to_string} — any input yields [Ok] or a
    human-readable [Error], never an exception.  Any other version is
    an [Error] — the checkpoint-carrying ["csrtl-artifact 1"] and
    ["csrtl-artifact 2"], which also stored a timed golden cost,
    included: a cache holding one rebuilds it. *)

val save : string -> t -> unit
(** Write-then-rename: a concurrent {!load} sees complete bytes or
    nothing.  Raises [Sys_error] on I/O failure. *)

val load : string -> (t, string) result
(** Read and parse; I/O errors come back as [Error]. *)
