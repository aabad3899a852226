(** Bounded LRU for the daemon's compile cache and warm tiers, owned
    by the daemon's one loop (no locking).

    Keys are content digests (the md5 of the raw model text), values
    the elaborated model plus its structural digest — so a repeated
    request skips parse and validation entirely.  The size bound is a
    robustness feature, not a tuning knob: a client cycling through
    unique models must evict, never grow the daemon without bound.
    Hit/miss/eviction counts feed the [stats] wire response. *)

type 'a t

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;  (** currently resident *)
  capacity : int;
}

val create : capacity:int -> 'a t
(** [Invalid_argument] when [capacity < 1]. *)

val find : 'a t -> string -> 'a option
(** Refreshes the entry's LRU stamp; counts a hit or a miss. *)

val add : 'a t -> string -> 'a -> unit
(** Insert, evicting the least-recently-used entry at capacity.
    An existing key keeps the first writer's value (values are
    content-addressed, so a second insert is byte-equal anyway) but
    its LRU stamp is refreshed — a second insert counts as a
    use, not a silent drop that leaves the entry cold. *)

val stats : 'a t -> stats
