(** Deterministic pseudo-random number generator (splitmix64).

    The simulator must be reproducible: a run with the same seed produces
    the same event interleaving and the same measurements. We therefore use
    an explicit-state splitmix64 generator rather than the global [Random]
    state, so independent components can carry independent streams. *)

type t

val create : seed:int -> t
(** [create ~seed] is a fresh generator. Equal seeds give equal streams. *)

val split : t -> t
(** [split t] derives a new, statistically independent generator from [t],
    advancing [t]. Useful to give each simulated node its own stream. *)

val derive : seed:int -> index:int -> t
(** [derive ~seed ~index] is a statistically independent generator that is
    a pure function of [(seed, index)] — no generator is advanced, so the
    stream shard [index] sees does not depend on how many other shards
    exist or when they were created. No derived stream coincides with the
    root stream [create ~seed] (the index, offset by one, is mixed through
    two splitmix64 rounds first). *)

val derived_seed : seed:int -> index:int -> int
(** The integer seed underlying [derive ~seed ~index], for components that
    take a seed rather than a generator. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is a uniform integer in [\[0, bound)]. [bound] must be
    positive. *)

val float : t -> float -> float
(** [float t bound] is a uniform float in [\[0, bound)]. *)

val exponential : t -> mean:float -> float
(** [exponential t ~mean] samples an exponential distribution. *)

val shuffle_in_place : t -> 'a array -> unit
(** Fisher–Yates shuffle driven by [t]. *)
