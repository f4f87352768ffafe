(** Central metrics registry for the whole fabric.

    Subsystems register named instruments — counters, gauges, polled
    probes, summaries, and (x, y) time-series — carrying string labels
    such as [("proc", "1:0")] or [("reason", "no_match")]. Experiments and
    the CLI then read one uniform {!Snapshot} instead of reaching into
    per-module statistics records.

    Cost model: instruments are registered once at component setup;
    mutation costs the arithmetic alone (a series also tests the detail
    level, see {!set_detail}); probes are closures polled only by
    {!snapshot}, so the instrumented hot path pays nothing for them.
    Registering a counter, gauge, summary or series normalises its labels
    and makes one table entry. Registering a {!probe} or a
    {!probe_family} is one record on a list: labels are normalised, keys
    resolved and values polled only when a snapshot is taken, so that
    cost moves from every component's setup to the (rare) snapshot. A
    probe shadowed by a later one stays reachable until the registry is
    dropped.

    Registration is idempotent: asking for a counter, gauge, summary or
    series under an existing (name, labels) key returns the
    already-registered instrument. Asking for such a key that exists with
    a different instrument kind raises [Invalid_argument]. A later
    {!probe} under an existing probe's key shadows it — components
    recreated under the same identity replace their predecessor's probe.
    A probe whose key is also a counter's, gauge's, summary's or series'
    makes {!snapshot} raise [Invalid_argument], whichever was registered
    first.

    Per-component gauges (one per CPU, link or receive engine) are
    registered as {!probe_family}: one registration per metric for a
    whole array of components, owned by whoever owns the array. Creating
    a [Cpu.t] or a [Link.t] registers nothing, so building a world costs
    one registration per metric, not one per component. *)

type t

type labels = (string * string) list
(** Label sets are normalised: sorted by key, duplicate keys collapsed. *)

val create : ?detail:bool -> unit -> t
(** A fresh registry. [detail] (default [false]) turns on time-series
    sampling — see {!set_detail}. *)

val detail : t -> bool

val set_detail : t -> bool -> unit
(** Time-series sampling ({!push}) is a separate, default-off detail
    level: every sample allocates a point, and some series sample once
    per message (event-queue depth, protocol windows), which is too
    expensive for large scaling runs that never read the curves.
    Counters, gauges, probes and summaries are unaffected. Deep-dive
    experiments that plot curves (the Fig. 5/6 worlds) enable it. *)

val normalize_labels : labels -> labels
val pp_labels : Format.formatter -> labels -> unit

(** {1 Instruments} *)

type counter
type gauge
type summary
type series

val counter : t -> ?labels:labels -> string -> counter
val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

val gauge : t -> ?labels:labels -> string -> gauge
val set : gauge -> float -> unit

val probe : t -> ?labels:labels -> string -> (unit -> float) -> unit
(** [probe t name f] registers a gauge whose value is [f ()] polled at
    {!snapshot} time. The last probe or family member registered under a
    (name, labels) key is the one a snapshot shows. *)

val probe_family :
  t ->
  label:string ->
  size:int ->
  member:(int -> string) ->
  string ->
  (int -> float) ->
  unit
(** [probe_family t ~label ~size ~member name f] registers [size] probes
    in one go: member [i] is the gauge [name] labelled
    [[(label, member i)]], whose value is [f i] polled at {!snapshot}
    time. Nothing per member is allocated until a snapshot expands the
    family into exactly the entries [size] separate {!probe} calls would
    have produced.

    Where a family member and any other registration share a
    (name, labels) key — an earlier family over the same components, or
    a {!probe} — the snapshot shows only the later registration, as
    re-registering a {!probe} does. Families are never checked against
    other instrument kinds. *)

val summary : t -> ?labels:labels -> string -> summary
val observe : summary -> float -> unit

val series : t -> ?labels:labels -> string -> series

val push : series -> x:float -> y:float -> unit
(** Record one point. No-op unless the registry's detail level is on
    ({!set_detail}). *)

val series_enabled : series -> bool
(** Whether {!push} records right now. Callers guard with it where
    building a point's coordinates costs something (boxed floats), so
    that sampling switched off costs one branch. *)

val series_points : series -> (float * float) list
val series_length : series -> int

val reset : t -> unit
(** Zero every instrument in place (probes are unaffected); registrations
    and handles stay valid. *)

(** {1 Snapshots} *)

module Snapshot : sig
  type value =
    | Counter of int
    | Gauge of float
    | Summary of {
        count : int;
        mean : float;
        min : float;
        max : float;
        stddev : float;
        total : float;
      }
    | Series of (float * float) list

  type entry = { name : string; labels : labels; value : value }

  type t = entry list
  (** Sorted by name, then labels. *)

  val find : ?labels:labels -> t -> string -> value option
  (** The value of the entry with this name and label set, if present. *)

  val find_exn : ?labels:labels -> t -> string -> value
  val filter : t -> string -> entry list
end

val snapshot : t -> Snapshot.t
(** Capture every instrument's current value; probes and family members
    are polled here, and only those that won their key. Raises
    [Invalid_argument] if a probe shares its key with a counter, gauge,
    summary or series. *)

val absorb : t -> ?labels:labels -> Snapshot.t -> unit
(** [absorb t ~labels snap] merges a snapshot into [t], prefixing every
    entry's labels with [labels]. Counters, gauges and summaries
    accumulate, series append. Used to aggregate per-world registries
    into one cross-configuration report, and a sharded world's
    per-shard registries into one. *)
