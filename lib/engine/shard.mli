(** Conservative time-window runtime for parallel discrete-event runs.

    Partitions a simulation across OCaml 5 domains: each {e shard} owns
    one {!Scheduler} (event heap, clock, PRNG, metrics) and the runtime
    synchronizes them with a conservative window barrier. Given
    [lookahead] — the minimum latency of any link whose endpoints live on
    different shards — an event at time [t] can only create remote work
    at or after [t + lookahead], so the half-open window
    [\[start, start + lookahead)] is safe to process without
    communication. Cross-shard work travels as timestamped messages
    ({!post}) drained at window boundaries in an order that is a pure
    function of the simulation — sorted by (time, source shard,
    per-source sequence) — never of OS thread timing.

    Determinism contract: if every message a shard posts is itself a
    deterministic function of that shard's event stream (the fabric
    guarantees this by deriving fault and routing decisions from per-pair
    PRNG streams, not from shared generators), then a run with [N] shards
    produces the same per-node event history as the sequential reference
    for the same seed. The sequential scheduler remains that reference:
    {!run} over a single shard is {!Scheduler.run} on its scheduler. *)

type 'msg t

val create :
  scheds:Scheduler.t array -> lookahead:Time_ns.t option -> unit -> 'msg t
(** [create ~scheds ~lookahead ()] is a runtime over one scheduler per
    shard. [lookahead] is [None] when no link crosses shards (a lone
    shard): no shard can then create work for another, and a window is
    unbounded. A [Some] width must be positive — a zero-latency
    cross-shard link admits no conservative window. Raises
    [Invalid_argument] otherwise. *)

val lookahead : _ t -> Time_ns.t option
(** The window width, as given to {!create}. *)

val rounds : _ t -> int
(** Window rounds completed by the last {!run} — a cheap progress and
    overhead indicator (events per round ≫ 1 is where speedup lives). *)

val post : 'msg t -> src:int -> dst:int -> time:Time_ns.t -> 'msg -> unit
(** [post t ~src ~dst ~time msg] sends [msg] to shard [dst], to be
    delivered at simulated [time]. Must be called from shard [src]'s
    domain during its window. Raises [Invalid_argument] if [time] lands
    inside the current window — that would violate the lookahead bound
    the barrier relies on. *)

val parallel_init : int -> (int -> 'a) -> 'a array
(** [parallel_init n f] is [Array.init n f], with the shards placed as
    {!run} places them (it runs its shards with this): [f 0] on the
    calling domain, each [f k] for [k >= 1] on a domain spawned for it. All of them are joined before
    it returns; if any raised, the exception of the lowest such [k] is
    re-raised. The calls run concurrently, so each [f k] may write only
    what it builds itself and may only read what they share. Raises
    [Invalid_argument] if [n < 1]. *)

val run :
  ?until:Time_ns.t ->
  ?allow_blocked:bool ->
  'msg t ->
  deliver:(shard:int -> time:Time_ns.t -> 'msg -> unit) ->
  unit
(** [run t ~deliver] drives all shards to completion: shard 0 on the
    calling domain, shards [1..N-1] on freshly spawned domains. A single
    shard is run by {!Scheduler.run} alone: it turns no window and never
    calls [deliver].
    [deliver ~shard ~time msg] is invoked on shard [shard]'s domain at a
    window boundary for each message posted to it; it should schedule
    the message into [sched t shard] (e.g. {!Scheduler.at}).

    Mirrors {!Scheduler.run}: with [until], stops once the earliest
    pending event anywhere lies beyond it; without it, raises
    {!Scheduler.Deadlock} (aggregated across shards) if fibers are still
    blocked when no events remain, unless [allow_blocked]. An exception
    raised by any shard's events aborts the whole run at the next window
    boundary and is re-raised here. Global sim-time totals are credited
    once for the merged clock, not once per shard, and a run that ends
    leaves every shard's clock at the merged clock, as the sequential
    run leaves its one. *)
