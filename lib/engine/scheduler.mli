(** Deterministic discrete-event scheduler with direct-style fibers.

    Simulated application code (MPI programs, protocol state machines, the
    examples) is written as ordinary OCaml functions running inside
    {e fibers}. A fiber that performs a blocking simulation operation —
    [delay], waiting on an event queue, receiving a message — suspends via
    an OCaml 5 effect and is resumed by a later simulation event. The
    scheduler interleaves fibers at simulated-time granularity; there is no
    OS-level concurrency, so runs are fully deterministic for a given seed.

    Events scheduled for the same instant fire in scheduling order.

    Blocked fibers sit in an indexed set, not a hash table: suspending
    appends one entry (holding the continuation) and waking removes it by
    moving the last entry into its slot, both O(1). The set's order is
    not observable: {!kill_domain} kills in fiber-id order, and
    {!Deadlock} and {!blocked_report} sort their lines. *)

type t

exception Deadlock of string list
(** Raised by {!run} when no events remain but fibers are still blocked.
    Each entry reports the deadlock's simulated time, the fiber's id and
    name, when it blocked, and what it was waiting on, e.g.
    ["at t=12.5us fiber#3 (rank1) blocked since t=4.0us on mpi.recv"].
    The list is sorted ([compare] on the strings). *)

exception Stopped
(** Raised inside {!run} processing when {!stop} was requested; callers of
    [run] do not see it. *)

exception Killed
(** Raised asynchronously inside a fiber whose domain was destroyed by
    {!kill_domain} — at the fiber's current (or next) blocking point.
    Fibers may catch it to run cleanup; an uncaught [Killed] terminates
    the fiber silently rather than aborting the run. *)

val create : unit -> t
(** [create ()] is a fresh scheduler at time 0. Its own {!trace} keeps the
    last 65536 spans. *)

val now : t -> Time_ns.t
(** Current simulated time. *)

val metrics : t -> Metrics.t
(** The metrics registry shared by every component driven by this
    scheduler. Enabled by default; one registry per simulated world. *)

val trace : t -> Trace.t
(** The span trace shared by every component driven by this scheduler.
    Disabled by default ({!Trace.enable} to start recording). *)

val spawn : t -> ?name:string -> ?domain:int -> (unit -> unit) -> unit
(** [spawn t ~name f] creates a fiber running [f], starting at the current
    simulated time (it runs when the scheduler reaches the corresponding
    event, not immediately). An exception escaping [f] aborts the whole
    run and is re-raised from {!run}.

    [domain] tags the fiber as resident on a fault domain (by convention a
    simulated node id) so {!kill_domain} can destroy it; untagged fibers
    are immortal. *)

val kill_domain : t -> int -> int
(** [kill_domain t d] destroys every live fiber spawned with [~domain:d]:
    blocked fibers are discontinued with {!Killed} immediately (in fiber-id
    order, deterministically), runnable ones at their next scheduling
    point, and not-yet-started ones never run. Fibers spawned with
    [~domain:d] {e after} this call belong to the node's next incarnation
    and are unaffected. Returns the number of blocked fibers killed
    synchronously. Cost: one scan of the blocked set plus a sort of the
    victims. *)

val at : t -> Time_ns.t -> (unit -> unit) -> unit
(** [at t time f] schedules callback [f] at absolute [time], which must not
    be in the past. Callbacks must not block; blocking code belongs in a
    fiber ({!spawn}). *)

val after : t -> Time_ns.t -> (unit -> unit) -> unit
(** [after t dt f] is [at t (now t + dt) f]. *)

val delay : t -> Time_ns.t -> unit
(** Fiber-only. Suspends the calling fiber for [dt] of simulated time. *)

val delay_until : t -> Time_ns.t -> unit
(** Fiber-only. Suspends the calling fiber until the given absolute time;
    returns immediately if the time is not in the future. *)

val yield : t -> unit
(** Fiber-only. Re-queues the calling fiber at the current time, letting
    already-scheduled same-instant events run first. *)

val suspend : t -> name:string -> ((unit -> unit) -> unit) -> unit
(** [suspend t ~name register] is the primitive blocking operation:
    suspends the calling fiber and hands [register] a {e waker}. Invoking
    the waker (exactly once) schedules the fiber's resumption at the
    simulated time of the invocation. [name] labels the fiber's blocked
    state for {!Deadlock} reports.

    Cost: one effect, one blocked-set entry (an append, O(1), no hashing)
    and the waker closure; invoking the waker removes the entry in O(1)
    and enqueues one resumption event. A second invocation of the same
    waker raises [Invalid_argument] unless the fiber was killed, in which
    case every invocation is a no-op. *)

val run : ?until:Time_ns.t -> ?allow_blocked:bool -> t -> unit
(** [run t] processes events until none remain. If fibers are still
    blocked at that point, raises {!Deadlock} unless [allow_blocked] is
    true. With [until], stops once the next event lies beyond [until]
    (pending events stay queued and blocked fibers are not an error). *)

val stop : t -> unit
(** Request that {!run} return after the current event completes. *)

val live_fibers : t -> int
(** Number of fibers spawned and not yet finished. *)

(** {1 Performance counters}

    Cheap run-loop instrumentation (plain integer increments on the hot
    path). The metrics probes ["sched.events_processed"],
    ["sched.fibers_spawned"] and ["sched.heap_peak"] publish the event
    count, the fibers ever spawned and the pending-event heap's
    high-water mark. *)

val events_processed : t -> int
(** Events popped and executed by {!run} over this scheduler's lifetime. *)

type totals = { t_events : int; t_fibers : int; t_sim_time : Time_ns.t }
(** Process-wide accumulation across {e every} scheduler instance:
    events processed, fibers spawned, and simulated time advanced. *)

val global_totals : unit -> totals
(** Snapshot of the process-wide totals. Harnesses meter an experiment —
    which may build many worlds — by taking the delta of two snapshots
    around it; paired with a wall clock this yields sim-events/sec. The
    counters are atomics, so parallel worlds (one scheduler per domain)
    accumulate race-free. *)

val count_sim_time : t -> bool -> unit
(** Whether {!run} credits this scheduler's clock advances to the global
    sim-time total (default true). A parallel world turns it off on every
    shard scheduler — S shards advance S clocks over the same interval —
    and credits the merged global clock once via {!add_global_sim_time},
    keeping totals identical to the sequential run. *)

val add_global_sim_time : Time_ns.t -> unit
(** Credit an externally-tracked clock advance to the global sim-time
    total (see {!count_sim_time}). *)

val advance_to : t -> Time_ns.t -> unit
(** Move the clock of a scheduler that is not running forward to a
    time no pending event precedes, running nothing and crediting no
    sim time. The shard runtime brings every shard to the merged clock
    this way when a run ends. Raises [Invalid_argument] if the time is
    before {!now} or after the earliest pending event. *)

val next_event_time : t -> Time_ns.t option
(** Earliest pending event, if any — the shard barrier's reduction input. *)

val blocked_report : t -> string list
(** The {!Deadlock}-style report for currently blocked fibers, sorted
    the same way; O(n log n) in the blocked fibers. The shard
    runtime aggregates these across domains before raising, since a
    windowed [run ~until] never raises {!Deadlock} itself. *)
