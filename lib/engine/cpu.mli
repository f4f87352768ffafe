(** Host-processor occupancy model.

    The application-bypass phenomenon the paper demonstrates is about
    {e which processor} executes protocol code and {e when}. This module
    models a host CPU precisely enough for that:

    {ul
    {- An application fiber performs computation with {!compute}; while it
       runs, the fiber makes no library calls (the paper's "work
       interval").}
    {- Asynchronous protocol work executed on the host — interrupt
       handlers, kernel-module message processing — charges the CPU via
       {!steal}: if a computation is in flight its completion is pushed
       back by the stolen time, which is how interrupt overhead perturbs
       the application.}
    {- Protocol work executed on a NIC processor uses a different [Cpu]
       (or none), leaving the host computation untouched — application
       bypass.}}

    Computations on one CPU are serialised FIFO. *)

type t

val create : ?name:string -> Scheduler.t -> t
(** A fresh idle CPU. Creating one registers no metric: the owner of a
    set of CPUs registers their probes once with {!probe_family}.
    Completed {!compute} intervals emit ["cpu"] trace spans when the
    scheduler's trace is enabled. *)

val probe_family : Scheduler.t -> size:int -> (int -> t) -> unit
(** [probe_family sched ~size cpu] registers the ["cpu.stolen_us"],
    ["cpu.compute_us"] and ["cpu.occupancy"] probe families over CPUs
    [cpu 0 .. cpu (size - 1)] in [sched]'s metrics registry, member [i]
    labelled [("cpu", name (cpu i))] (see {!Metrics.probe_family}).
    Occupancy is measured against [sched]'s clock. *)

val name : t -> string

val compute : t -> Time_ns.t -> unit
(** Fiber-only. Occupies the CPU for the given duration of simulated time,
    extended by any time stolen (interrupts) while it runs. *)

val steal : t -> Time_ns.t -> unit
(** Charge asynchronous host-side protocol work to this CPU. Extends the
    in-flight {!compute}, if any; always accounted in {!stolen_total}. *)

val stolen_total : t -> Time_ns.t
(** Cumulative time consumed via {!steal}. *)

val compute_total : t -> Time_ns.t
(** Cumulative time requested via {!compute} (excluding stolen
    extensions). *)

val busy : t -> bool
(** Whether a computation is currently in flight. *)
