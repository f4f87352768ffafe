(** A serialising transmission resource.

    Models the injection side of a network link (or any single-server
    pipeline stage such as a DMA engine or a memcpy unit): work items
    occupy the resource back-to-back, so a burst of messages serialises
    while idle periods are skipped.

    Two usage styles coexist:

    {ul
    {- {!occupy} — the seed interface. The caller computes the duration
       (e.g. from a {!Profile}) and schedules its own follow-up event at
       the returned completion time. Used by the per-node injection
       links, receive engines and kernel copy pipelines.}
    {- {!transmit} — the topology interface. The link carries its own
       [bandwidth] and propagation [latency]; concurrent flows FIFO-queue
       behind each other, queue depth and flow counts are tracked, and a
       [queue_limit] turns overload into congestion drops (fed back to
       the {!Fabric} drop accounting, and recovered from by
       [lib/reliability] exactly like wire loss). Used by the shared hop
       links a {!Topology} introduces.}} *)

type t

type congestion = {
  cong_depth : int;  (** Queue depth at the moment of the drop. *)
  cong_bytes : int;  (** Size of the refused transmission. *)
}
(** Passed to the hook installed with {!on_congestion}. *)

val create :
  ?name:string ->
  ?bandwidth:float ->
  ?latency:Sim_engine.Time_ns.t ->
  ?queue_limit:int ->
  ?tracked:bool ->
  Sim_engine.Scheduler.t ->
  t
(** [create sched] is an idle link. Creating one registers no metric:
    the owner of a set of links registers their probes once with
    {!probe_family}.

    [bandwidth] (bytes/s) and [latency] (propagation delay, default 0)
    are used by {!transmit}; [queue_limit] bounds the number of
    simultaneously outstanding transmissions (the one on the wire plus
    those queued behind it) before further traffic is dropped — [None]
    (default) queues without bound, i.e. pure backpressure.

    [tracked] (default false; topology hop links set it) makes
    {!transmit} maintain queue-depth and flow counts — the bookkeeping
    costs one scheduler event per transmission, which the seed's
    private-wire hot paths must not pay. *)

val probe_family :
  Sim_engine.Scheduler.t -> size:int -> (int -> t) -> unit
(** [probe_family sched ~size link] registers the ["link.busy_us"] and
    ["link.utilization"] probe families over links
    [link 0 .. link (size - 1)] in [sched]'s metrics registry, member [i]
    labelled [("link", name (link i))] (see
    [Sim_engine.Metrics.probe_family]). For tracked links it also
    registers ["link.queue_depth"] (peak outstanding transmissions),
    ["link.flows"] (peak concurrent distinct flows),
    ["link.congestion_drops"] and ["link.busy_ns"]; [link 0] decides
    whether the links are tracked, so one family must not mix the two.
    Utilisation is measured against [sched]'s clock. *)

val occupy : t -> Sim_engine.Time_ns.t -> Sim_engine.Time_ns.t
(** [occupy t d] reserves the resource for duration [d] starting at the
    first instant it is free (now, or the end of previously queued work)
    and returns the absolute completion time. Non-blocking: callers
    schedule follow-up events at the returned time. *)

val transmit :
  t ->
  ?flow:int ->
  bytes:int ->
  unit ->
  [ `Accepted of Sim_engine.Time_ns.t | `Dropped ]
(** [transmit t ~flow ~bytes ()] offers a [bytes]-long store-and-forward
    transmission to the link. If accepted, it occupies the link for
    [bytes / bandwidth] behind everything already queued and the result
    is the absolute time the message has {e arrived at the far end}
    (completion plus [latency]); the caller schedules the next hop (or
    delivery) at that instant. [`Dropped] means the queue limit was hit:
    the message is lost here, as a congested store-and-forward switch
    with full buffers would lose it. [flow] identifies the (src, dst)
    stream for the concurrent-flow statistics of tracked links.

    Raises [Invalid_argument] if the link has no [bandwidth]. *)

val on_congestion : t -> (congestion -> unit) -> unit
(** Install a hook run on every congestion drop (after the drop counter
    is bumped). The fabric uses it for drop accounting; tests and
    backpressure schemes can observe overload pointwise. At most one
    hook; installing replaces the previous one. *)

val name : t -> string

val busy_time : t -> Sim_engine.Time_ns.t
(** Total time the resource has been occupied (utilisation numerator). *)

val queue_depth : t -> int
(** Outstanding transmissions right now (tracked links only; 0
    otherwise). *)

val peak_queue_depth : t -> int
(** High-water mark of {!queue_depth} over the run. *)

val peak_flows : t -> int
(** High-water mark of concurrent distinct flows (tracked links only). *)

val congestion_drops : t -> int
(** Transmissions refused because the queue limit was reached. *)
