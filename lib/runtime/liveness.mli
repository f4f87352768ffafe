(** Peer-liveness monitoring: heartbeats, timeouts, and suspicion.

    Portals itself is connectionless and keeps no per-peer state (§3), so
    node death is invisible to it — a message to a dead node just
    vanishes. Detecting death is a {e runtime} job on Cplant: this module
    reproduces that split. One node is the monitor; every other node
    emits a 1-byte heartbeat over the real fabric each period (so beats
    share fate with application traffic: fault models, crash drops, wire
    occupancy) — but as {e raw datagrams}, below any reliability shim:
    only the freshest beat matters, and an ordered-reliable channel
    would let one dropped beat head-of-line-block all later ones into
    false suspicion. A node silent for longer than the timeout is {e
    suspected} and the [on_down] callbacks fire; a beat from a suspected
    node (it restarted) fires [on_up].

    Metrics, labelled with the monitor node:
    [liveness.heartbeats_sent], [liveness.heartbeats_received],
    [liveness.suspects], [liveness.recoveries], and the
    [liveness.suspected_now] gauge. *)

type t

type verdict =
  | Alive  (** Beating within the timeout. *)
  | Suspected_crashed
      (** Silent too long and the node really is down (or the world has
          no partition machinery to blame — e.g. a false positive under
          extreme loss). *)
  | Suspected_partitioned
      (** Silent too long but demonstrably {e up}: an active cut severs
          its heartbeat path — or the world schedules partitions and the
          first post-heal beat has not landed yet. Expect recovery, not
          a funeral: once the heal's first beat arrives the node
          transitions back through [on_up] with no restart. *)

val start :
  ?period:Sim_engine.Time_ns.t ->
  ?timeout:Sim_engine.Time_ns.t ->
  ?monitor:Simnet.Proc_id.nid ->
  until:Sim_engine.Time_ns.t ->
  World.world ->
  t
(** Install the monitor on [monitor] (default node 0) and start every
    other node's emitter. [period] defaults to 200 us, [timeout] (which
    must be at least the period) to 700 us. Emitters and the checker
    self-terminate at [until] — a bound the simulation needs to quiesce.
    Raises [Invalid_argument] on a timeout below the period or a monitor
    node outside the world. *)

val suspected : t -> Simnet.Proc_id.nid list
(** Nodes currently suspected dead, ascending. *)

val verdict : t -> Simnet.Proc_id.nid -> verdict
(** What the monitor believes about a node {e right now}, refining raw
    suspicion with fabric ground truth (node up/down, active cuts) so a
    partitioned-but-alive peer is not reported as crashed. Raises
    [Invalid_argument] on a node outside the world. *)

val pp_verdict : Format.formatter -> verdict -> unit

val on_down : t -> (Simnet.Proc_id.nid -> unit) -> unit
(** Called (with the node id) when a node transitions to suspected. *)

val on_up : t -> (Simnet.Proc_id.nid -> unit) -> unit
(** Called when a suspected node's heartbeat is seen again. *)
