(** The raw message fabric: connectionless delivery of byte strings
    between registered (nid, pid) endpoints.

    This is "the Myrinet" of the simulation. A send serialises on the
    sender's injection {!Link} (so bursts pipeline back-to-back), crosses
    the wire after the profile latency, and is handed to the handler
    registered for the destination process. Messages from one sender to
    one destination are never reordered by the wire itself — a property
    the Portals layer depends on (§2: "reliable, in-order delivery").

    By default the wire is perfect, matching the paper's assumption. A
    {!Fault} model ({!set_fault_model}) makes it lossy: messages may be
    dropped or duplicated after occupying the wire, exactly the regime
    Cplant's reliability protocol — reproduced by [lib/reliability] — was
    built for. On a faulty fabric the in-order/exactly-once guarantee
    holds only with that layer installed (see {!install_shim}).

    Messages to unregistered destinations are dropped and counted, as are
    messages discarded by the fault model (counted per (src, dst) pair in
    the metrics registry under ["fabric.drops_injected"]).

    {b Topology.} By default the fabric is fully connected — every pair
    of nodes owns a private wire, nothing contends, exactly the seed
    model. Passing [~topology] (a built {!Topology.t}) replaces the wires
    with a hop graph of {e shared} links: each message follows the
    {!Router} path for its (src, dst) pair, store-and-forwarding across
    every link with FIFO queueing, so concurrent flows crossing the same
    link serialise. Per-link ["link.queue_depth"] / ["link.busy_ns"] /
    ["link.flows"] instruments land in the metrics registry, and an
    optional [~queue_limit] turns overload into congestion drops
    (["fabric.drops_congested"]) that the {!install_shim} reliability
    layer recovers exactly like wire loss. *)

type t

type stats = {
  messages_sent : int;
  bytes_sent : int;
  messages_delivered : int;
  drops_unregistered : int;
  drops_injected : int;
      (** Total over every (src, dst) pair — derived from the per-pair
          registry counters. *)
  drops_congested : int;
      (** Messages refused by a hop link whose queue hit the fabric's
          [queue_limit]. Always 0 on the default full topology. *)
  drops_crashed : int;
      (** Messages lost to node failure: in flight when an endpoint
          crashed, addressed to a down node, or injected on behalf of a
          down node. *)
  drops_partitioned : int;
      (** Messages severed by a scheduled {!Fault.partition_event} cut. *)
  dups_injected : int;
  corrupts_injected : int;
      (** Frames delivered with fault-model bit damage (every per-hop
          corruption counts). *)
  delays_injected : int;  (** Messages given fault-model extra latency. *)
}

val create :
  ?topology:Topology.t ->
  ?queue_limit:int ->
  ?shard:Shard_map.t * int ->
  Sim_engine.Scheduler.t ->
  profile:Profile.t ->
  nodes:int ->
  t
(** [create sched ~profile ~nodes] is a fabric of [nodes] identical nodes
    numbered [0 .. nodes-1].

    [topology] (default the {!Topology.Full} graph over [nodes]) is the
    interconnect; the fabric only reads it, so the replicas of a sharded
    world share one. Each replica formats the names of the hop links it
    owns ({!Topology.link_name}) once, when it creates them. [queue_limit] (default
    unbounded) caps each shared hop link's outstanding-transmission
    queue, beyond which messages are congestion-dropped.

    [shard] (default: the one shard of a sequential fabric) makes this
    fabric shard [k]'s replica of a world partitioned by the map (see
    Parallel sharding below): it builds a {!Node.t} and handler slots only
    for the block of nodes [k] owns ({!Shard_map.block}), and a hop link
    only where [k] owns the link's source vertex. Of every other node it
    keeps one word: its up bit and crash epoch. Raises
    [Invalid_argument] if [topology] or the map is not over [nodes]
    nodes.

    The fabric registers the probes of the parts it owns, one family per
    metric: ["cpu.*"] over its node CPUs, ["link.*"] over its node
    transmit links and hop links (see {!Link.probe_family}). Its size is
    one word per node of the world plus what it owns; per-pair state
    (FIFO floors, drop counters) is created by the first message that
    needs it. Routes are not state: each hop asks {!Router.next_link}. *)

val sched : t -> Sim_engine.Scheduler.t
val profile : t -> Profile.t

val topology : t -> Topology.t
(** The hop graph this fabric routes over. *)

val hop_link : t -> int -> Link.t
(** The shared link for a {!Topology} link id. Raises
    [Invalid_argument] out of range (in particular, always, on the full
    topology, which has no hop links), or if another shard owns the
    link's source vertex. *)

val peak_link_queue_depth : t -> int
(** Highest queue depth any hop link reached so far — the scalar the
    congestion experiments report. 0 on the full topology. *)

val node_count : t -> int
(** Compute nodes of the world, owned or not. *)

val node : t -> Proc_id.nid -> Node.t
(** Raises [Invalid_argument] for an out-of-range nid, or one this
    replica does not own (the message names the node and both shards). *)

(** {2 Owned nodes}

    A replica holds per-node state only for the contiguous block of
    nodes its shard owns — all of them on a sequential fabric. Layers
    above that keep per-node state of their own (receive engines, copy
    engines) size it with {!per_node} and index it with {!owned_index},
    so a replica asked about another shard's node fails loudly instead
    of reading a placeholder. *)

val owned_nodes : t -> Proc_id.nid * Proc_id.nid
(** The half-open range [\[first, last + 1)] of owned nodes. *)

val owned_index : t -> what:string -> Proc_id.nid -> int
(** [owned_index t ~what nid] is [nid]'s index in a {!per_node} array.
    Raises [Invalid_argument] prefixed by [what] if [nid] is out of
    range or not owned; the latter message names the node and both
    shards. *)

val per_node : t -> (Proc_id.nid -> 'a) -> 'a array
(** [per_node t f] is [f] applied to each owned node, ascending. *)

val register : t -> Proc_id.t -> (src:Proc_id.t -> bytes -> unit) -> unit
(** Attach the receive handler for a process. Raises [Invalid_argument] if
    the process is already registered or its node is not owned (see
    {!owned_index}). The handler runs at wire-arrival
    time; receive-path processing costs are the caller's concern. It is
    handed each message's bytes as one buffer ({!Frame.to_bytes}): a raw
    message's own buffer, read-only — a frame is immutable once sent. *)

val register_frames :
  t -> Proc_id.t -> (src:Proc_id.t -> Frame.t -> unit) -> unit
(** {!register} for a layer that decodes frames itself: its handler gets
    each message as a {!Frame.t}, header and view unflattened. *)

val unregister : t -> Proc_id.t -> unit
(** Detach a process's handler, if it has one. Raises like {!node}. *)

val is_registered : t -> Proc_id.t -> bool
(** Raises like {!node}: only the owner knows. *)

val endpoint_live : t -> Proc_id.t -> bool
(** Conservative liveness: [false] only when {e this} replica is the
    authority for the process's node and no handler is registered there.
    Equals {!is_registered} on a sequential fabric; on a shard it
    answers [true] for remotely-owned processes, whose handler tables
    live on the owning shard. Fail-fast guards (e.g. the RTS/CTS
    rendezvous check) must use this rather than {!is_registered}, which
    only sees local registrations. *)

val send : t -> src:Proc_id.t -> dst:Proc_id.t -> bytes -> unit
(** Inject a message: {!send_frame} of the whole buffer with no header
    ({!Frame.of_bytes}), which the fabric carries as the bytes
    themselves, allocating no frame. Returns immediately; delivery
    happens via scheduled events. The payload is not copied — callers
    must not mutate it after sending (simulated NICs DMA from live
    buffers; Portals builds a fresh wire image per message). With a shim
    installed, the message passes through the shim's tx interceptor
    first. *)

val send_frame : t -> src:Proc_id.t -> dst:Proc_id.t -> Frame.t -> unit
(** Inject a frame: a layer's header plus a view of the bytes it
    carries, neither copied. The frame is immutable once sent (see
    {!Frame}). Arrives at a {!register_frames} handler as is, or
    flattened at a {!register} handler. *)

(** {1 Crash-stop node failures}

    [crash] implements the crash-stop model: the node loses all volatile
    state instantly. Its processes are deregistered from the fabric, its
    resident fibers (those spawned with [~domain:nid]) are killed via
    {!Sim_engine.Scheduler.kill_domain}, messages it had in flight — in
    either direction — are dropped (counted in [drops_crashed] /
    ["fabric.drops_crashed"]), and anything later injected on its behalf
    is fenced. [restart] brings the node back with the next incarnation
    number; nothing re-registers automatically — the application (or
    [Runtime]) must recreate its endpoints, as a rebooted Cplant node
    would. *)

val crash : t -> Proc_id.nid -> unit
(** Crash-stop a node. Raises [Invalid_argument] if it is already down or
    the nid is out of range. *)

val restart : t -> Proc_id.nid -> unit
(** Restart a crashed node in a fresh incarnation. Raises
    [Invalid_argument] if the node is not down. *)

val is_node_up : t -> Proc_id.nid -> bool
(** Whether a node is up now. Every shard replica flips a node's status
    at the same simulated time, so the answer does not depend on which
    replica is asked. *)

val incarnation : t -> Proc_id.nid -> int

val on_crash : t -> (Proc_id.nid -> unit) -> unit
(** Register a callback run (in registration order) after a node has been
    crash-stopped — processes already deregistered, fibers already
    killed. Subscribe when a crash must start work: the reliability
    shim forgets the node's windows, MPI endpoints fail the operations
    pending on it. A layer that only asks whether a peer is down reads
    {!is_node_up} instead, which also covers crashes that happened
    before the layer existed; a listener never hears of those.

    Cost: registering appends to a growable array in amortized O(1), so
    a world whose every rank subscribes builds its listener list in
    O(ranks). A crash calls each listener once. A listener registered
    while listeners are running does not run for that crash, only for
    later ones. *)

val on_restart : t -> (Proc_id.nid -> unit) -> unit
(** Same, run after a node restarts (incarnation already bumped). *)

val apply_crash_schedule : t -> Fault.crash_schedule -> unit
(** Schedule every kill/revive of a {!Fault.crash_schedule} against this
    fabric. Raises [Invalid_argument] if a victim nid is out of range;
    times must not be in the past. *)

(** {1 Faults} *)

val set_fault_model : t -> Fault.t option -> unit
(** Install (or clear) the fault model consulted once per message at send
    time. Dropped messages still occupy the wire; duplicated messages are
    delivered twice back-to-back (the same frame: nothing writes into
    it); corrupted messages land as a mutated frame ({!Fault.mutate},
    which copies on write) — and on a multi-hop topology every hop after
    the first re-samples a corrupting model, so long routes take more
    damage; delayed messages land late, with each (src, dst) pair's
    send order preserved unless the decision said [reorder]. *)

val set_integrity : t -> bool -> unit
(** Switch wire integrity for the frames that cross this fabric (default
    off). While on, every frame codec above it (the Portals [Wire]
    format, the reliability shim's frames) appends a CRC-32C trailer
    at encode time and {e requires} it at decode time, so corruption
    degrades to a counted drop. While off, frames are encoded exactly
    as before the integrity layer existed. [Runtime.create_world] turns
    it on exactly when it attaches the reliability shim for a faulty
    scenario. *)

val integrity : t -> bool

val apply_partition_schedule : t -> Fault.partition_schedule -> unit
(** Schedule network cuts (validated again via
    {!Fault.partition_schedule}). While a cut is active, traffic across
    it is lost in flight and counted in [drops_partitioned] /
    ["fabric.drops_partitioned"]; the severed nodes themselves stay up.
    Cumulative with previously applied schedules. Raises
    [Invalid_argument] on a malformed schedule or an out-of-range nid. *)

val partition_schedule : t -> Fault.partition_schedule
(** Every cut applied so far (healed or not). *)

val has_partitions : t -> bool

val partitioned_now : t -> src:Proc_id.nid -> dst:Proc_id.nid -> bool
(** Whether src → dst traffic is severed at the current simulated time —
    the query [Runtime.Liveness] uses to tell a partitioned-but-alive
    peer from a crashed one. *)

(** {1 Reliability shim}

    A shim intercepts the fabric at exactly the wire boundary: every
    {!send} and {!send_frame} is diverted to [shim_tx] (which frames the payload and calls
    {!send_framed}), and every arriving shim frame is diverted to
    [shim_rx] (which decodes, runs its protocol, and hands accepted
    payloads up via {!deliver}). Transports built over the fabric — and
    everything above them — are oblivious: they keep calling {!send} and
    {!register}. This mirrors Cplant, where the reliability protocol
    lived below the Portals modules inside the message-passing substrate.

    Each message carries its class — shim frame or raw — beside its
    bytes, the way a NIC tells protocols apart by a header field the
    wire's CRC covers: fault-model damage to the payload never changes
    the class. So [shim_rx] sees every shim frame (damaged or not) and
    nothing else, and raw traffic reaches its handler without passing
    through the shim. *)

type shim = {
  shim_tx : src:Proc_id.t -> dst:Proc_id.t -> Frame.t -> unit;
  shim_rx : src:Proc_id.t -> dst:Proc_id.t -> Frame.t -> unit;
}

val install_shim : t -> shim -> unit
(** Raises [Invalid_argument] if a shim is already installed. *)

val has_shim : t -> bool

val send_raw : t -> src:Proc_id.t -> dst:Proc_id.t -> bytes -> unit
(** The raw wire path: serialise on the sender's link, apply the fault
    model, schedule arrival. Bypasses the shim at both ends: the message
    is handed to [dst]'s handler on arrival, exactly as on a fabric with
    no shim, damaged or not. For datagrams that must not be ordered or
    retransmitted (liveness beats). *)

val send_framed : t -> src:Proc_id.t -> dst:Proc_id.t -> Frame.t -> unit
(** {!send_raw} for the shim's own frames: the same wire path, but the
    message arrives at [shim_rx] (or at [dst]'s handler on a fabric
    without a shim). *)

val deliver : t -> src:Proc_id.t -> dst:Proc_id.t -> Frame.t -> unit
(** Hand a frame to [dst]'s registered handler at the current simulated
    time, counting it delivered (or an unregistered drop). Shims call this
    for each message they accept. *)

val stats : t -> stats

(** {1 Parallel sharding}

    In a parallel run ([Runtime] with [--domains N]) each shard holds a
    fabric replica over its own scheduler, built with [~shard]. It holds
    the nodes it owns (handlers, CPUs, links, fibers) and the hop links
    leaving its vertices; of every other node it keeps only the up bit
    and crash epoch, kept in lockstep by replicating the crash and
    partition schedules to every shard. A message whose next step
    belongs to another shard leaves as an opaque {!remote} value — plain
    data, every stochastic choice already resolved — posted through the
    hook installed by {!set_post} and re-entered on the owning shard via
    {!receive_remote}. *)

type remote
(** One cross-shard fabric message (a landing or a hop continuation).
    Opaque: the runtime only shuttles these between shards. *)

val set_post :
  t -> (dst_shard:int -> time:Sim_engine.Time_ns.t -> remote -> unit) -> unit
(** Install the hook that forwards a {!remote} for delivery at [time] on
    [dst_shard]. Raises [Invalid_argument] on a fabric of one shard,
    which posts nothing. *)

val receive_remote : t -> time:Sim_engine.Time_ns.t -> remote -> unit
(** Schedule a posted {!remote} for execution at [time] on this shard's
    scheduler. Called (in deterministic drain order) by the shard
    runtime's deliver callback. *)
