(** Parallel job runtime — the Cplant launcher ("yod") analogue.

    Builds the simulated machine (fabric + transport placement), assigns
    process ids to ranks (round-robin over nodes, multiple processes per
    node supported, §2), runs one fiber per rank, and tears the world
    down. Everything the examples and benches would otherwise repeat.

    Every world is built by {!create_world} from a {!Scenario.t}; the
    record is [private], so no caller can assemble one by hand. *)

type transport_kind =
  | Offload  (** Portals processing on the NIC (the MCP). *)
  | Kernel_interrupt  (** Kernel-module placement, whole-message costs. *)
  | Rtscts  (** Kernel placement with full RTS/CTS packetization. *)

val transport_kind_name : transport_kind -> string

type world = private {
  sched : Sim_engine.Scheduler.t;
  fabric : Simnet.Fabric.t;
  transport : Simnet.Transport.t;
      (** Shard 0's scheduler, fabric and transport, which on a world
          of several shards reject the nodes shard 0 does not own. Only
          the benchmark harness ([perfbench/]) still reads them; they go
          with the next change to it. Everything else goes through the
          accessors below: per rank {!sched_of_rank},
          {!transport_of_rank}, {!host_cpu_of_rank} or {!spawn_ranks};
          per node {!sched_of_nid} or {!fabric_of_nid}; world-wide
          {!now}, {!metrics_snapshot}, {!shard_fabrics} or {!topology}. *)
  ranks : Simnet.Proc_id.t array;
  shard_map : Simnet.Shard_map.t;
  shard : Simnet.Fabric.remote Sim_engine.Shard.t;
  scheds : Sim_engine.Scheduler.t array;
  fabrics : Simnet.Fabric.t array;
  transports : Simnet.Transport.t array;
      (** The node-to-shard map, the window runtime and one scheduler,
          fabric replica and transport per shard (index = shard). Read
          them through the accessors below. *)
  shims : Reliability.t list;  (** Read with {!reliability_shims}. *)
}

val create_world :
  ?scenario:Scenario.t ->
  ?profile:Simnet.Profile.t ->
  ?transport:transport_kind ->
  ?procs_per_node:int ->
  ?seed:int ->
  ?topology:Simnet.Topology.kind ->
  ?queue_limit:int ->
  ?domains:int ->
  nodes:int ->
  unit ->
  world
(** A fresh machine of [nodes] compute nodes built under [scenario]
    (default {!Scenario.default}). The job's ranks are
    [0 .. nodes*procs_per_node - 1] (default one process per node).
    Default profile matches the transport kind ([Offload] →
    {!Simnet.Profile.myrinet_mcp}, otherwise
    {!Simnet.Profile.myrinet_kernel}).

    The scenario supplies the seed, the interconnect (its topology spec
    fitted to [nodes], else fully connected), the hop-link queue limit
    and the domain count; an explicit [seed], [topology], [queue_limit]
    or [domains] wins over it. If the scenario has a fault spec (a
    model, a partition or ["none"]), every shard fabric gets fresh
    instances of its models (seeded with the world's seed unless a
    model names its own), its partition schedule, its integrity bit
    ({!Simnet.Fabric.set_integrity}) and the {!Reliability} shim
    underneath the transport; otherwise the fabric stays clean and its
    frames unchecksummed. The scenario's crash schedule is applied to
    every shard fabric. Nothing outside the returned world is touched.

    The world is split into [min domains nodes] shards, one OCaml domain
    each: compute nodes are split into contiguous blocks
    ({!Simnet.Shard_map}), each shard gets its own scheduler, fabric
    replica, fault-model instance and transport, built on that shard's
    domain, and {!run} drives them under the conservative window barrier
    ({!Sim_engine.Shard}). A replica holds only what its shard owns: its
    block's nodes (CPU, link, handlers), their transport engines, and
    the hop links leaving its vertices; of every other node it keeps the
    up bit and crash epoch. So each extra shard adds one word per node
    and a scheduler and transport to the world, not another fabric. One
    shard is the smallest case: it owns every node, so its fabric posts
    nothing to other shards and {!run} is {!Sim_engine.Scheduler.run} on
    its scheduler.

    Raises [Invalid_argument] on no nodes, no processes per node, fewer
    than one domain, or a partition or crash naming a node outside the
    world. *)

val job_size : world -> int

(** {1 Shard placement} *)

val domains : world -> int
(** Shards actually used. *)

val shard_of_nid : world -> Simnet.Proc_id.nid -> int
(** The shard owning a compute node. Raises [Invalid_argument] out of
    range. *)

val sched_of_nid : world -> Simnet.Proc_id.nid -> Sim_engine.Scheduler.t
val fabric_of_nid : world -> Simnet.Proc_id.nid -> Simnet.Fabric.t
(** The scheduler / authoritative fabric replica of a node's owner
    shard. *)

val sched_of_rank : world -> int -> Sim_engine.Scheduler.t
(** The scheduler of a rank's node's owner shard. *)

val transport_of_rank : world -> int -> Simnet.Transport.t
(** The transport instance a rank's endpoints must be built over — the
    one bound to its node's owner fabric. *)

val shard_scheds : world -> Sim_engine.Scheduler.t array
(** One scheduler per shard ([[|sched|]] at one shard) — e.g. to set
    every shard registry's detail level. Merge their metrics with
    {!metrics_snapshot}. *)

val enable_trace : world -> unit
(** Start recording spans in every shard's scheduler trace. *)

val trace_spans : world -> Sim_engine.Trace.span list
(** Every shard's retained spans, merged in an order that does not
    depend on the shard count: by start time, then by track ([proc], one
    node's cpu or nic, which records only on its node's owner shard),
    then in the order the track recorded them. *)

val now : world -> Sim_engine.Time_ns.t
(** The simulated time the world has reached: the latest clock over its
    shards. *)

val metrics_snapshot : world -> Sim_engine.Metrics.Snapshot.t
(** Every shard's registry merged into one snapshot that does not depend
    on the shard count. Counters and summaries accumulate. A gauge of
    one part (a node's CPU or link, an NI, an event queue) comes from
    the one shard that owns the part; a gauge every shard registers (a
    replica's messages sent, its handshakes, its events processed) is
    summed over the shards into the job-wide total.

    One entry is a fact of each shard's engine and does depend on the
    shard count: ["sched.heap_peak"], the sum of the shards' pending-event
    high-water marks. *)

val shard_fabrics : world -> Simnet.Fabric.t array
(** One fabric replica per shard ([[|fabric|]] at one shard). *)

val topology : world -> Simnet.Topology.t
(** The interconnect every shard's replica routes over. *)

val reliability_shims : world -> Reliability.t list
(** The shim {!create_world} attached to each shard fabric, in shard
    order; empty for a world whose scenario has no fault spec. *)

val window_rounds : world -> int
(** Window-barrier rounds completed by the last {!run}; 0 at one shard,
    which turns no windows. *)

val lookahead : world -> Sim_engine.Time_ns.t option
(** The conservative window width; [None] at one shard, which has no
    cut link to bound it. *)

val host_cpu_of_rank : world -> int -> Sim_engine.Cpu.t
(** The host processor a rank's compute runs on. *)

val spawn_ranks : world -> (rank:int -> unit) -> unit
(** Start one named fiber per rank running the given main. *)

val run : ?until:Sim_engine.Time_ns.t -> world -> unit
(** Drive the simulation to quiescence ({!Sim_engine.Scheduler.run});
    deadlocks (e.g. a rank blocked on a message that never comes) raise
    {!Sim_engine.Scheduler.Deadlock}. This is {!Sim_engine.Shard.run}:
    at one shard, {!Sim_engine.Scheduler.run} on the calling domain; at
    several, the window barrier with shard 0 on the calling domain, the
    rest on spawned domains, and deadlock detection aggregated across
    shards. *)
