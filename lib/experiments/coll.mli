(** NIC-offloaded vs host-driven collectives (ids [COLL.*]).

    The experiment behind the triggered-operation engine
    ({!Collectives.Nic}): measure the three tree collectives — barrier,
    bcast, allreduce — under both engines, across topologies and node
    counts, with the host CPUs idle and with them running a compute
    loop. The host-driven tree charges per-hop protocol work to each
    rank's CPU, so on a busy host every hop queues behind an in-flight
    compute slice and the tree's latency grows with its depth; the
    NIC-resident chains never touch the host CPU, so their latency is
    the wire time of the same tree — flat whether the host is idle or
    busy. This is the paper's §2 / Figure 6 application-bypass argument
    applied to collective progress.

    All numbers are deterministic for a fixed seed. *)

type cell = {
  c_impl : Collectives.impl;
  c_topology : string;  (** {!Simnet.Topology.of_spec} spec. *)
  c_nodes : int;
  c_busy : bool;  (** Host CPUs running a compute loop during the calls. *)
  c_barrier_us : float;  (** Mean per-call latency, start to last rank. *)
  c_bcast_us : float;
  c_allreduce_us : float;
}

type t = {
  cells : cell list;
  metrics : Sim_engine.Metrics.Snapshot.t;
      (** [coll.barrier_us] / [coll.bcast_us] / [coll.allreduce_us]
          series, x = nodes, labelled by (impl, topology, host). *)
}

val run :
  ?scenario:Runtime.Scenario.t ->
  ?iters:int ->
  ?quick:bool ->
  unit ->
  t
(** Measure every (topology, nodes, idle|busy, host|nic) cell of the
    plan: torus2d at 16/32/64 nodes, fattree at 16/54 (the k = 4 and
    k = 6 shapes) and ring at 8/16/32; [quick] shrinks it to torus2d at
    16 and ring at 8. [iters] (default 8) back-to-back calls are averaged per
    cell. Every world is built from [scenario] (default
    {!Runtime.Scenario.default}). *)

val pp : Format.formatter -> t -> unit

val check :
  ?scenario:Runtime.Scenario.t -> ?nodes:int -> ?topology:string -> unit ->
  bool
(** Byte-identity spot check, the smoke-test entry: a mixed
    allreduce/bcast/barrier/reduce workload on a 4×4 torus (by default)
    run under both engines; [true] iff every rank's observable bytes
    agree. *)

val perf_records :
  ?scenario:Runtime.Scenario.t -> ?quick:bool -> unit -> Perf.record list
(** Meter [COLL.{host,nic}.{barrier,allreduce}] — each op hammered on a
    busy-host 16-node torus — as perf records gated against
    [bench/baseline.json]. *)
