(** One run's scenario: the seed, the degraded-fabric settings and the
    engine choices that every world an experiment builds inherits.

    A scenario is an immutable value. The CLI builds one from its
    [--seed] / [--loss] / [--fault] / [--crash] / [--topology] /
    [--queue-limit] / [--domains] / [--collectives] flags with {!make},
    and each experiment passes it to {!World.create_world} for every
    world it builds. Two worlds built from different scenarios share
    nothing, so they may be built in any order and run on any domain. *)

type t = private {
  seed : int;
      (** The scheduler and fault-model seed used when a world is built
          with no explicit [~seed] (default 0). *)
  fault : string option;
      (** A wire fault-model spec:
          ["bernoulli:P"], ["gilbert:P_ENTER:P_EXIT"], ["duplicate:P"],
          ["corrupt:P"] (seeded bit-flip/truncation of the wire image),
          ["delay:MEAN_US\[:JITTER_US\]"] (extra seeded latency, FIFO per
          src/dst pair), ["flap:PERIOD_US:DOWN_US"],
          ["partition:A.B|C.D@CUT_US\[:HEAL_US\]"] (scheduled group cut —
          nids joined with ['.'], ['|'] severs both directions, ['>'] only
          A → B; heals at [HEAL_US] if given) or ["none"], joined with
          ['+'] to compose (drop wins over corrupt, corrupt over delay,
          delay over duplicate). Each of the five seeded models
          ([bernoulli], [gilbert], [duplicate], [corrupt], [delay]) takes
          an optional ["@sN"] suffix (["corrupt:0.02@s9"]) that seeds it
          with [N]; without one it takes the world's seed. [flap],
          [partition] and [none] draw nothing and reject the suffix. Any
          model or partition ([none] included) attaches the reliability
          shim and turns on the fabric's integrity bit
          ({!Simnet.Fabric.set_integrity}) so frames travel with CRC-32C
          trailers: corruption then degrades to loss and is
          retransmitted. [--loss P] is sugar for a leading
          ["bernoulli:P"]. *)
  crashes : Simnet.Fault.crash_schedule option;
      (** A scripted node-failure schedule, parsed from
          ["NID@DOWN_US[:UP_US]"] elements joined with [',']: node [NID]
          crash-stops at [DOWN_US] microseconds of simulated time and,
          when [:UP_US] is given, restarts then in a fresh
          incarnation. *)
  topology : string option;
      (** An interconnect spec ({!Simnet.Topology.of_spec}): ["full"],
          ["ring"], ["torus2d\[:AxB\]"], ["torus3d\[:AxBxC\]"] or
          ["fattree\[:K\]"]. Dimension-less specs are fitted to each
          world's node count; explicit dimensions must match it exactly.
          [None] is the fully-connected fabric. *)
  queue_limit : int option;
      (** Per-hop-link outstanding-transmission bound; overload beyond it
          becomes congestion drops (recovered by the reliability shim
          when one is attached). *)
  domains : int;
      (** Number of OCaml domains to shard each world across (default 1 =
          the sequential reference scheduler). Worlds with fewer nodes
          than domains fall back to one shard per node. Same seed, same
          world ⇒ same simulated history at any domain count (see
          [Sim_engine.Shard]). *)
  collectives : Collectives.impl;
      (** Which collective engine workloads should build: the
          host-driven reference or the triggered-chain NIC offload,
          parsed from ["host"] or ["nic"] by {!make} with
          {!Collectives.impl_of_string}. Both engines give
          byte-identical results — the choice only moves where tree hops
          execute. *)
}

val default : t
(** Seed 0, no faults or crashes, the fully-connected topology, no
    queue limit, one domain, host collectives: the seed model. *)

val make :
  ?loss:float ->
  ?seed:int ->
  ?fault:string ->
  ?crashes:string ->
  ?topology:string ->
  ?queue_limit:int ->
  ?domains:int ->
  ?collectives:string ->
  unit ->
  t
(** The one constructor. Omitted fields take their {!default}; a [""]
    fault, crash or topology spec means none. A positive [loss] is
    written into [fault] as a leading ["bernoulli:P"] ([P] printed with
    [%.17g], so it reads back exactly): the same model, seed and compose
    position as every other spec model.

    Raises [Invalid_argument] on an unknown collectives engine, fewer
    than one domain, a malformed topology spec, a non-positive queue
    limit, a loss outside \[0, 1) or a malformed fault/crash spec (bad
    syntax, a probability outside \[0, 1\], negative times, a restart
    not after its crash, a node crashing again while still down).
    Partition nids outside a world are only caught when that world is
    built. *)

val faults :
  t -> seed:int -> Simnet.Fault.t list * Simnet.Fault.partition_schedule
(** Fresh instances of [fault]'s models, in spec order, and its
    partition schedule; a model without an ["@sN"] suffix is seeded with
    [seed]. Models carry mutable per-pair state, so every fabric gets
    its own call. Both lists are empty for a fault-free scenario. *)
