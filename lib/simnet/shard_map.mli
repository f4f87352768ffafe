(** Node-to-shard partitioning and the conservative lookahead bound.

    The parallel engine splits compute nodes into contiguous, balanced
    blocks of node ids — with row-major torus numbering each shard is a
    stripe of rows, so shard-crossing links are exactly the stripe
    boundaries. Switch vertices of indirect topologies are assigned
    deterministically ([vertex mod nodes]'s owner).

    The {e lookahead} is the minimum latency of any cut link (profile
    wire latency on the full topology): one shard can only affect
    another after at least one cut-link crossing, so every shard may
    process a [lookahead]-wide time window without communication. A
    single shard cuts no link and has no lookahead. *)

type t

val build : Topology.t -> profile:Profile.t -> shards:int -> t
(** Raises [Invalid_argument] if [shards < 1], if there are more shards
    than compute nodes, or if a zero-latency cut link would make the
    window width zero. *)

val shards : t -> int

val nodes : t -> int
(** The compute nodes partitioned. *)

val lookahead : t -> Sim_engine.Time_ns.t option
(** The minimum latency of any cut link; [None] when no link is cut. *)

val owner : t -> int -> int
(** [owner t v] is the shard owning vertex [v] (compute node or switch).
    Raises [Invalid_argument] out of range. *)

val node_owner : nodes:int -> shards:int -> int -> int
(** The pure block mapping, usable without building a topology. *)

val block : t -> int -> Proc_id.nid * Proc_id.nid
(** [block t k] is the half-open range [\[first, last + 1)] of the
    compute nodes shard [k] owns; the blocks of shards [0 .. shards - 1]
    tile [\[0, nodes)] in order. Raises [Invalid_argument] out of range. *)

val nodes_of : t -> int -> Proc_id.nid list
(** Compute nodes owned by a shard, ascending. *)

val cut_links : t -> Topology.t -> int list
(** Link ids whose endpoints live on different shards, ascending. *)
