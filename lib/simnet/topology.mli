(** Interconnect topologies: the shape of the wires.

    The seed fabric modelled a {e fully-connected} machine — every node
    owns a private point-to-point wire to every other node, so nothing
    ever contends. Real machines of the paper's era were nothing like
    that: Cplant was a 1792-node mesh of Myrinet switches, ASCI Red a
    38×32×2 torus. On such fabrics a message crosses several {e shared}
    links, and independent flows queue behind each other — the regime the
    congestion experiments ({!Experiments.Congestion}) measure.

    A topology is purely structural: a set of vertices (compute nodes
    first, then internal switches for indirect topologies) and a table of
    directed links between adjacent vertices. {!Router} maps each
    (src, dst) node pair onto a hop path over those links, and
    {!Fabric} turns each link into a serialising {!Link} with the
    profile's bandwidth and per-hop latency. *)

type kind =
  | Full  (** Private wire per (src, dst) pair — the seed model. *)
  | Ring  (** 1-D bidirectional ring: node [i] wires to [i ± 1 mod n]. *)
  | Torus2d of int * int
      (** [Torus2d (a, b)]: [a × b] grid with wraparound in both
          dimensions, 4 neighbours per node (the Cplant / pMR mesh). *)
  | Torus3d of int * int * int
      (** [Torus3d (a, b, c)]: 3-D torus, 6 neighbours per node (the
          ASCI-Red / APENet shape). *)
  | Fat_tree of int
      (** [Fat_tree k]: k-ary fat-tree ([k] even): [k] pods of [k/2] edge
          and [k/2] aggregation switches, [(k/2)²] core switches,
          [k³/4] hosts. *)

type link = {
  link_id : int;  (** Dense index into the topology's link table. *)
  src_v : int;  (** Source vertex (node id, or switch vertex). *)
  dst_v : int;  (** Destination vertex. *)
}
(** One directed link of the hop graph. *)

type t

val build : kind -> nodes:int -> t
(** [build kind ~nodes] is the hop graph of [kind] over [nodes] compute
    nodes. Raises [Invalid_argument] if the shape cannot host exactly
    [nodes] (torus dimensions must multiply to [nodes], a fat-tree needs
    [nodes = k³/4], a ring needs at least 2 nodes). *)

val kind : t -> kind
val nodes : t -> int

val vertex_count : t -> int
(** Compute nodes plus internal switch vertices. Vertices
    [0 .. nodes-1] are the compute nodes; the rest are switches. *)

val link_count : t -> int

val link : t -> int -> link
(** The link with a given [link_id]. Raises [Invalid_argument] if out of
    range. *)

val find_link : t -> src_v:int -> dst_v:int -> int option
(** The id of the directed link between two adjacent vertices, if any. *)

val neighbors : t -> int -> int list
(** Adjacent vertices of a vertex, in deterministic (construction)
    order. For [Full] this is every other node. *)

val vertex_name : t -> int -> string
(** ["node3"] for compute nodes, ["sw5"] for switches — used to label
    per-link metrics. *)

val link_name : t -> int -> string
(** E.g. ["node0->node1"]; the value of the [("link", _)] metric label
    of the corresponding fabric {!Link}. Formatted once, by {!build}:
    every call, and every fabric over this topology, gets the same
    string. *)

val dims : t -> int list
(** The dimension sizes of a grid-shaped topology: [[n]] for a ring,
    [[a; b]] for a 2-D torus, [[a; b; c]] for a 3-D torus. Empty for
    [Full] and [Fat_tree] — callers wanting a grid decomposition (e.g.
    [examples/halo_exchange.ml]) should test for emptiness. *)

val coords : t -> int -> int list
(** Grid coordinates of a node under {!dims} (row-major; empty when
    {!dims} is empty). *)

val of_coords : t -> int list -> int
(** Inverse of {!coords}. *)

val of_spec : nodes:int -> string -> kind
(** Parse a CLI topology spec: ["full"], ["ring"], ["torus2d\[:AxB\]"],
    ["torus3d\[:AxBxC\]"], ["fattree\[:K\]"]. Without explicit
    dimensions the shape is fitted to [nodes] (most-square
    factorisation for tori, [k = ∛(4·nodes)] for fat-trees). Raises
    [Invalid_argument] on syntax errors or shapes that cannot host
    [nodes], found by the checks {!build} runs, without building the
    graph. *)

val describe : kind -> string
(** Short human-readable form, e.g. ["torus2d:4x4"]; parseable back by
    {!of_spec}. *)

val pp : Format.formatter -> t -> unit
