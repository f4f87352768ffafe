(** Interconnect topologies: the shape of the wires.

    The seed fabric modelled a {e fully-connected} machine — every node
    owns a private point-to-point wire to every other node, so nothing
    ever contends. Real machines of the paper's era were nothing like
    that: Cplant was a 1792-node mesh of Myrinet switches, ASCI Red a
    38×32×2 torus. On such fabrics a message crosses several {e shared}
    links, and independent flows queue behind each other — the regime the
    congestion experiments ({!Experiments.Congestion}) measure.

    A topology is purely structural: a set of vertices (compute nodes
    first, then internal switches for indirect topologies) and the
    directed links between adjacent vertices, numbered densely from 0.
    Nothing is stored per link: a link's ends, a vertex's neighbours and
    the link between two vertices are arithmetic on the shape (a grid
    keeps two int arrays, port to link id and back, a few words a
    node). {!Router} names the next link of each (src, dst) node pair's
    path from any vertex on it, and {!Fabric} turns each link into a
    serialising {!Link} with the profile's bandwidth and per-hop
    latency. *)

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

val link_src : t -> int -> int
(** The source vertex of a link id. Raises [Invalid_argument] if the id
    is out of range. *)

val link_dst : t -> int -> int
(** The destination vertex of a link id. Raises [Invalid_argument] if
    the id is out of range. *)

val find_link : t -> src_v:int -> dst_v:int -> int
(** The id of the directed link between two adjacent vertices, or [-1]
    when they are not adjacent (or out of range). *)

val neighbors : t -> int -> int list
(** Adjacent vertices of a vertex, in the order of the links leaving it.
    For [Full] this is every other node. *)

val link_name : t -> int -> string
(** E.g. ["node0->node1"]; the value of the [("link", _)] metric label
    of the corresponding fabric {!Link}. Formatted on demand, so each
    call returns a fresh string: a fabric formats each name it owns
    once, when it creates the link. *)

val dims : t -> int list
(** The dimension sizes of a grid-shaped topology: [[n]] for a ring,
    [[a; b]] for a 2-D torus, [[a; b; c]] for a 3-D torus. Empty for
    [Full] and [Fat_tree] — callers wanting a grid decomposition (e.g.
    [examples/halo_exchange.ml]) should test for emptiness. *)

val dim_size : t -> int -> int
val dim_stride : t -> int -> int
(** Size and row-major stride of dimension [i] of a grid (the last
    dimension has stride 1). For the router's hot path, which must not
    allocate. *)

val port_link : t -> int -> int -> int
(** [port_link t v port] is the link leaving grid vertex [v] through
    [port], or [-1]. Port [2i] leads to [v]'s +1 neighbour in dimension
    [i], port [2i + 1] to its -1 neighbour (the same link in a dimension
    of size 2; none in a dimension of size 1). *)

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

val check_spec : string -> unit
(** Raises the [Invalid_argument] {!of_spec} would raise for a malformed
    spec: an unknown shape, a bad dimension or arity, or explicit
    dimensions that describe no valid shape. A spec that passes is
    well-formed; a dimension-less one may still not fit a given node
    count. *)

val describe : kind -> string
(** Short human-readable form, e.g. ["torus2d:4x4"]; parseable back by
    {!of_spec}. *)
