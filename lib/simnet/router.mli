(** Deterministic routing over a {!Topology} hop graph.

    Every (src, dst) node pair maps onto exactly one path, chosen by the
    topology's canonical algorithm:

    {ul
    {- {e Dimension-order} (e-cube) for rings and tori: correct the
       offset in dimension 0 first, then dimension 1, and so on, always
       travelling the shorter way around (ties break towards the
       positive direction). Because a packet never returns to a lower
       dimension, the channel-dependency graph is acyclic — the classic
       deadlock-freedom argument — and each path is hop-count minimal.}
    {- {e Up/down} for fat-trees: climb from the source host towards the
       (deterministically chosen) least-common-ancestor switch, then
       descend to the destination. The up-path choice hashes (src, dst)
       so a pair always uses the same core switch — preserving the
       fabric's per-pair FIFO order — while distinct pairs spread over
       the available cores.}}

    Single-path determinism is what lets the multi-hop fabric keep the
    paper's §2 in-order guarantee: all messages of a pair cross the same
    FIFO links in the same order. *)

val next_link : Topology.t -> src:int -> dst:int -> at:int -> int
(** [next_link topo ~src ~dst ~at] is the id of the link a message from
    node [src] to node [dst] takes out of vertex [at], a vertex of its
    path, or [-1] once [at = dst] (and always on {!Topology.Full}, which
    has no shared links). Pure arithmetic on the topology's shape: it
    allocates nothing, and no route is stored anywhere. Raises
    [Invalid_argument] for out-of-range nodes or vertex. *)

val route : Topology.t -> src:int -> dst:int -> int array
(** [route topo ~src ~dst] is the ordered array of directed link ids a
    message follows from node [src] to node [dst]. Empty when
    [src = dst] or when the topology is {!Topology.Full} (private wire,
    no shared hops). Raises [Invalid_argument] for out-of-range nodes.
    The walk of {!next_link} from [src], for tests and reports. *)

val path_vertices : Topology.t -> src:int -> dst:int -> int list
(** The vertex sequence of {!route}, including [src] and [dst] (so its
    length is one more than the hop count). [[src]] when [src = dst].
    For {!Topology.Full} it is [[src; dst]] even though {!route} is
    empty — the private wire exists but is not a shared link. *)

val hop_count : Topology.t -> src:int -> dst:int -> int
(** [Array.length (route topo ~src ~dst)]. *)

val min_torus_hops : Topology.t -> src:int -> dst:int -> int
(** The theoretical minimal hop count between two nodes of a ring or
    torus: the sum over dimensions of the shorter wraparound distance.
    Used by tests to check {!route} minimality. Raises
    [Invalid_argument] on non-grid topologies. *)
