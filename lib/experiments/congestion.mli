(** Congestion experiment (N1): traffic patterns across interconnect
    topologies.

    The paper's scalability argument (§2) is that connectionless Portals
    survives machines the size of Cplant — an 1800-node {e mesh}, where
    messages share links and contend. This experiment quantifies what
    the fully-connected seed fabric hides: it drives the same two
    traffic patterns over several {!Simnet.Topology} shapes and reports
    aggregate goodput, the peak hop-link queue depth, and congestion
    drops.

    {ul
    {- {e all-to-all}: every node streams to every other node — the
       bisection-limited worst case (an FFT transpose, or MPI_Alltoall).}
    {- {e nearest-neighbor}: every node streams only to its topology
       neighbours — the halo-exchange pattern
       ([examples/halo_exchange.ml]) that meshes are built for. On
       shapes without a grid (full, fat-tree), "neighbour" means the
       ±1 ring peers.}}

    On a shared-link topology all-to-all goodput collapses (each byte
    crosses ~√n links, all contended) while nearest-neighbor keeps every
    link private to one flow; on the seed's full topology the two are
    indistinguishable. That gap is the experiment's headline number. *)

type row = {
  c_topology : string;  (** {!Simnet.Topology.describe} of the shape. *)
  c_pattern : string;
  c_messages : int;  (** Messages delivered. *)
  c_bytes : int;  (** Payload bytes delivered. *)
  c_elapsed_us : float;  (** First injection to last delivery. *)
  c_goodput_mbs : float;  (** Delivered payload / elapsed, MB/s. *)
  c_peak_queue : int;  (** Deepest hop-link queue seen anywhere. *)
  c_drops : int;  (** Congestion drops (only with a queue limit). *)
}

val default_topologies : string list
(** [["full"; "ring"; "torus2d"; "fattree"]]. *)

val run :
  ?nodes:int ->
  ?topologies:string list ->
  ?msgs_per_peer:int ->
  ?size:int ->
  ?queue_limit:int ->
  ?registry:Sim_engine.Metrics.t ->
  unit ->
  row list
(** [run ()] sweeps every (topology, pattern) pair on a fresh
    [nodes]-node world (default 16 nodes, 8 messages of 4096 B per
    peer). Each world's metrics — including the per-link
    ["link.queue_depth"] / ["link.flows"] instruments — are absorbed
    into [registry] (when given) under [("topology", _)] and
    [("pattern", _)] labels. The traffic is fixed, so the result is too. *)

val pp : Format.formatter -> row list -> unit
