(** MPI point-to-point over Portals 3.0 — the implementation whose
    progress behaviour Figure 6 demonstrates.

    Design (the classic Cplant MPICH device):
    {ul
    {- Tag matching is delegated to Portals match lists: posted receives
       are match entries on the MPI portal, inserted after earlier posted
       receives and {e before} the unexpected-message slabs, so the
       translation of Figure 4 performs MPI matching — on the NIC or in
       the kernel, never in the application ({e application bypass}).}
    {- Messages at or below the eager threshold carry their data in the
       put. A pre-posted receive therefore completes entirely without the
       application: the experiment of Table 5 overlaps fully.}
    {- Unexpected eager messages land in slab MDs with locally managed
       offsets; the library copies them out when the receive is posted.
       Slab memory scales with application behaviour, not job size
       (§4.1).}
    {- Messages above the threshold send a 16-byte rendezvous header; the
       {e receiver} pulls the payload with a Portals get from a
       per-message match entry the sender exposed. The pull is issued from
       the library, so oversized transfers need a library call at the
       receiver — an inherent protocol trade-off the benches ablate.}}

    The endpoint is a {!Mpi_core.t}: this module supplies the protocol
    steps, the lifecycle is the core's. Crash semantics are
    connectionless (§3: Portals keeps no per-peer connection state): an
    eager send to a failed rank completes locally, a rendezvous send or
    a receive that needs it fails with [Envelope.Peer_failed], and the
    failed mark clears as soon as the node restarts — no
    {!Mpi_core.reconnect} needed.

    Counters: {!Mpi_core.counters}, then [unexpected_highwater]. *)

type config = {
  eager_threshold : int;  (** Bytes; default 65536 (50 KB messages are eager). *)
  slab_size : int;  (** Bytes per unexpected slab; default 262144. *)
  slab_count : int;  (** Number of slabs; default 8. *)
  eq_capacity : int;  (** Event queue depth; default 8192. *)
  call_cost : Sim_engine.Time_ns.t;
      (** Host overhead charged per MPI library call; default 300 ns. *)
}

val default_config : config

val create :
  Simnet.Transport.t ->
  ranks:Simnet.Proc_id.t array ->
  rank:int ->
  ?config:config ->
  unit ->
  Mpi_core.t
(** Bring up the endpoint for [rank]: creates the Portals NI, allocates
    the event queue and attaches the unexpected-message slabs. *)

val ni : Mpi_core.t -> Portals.Ni.t
(** The underlying Portals interface, for other protocols sharing it.
    Raises [Invalid_argument] on an endpoint of another stack, as does
    {!unexpected_bytes_highwater}. *)

val unexpected_bytes_highwater : Mpi_core.t -> int
(** Peak bytes of slab memory holding not-yet-claimed unexpected
    messages — the §4.1 memory-scaling measurement. *)
