(** MPI over the ibverbs-style RDMA transport — the two protocols of
    Liu et al. (MVAPICH over InfiniBand), the paper's natural modern
    comparison point.

    Small messages ride the {e RDMA-write fast path}: the sender
    composes the envelope and payload into one RDMA write into a
    per-peer ring at the receiver ({!Ibverbs.Ring}); the receiver's
    library polls the ring and does all matching on the host. Large
    messages use {e RDMA-write rendezvous}: RTS through the ring, CTS
    back carrying an rkey for the posted receive buffer, one RDMA write
    straight into user memory (zero-copy), FIN to finish.

    Both protocols progress {e only} inside library calls — the NIC
    lands bytes, but matching, unexpected-message buffering and the
    rendezvous state machine all run on the host: the endpoint is a
    {!Mpi_core.t} and matching is [Mpi_libmatch], as for {!Mpi_gm};
    this module supplies the rings, the credit backlog, the rkey
    registration and the FIN. In the taxonomy of
    §5.2 this stack sits with MPICH/GM on the application-bypass axis
    (none below the library) while beating it on per-message receive
    cost — the benchmark matrix quantifies the trade against Portals'
    full independent progress.

    Crash semantics are connection-oriented, as on GM: a peer's rings
    and rendezvous state die with its node, so traffic toward a failed
    rank raises {!Envelope.Peer_failed} until {!Mpi_core.reconnect},
    which rebuilds the pair's rings from scratch. The rings have no self
    pair: a send to the calling rank raises [Invalid_argument].

    Counters: {!Mpi_core.counters}, then [hca_writes] and
    [hca_remote_writes]. *)

type config = {
  eager_threshold : int;
      (** Largest payload sent through the ring fast path; larger
          messages go rendezvous. Default 8 KiB. *)
  ring_slots : int;
      (** Slots per (sender, receiver) ring — the credit window.
          Default 64. *)
  call_cost : Sim_engine.Time_ns.t;
      (** Host CPU burned entering any MPI call. Default 300 ns. *)
}

val default_config : config

val create :
  Simnet.Transport.t ->
  ranks:Simnet.Proc_id.t array ->
  rank:int ->
  ?config:config ->
  unit ->
  Mpi_core.t
(** Bring up the endpoint: opens the HCA and registers the all-to-all
    ring and credit buffers under their well-known rkeys. *)
