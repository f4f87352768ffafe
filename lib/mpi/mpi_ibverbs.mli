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
    rendezvous state machine all run on the host, in [Mpi_core], the
    library-side engine this stack shares with {!Mpi_gm}; this module
    supplies the rings, the credit backlog, the rkey registration and
    the FIN. In the taxonomy of
    §5.2 this stack sits with MPICH/GM on the application-bypass axis
    (none below the library) while beating it on per-message receive
    cost — the benchmark matrix quantifies the trade against Portals'
    full independent progress.

    Crash semantics are connection-oriented, as on GM: a peer's rings
    and rendezvous state die with its node, so traffic toward a failed
    rank raises {!Envelope.Peer_failed} until {!reconnect}, which
    rebuilds the pair's rings from scratch. *)

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

type status = Transport.status = { source : int; tag : int; length : int }
type t
type request

val create :
  Simnet.Transport.t ->
  ranks:Simnet.Proc_id.t array ->
  rank:int ->
  ?config:config ->
  unit ->
  t
(** Bring up the endpoint: opens the HCA and registers the all-to-all
    ring and credit buffers under their well-known rkeys. *)

val finalize : t -> unit
val rank : t -> int
val size : t -> int

val hca : t -> Ibverbs.t
(** The underlying HCA (stats, direct verbs access in tests). *)

val isend : t -> ?context:int -> dst:int -> tag:int -> bytes -> request
val irecv : t -> ?context:int -> ?source:int -> ?tag:int -> bytes -> request
val test : t -> request -> status option
val wait : t -> request -> status
val progress : t -> unit
val on_peer_failure : t -> (rank:int -> unit) -> unit
val failed_ranks : t -> int list
val reconnect : t -> rank:int -> unit
val counters : t -> (string * int) list

module Tx : Transport.S with type t = t and type request = request
(** The {!Transport.S} instance ([name = "ibverbs"]). *)
