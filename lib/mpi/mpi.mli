(** A small MPI: nonblocking two-sided point-to-point with tag matching,
    wildcards and a barrier, derived {e once} from the transport
    signature and instantiated for every stack the paper compares:

    {ul
    {- {!create_portals} — MPICH-over-Portals-style: matching and delivery
       progress without the application (§5.2, the declining curve of
       Figure 6);}
    {- {!create_gm} — MPICH/GM-style: progress only inside library calls
       (the flat curve of Figure 6);}
    {- {!create_ibverbs} — an ibverbs-style RDMA stack (Liu et al.):
       sender-written per-peer rings plus RDMA-write rendezvous.}}

    The production Cplant stack (§3) is {!create_portals} over the
    kernel RTS/CTS wire: the Portals glue cannot tell where matching
    runs, so [Runtime.Stack] only pairs it with a different wire. GM and
    ibverbs share one library-side engine ([Mpi_core]).

    {!Make} is the only MPI {^ } transport binding: give it a
    {!Transport.S} and it returns the full endpoint surface. The
    dynamic [t] below packs any such instantiation so experiments swap
    backends without touching application code. All calls must run
    inside a simulation fiber. *)

module Envelope = Envelope
module Mpi_portals = Mpi_portals
module Mpi_gm = Mpi_gm
module Mpi_ibverbs = Mpi_ibverbs

module Nx = Nx
(** The Intel NX interface of §2, over the same Portals matching
    engine. *)

module type TRANSPORT = Transport.S
(** What a backend implements (re-exported from {!Transport.S}). *)

(** The full per-backend MPI surface {!Make} derives: the transport
    contract plus blocking calls, [waitall] and the dissemination
    barrier. *)
module type ENDPOINT = sig
  include Transport.S

  val waitall : t -> request list -> Transport.status list
  val send : t -> ?context:int -> dst:int -> tag:int -> bytes -> unit

  val recv :
    t -> ?context:int -> ?source:int -> ?tag:int -> bytes -> Transport.status

  val barrier : ?tolerant:bool -> t -> unit
  (** Dissemination barrier over point-to-point messages on a reserved
      tag. With [tolerant] (default false), exchanges with failed ranks
      are skipped instead of raising [Peer_failed]. *)
end

module Make (T : Transport.S) :
  ENDPOINT with type t = T.t and type request = T.request
(** Derive the MPI device layer for one transport. *)

type t
type request

type status = Transport.status = { source : int; tag : int; length : int }

exception Peer_failed of int
(** Raised (with the peer's rank) when an operation cannot complete
    because the peer's node crashed: {!wait}/{!test} on a receive from
    the failed rank or a rendezvous send it never pulled, and —
    connection-oriented backends (GM, ibverbs) — new traffic toward a
    peer not yet {!reconnect}ed. Blocked fibers are woken to raise this
    instead of deadlocking. *)

val any_source : int
val any_tag : int

val create_portals :
  Simnet.Transport.t ->
  ranks:Simnet.Proc_id.t array ->
  rank:int ->
  ?config:Mpi_portals.config ->
  unit ->
  t

val create_gm :
  Simnet.Transport.t ->
  ranks:Simnet.Proc_id.t array ->
  rank:int ->
  ?config:Mpi_gm.config ->
  unit ->
  t

val create_ibverbs :
  Simnet.Transport.t ->
  ranks:Simnet.Proc_id.t array ->
  rank:int ->
  ?config:Mpi_ibverbs.config ->
  unit ->
  t
(** The ibverbs-style RDMA stack: ring fast path + RDMA-write
    rendezvous (see {!Mpi_ibverbs}). *)

val of_endpoint :
  (module ENDPOINT with type t = 'e and type request = 'r) -> 'e -> t
(** Pack any {!Make} instantiation (e.g. one over a custom-config
    backend) into the dynamic endpoint. *)

val finalize : t -> unit
val rank : t -> int
val size : t -> int

val counters : t -> (string * int) list
(** The backend's monotone counters (see {!Transport.S.counters}). *)

val isend : t -> ?context:int -> dst:int -> tag:int -> bytes -> request
(** Nonblocking send ([MPI_Isend]). The data is captured at call time.
    [context] (default 0, the world) selects the communicator context:
    messages only match receives posted with the same context — the
    communicator-isolation mechanism MPI builds on the match bits
    (§4.4's flexibility argument). *)

val irecv : t -> ?context:int -> ?source:int -> ?tag:int -> bytes -> request
(** Nonblocking receive ([MPI_Irecv]); [source]/[tag] default to the
    wildcards, [context] to the world. *)

val test : t -> request -> status option
(** [MPI_Test]: nonblocking; drives the library's progress engine. *)

val wait : t -> request -> status
(** [MPI_Wait]: blocks the calling fiber. *)

val waitall : t -> request list -> status list
(** [MPI_Waitall], statuses in request order. *)

val progress : t -> unit
(** A bare library call with no request ("sprinkled MPI calls", §5.3). *)

val send : t -> ?context:int -> dst:int -> tag:int -> bytes -> unit
(** Blocking send: [isend] then [wait]. *)

val recv : t -> ?context:int -> ?source:int -> ?tag:int -> bytes -> status
(** Blocking receive: [irecv] then [wait]. *)

val on_peer_failure : t -> (rank:int -> unit) -> unit
(** Register a callback fired from the endpoint when a peer rank's node
    crashes — the graceful-degradation hook: applications learn about
    dead peers instead of discovering them as simulation deadlocks. *)

val failed_ranks : t -> int list
(** Ranks currently considered failed, ascending. Portals clears a
    rank's mark automatically when its node restarts (connectionless,
    §3); connection-oriented backends keep it until {!reconnect}. *)

val reconnect : t -> rank:int -> unit
(** Re-admit a restarted peer. A no-op beyond bookkeeping on Portals;
    required on GM and ibverbs, whose per-peer connection state died
    with the peer. *)

val barrier : ?tolerant:bool -> t -> unit
(** Dissemination barrier over point-to-point messages on a reserved tag
    ([MPI_Barrier] on the world communicator). With [tolerant] (default
    false), exchanges with failed ranks are skipped instead of raising
    {!Peer_failed}, so surviving ranks still synchronise — what a
    shutdown barrier needs after a crash. *)

val barrier_tag_base : int
(** Reserved tag space used by {!barrier}; user tags must stay below. *)
