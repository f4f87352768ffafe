(** A small MPI: nonblocking two-sided point-to-point with tag matching,
    wildcards, communicator contexts and a barrier, over every stack the
    paper compares. Every endpoint is one [Mpi_core.t], whatever the
    stack; the stacks differ only in where matching and progress run:

    {ul
    {- {!create_portals} — MPICH-over-Portals-style: matching in the NI,
       so delivery progresses without the application (§5.2, the
       declining curve of Figure 6);}
    {- {!create_gm} — MPICH/GM-style: matching in the library, so
       progress only inside library calls (the flat curve of Figure 6);}
    {- {!create_ibverbs} — an ibverbs-style RDMA stack (Liu et al.):
       sender-written per-peer rings plus RDMA-write rendezvous,
       matching in the library as on GM.}}

    The production Cplant stack (§3) is {!create_portals} over the
    kernel RTS/CTS wire: the Portals glue cannot tell where the NI runs,
    so [Runtime.Stack] only pairs it with a different wire. All calls
    must run inside a simulation fiber. *)

module Envelope = Envelope
module Mpi_portals = Mpi_portals
module Mpi_gm = Mpi_gm
module Mpi_ibverbs = Mpi_ibverbs

module Nx = Nx
(** The Intel NX interface of §2, over the same Portals matching
    engine. *)

type t = Mpi_core.t
type request = Mpi_core.request
type status = Mpi_core.status = { source : int; tag : int; length : int }

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

val finalize : t -> unit
val rank : t -> int
val size : t -> int

val counters : t -> (string * int) list
(** The stack's monotone counters: [eager_sends], [rdvz_sends],
    [completions], then the stack's own (see each stack's module). *)

val isend : t -> ?context:int -> dst:int -> tag:int -> bytes -> request
(** Nonblocking send ([MPI_Isend]). The data is captured at call time.
    [context] (default 0, the world) selects the communicator context:
    messages only match receives posted with the same context — the
    communicator-isolation mechanism MPI builds on the match bits
    (§4.4's flexibility argument). *)

val irecv : t -> ?context:int -> ?source:int -> ?tag:int -> bytes -> request
(** Nonblocking receive ([MPI_Irecv]); [source]/[tag] default to the
    wildcards, [context] to the world. Both calls check their
    arguments first: [context] in [0 .. Envelope.max_context], [tag] in
    [0 .. Envelope.max_tag] and the peer a rank of the job, with the
    wildcards allowed on [irecv] only; a bad one raises
    [Invalid_argument]. *)

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
    ([MPI_Barrier] on the world communicator); the top 64 tags are
    reserved for it, so user tags must stay below them. With [tolerant] (default
    false), exchanges with failed ranks are skipped instead of raising
    {!Peer_failed}, so surviving ranks still synchronise — what a
    shutdown barrier needs after a crash. *)
