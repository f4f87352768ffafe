(** The one transport signature every message-passing stack implements.

    The paper's thesis is that Portals' building blocks are one of
    several lower interfaces over which the {e same} upper-layer
    protocol (MPI point-to-point) can be expressed — the comparison of
    §5 only makes sense because MPICH/GM, MPICH over the kernel RTS/CTS
    modules and MPICH over Portals 3.0 present the same contract
    upward. {!S} is that contract: the intersection of what the MPI
    device layer needs from a transport, including the peer-liveness
    semantics ({!S.on_peer_failure}/{!S.failed_ranks}/{!S.reconnect})
    that earlier revisions bolted onto individual backends.

    [Mpi.Make (T : Transport.S)] derives the rest of the MPI surface
    (blocking calls, [waitall], the dissemination barrier) from an
    implementation of this signature, so a new backend is a new [S]
    instance and nothing else. Three instances exist: Portals
    ([Mpi.Mpi_portals.Tx], which also runs the kernel RTS/CTS stack over
    that wire), GM ([Mpi.Mpi_gm.Tx]) and the ibverbs-style RDMA stack
    ([Mpi.Mpi_ibverbs.Tx]). *)

type status = { source : int; tag : int; length : int }
(** Completion status of a point-to-point operation: matched source
    rank, matched tag, bytes delivered (sends report their own rank and
    the posted tag). *)

exception Peer_failed of int
(** Raised (with the peer's rank) when an operation cannot complete
    because the peer's node crashed: a blocked {!S.wait} on a receive
    from the failed rank, a rendezvous send whose partner died
    mid-handshake, or — connection-oriented backends only — new traffic
    toward a peer not yet {!S.reconnect}ed. One exception shared by
    every backend, so upper layers handle peer death uniformly. *)

val any_source : int
(** -1: matches any sender. *)

val any_tag : int
(** -1: matches any tag. *)

(** The transport contract. All operations must run inside a simulation
    fiber: they charge simulated time (library call overhead, host
    copies) and {!S.wait} blocks the calling fiber. *)
module type S = sig
  val name : string
  (** Stable identifier of the stack (["portals"], ["gm"],
      ["ibverbs"]). *)

  type t
  (** An endpoint: one rank's view of the communication world. *)

  type request
  (** A pending nonblocking operation. *)

  val create : Simnet.Transport.t -> ranks:Simnet.Proc_id.t array -> rank:int -> t
  (** Bring up the endpoint for [rank] on the wire [ranks] describes.
      Every endpoint of a job must exist before any rank sends — there
      is no connection retry. Backends with tunables also export a
      [create_with] taking their config record; this arity is the one
      the functor and the conformance suite use. *)

  val finalize : t -> unit
  (** Tear the endpoint down (collective in spirit: peers mid-protocol
      with this rank will see their transfers dropped). *)

  val rank : t -> int
  val size : t -> int

  val isend : t -> ?context:int -> dst:int -> tag:int -> bytes -> request
  (** Nonblocking send; data is captured at call time. [context]
      (default 0, the world) isolates communication spaces — messages
      only match receives posted with the same context. May raise
      {!Peer_failed} immediately on connection-oriented backends when
      [dst] is marked failed. *)

  val irecv : t -> ?context:int -> ?source:int -> ?tag:int -> bytes -> request
  (** Nonblocking receive; [source]/[tag] default to the wildcards
      {!any_source}/{!any_tag}, [context] to the world. *)

  val test : t -> request -> status option
  (** Nonblocking completion check; drives the library progress engine.
      Raises {!Peer_failed} if the request failed. *)

  val wait : t -> request -> status
  (** Blocks the calling fiber until the request completes; raises
      {!Peer_failed} if it cannot (the blocked fiber is woken on peer
      crash rather than left to deadlock). *)

  val progress : t -> unit
  (** One bare library entry with no request — the "sprinkled MPI
      calls" of §5.3. For backends without application bypass this is
      the only time protocol work happens. *)

  (** {2 Peer liveness}

      The uniform failure surface (previously GM-only). Connectionless
      backends (Portals: no per-peer state, §3) implement
      {!reconnect} as pure bookkeeping and clear failed marks on node
      restart; connection-oriented backends (GM tokens, ibverbs queue
      pairs) keep a peer failed until explicitly reconnected. *)

  val on_peer_failure : t -> (rank:int -> unit) -> unit
  (** Register a callback fired from the endpoint when a peer rank's
      node crashes. *)

  val failed_ranks : t -> int list
  (** Ranks currently considered failed, ascending. *)

  val reconnect : t -> rank:int -> unit
  (** Re-admit a restarted peer. No-op beyond bookkeeping on
      connectionless backends; rebuilds per-peer state on
      connection-oriented ones. *)

  (** {2 Metrics} *)

  val counters : t -> (string * int) list
  (** Backend counters (sends by protocol, completions, ...). Each
      value must be monotone non-decreasing over the endpoint's life —
      the conformance suite checks this — so they can be read as rates
      by sampling. *)
end

type packed = (module S)
(** A backend chosen at run time (CLI [--transports] lists, the
    benchmark matrix). *)
