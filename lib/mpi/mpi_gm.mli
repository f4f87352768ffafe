(** MPI point-to-point over the GM-like layer — the paper's baseline.

    GM deposits arriving messages into receive tokens autonomously
    (OS bypass), but everything MPI-shaped — tag matching, unexpected
    queues, the rendezvous handshake for long messages — runs in the
    library, and the library only runs when the application calls it.
    During a compute loop, an incoming request-to-send just sits in the
    token queue; the clear-to-send goes out at the next MPI call. This is
    the "MPICH/GM makes very little progress" behaviour of Figure 6, and
    the reason §5.2 argues such implementations break the MPI progress
    rule.

    The MPI protocol itself is [Mpi_core], the library-side engine this
    stack shares with {!Mpi_ibverbs}; this module supplies only how GM
    moves the bytes (receive tokens, the send-completion FIFO, the GM
    framing of {!Envelope}).

    All calls must run inside a simulation fiber. *)

type config = {
  eager_threshold : int;  (** Bytes; default 16384 (GM-era MPICH). *)
  recv_tokens : int;  (** Pre-provisioned small tokens; default 64. *)
  call_cost : Sim_engine.Time_ns.t;  (** Per-call host overhead; default 300 ns. *)
}

val default_config : config

type status = { source : int; tag : int; length : int }

type request

type t

val create :
  Simnet.Transport.t ->
  ranks:Simnet.Proc_id.t array ->
  rank:int ->
  ?config:config ->
  unit ->
  t

val finalize : t -> unit
val rank : t -> int
val size : t -> int
val port : t -> Gm.t
(** The underlying GM port (for introspection in tests). *)

val isend : t -> ?context:int -> dst:int -> tag:int -> bytes -> request
(** [context] (default 0) isolates communication spaces, matching the
    Portals backend's communicator contexts. Raises
    [Envelope.Peer_failed] if [dst]'s node has crashed and has not been
    {!reconnect}ed — GM's per-peer connection state makes failure
    sticky. *)

val irecv : t -> ?context:int -> ?source:int -> ?tag:int -> bytes -> request
val test : t -> request -> status option
val wait : t -> request -> status
(** Both raise [Envelope.Peer_failed] when the request can no longer
    complete because the peer's node crashed (the blocked fiber is woken
    rather than left to deadlock). *)

val progress : t -> unit
(** One library entry: drain the port and run the protocol. This is what
    the "+3 MPI_Test calls in the work loop" variant of the paper's
    experiment adds. *)

(** {1 Peer liveness} *)

val on_peer_failure : t -> (rank:int -> unit) -> unit
(** Register a callback fired when a peer rank's node crashes. *)

val failed_ranks : t -> int list
(** Ranks currently marked failed, ascending. *)

val reconnect : t -> rank:int -> unit
(** Clear the failed mark for [rank] — the explicit reconnection GM
    demands before traffic with a restarted peer can resume (its token
    and handshake state did not survive the crash). *)

val counters : t -> (string * int) list
(** Monotone backend counters: eager/rendezvous sends, completions and
    the underlying port's send/receive totals. *)

module Tx : Transport.S with type t = t and type request = request
(** The {!Transport.S} instance of this backend (config defaults). *)
