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

    The endpoint is a {!Mpi_core.t} and matching is [Mpi_libmatch], as
    for {!Mpi_ibverbs}; this module supplies only how GM moves the bytes
    (receive tokens, the send-completion FIFO, the GM framing of
    {!Envelope}). Crash semantics are connection-oriented: GM's per-peer
    token and handshake state dies with the peer, so traffic toward a
    failed rank raises [Envelope.Peer_failed] until
    {!Mpi_core.reconnect}.

    Counters: {!Mpi_core.counters}, then [port_sends] and
    [port_receives]. *)

type config = {
  eager_threshold : int;  (** Bytes; default 16384 (GM-era MPICH). *)
  recv_tokens : int;  (** Pre-provisioned small tokens; default 64. *)
  call_cost : Sim_engine.Time_ns.t;  (** Per-call host overhead; default 300 ns. *)
}

val default_config : config

val create :
  Simnet.Transport.t ->
  ranks:Simnet.Proc_id.t array ->
  rank:int ->
  ?config:config ->
  unit ->
  Mpi_core.t
(** Open the rank's GM port and provide its receive tokens. *)
