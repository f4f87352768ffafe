(** A GM-like message layer: the paper's baseline (§5.3).

    GM (Myricom's interface for Myrinet) achieves {e OS bypass}: the NIC
    deposits incoming messages directly into pre-registered receive-token
    buffers with no kernel or application involvement. But it offers no
    {e application bypass}: the library learns what arrived — and can run
    any higher-level protocol such as MPI matching or a rendezvous
    response — only when the application calls {!poll}. That distinction
    is exactly what Figure 6 of the paper measures.

    Model: a port owns receive tokens (buffers), one FIFO per size. An
    arriving message consumes the oldest token of the smallest size that
    holds it (GM matches receive buffers by size class too), so a large
    token provided for one expected message is not spent on a small one;
    with no usable token the message is dropped and counted (GM requires
    the receiver to provision tokens ahead of traffic). Completion events
    accumulate in a port-internal queue that only {!poll} drains. *)

type event =
  | Recv_complete of { src : Simnet.Proc_id.t; buffer : bytes; length : int }
      (** A message landed in [buffer] (a formerly provided token; the
          first [length] bytes are valid). *)
  | Send_complete of { dst : Simnet.Proc_id.t; length : int }
      (** A send's data left the local NIC; the send buffer is reusable. *)

type stats = {
  sends : int;
  receives : int;
  drops_no_token : int;  (** Arrivals with no token large enough. *)
  polls : int;
  tokens_available : int;
}

type t

val open_port : Simnet.Transport.t -> id:Simnet.Proc_id.t -> t
(** Open the process's port. GM semantics presume a NIC-offload transport
    ({!Simnet.Transport.offload}); the port works over any transport, the
    receive path simply inherits its costs. *)

val close : t -> unit

val provide_receive_token : t -> bytes -> unit
(** Append a receive buffer to the FIFO of tokens of its size. *)

val provide_receive_tokens : t -> size:int -> int -> unit
(** [provide_receive_tokens t ~size n] provides [n] tokens of [size]
    bytes whose buffers the port creates when an arrival first takes one.
    They count in [tokens_available] and match like any token of their
    size, after every provided buffer of that size. Raises
    [Invalid_argument] if [n] is negative. *)

val send : t -> dst:Simnet.Proc_id.t -> bytes -> unit
(** Asynchronous send; a [Send_complete] event is queued once the data
    has left. The port takes ownership of the image it is given: no
    copy is made, the transport carries these very bytes, so the caller
    must never write to them again ([Mpi_gm] encodes a fresh image for
    every send). *)

val poll : t -> event option
(** Drain one completion event, oldest first — the {e only} way the
    application observes the network. Returns [None] when nothing has
    completed. *)

val wait_event : t -> unit
(** Fiber-only: block until the port has at least one completion event —
    the analogue of a blocking [gm_receive] — or until a {!wake} issued
    after this call began. The caller still has to {!poll}; nothing is
    processed on its behalf (no application bypass). *)

val wake : t -> unit
(** Interrupt every fiber blocked in {!wait_event} even though no event
    was posted (the analogue of [gm_wake]). Used to surface out-of-band
    conditions — a peer crash — to blocked waiters, which must re-check
    their own predicates. *)

val pending_events : t -> int
(** Events a {!poll} would find right now (for tests; a real application
    cannot see this without polling). *)

val stats : t -> stats
