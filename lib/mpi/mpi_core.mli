(** The MPI engine every stack runs on: one endpoint type, one request
    lifecycle, and the place where a stack's matching is plugged in.

    This module is everything the stacks share, once: requests and their
    completion, the argument checks, cookie minting, the
    unexpected-message queue, the failed-rank set with its peer
    callbacks, [reconnect], and [test]/[wait]/[progress]. A stack
    supplies how its bytes move and where it matches, as an {!ops}
    record.

    All calls must run inside a simulation fiber: they charge simulated
    time (the library call cost, host copies) and [wait] blocks the
    calling fiber. *)

type status = { source : int; tag : int; length : int }
(** Completion status: matched source rank, matched tag, bytes
    delivered (sends report their own rank and the posted tag). *)

type request = private {
  buffer : bytes;  (** The send's data, or the receive's landing buffer. *)
  want_context : int;
  mutable want_source : int;
      (** A send's destination; a receive's source filter, narrowed to
          the sender when its rendezvous is granted. *)
  mutable want_tag : int;  (** Narrowed with [want_source]. *)
  mutable state : [ `Pending | `Complete of status | `Failed of int ];
}

type dev = ..
(** A stack's own state: each stack adds one constructor. *)

type t
(** An endpoint: one rank's view of the communication world. *)

(** How a stack moves bytes and where it matches. One static record per
    stack; the engine calls these and nothing else stack-specific.

    This is the seam the paper's §5 comparison needs: MPICH over Portals
    3.0, over the kernel RTS/CTS modules and over GM present the {e same}
    contract upward, so the comparison measures only what differs below
    it — where matching and progress run. Portals ({!Mpi_portals})
    matches in the NI, so [post] hands a receive to a match list and
    delivery progresses without the application; MPICH/GM and the
    ibverbs stack of Liu et al. ({!Mpi_gm}, {!Mpi_ibverbs}) match in the
    library ([Mpi_libmatch]), so nothing advances outside a library
    call.

    [connectionless] is the one crash policy a stack chooses. A
    connection-oriented stack (GM tokens, ibverbs queue pairs) refuses
    new traffic toward a failed rank with {!Envelope.Peer_failed} until
    {!reconnect}. A connectionless one (Portals: no per-peer state, §3)
    accepts it: an eager send completes locally, a rendezvous send or a
    receive pinned to the rank fails, and the failed mark clears when
    the node restarts. *)
and ops = {
  connectionless : bool;
  send_eager : t -> request -> Envelope.t -> unit;
      (** Ship an eager message to the send's destination; {!complete}
          the send when the stack says it left. *)
  send_rts : t -> request -> Envelope.t -> cookie:int -> unit;
      (** Ship a rendezvous header; the payload waits under [cookie]. *)
  grant : t -> request -> Envelope.t -> cookie:int -> total:int -> unit;
      (** Fetch or clear a matched rendezvous to send. Called only by
          {!grant}, never toward a failed rank or a stale incarnation. *)
  post : t -> request -> unit;
      (** Post a receive that nothing buffered matched. *)
  poll : t -> unit;
      (** Drain the device and run the protocol over what arrived. *)
  block : t -> unit;
      (** Sleep the fiber until the device has activity (then run the
          protocol over it) or is woken by [wake]. *)
  wake : t -> unit;  (** Wake a fiber sleeping in [block]. *)
  drop_peer : t -> int -> unit;
      (** A peer rank crashed: discard the stack's per-peer state and
          {!fail_req} the requests only that peer could complete. *)
  reset_peer : t -> int -> unit;
      (** A failed peer is re-admitted by {!reconnect}. *)
  finalize : t -> unit;
  counters : t -> (string * int) list;  (** Appended to {!counters}. *)
}

val create :
  name:string ->
  ops:ops ->
  eager_threshold:int ->
  call_cost:Sim_engine.Time_ns.t ->
  Simnet.Transport.t ->
  ranks:Simnet.Proc_id.t array ->
  rank:int ->
  (Simnet.Proc_id.t -> dev) ->
  t
(** Check the rank, build the stack's state from its process id, and
    subscribe to the wire's crash (and, connectionless, restart)
    notices. *)

(** {1 The endpoint calls} *)

val finalize : t -> unit
val rank : t -> int
val size : t -> int

val isend : t -> ?context:int -> dst:int -> tag:int -> bytes -> request
(** Nonblocking send; the data is captured at call time. [context]
    (default 0, the world) isolates communication spaces: messages
    only match receives posted with the same context. *)

val irecv : t -> ?context:int -> ?source:int -> ?tag:int -> bytes -> request
(** Nonblocking receive; [source]/[tag] default to the wildcards
    {!Envelope.any_source}/{!Envelope.any_tag}, [context] to the world.

    Both calls check their arguments first: [context] in
    [0 .. Envelope.max_context], [tag] in [0 .. Envelope.max_tag] and
    the peer a rank of the job, with the wildcards allowed on [irecv]
    only. A bad argument raises [Invalid_argument]. *)

val test : t -> request -> status option
(** One library entry, then the request's state. Raises
    {!Envelope.Peer_failed} if it failed. *)

val wait : t -> request -> status
(** Block until the request completes; raises {!Envelope.Peer_failed}
    if it cannot (the blocked fiber is woken on a peer's crash rather
    than left to deadlock). *)

val progress : t -> unit
(** One bare library entry: charge the call cost and poll the device —
    the "sprinkled MPI calls" of §5.3. *)

val on_peer_failure : t -> (rank:int -> unit) -> unit
(** Register a callback fired when a peer rank's node crashes. *)

val failed_ranks : t -> int list
(** Ranks currently marked failed, ascending. *)

val reconnect : t -> rank:int -> unit
(** Re-admit a restarted peer: clear its mark and let the stack rebuild
    its per-peer state. *)

val counters : t -> (string * int) list
(** [eager_sends], [rdvz_sends], [completions], then the stack's own.
    Each is monotone over the endpoint's life. *)

(** {1 For stacks} *)

val dev : t -> dev
val ranks : t -> Simnet.Proc_id.t array
val eager_threshold : t -> int
val eager_sends : t -> int
val rdvz_sends : t -> int

val complete : t -> request -> status -> unit
(** Complete a pending request (a no-op on a finished one). *)

val fail_req : request -> int -> unit
(** Fail a pending request because rank [r] crashed. *)

val deliver :
  t -> request -> Envelope.t -> bytes -> off:int -> len:int -> unit
(** Copy a payload into a receive, charging the host copy, truncating to
    its buffer, and complete it. *)

val grant : t -> request -> Envelope.t -> cookie:int -> total:int -> unit
(** A receive matched a rendezvous header. Fail it with
    {!Envelope.Peer_failed} if the sender is marked failed or the cookie
    was minted by an earlier incarnation of its node (the data behind it
    died with that incarnation); otherwise narrow it to the sender and
    let the stack [grant] it. *)

val unexpected_eager :
  t ->
  Envelope.t ->
  claim:(t -> request -> Envelope.t -> 'a -> off:int -> len:int -> unit) ->
  'a ->
  off:int ->
  len:int ->
  unit
(** Queue an eager message no posted receive matched: its bytes are
    [len] bytes at [off] of the stack's ['a], and [claim] completes a
    receive from them. *)

val unexpected_rts : t -> Envelope.t -> cookie:int -> total:int -> unit
(** Queue a rendezvous header no posted receive matched. *)

val take : ('a, 'b) Hashtbl.t -> 'a -> 'b option
(** Find and remove. *)
