(** The library-side MPI engine shared by {!Mpi_gm} and {!Mpi_ibverbs}.

    MPICH/GM and the ibverbs stack of Liu et al. run one protocol on the
    host: the MPI library matches envelopes against posted receives,
    buffers unexpected messages, sends short messages eagerly and long
    ones through an RTS/CTS rendezvous — and all of it advances only
    inside library calls (§5.2's progress argument; the flat MPICH/GM
    curve of Figure 6). This module is that protocol, once. A stack
    supplies only how its bytes move, as an {!ops} record.

    Crash semantics are connection-oriented: a crashed peer's requests
    fail, traffic toward it raises {!Envelope.Peer_failed} until
    {!reconnect}, and a rendezvous header it sent before dying fails
    whichever receive claims it. *)

type status = Transport.status = { source : int; tag : int; length : int }

type request = {
  buffer : bytes;  (** The send's data, or the receive's landing buffer. *)
  want_context : int;
  want_source : int;  (** A receive's source filter; a send's destination. *)
  want_tag : int;
  mutable state : [ `Pending | `Complete of status | `Failed of int ];
}

type ('d, 'k) t
(** An endpoint over a stack whose own state is ['d] and whose granted
    rendezvous keeps a landing key ['k] until its data arrives. *)

(** How a stack moves bytes. One static record per stack; the engine
    calls these and nothing else stack-specific. *)
and ('d, 'k) ops = {
  send_eager : ('d, 'k) t -> request -> Envelope.t -> unit;
      (** Ship an eager message to the send's destination; complete the
          send (with {!complete}) when the stack says it left. *)
  send_rts : ('d, 'k) t -> request -> Envelope.t -> cookie:int -> unit;
      (** Ship a rendezvous header; the engine has already recorded the
          send under [cookie] in {!awaiting_cts}. *)
  grant :
    ('d, 'k) t -> request -> Envelope.t -> cookie:int -> total:int -> unit;
      (** Clear a matched rendezvous to send: prepare the landing place,
          record the receive in {!awaiting_data} and send the CTS. Never
          called toward a failed rank. *)
  release : ('d, 'k) t -> 'k -> unit;
      (** Drop a landing key whose sender crashed. *)
  poll : ('d, 'k) t -> unit;
      (** Drain the device, feeding arrivals to {!on_eager}, {!on_rts},
          {!awaiting_cts} and {!awaiting_data}. *)
  block : ('d, 'k) t -> unit;
      (** Sleep the fiber until the device has activity or is woken. *)
  wake : ('d, 'k) t -> unit;  (** Wake a fiber sleeping in [block]. *)
  drop_peer : ('d, 'k) t -> int -> unit;
      (** A peer rank crashed: discard the stack's per-peer state. *)
  reset_peer : ('d, 'k) t -> int -> unit;
      (** A failed peer is re-admitted by {!reconnect}. *)
}

val create :
  name:string ->
  ops:('d, 'k) ops ->
  eager_threshold:int ->
  call_cost:Sim_engine.Time_ns.t ->
  Simnet.Transport.t ->
  ranks:Simnet.Proc_id.t array ->
  rank:int ->
  (Simnet.Proc_id.t -> 'd) ->
  ('d, 'k) t
(** Check the rank, build the stack's state from its process id, and
    subscribe to the wire's crash notices. *)

val dev : ('d, 'k) t -> 'd
val ranks : ('d, 'k) t -> Simnet.Proc_id.t array
val eager_threshold : ('d, 'k) t -> int

val awaiting_cts : ('d, 'k) t -> (int, request) Hashtbl.t
(** Rendezvous sends waiting for their CTS, by cookie. *)

val awaiting_data : ('d, 'k) t -> (int, request * Envelope.t * 'k) Hashtbl.t
(** Granted receives waiting for their data, by cookie, with the RTS
    envelope and the landing key. *)

val complete : ('d, 'k) t -> request -> status -> unit
(** Complete a pending request (a no-op on a finished one). *)

val take : ('a, 'b) Hashtbl.t -> 'a -> 'b option
(** Find and remove. *)

val deliver :
  ('d, 'k) t -> request -> Envelope.t -> bytes -> off:int -> len:int -> unit
(** Copy a payload into a receive, charging the host copy, truncating to
    its buffer, and complete it. *)

val on_eager :
  ('d, 'k) t -> Envelope.t -> bytes -> off:int -> len:int -> unit
(** An eager message arrived: deliver it to the first matching posted
    receive, or copy it into the unexpected queue. *)

val on_rts : ('d, 'k) t -> Envelope.t -> cookie:int -> total:int -> unit
(** A rendezvous header arrived: grant it to the first matching posted
    receive, or queue it as unexpected. *)

val counters : ('d, 'k) t -> (string * int) list
(** [eager_sends], [rdvz_sends], [completions]; a stack appends its
    own. *)

(** The endpoint calls a stack exports unchanged ([include]d by both). *)
module Endpoint : sig
  val rank : ('d, 'k) t -> int
  val size : ('d, 'k) t -> int

  val isend :
    ('d, 'k) t -> ?context:int -> dst:int -> tag:int -> bytes -> request

  val irecv :
    ('d, 'k) t -> ?context:int -> ?source:int -> ?tag:int -> bytes -> request

  val test : ('d, 'k) t -> request -> status option
  val wait : ('d, 'k) t -> request -> status

  val progress : ('d, 'k) t -> unit
  (** One library entry: charge the call cost and poll the device. *)

  val on_peer_failure : ('d, 'k) t -> (rank:int -> unit) -> unit
  val failed_ranks : ('d, 'k) t -> int list
  val reconnect : ('d, 'k) t -> rank:int -> unit
end
