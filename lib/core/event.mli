(** Completion events and circular event queues (§4.4, §4.8).

    Every memory descriptor may name an event queue; operations on the
    descriptor are logged there. Queues are circular with a fixed capacity
    chosen at allocation — "the higher level protocol needs to ensure that
    there are enough event slots and the rate of event consumption is able
    to keep up with the rate of event production to avoid missing events"
    (§4.8). A post to a full queue is counted as dropped; readers observe
    the loss through {!Queue.dropped} (the [PTL_EQ_DROPPED] condition).

    Cost model: a queue pays for the events it holds, not for its
    capacity. Its ring starts empty and doubles (from 8 slots) as events
    arrive, up to [capacity], copying the queued entries in arrival
    order; it never shrinks. Creating a queue allocates the same few
    words whatever its capacity, so a deep queue on an endpoint that
    never receives is free, and one that fills pays about twice its
    high-water depth over its life. *)

type kind =
  | Sent  (** Initiator: an outgoing put left the local interface. *)
  | Ack  (** Initiator: the target acknowledged a put. *)
  | Put  (** Target: an incoming put was deposited. *)
  | Get  (** Target: an incoming get read this descriptor. *)
  | Atomic
      (** Target: an incoming atomic read-modified-wrote a word of this
          descriptor. *)
  | Reply
      (** Initiator: the data for a get — or the fetched value of an
          atomic — arrived. *)
  | Triggered
      (** Either side of the triggered-operation extension: at the target,
          a deposit whose put was fired by a pre-armed chain (the wire
          frame carries the provenance flag); at the arming side, a chain
          armed with an event queue reached its counter threshold and ran.
          In both cases no host fiber was scheduled to make it happen. *)

val kind_to_string : kind -> string

type t = {
  kind : kind;
  initiator : Simnet.Proc_id.t;
      (** The process that initiated the operation (for target-side events)
          or the remote party (echoed back, for initiator-side events). *)
  portal_index : int;
  match_bits : Match_bits.t;
  rlength : int;  (** Length requested on the wire. *)
  mlength : int;  (** Manipulated length: bytes actually moved (§4.6). *)
  offset : int;  (** Offset within the memory descriptor actually used. *)
  md_handle : Handle.md;  (** The descriptor the event concerns. *)
  md_user_ptr : int;  (** The descriptor's opaque user tag. *)
  time : Sim_engine.Time_ns.t;  (** Simulated time the event was logged. *)
}

val pp : Format.formatter -> t -> unit

module Queue : sig
  type event := t
  type t

  val create : ?name:string -> Sim_engine.Scheduler.t -> capacity:int -> t
  (** Raises [Invalid_argument] if capacity is not positive. No slot is
      allocated until the first {!post}. With [name],
      the queue registers an ["eq.depth"] time-series (µs, depth) and
      ["eq.posted"]/["eq.dropped"] probes labelled [("eq", name)] in the
      scheduler's metrics registry. *)

  val capacity : t -> int
  val count : t -> int
  (** Events currently queued. *)

  val is_full : t -> bool

  val post : t -> event -> bool
  (** Append an event; false (and the dropped counter ticks) exactly when
      [count = capacity]. Wakes blocked {!wait}ers. *)

  val get : t -> event option
  (** Non-blocking read in arrival order ([PtlEQGet]). *)

  val wait : t -> event
  (** Blocking read ([PtlEQWait]): returns at once, from any context,
      when an event is queued, and otherwise blocks the calling fiber.
      Unlike {!get} it allocates nothing. *)

  val wait_opt : t -> event option
  (** Like {!wait}, but also returns — with [None] — when a {!wake}
      issued after the call began interrupts it. Callers re-check
      whatever condition they were waiting for. *)

  val wake : t -> unit
  (** Interrupt every fiber blocked in {!wait_opt} even though no event
      was posted. Used to surface out-of-band conditions (a peer node
      crash) to blocked waiters. *)

  val dropped : t -> int
  (** Events lost to overflow since creation. *)

  val posted : t -> int
  (** Events successfully posted since creation. *)
end
