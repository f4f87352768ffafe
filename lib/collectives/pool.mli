(** A pooled-message endpoint on one portal table entry.

    Collective algorithms exchange short-lived point-to-point messages
    whose arrival order relative to the receiver's readiness is not
    controlled (peers enter the collective at different times). Portals
    discards messages with no buffer (§4.1), so this pool keeps catch-all
    match entries over slab MDs with locally managed offsets permanently
    posted; arrivals land there, and callers {!recv} by exact match-bits,
    blocking on the event queue until the message they expect has
    arrived. Slabs recycle once drained — the §4.1 memory argument again:
    pool memory is sized by protocol concurrency, not job size. *)

type t

exception Eq_overflow of { capacity : int; dropped : int }
(** The pool's event queue of [capacity] entries overflowed and lost
    [dropped] arrivals. Their messages can never be claimed. *)

val create :
  Portals.Ni.t ->
  portal_index:int ->
  ?slab_size:int ->
  ?slab_count:int ->
  ?eq_capacity:int ->
  unit ->
  t
(** Defaults: 4 slabs of 128 KiB, EQ depth 4096. The EQ must hold every
    arrival the owner has not yet drained: size it from the job (for a
    gather, at least the number of messages in flight to this rank). Its
    ring grows with use, so depth costs nothing on ranks that receive
    little.

    What [create] allocates: the bytes of slab 0, where the first
    message lands, and a send scratch of at most 1 KiB. Every other slab
    is an {!Portals.Md.reservation} whose bytes the NI creates on the
    first message that lands in it, and the scratch doubles, up to
    [slab_size], the first time a {!send} needs more. *)

val ni : t -> Portals.Ni.t

val send :
  t -> dst:Simnet.Proc_id.t -> bits:Portals.Match_bits.t -> bytes -> unit
(** Fire-and-forget put to the peer's pool on the same portal index. The
    fabric is reliable, so no completion tracking is needed. Raises
    [Invalid_argument] when the payload is longer than [slab_size]. *)

val recv : t -> bits:Portals.Match_bits.t -> bytes
(** Fiber-only: block until a pooled message with exactly [bits] has
    arrived, remove it from the pool and return a copy of its payload.
    Messages with the same bits are claimed in arrival order.

    Raises {!Eq_overflow} once the pool's event queue has dropped an
    arrival, rather than blocking on a message that was lost. *)

val pending : t -> int
(** Messages sitting in the pool (drained events not yet claimed). *)
