(** Priority queue of timestamped simulation events.

    A min-heap keyed by [(time, sequence)]. The sequence number is
    assigned at insertion, so events scheduled for the same instant fire in
    insertion order — this FIFO tie-break is what makes simulations
    deterministic and is relied upon throughout the engine.

    {b Layout.} A 4-ary index heap over three arrays of one capacity,
    a power of two. [add] writes each value once into a slot of a value
    array and {!pop_min} reads it once; the heap itself orders two [int]
    arrays, [times] and [keys], where a key packs the sequence number
    above the slot id: [key = (seq lsl shift) lor slot] with
    [shift = log2 capacity]. No sift stores a pointer. The key array's
    positions past {!length} hold the free slot ids, so no free list is
    needed. Growth doubles the capacity and repacks the keys
    with one more slot bit. A pop points its vacated value cell at the
    value of the entry that moves up from the last position, as a heap
    that moves values leaves a duplicate of it behind, so the heap keeps
    no more popped values reachable than that one would.

    {b Limits.} A sequence number must fit in the [62 - log2 capacity]
    bits above the slot id, so a heap of capacity [2^k] takes
    [2^(62-k)] insertions over its lifetime (2^42 at a million pending
    events). {!add} raises [Invalid_argument] before it would exceed
    that, rather than misorder; the capacity itself has no fixed cap.

    The steady-state pop-then-push pattern of a discrete-event loop
    ({!pop_min} an event, whose handler {!add}s its successors) allocates
    nothing: {!add} writes into preallocated slots (amortised) and
    {!pop_min}/{!min_time} return unboxed values. *)

type 'a t

exception Empty
(** Raised by {!min_time} and {!pop_min} on an empty heap. *)

val create : unit -> 'a t

val is_empty : 'a t -> bool

val length : 'a t -> int

val peak_size : 'a t -> int
(** High-water mark of {!length} over the heap's lifetime. *)

val add : 'a t -> time:Time_ns.t -> 'a -> unit
(** [add t ~time v] schedules [v] at [time]. O(log n), non-allocating
    (amortised). Raises [Invalid_argument] when the heap's sequence
    numbers are exhausted (see Limits above); the heap is then unchanged
    apart from possibly a larger capacity. *)

val min_time : 'a t -> Time_ns.t
(** Timestamp of the earliest event. O(1), non-allocating. Raises {!Empty}
    if the heap is empty. *)

val pop_min : 'a t -> 'a
(** Remove and return the earliest event's value (its timestamp is
    {!min_time}, read it first). O(log n), non-allocating. Raises {!Empty}
    if the heap is empty. *)

(** Entry points for tests only. *)
module For_testing : sig
  val create_at_seq : int -> 'a t
  (** [create_at_seq n] is an empty heap whose next {!add} gets sequence
      number [n], so a test can reach the overflow guard without [2^k]
      insertions. *)
end
