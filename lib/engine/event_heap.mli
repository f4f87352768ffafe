(** Priority queue of timestamped simulation events.

    Events pop in [(time, insertion)] order: events scheduled for the
    same instant fire in insertion order — this FIFO tie-break is what
    makes simulations deterministic and is relied upon throughout the
    engine.

    {b Layout.} A 4-ary heap of {e runs}: a run is a FIFO chain of
    events added for one time, and the heap holds one entry per run, so a
    burst of simultaneous events pays one sift in and one sift out.
    Events live in slots of two arrays of one capacity, a power of two:
    a value array, written once by [add] and read once by {!pop_min}, and
    a [next] array chaining each run from head to tail (free slots are
    chained through it too), so a pending event costs two words. The heap
    orders two [int] arrays, [times] and [keys], with one entry per run;
    a key packs the run's sequence number above its head slot:
    [key = (seq lsl shift) lor head] with [shift = log2 capacity]. Popping
    an event that is not its run's last only rewrites the root's key to
    the next slot, in place; popping the last one removes the run with a
    sift. Growth doubles the slot arrays and repacks the run keys with
    one more slot bit. A pop points its freed value cell at the head
    value of the run in the heap's last position, a late event that is
    usually still pending, so free slots keep few popped values
    reachable.

    {b Ordering.} An add appends to the newest run of its time, found
    through a small direct-mapped cache from a time to that run's tail
    slot, or else opens a new run with the next sequence number. A cache
    entry is only set to the tail of the newest run of its time and is
    cleared when that slot is freed, so an append never reaches an older
    run or a recycled slot; a miss (the entry was evicted by another time
    or the run has drained) only costs a run. Within one time, then, runs
    pop in sequence order, each event of a run was added before any event
    of a later run, and each run pops in FIFO order: the pop order is
    [(time, insertion)] exactly, the order of a heap of records.

    {b Limits.} A run's sequence number must fit in the
    [62 - log2 capacity] bits above the slot id, so a heap of capacity
    [2^k] opens [2^(62-k)] runs over its lifetime (2^42 at a million
    pending events). {!add} raises [Invalid_argument] before it would
    exceed that, rather than misorder; appending to a run takes no
    sequence number. The capacity itself has no fixed cap.

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
(** [add t ~time v] schedules [v] at [time]. O(1) when it appends to a
    run, O(log r) when it opens one, over the r pending runs;
    non-allocating (amortised). Raises [Invalid_argument] when the heap's sequence
    numbers are exhausted (see Limits above); the heap is then unchanged
    apart from possibly a larger capacity. *)

val min_time : 'a t -> Time_ns.t
(** Timestamp of the earliest event. O(1), non-allocating. Raises {!Empty}
    if the heap is empty. *)

val pop_min : 'a t -> 'a
(** Remove and return the earliest event's value (its timestamp is
    {!min_time}, read it first). O(1) unless it is its run's last event,
    then O(log r); non-allocating. Raises {!Empty}
    if the heap is empty. *)

(** Entry points for tests only. *)
module For_testing : sig
  val create_at_seq : int -> 'a t
  (** [create_at_seq n] is an empty heap whose next opened run gets
      sequence number [n], so a test can reach the overflow guard without
      [2^k] runs. *)

  val cache_entries : int
  (** Entries in the time-to-run cache: a test with more distinct times
      pending than this gives some time several runs. *)

  val runs : 'a t -> int
  (** Pending runs: more than the distinct pending times when some time
      has several. *)
end
