(** One-sided operations on Portals: a shmem-style layer (§4.4 cites
    shmem as the canonical one-sided model Portals addressing supports,
    and §2 notes the Puma MPI carried preliminary MPI-2 one-sided
    functions), grown into foMPI-shaped MPI-3 RMA windows ({!Win}).

    Every process exposes {e symmetric regions}: allocation [k] on one
    rank names the same region on every rank (all ranks must allocate in
    the same order, as in shmem's symmetric heap). Remote [put]/[get]
    address a region by id and offset — the (process, buffer id, offset)
    triple of §4.4 — with no involvement of the target application:
    delivery, acknowledgment, replies and atomics are all Portals
    processing (application bypass, §5.1, extended to read-modify-write).

    Blocking calls are fiber-only. *)

type t

type eq_side = Rx | Tx

type error =
  | Eq_alloc_failed of { side : eq_side; capacity : int; cause : Portals.Errors.t }
      (** {!create} could not allocate the endpoint's event queue. *)
  | Eq_overflow of { side : eq_side; dropped : int }
      (** An event queue dropped events (the [PTL_EQ_DROPPED] condition,
          §4.8). A dropped tx event is a completion the endpoint will
          never observe, so completion-dependent calls ({!quiet},
          {!get}, the atomics, {!Win.flush}) raise instead of hanging; a
          dropped rx event during a {!wait_until} is a possibly-lost
          wakeup and is surfaced the same way. *)

exception Error of error

val pp_error : Format.formatter -> error -> unit

val create :
  Portals.Ni.t ->
  ranks:Simnet.Proc_id.t array ->
  rank:int ->
  ?portal_index:int ->
  ?eq_capacity:int ->
  unit ->
  (t, error) result
(** One endpoint per rank over an existing interface; [portal_index]
    defaults to 7, [eq_capacity] (the capacity of both the rx and tx
    event queues) to 4096. EQ allocation failure — e.g. a non-positive
    [eq_capacity] — is returned as {!Eq_alloc_failed}. *)

val create_exn :
  Portals.Ni.t ->
  ranks:Simnet.Proc_id.t array ->
  rank:int ->
  ?portal_index:int ->
  ?eq_capacity:int ->
  unit ->
  t
(** {!create}, raising {!Error} on failure. *)

type sym
(** A symmetric region id. *)

val alloc : t -> int -> sym
(** Expose a fresh zero-initialised region of the given size. Must be
    called in the same order with the same size on every rank. *)

val region_bytes : t -> sym -> bytes
(** The local backing store of a region (reading it sees remote puts;
    writing it feeds remote gets). *)

val put : t -> sym -> pe:int -> offset:int -> bytes -> unit
(** Asynchronous remote write into [pe]'s region at [offset]. Completion
    is tracked by the Portals acknowledgment (Table 2); {!quiet} drains
    it. Raises [Invalid_argument] if the write would overrun the region
    (the target would reject it, §4.8). *)

val get : t -> sym -> pe:int -> offset:int -> len:int -> bytes
(** Blocking remote read of [len] bytes from [pe]'s region at [offset]
    (the reply routes back through the bound descriptor, Table 4).
    Raises [Invalid_argument] if the read would overrun the region. *)

val fetch_and_add : t -> sym -> pe:int -> offset:int -> int64 -> int64
(** Blocking atomic fetch-and-add on the 64-bit little-endian word at
    [offset] in [pe]'s region: deposits [old + delta], returns [old].
    Executes on the target interface at match time ({!Portals.Ni.atomic});
    the target application is never involved. Raises [Invalid_argument]
    if [offset, offset+8) overruns the region. *)

val compare_and_swap :
  t -> sym -> pe:int -> offset:int -> expected:int64 -> desired:int64 -> int64
(** Blocking atomic compare-and-swap: deposits [desired] iff the word
    equals [expected]; returns the old value either way (success is
    [old = expected]). *)

val quiet : t -> unit
(** Block until every outstanding {!put} has been acknowledged and every
    outstanding atomic has replied — shmem_quiet. *)

val outstanding_puts : t -> int

val wait_until : t -> sym -> offset:int -> value:char -> unit
(** Block until the local region's byte at [offset] equals [value] — the
    shmem point-to-point synchronisation idiom. Wakes on each incoming
    one-sided operation (a PUT event on the region, §4.4). *)

val barrier_value : char
(** Conventional flag value (\x01) for {!wait_until}-based signalling. *)

(** {1 MPI-3 RMA windows (foMPI-shaped)} *)

type lock_kind = Shared | Exclusive

type win
(** An MPI-3-style window: a symmetric region holding a 64-bit lock word
    followed by [size] data bytes on every rank. All window offsets are
    relative to the data area. *)

module Win : sig
  val local_data : win -> bytes
  (** Copy of this rank's window data area (excluding the lock word). *)

  val lock : win -> rank:int -> lock_kind -> unit
  (** MPI_Win_lock: passive-target lock on [rank]'s window copy, taken
      with Portals atomics on [rank]'s lock word — CAS for [Exclusive],
      fetch-add on the shared count for [Shared] — with exponential
      backoff between attempts. The exclusive tag embeds the holder's
      rank and node incarnation, so if the holder crashes, survivors
      detect the stale tag (crash notification or incarnation mismatch)
      and recover the lock instead of deadlocking. *)

  val unlock : win -> rank:int -> unit
  (** MPI_Win_unlock: release; implicitly a {!flush} is {e not}
      performed — call {!flush} first if remote completion must precede
      the release (foMPI's unlock does flush; composing the two calls
      keeps the primitives separable for measurement). *)

  val lock_all : win -> unit
  (** MPI_Win_lock_all: shared lock on every rank. *)

  val unlock_all : win -> unit

  val put : win -> rank:int -> offset:int -> bytes -> unit
  (** Nonblocking remote write at [offset] in [rank]'s data area;
      completes at {!flush}/{!flush_all}/{!quiet}. *)

  val get : win -> rank:int -> offset:int -> len:int -> bytes
  (** Blocking remote read. *)

  val accumulate : win -> rank:int -> offset:int -> int64 -> unit
  (** Nonblocking atomic add to the 64-bit word at [offset] (8-aligned);
      completes at {!flush}. MPI_Accumulate(MPI_SUM) on one element. *)

  val fetch_and_add : win -> rank:int -> offset:int -> int64 -> int64
  (** Blocking MPI_Fetch_and_op(MPI_SUM): returns the old value. *)

  val compare_and_swap :
    win -> rank:int -> offset:int -> expected:int64 -> desired:int64 -> int64
  (** Blocking MPI_Compare_and_swap: returns the old value. *)

  val flush : win -> rank:int -> unit
  (** MPI_Win_flush: block until every put/accumulate this endpoint
      issued to [rank] (on any window) has completed remotely — the
      foMPI ordering point. *)

  val flush_all : win -> unit
  (** MPI_Win_flush_all: {!flush} to every rank. *)
end

val win_create : t -> size:int -> win
(** Collective (same order on every rank, like {!alloc}): expose a window
    of [size] data bytes per rank. *)

val win_free : win -> unit
(** Collective: drain outstanding operations and retire the window's
    region. *)
