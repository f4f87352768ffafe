(** Memory descriptors (§4.4).

    A memory descriptor (MD) identifies a region of the process's memory
    and how operations may use it: which operations are enabled, whether
    over-long transfers truncate, whether the {e remote} offset from the
    wire or a {e locally managed} offset selects the deposit position, how
    many operations the descriptor survives (its threshold), and the event
    queue where completions are logged.

    Locally managed offsets are the mechanism behind scalable unexpected-
    message buffering (§4.1): successive messages land back-to-back in a
    slab MD, so buffer memory is sized by application behaviour rather
    than by job size. *)

type options = {
  op_put : bool;  (** Incoming put operations may use this MD. *)
  op_get : bool;  (** Incoming get operations may use this MD. *)
  manage_remote : bool;
      (** Use the offset carried in the request ([PTL_MD_MANAGE_REMOTE]);
          otherwise the MD's locally managed offset is used and advances
          past each deposit. *)
  truncate : bool;
      (** Accept over-long requests by truncating ([PTL_MD_TRUNCATE]);
          otherwise such requests are rejected (§4.8). *)
  ack_disable : bool;
      (** Never generate acknowledgments from this MD
          ([PTL_MD_ACK_DISABLE]). *)
}

val default_options : options
(** put+get enabled, remote-managed offset, no truncation, acks enabled. *)

type threshold = Infinite | Count of int

type unlink_policy = Unlink | Retain
(** Whether exhausting the threshold removes the MD from its match entry
    ([PTL_UNLINK]) or leaves it linked but inactive ([PTL_RETAIN]). *)

type t

val create :
  ?options:options ->
  ?threshold:threshold ->
  ?unlink:unlink_policy ->
  ?eq:Event.Queue.t ->
  ?eq_handle:Handle.eq ->
  ?user_ptr:int ->
  ?length:int ->
  bytes ->
  t
(** [create buffer] describes all of [buffer], or its first [length]
    bytes when given. [user_ptr] (default 0) is an opaque tag echoed in
    events. *)

val create_iovec :
  ?options:options ->
  ?threshold:threshold ->
  ?unlink:unlink_policy ->
  ?eq:Event.Queue.t ->
  ?eq_handle:Handle.eq ->
  ?user_ptr:int ->
  (bytes * int * int) list ->
  t
(** Gather/scatter descriptor — the extension §7 of the paper plans ("we
    would like to extend the API to support gather/scatter operations
    more efficiently"). Each [(buffer, off, len)] names one piece;
    operations address the logical concatenation, so a put sourced from
    the descriptor gathers and an incoming put scatters. Raises
    [Invalid_argument] on an empty vector or an out-of-range piece. *)

type reservation
(** Memory that is promised but not yet created — the simulator's
    demand-zero pages. A reservation of [n] bytes owns no memory until a
    descriptor over it is first written or read; then all [n] bytes are
    created with [Bytes.create], so never-written bytes read back
    unspecified, never as an error. Every descriptor over the same
    reservation sees the same bytes, so a slab re-armed with a fresh
    descriptor keeps what already landed in it, and a slab that nothing
    ever lands in costs no memory. *)

val reserve : int -> reservation
(** [reserve n] promises [n] bytes. Raises [Invalid_argument] on a
    negative length. *)

val backed : reservation -> bool
(** Whether the reservation's bytes exist yet (trivially so for a
    zero-length one). *)

val create_reserved :
  ?options:options ->
  ?threshold:threshold ->
  ?unlink:unlink_policy ->
  ?eq:Event.Queue.t ->
  ?eq_handle:Handle.eq ->
  ?user_ptr:int ->
  reservation ->
  t
(** Describe all of a reservation. The first {!write}, {!read},
    {!blit_to} or {!buffer} creates its bytes if no descriptor has yet;
    everything else — acceptance, offsets, thresholds — behaves as for
    a flat descriptor of the same length. *)

val buffer : t -> bytes
(** Backing buffer of a single-segment descriptor (a reserved region's
    bytes are created by this call if nothing touched them yet); raises
    [Invalid_argument] for gather/scatter descriptors. *)

val reserved_bytes : reservation -> bytes
(** The reservation's bytes, created by this call if nothing touched
    them yet: how the owner of a reserved slab reads what landed in it
    with no descriptor and no intermediate copy. *)

val whole_buffer : t -> bytes option
(** The backing buffer when the region is exactly one whole buffer (one
    segment, offset 0, every byte of it), so that operating on the
    buffer is operating on the region; [None] otherwise. Like {!buffer}
    it creates a reserved region's bytes. *)

val segment_count : t -> int

val length : t -> int
(** Length of the described region (at most the buffer length). *)

val options : t -> options
val threshold : t -> threshold
val unlink_policy : t -> unlink_policy
val eq : t -> Event.Queue.t option
val eq_handle : t -> Handle.eq
val user_ptr : t -> int
val local_offset : t -> int
(** Current locally managed offset (0 for remote-managed MDs). *)

val rewind : t -> unit
(** Set the locally managed offset back to 0, so the next deposit lands
    at the start of the region again. The threshold is left as it is. *)

val active : t -> bool
(** Threshold not exhausted. *)

val pending : t -> int
(** Outstanding operations (unreceived replies/acks) — such an MD must not
    be unlinked ([PTL_MD_INUSE], §4.7: "the memory descriptor must not be
    unlinked until the reply is received"). *)

val incr_pending : t -> unit
val decr_pending : t -> unit

type operation =
  | Op_put
  | Op_get
  | Op_atomic
      (** Read-modify-write of a 64-bit word: requires both [op_put] and
          [op_get] enabled, never truncates. *)

type reject_reason =
  | Inactive  (** Threshold exhausted but MD retained. *)
  | Op_disabled  (** MD not enabled for this operation (§4.8). *)
  | Too_long  (** Request longer than available space, no truncate (§4.8). *)

val pp_reject : Format.formatter -> reject_reason -> unit

val accepts : t -> op:operation -> rlength:int -> roffset:int -> int
(** Pure check: would this MD accept the request? The verdict is an
    immediate: the manipulated length (≥ 0) reported in acks and replies
    (§4.6) when it accepts, a negative value that {!reason} names when it
    rejects. A request that lands before the region's start (a negative
    remote offset) is rejected as [Too_long]. Does not mutate. *)

val reason : int -> reject_reason
(** Why a negative {!accepts} verdict rejected. Raises [Invalid_argument]
    on an accepting verdict. *)

val landing : t -> roffset:int -> int
(** Where an accepted request lands: the remote offset or the locally
    managed one, held to the region's end when a truncated request starts
    past it. Read it before {!consume} moves the local offset. *)

val consume : t -> offset:int -> mlength:int -> unit
(** Commit an accepted operation at [offset] ({!landing}) of [mlength]
    bytes: decrement a finite threshold and advance the locally managed
    offset. *)

val consume_threshold : t -> unit
(** Decrement a finite, non-exhausted threshold without touching the
    locally managed offset — initiator-side completions (SENT/ACK/REPLY)
    use this. No effect when the threshold is already zero or infinite. *)

val write : t -> offset:int -> src:bytes -> src_off:int -> len:int -> unit
(** Deposit payload bytes (put/reply data landing). *)

val read : t -> offset:int -> len:int -> bytes
(** Extract payload bytes (get servicing, put sourcing). *)

val blit_to : t -> offset:int -> len:int -> dst:bytes -> dst_off:int -> unit
(** Copy payload bytes into a caller buffer without the intermediate
    allocation of {!read} — put sourcing on the hot path blits MD memory
    straight into the wire image ({!Wire.image}). *)
