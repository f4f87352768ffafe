(** An ibverbs-style HCA over the simulated fabric: registered memory
    regions addressed by rkey, one-sided RDMA writes, and a polled
    completion queue.

    This is the transport under the paper's third comparison point: an
    interconnect whose only remote primitive is "write these bytes at
    that offset of that registered region". Messages are framed as
    Portals put requests on the wire ({!Wire} is placement-agnostic),
    but the receive side does {e no} matching — the HCA blits into the
    target region and the host discovers data by polling memory, which
    is how Liu et al. build MPI over InfiniBand (MVAPICH) and exactly
    the contrast §5.2 draws with Portals' receiver-managed delivery.

    {!Ring} supplies the fast path those stacks layer on top: per-peer
    sender-written rings with head/tail credit flow control. *)

type completion = Write_complete of { wr_id : int }

type stats = {
  writes : int;  (** RDMA writes issued by this HCA. *)
  write_bytes : int;  (** Payload bytes across those writes. *)
  remote_writes : int;  (** Writes that landed in a local region. *)
  dropped_writes : int;  (** Arrivals with a bad rkey / bounds. *)
  polls : int;  (** CQ and ring polls. *)
}

type t

val create : Simnet.Transport.t -> id:Simnet.Proc_id.t -> t
(** Bring up the HCA for one process: registers its fabric address and
    starts landing remote writes. *)

val close : t -> unit

val reg_mr : t -> rkey:int -> bytes -> unit
(** Register [bytes] under [rkey]; remote writes naming [rkey] land in
    it. Raises [Invalid_argument] if [rkey] is already bound. *)

val dereg_mr : t -> int -> unit
(** Unregister an rkey; subsequent writes to it are dropped. *)

val alloc_rkey : t -> int
(** A fresh dynamic rkey, disjoint from {!Ring}'s well-known ranges. *)

val rdma_write :
  t ->
  dst:Simnet.Proc_id.t ->
  rkey:int ->
  offset:int ->
  src:bytes ->
  src_off:int ->
  len:int ->
  wr_id:int ->
  unit
(** One-sided write of [src[src_off..src_off+len)] into the remote
    region [rkey] at [offset]. The payload is blitted once, straight
    into the wire image. A [Write_complete] with [wr_id] appears on the
    local CQ after the send overhead — local completion means the
    source buffer is reusable, not that the data arrived. *)

val poll_cq : t -> completion option

val wait_activity : t -> unit
(** Block the calling fiber until something happened since the call: a
    CQ entry, a remote write landing in any registered region, or a
    {!wake}. Rings raise no per-message event, so a landed write is the
    only receive-side signal. *)

val wake : t -> unit
(** Wake fibers blocked in {!wait_activity} (e.g. on peer failure). *)

val stats : t -> stats

(** The RDMA-write fast path of Liu et al.: the sender owns a ring at
    each receiver and writes message slots into it; the receiver polls
    slot sequence numbers and returns consumption credit by writing its
    tail counter back into a cell at the sender. All buffers use
    rank-derived well-known rkeys, standing in for the static
    all-to-all exchange a real job performs at startup. *)
module Ring : sig
  type recv
  type send

  val create_recv :
    t ->
    peer:Simnet.Proc_id.t ->
    peer_rank:int ->
    my_rank:int ->
    slots:int ->
    slot_payload:int ->
    recv
  (** Allocate and register the ring that [peer] will write to us. *)

  val create_send :
    t ->
    dst:Simnet.Proc_id.t ->
    dst_rank:int ->
    my_rank:int ->
    slots:int ->
    slot_payload:int ->
    send
  (** Attach to our ring at [dst] and register the credit cell [dst]
      writes back to us. *)

  val try_write : send -> wr_id:int -> fill:(bytes -> int -> unit) -> len:int -> bool
  (** Write one [len]-byte message (deposited by [fill buf off]) into
      the next slot. Returns [false] without side effects when out of
      credits. Raises [Invalid_argument] if [len] exceeds the slot. *)

  val poll : recv -> (bytes * int * int) option
  (** [(buf, off, len)] view of the next unconsumed message, if any —
      decode or copy in place, then {!consume}. *)

  val credit_wr_id : int
  (** CQ [wr_id] used by internal credit-return writes (0); protocol
      layers allocate real ids from 1 and skip this one. *)

  val consume : recv -> unit
  (** Retire the slot {!poll} returned; batches credit returns (one
      8-byte write per half ring). *)

  val reset_send : send -> unit
  (** Forget all in-flight state (peer crashed): head and credits to
      zero, matching a freshly {!reset_recv}ed ring at the peer. *)

  val reset_recv : recv -> unit
  (** Zero the ring and tail (our side of a re-established pair). *)
end
