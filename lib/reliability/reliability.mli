(** Reliable, in-order, exactly-once delivery over a lossy fabric.

    Portals 3.0 assumes "reliable, in-order delivery" from the network
    (§2) — on Cplant that guarantee was {e manufactured} by a reliability
    protocol running below the Portals modules. This library reproduces
    that layer: {!attach} installs a shim at the fabric's wire boundary
    ({!Simnet.Fabric.install_shim}), so every transport built over the
    fabric — RTS/CTS, NIC offload, kernel-interrupt, and everything above
    them (Portals [Ni], GM, MPI, collectives, one-sided) — keeps its
    reliable in-order service even when a {!Simnet.Fault} model is
    dropping or duplicating wire messages.

    The protocol, per (src, dst) direction:
    {ul
    {- every payload is wrapped in a sequence-numbered [Data] frame;}
    {- a sliding window of at most [window] unacknowledged frames may be
       in flight; further sends queue FIFO behind it;}
    {- the receiver delivers strictly in sequence order, buffers
       out-of-order arrivals, suppresses duplicates, and answers every
       [Data] frame with a cumulative + selective acknowledgment;}
    {- unacknowledged frames are retransmitted on an adaptive timeout
       (smoothed-RTT based, exponential backoff, capped), each frame up to
       [max_retries] times; beyond that the retry budget is exhausted and
       the frame is abandoned — counted, surfaced through
       {!on_give_up}, and visible to the application only as the silence
       §4.8's drop accounting exists to diagnose;}
    {- a give-up does not stall the pair: the sender sends a [Forward]
       frame (PR-SCTP's FORWARD-TSN, RFC 3758) naming the seq after the
       last abandoned one, on the same timer as its data, until an ack
       shows the receiver expects that seq. The receiver hands up, in
       order, whatever it had buffered below it, counts each seq it never
       received as skipped ([rel.skipped]), and carries on: every frame
       sent after the give-up is delivered in order, exactly once, once
       the path works again. A Forward whose own retry budget runs out
       (the path is still cut) waits, and restarts with a fresh budget
       on the first ack that shows the receiver still short of it.}}

    Acknowledgments are never retransmitted; a lost ack is repaired by the
    cumulative ack of any later frame or by a (duplicate-suppressed)
    retransmission.

    {b State per pair.} A sender's unacknowledged frames and a receiver's
    out-of-order buffer are rings indexed by sequence number: a
    power-of-two array (doubled when a sequence number would not fit)
    with a count and a low mark — the oldest unacknowledged sequence
    number, or the next one the receiver expects. An ack releases the
    frames from that mark through [cum_ack] and then those its SACK bits
    name, in ascending sequence order; that is also the order their
    Karn-rule RTT samples enter the smoothed RTT. A timeout walks the
    sender's ring from its low mark. A working sender never gets
    [window + 64] or more sequence numbers ahead of its receiver (frames
    beyond the 64 a SACK reports stay unacknowledged and fill the
    window); a data frame further ahead follows a frame its sender
    abandoned, or carries a damaged sequence number, and can never be
    delivered until its Forward arrives, so it is acknowledged but not
    buffered (and, being in no SACK, is retransmitted). The per-pair
    halves live in {!Simnet.Proc_id.Pair_tbl}s.

    {b Frame class.} The shim sends its frames with
    {!Simnet.Fabric.send_framed}, so the fabric hands it exactly its own
    frames, whatever damage their bytes took; traffic sent with
    {!Simnet.Fabric.send_raw} (liveness beats) bypasses it. A frame that
    does not decode ({!Rel_frame.decode}) — a flipped magic byte, a
    truncation to nothing, a checksum mismatch — is therefore always a
    counted corrupt drop, never a payload handed up.

    The protocol also understands {e peer reset}: when a node crash-stops
    ([Simnet.Fabric.crash]), every per-pair sequence space and retransmit
    queue touching that node is discarded — the restarted peer comes back
    with empty tables, so both directions restart from sequence 0 instead
    of deadlocking on an un-ackable window. Frames discarded this way are
    counted ([rel.peer_reset_lost]); surfacing the loss to the
    application is the upper layer's job (see [Mpi.Peer_failed]).

    Metrics (registered in the scheduler's registry, labelled
    [("protocol", "reliability")]): [rel.data_sent], [rel.acks_sent],
    [rel.retransmits], [rel.duplicate_drops], [rel.corrupt_drops],
    [rel.retries_exhausted], [rel.skipped],
    [rel.delivered], [rel.peer_resets], [rel.peer_reset_lost],
    [rel.ack_rtt_us] (summary), [rel.window_inflight]
    (series of total in-flight frames over time). *)

module Frame = Rel_frame
(** Wire format of the protocol's [Data], [Ack] and [Forward] frames. *)

module Chaos = Chaos
(** Chaos campaign grids: corruption × delay × partition × crash × loss
    cells over seeds, for invariant-checked fault sweeps
    ([Experiments.Chaos] runs the checkers). *)

type config = {
  window : int;  (** Max unacknowledged frames in flight per pair. *)
  base_rto : Sim_engine.Time_ns.t;
      (** Initial retransmission timeout, and the floor of the adaptive
          one. *)
  max_rto : Sim_engine.Time_ns.t;  (** Backoff ceiling. *)
  max_retries : int;
      (** Retransmissions allowed per frame before giving up. *)
}

val default_config : config
(** window 32, base RTO 150 us, max RTO 5 ms, 20 retries. *)

type stats = {
  data_sent : int;  (** First transmissions (not retransmits). *)
  acks_sent : int;
  retransmits : int;
  duplicate_drops : int;  (** Received frames suppressed as duplicates. *)
  corrupt_drops : int;
      (** Received shim frames discarded because they do not decode —
          treated exactly like loss, so the retransmission machinery
          recovers them transparently. *)
  retries_exhausted : int;  (** Frames abandoned past the retry budget. *)
  delivered : int;  (** Payloads handed up, in order, exactly once. *)
  peer_resets : int;  (** Node failures that wiped per-pair state. *)
  peer_reset_lost : int;
      (** Queued/unacked frames discarded by those resets. *)
  skipped : int;
      (** Sequence numbers a receiver moved past on a [Forward] without
          ever receiving them: abandoned frames, seen from the receiving
          side. *)
}

type t

val attach : ?config:config -> Simnet.Fabric.t -> t
(** Install the protocol on a fabric. Raises [Invalid_argument] if the
    fabric already has a shim. Must be installed before traffic flows
    (frames sent earlier would be indistinguishable from corruption). *)

val stats : t -> stats

val on_give_up :
  t -> (src:Simnet.Proc_id.t -> dst:Simnet.Proc_id.t -> seq:int -> unit) -> unit
(** Called when a frame exhausts its retry budget. Default: nothing (the
    loss is still counted in [retries_exhausted], and in [skipped] once
    the receiver moves past it). Only the abandoned frame is lost: the
    pair's later frames are still delivered, in order, once the path
    works (see the [Forward] rule above). Whatever the callback,
    each give-up also emits a labelled ["rel.give_up"] instant into the
    scheduler trace when tracing is enabled, so exhausted budgets are
    visible in [--trace-out] Chrome traces. *)

val inflight : t -> int
(** Total unacknowledged frames across all pairs, now. *)
