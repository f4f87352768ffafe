(** The RTS/CTS packetization and flow-control module of §3.

    This reproduces the production Cplant data path: "The Portals module
    communicates information about message delivery to the RTS/CTS module,
    which is responsible for packetization and flow control. ... Outgoing
    message data is copied into kernel memory, then copied into the
    Myrinet NIC. On the receive side, packets are copied from the Myrinet
    NIC into kernel memory, and then from kernel memory into the
    application's memory. All of these memory copies are overlapping, so
    we are able to achieve reasonable bandwidth due to packet pipelining."

    Concretely:
    {ul
    {- Messages at or below the eager threshold are sent as one frame
       after a syscall + user-to-kernel copy.}
    {- Larger messages perform an RTS/CTS handshake, then stream MTU-sized
       packets. Each packet is copied user-to-kernel on a dedicated copy
       engine that overlaps the wire — the pipeline bottleneck is
       min(copy bandwidth, wire bandwidth), not their sum.}
    {- Receive-side packets are copied NIC-to-kernel, stealing host CPU
       (this is the interrupt-driven implementation whose drawbacks §5.3
       concedes), and the assembled message is handed up.}
    {- Messages between one (src, dst) pair are strictly ordered: a large
       transfer's handshake stalls everything queued behind it.}}

    The result is a {!Simnet.Transport.t}, so a Portals {!Portals.Ni} (or
    anything else) can run unchanged over either this kernel path or the
    NIC-offload path. *)

module Frame = Frame
(** The module's wire framing, re-exported for tests and benches. *)

type config = {
  eager_threshold : int;
      (** Messages up to this many bytes skip the handshake. *)
  per_packet_interrupt : bool;
      (** Charge the host an interrupt per received packet (true matches
          the "MCP as packet delivery device" of §3); false models ideal
          interrupt coalescing — an ablation knob. *)
}

type stats = {
  eager_messages : int;
  rendezvous_messages : int;
  rts_sent : int;
  cts_sent : int;
  data_packets : int;
  bytes_carried : int;
  failed_handshakes : int;
      (** Rendezvous sends refused because an endpoint was unregistered
          (see {!on_send_error}). *)
  data_drops : int;
      (** Data packets discarded on arrival: a packet whose slot of the
          message already arrived, or one of a message that completed or
          whose RTS never opened it. A fabric that duplicates without
          the reliability shim produces these. *)
  eager_drops : int;
      (** Eager frames discarded on arrival because their message id
          already arrived: the second copy of a duplicated frame. *)
  malformed_drops : int;
      (** Frames discarded because their header contradicts itself or
          the RTS that opened their message: an eager length that is not
          the frame's, a negative RTS length, a data packet whose length,
          offset or size is not one its sender could have sent. Nothing is
          sized from a length before a second copy confirms it. A fabric
          that damages frames without the reliability shim produces
          these. *)
}

type t

val create : ?config:config -> Simnet.Fabric.t -> t
(** Build the module over a fabric. With no [config], the eager threshold
    is the fabric profile's MTU. *)

val transport : t -> Simnet.Transport.t
(** The transport interface: [send] enqueues into the per-destination
    ordered pipeline; registered handlers receive fully reassembled
    messages in kernel context (host CPU charged).

    A process that sends messages above the eager threshold must itself be
    registered — the clear-to-send comes back addressed to it. A
    rendezvous whose sender or destination is unregistered at handshake
    time is refused immediately: the message is dropped, counted in
    [failed_handshakes] (and the [rtscts.failed_handshakes] metric), the
    {!on_send_error} callback fires, and the per-pair pipeline moves on to
    the next queued message instead of stalling forever on a CTS that can
    never arrive. *)

val on_send_error :
  t -> (src:Simnet.Proc_id.t -> dst:Simnet.Proc_id.t -> len:int -> unit) -> unit
(** Called when a rendezvous send is refused because an endpoint was
    unregistered. Default: nothing (the failure is still counted). *)

val stats : t -> stats

val chunk_payload : t -> int
(** Bytes of message payload carried per data packet. *)
