(** Cost parameters for the simulated hardware.

    One profile describes a homogeneous cluster: link characteristics plus
    the processing costs of each receive/transmit path. The presets are
    calibrated against the numbers the paper and its era report — they are
    not measurements of real hardware, but they put latencies and
    bandwidths in the published ballpark so the benches reproduce the
    paper's {e shape} (who wins, by what rough factor). *)

type t = {
  name : string;
  wire_latency : Sim_engine.Time_ns.t;
      (** One-way cable + switch traversal time. *)
  wire_bandwidth : float;  (** Link bandwidth, bytes per second. *)
  mtu : int;  (** Maximum packet payload, bytes. *)
  packet_header : int;  (** Per-packet wire header, bytes. *)
  nic_tx_cost : Sim_engine.Time_ns.t;
      (** NIC processing to launch one message (DMA setup, header build). *)
  nic_rx_cost : Sim_engine.Time_ns.t;
      (** NIC processing to accept one message before any host handoff. *)
  nic_match_cost : Sim_engine.Time_ns.t;
      (** Cost of one match-list entry comparison when matching runs on the
          NIC (the MCP case); host-side matching uses {!host_match_cost}. *)
  host_interrupt_cost : Sim_engine.Time_ns.t;
      (** Interrupt delivery + handler entry/exit on the host CPU. *)
  host_syscall_cost : Sim_engine.Time_ns.t;
      (** Trap into the kernel for send-side system calls. *)
  host_match_cost : Sim_engine.Time_ns.t;
      (** Cost of one match-list entry comparison on the host. *)
  copy_bandwidth : float;
      (** Host memory-copy bandwidth (kernel bounce buffers), bytes/s. *)
  dma_bandwidth : float;
      (** NIC DMA engine bandwidth to/from user memory, bytes/s. *)
}

val myrinet_mcp : t
(** Portals on the LANai: matching and delivery on the NIC, no host
    involvement (the in-progress MCP implementation of §3, "<20us
    zero-length ping-pong"). *)

val myrinet_kernel : t
(** The production Cplant path of §3: Myrinet wire, but Portals processing
    in a Linux kernel module — interrupt per message, bounce-buffer
    copies. *)

val asci_red_puma : t
(** The §2 heritage platform: Puma on ASCI Red — NIC on the memory bus,
    kernel-mediated delivery with cheap address validation. *)

val tcp_reference : t
(** The TCP/IP reference implementation: same commodity wire, heavyweight
    per-message host costs. *)

val packets_of_len : t -> int -> int
(** Number of MTU-sized packets needed for a payload of the given length
    (at least 1: even a zero-byte message occupies one header packet). *)

val wire_bytes_of_len : t -> int -> int
(** Total bytes on the wire for a payload: payload plus per-packet
    headers. *)

val tx_time : t -> int -> Sim_engine.Time_ns.t
(** Serialisation time of a payload of the given length onto the link. *)

val copy_time : t -> int -> Sim_engine.Time_ns.t
(** Host memcpy time for the given length. *)

val dma_time : t -> int -> Sim_engine.Time_ns.t
(** NIC DMA time for the given length. *)
