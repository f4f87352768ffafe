open Sim_engine

type t = {
  name : string;
  wire_latency : Time_ns.t;
  wire_bandwidth : float;
  mtu : int;
  packet_header : int;
  nic_tx_cost : Time_ns.t;
  nic_rx_cost : Time_ns.t;
  nic_match_cost : Time_ns.t;
  host_interrupt_cost : Time_ns.t;
  host_syscall_cost : Time_ns.t;
  host_match_cost : Time_ns.t;
  copy_bandwidth : float;
  dma_bandwidth : float;
}

(* Calibration notes. Myrinet of the LANai-7 era carried ~1.28 Gb/s
   (160 MB/s); a 500 MHz Pentium III copied ~250 MB/s through the kernel;
   interrupt delivery cost several microseconds. The MCP preset is tuned so
   a zero-length Portals ping-pong lands under the paper's 20 us claim; the
   kernel preset adds the interrupt + bounce-copy costs of the production
   Cplant path; the TCP preset represents the reference implementation with
   heavyweight per-message host processing. *)

let myrinet_mcp =
  {
    name = "myrinet-mcp";
    wire_latency = Time_ns.us 1.0;
    wire_bandwidth = 160e6;
    mtu = 4096;
    packet_header = 32;
    nic_tx_cost = Time_ns.us 2.0;
    nic_rx_cost = Time_ns.us 3.0;
    nic_match_cost = Time_ns.ns 150;
    host_interrupt_cost = Time_ns.us 7.0;
    host_syscall_cost = Time_ns.us 2.0;
    host_match_cost = Time_ns.ns 80;
    copy_bandwidth = 250e6;
    dma_bandwidth = 400e6;
  }

let myrinet_kernel =
  {
    myrinet_mcp with
    name = "myrinet-kernel";
    (* Kernel-module Portals: NIC is a bare packet engine, protocol work
       happens in the interrupt path on the host. *)
    nic_tx_cost = Time_ns.us 1.0;
    nic_rx_cost = Time_ns.us 1.0;
    nic_match_cost = Time_ns.ns 0;
  }

(* The paper's §2 heritage: Puma on ASCI Red — network interface on the
   memory bus, kernel-mediated but with a physically contiguous memory
   scheme making validation a bounds check. Tight host costs, slower
   wire than Myrinet-era links. *)
let asci_red_puma =
  {
    name = "asci-red-puma";
    wire_latency = Time_ns.us 2.0;
    wire_bandwidth = 380e6;
    mtu = 1984;
    packet_header = 16;
    nic_tx_cost = Time_ns.us 0.5;
    nic_rx_cost = Time_ns.us 0.5;
    nic_match_cost = Time_ns.ns 0;
    host_interrupt_cost = Time_ns.us 2.5;
    host_syscall_cost = Time_ns.us 1.0;
    host_match_cost = Time_ns.ns 60;
    copy_bandwidth = 150e6;
    dma_bandwidth = 380e6;
  }

let tcp_reference =
  {
    name = "tcp-reference";
    wire_latency = Time_ns.us 5.0;
    wire_bandwidth = 100e6;
    mtu = 1460;
    packet_header = 58;
    nic_tx_cost = Time_ns.us 1.0;
    nic_rx_cost = Time_ns.us 1.0;
    nic_match_cost = Time_ns.ns 0;
    host_interrupt_cost = Time_ns.us 12.0;
    host_syscall_cost = Time_ns.us 5.0;
    host_match_cost = Time_ns.ns 120;
    copy_bandwidth = 200e6;
    dma_bandwidth = 200e6;
  }

let packets_of_len t len =
  if len <= 0 then 1 else (len + t.mtu - 1) / t.mtu

let wire_bytes_of_len t len = len + (packets_of_len t len * t.packet_header)

let tx_time t len =
  Time_ns.of_rate ~bytes_per_s:t.wire_bandwidth (wire_bytes_of_len t len)

let copy_time t len = Time_ns.of_rate ~bytes_per_s:t.copy_bandwidth len
let dma_time t len = Time_ns.of_rate ~bytes_per_s:t.dma_bandwidth len
