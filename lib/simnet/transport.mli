(** The transport interface Portals implementations are written against.

    §3 of the paper stresses that the Portals 3.0 API deliberately lets the
    message-passing data structures live "in user-space, kernel-space, or
    NIC-space — whichever provides the highest performance". This record
    captures what varies between those placements:

    {ul
    {- [send]/[register]: byte movement between processes.}
    {- [charge_rx]: where receive-side protocol cycles execute. The NIC
       placement is a no-op for the host CPU (application bypass with no
       host perturbation); the kernel placement steals host CPU time
       (interrupt-driven application bypass, the Fig. 6 Portals curve).}
    {- [match_entry_cost]: per match-list-entry comparison cost in that
       placement.}
    {- [rx_fixed_cost]/[data_in_time]: per-message receive overhead and the
       time to land payload bytes in user memory (DMA vs bounce copies).}
    {- [send_overhead]: initiator-side cost of posting one operation
       (doorbell write vs system call).}}

    Handlers registered through a transport run {e after} [rx_fixed_cost]
    but are responsible for charging matching and data-landing costs, since
    only the Portals translation knows how many entries were walked. *)

type t = {
  sched : Sim_engine.Scheduler.t;
  name : string;
  send : src:Proc_id.t -> dst:Proc_id.t -> bytes -> unit;
  register : Proc_id.t -> (src:Proc_id.t -> bytes -> unit) -> unit;
  unregister : Proc_id.t -> unit;
  host_cpu : Proc_id.nid -> Sim_engine.Cpu.t;
  charge_rx : Proc_id.nid -> Sim_engine.Time_ns.t -> unit;
  rx_track : Proc_id.nid -> string;
      (** Trace-track name for receive-side protocol work on a node:
          ["nic<nid>"] when matching runs on the NIC, ["cpu<nid>"] when it
          steals the host CPU — so application bypass is visible as NIC
          spans overlapping host compute spans. *)
  match_entry_cost : Sim_engine.Time_ns.t;
  rx_fixed_cost : Sim_engine.Time_ns.t;
  data_in_time : int -> Sim_engine.Time_ns.t;
  host_copy_time : int -> Sim_engine.Time_ns.t;
      (** Host memcpy time for library-level copies (e.g. draining an
          unexpected-message buffer into the user's receive buffer) —
          always a host-CPU cost, whatever the protocol placement. *)
  send_overhead : Sim_engine.Time_ns.t;
  node_incarnation : Proc_id.nid -> int;
      (** Current incarnation of a node (see [Node.incarnation]); stamped
          into wire headers so receivers can fence stale traffic. *)
  integrity : unit -> bool;
      (** The underlying fabric's integrity bit ({!Fabric.integrity}),
          read at each send and receive: whether frames carry CRC-32C
          trailers. *)
  node_up : Proc_id.nid -> bool;
      (** Whether a node is up now ({!Fabric.is_node_up}). Every shard
          replica of the fabric flips its status word for a crash or
          restart at the same simulated time, so any rank reads the same
          answer for any node, and a crash that happened before the
          reader existed is seen too. Layers that only need to know
          which peers are down read this instead of keeping a table fed
          by [on_crash]/[on_restart]. *)
  on_crash : (Proc_id.nid -> unit) -> unit;
      (** Subscribe to crash-stop notifications (see [Fabric.on_crash]). *)
  on_restart : (Proc_id.nid -> unit) -> unit;
      (** Subscribe to restart notifications (see [Fabric.on_restart]). *)
}

val offload : Fabric.t -> t
(** NIC-space placement (the MCP): receive processing runs on the LANai at
    NIC cost rates; the host CPU is never touched on receive; payload lands
    by DMA. Send posts cost one doorbell write. *)

val kernel_interrupt : Fabric.t -> t
(** Kernel-space placement (the production Cplant modules): every message
    interrupts the host; protocol cycles and per-entry matching steal host
    CPU; payload lands through a kernel bounce copy; sends pay a system
    call. *)
