(** The transport interface Portals implementations are written against.

    §3 of the paper stresses that the Portals 3.0 API deliberately lets the
    message-passing data structures live "in user-space, kernel-space, or
    NIC-space — whichever provides the highest performance". This record
    holds only what varies between those placements, plus the fabric it
    runs on:

    {ul
    {- [fabric]: the fabric replica underneath. Node facts are read there,
       not through the transport: the scheduler ({!Fabric.sched}), a
       node's host CPU ({!Node.host_cpu} of {!Fabric.node}), its
       incarnation, whether it is up, crash and restart subscriptions,
       and the integrity bit. Library-level payload copies are always a
       host memcpy, {!Profile.copy_time} of {!Fabric.profile}.}
    {- [send]/[register]/[unregister]: byte movement between processes.
       A registered handler observes a fully landed message: the
       placement's receive cost (NIC accept, then DMA or interrupt plus
       bounce copy) has already been paid.}
    {- [charge_rx]: where receive-side protocol cycles execute. The NIC
       placement is a no-op for the host CPU (application bypass with no
       host perturbation); the kernel placement steals host CPU time
       (interrupt-driven application bypass, the Fig. 6 Portals curve).}
    {- [rx_track]: the trace track that receive-side work is drawn on.}
    {- [match_entry_cost]: per match-list-entry comparison cost in that
       placement.}
    {- [send_overhead]: initiator-side cost of posting one operation
       (doorbell write vs system call).}}

    Handlers are responsible for charging matching costs through
    [charge_rx], since only the Portals translation knows how many
    entries were walked. *)

type t = {
  fabric : Fabric.t;
  send : src:Proc_id.t -> dst:Proc_id.t -> bytes -> unit;
  register : Proc_id.t -> (src:Proc_id.t -> bytes -> unit) -> unit;
  unregister : Proc_id.t -> unit;
  charge_rx : Proc_id.nid -> Sim_engine.Time_ns.t -> unit;
  rx_track : Proc_id.nid -> string;
      (** Trace-track name for receive-side protocol work on a node:
          ["nic<nid>"] when matching runs on the NIC, ["cpu<nid>"] when it
          steals the host CPU — so application bypass is visible as NIC
          spans overlapping host compute spans. *)
  match_entry_cost : Sim_engine.Time_ns.t;
  send_overhead : Sim_engine.Time_ns.t;
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
