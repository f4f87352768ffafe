open Sim_engine

type t = {
  fabric : Fabric.t;
  send : src:Proc_id.t -> dst:Proc_id.t -> bytes -> unit;
  register : Proc_id.t -> (src:Proc_id.t -> bytes -> unit) -> unit;
  unregister : Proc_id.t -> unit;
  charge_rx : Proc_id.nid -> Time_ns.t -> unit;
  rx_track : Proc_id.nid -> string;
  match_entry_cost : Time_ns.t;
  send_overhead : Time_ns.t;
}

(* One serialising engine per owned node, named [prefix ^ nid]. The
   transport owns the array, so it registers the engines' probes, one
   family per metric. [engine] finds a node's, and rejects a node the
   fabric replica does not own. *)
let node_engines fabric prefix =
  let sched = Fabric.sched fabric in
  let links =
    Fabric.per_node fabric (fun nid ->
        Link.create ~name:(prefix ^ string_of_int nid) sched)
  in
  Link.probe_family sched ~size:(Array.length links) (Array.get links);
  links

let engine fabric what engines nid =
  engines.(Fabric.owned_index fabric ~what nid)

(* The [register] of both placements. Every message lands through its
   node's receive engine (DMA or kernel-copy pipeline), so messages land
   in arrival order even when a small one tails a large one — the
   in-order guarantee of §2 must survive the landing stage. The NIC
   accepts the message ([nic_rx_cost]); the placement's [fixed] plus
   [per_byte len] then land it, and [charge_rx] bills that share to
   wherever the placement runs it. The handler observes a fully landed
   message. *)
let receive fabric ~charge_rx ~rx_track ~label ~fixed ~per_byte =
  let sched = Fabric.sched fabric in
  let nic_rx_cost = (Fabric.profile fabric).Profile.nic_rx_cost in
  let engines = node_engines fabric "rx" in
  fun pid handler ->
    let nid = pid.Proc_id.nid in
    Fabric.register fabric pid (fun ~src payload ->
        let len = Bytes.length payload in
        let landing = Time_ns.add fixed (per_byte len) in
        charge_rx nid landing;
        let cost = Time_ns.add nic_rx_cost landing in
        let landed =
          Link.occupy (engine fabric "Transport.rx" engines nid) cost
        in
        let tr = Scheduler.trace sched in
        if Trace.enabled tr then
          Trace.complete tr ~subsys:"net" ~proc:(rx_track nid)
            ~start:(Time_ns.sub landed cost) ~finish:landed
            (Printf.sprintf "%s %dB" label len);
        Scheduler.at sched landed (fun () -> handler ~src payload))

let offload fabric =
  let profile = Fabric.profile fabric in
  let sched = Fabric.sched fabric in
  let charge_rx _nid _cost = () (* runs on the NIC, host untouched *) in
  let rx_track nid = Printf.sprintf "nic%d" nid in
  {
    fabric;
    send =
      (fun ~src ~dst payload ->
        (* NIC header build + DMA setup before the message hits the wire. *)
        Scheduler.after sched profile.Profile.nic_tx_cost (fun () ->
            Fabric.send fabric ~src ~dst payload));
    (* The payload is DMAed into its destination. *)
    register =
      receive fabric ~charge_rx ~rx_track ~label:"land" ~fixed:Time_ns.zero
        ~per_byte:(Profile.dma_time profile);
    unregister = Fabric.unregister fabric;
    charge_rx;
    rx_track;
    match_entry_cost = profile.Profile.nic_match_cost;
    send_overhead = Time_ns.ns 500 (* user-space doorbell write *);
  }

let kernel_interrupt fabric =
  let profile = Fabric.profile fabric in
  let sched = Fabric.sched fabric in
  let charge_rx nid cost =
    Cpu.steal (Node.host_cpu (Fabric.node fabric nid)) cost
  in
  let rx_track nid = Printf.sprintf "cpu%d" nid in
  (* Interrupt per message; handler entry and the bounce copy are
     charged to the host CPU, perturbing any in-flight application
     compute. *)
  let register =
    receive fabric ~charge_rx ~rx_track ~label:"interrupt+copy"
      ~fixed:profile.Profile.host_interrupt_cost
      ~per_byte:(Profile.copy_time profile)
  in
  (* The kernel send path (syscall + bounce copy) is also a serialising
     stage — without it a small send would reach the wire before a large
     one posted just ahead of it. *)
  let tx_engines = node_engines fabric "ktx" in
  {
    fabric;
    send =
      (fun ~src ~dst payload ->
        (* Syscall + copy into a kernel bounce buffer, then NIC launch. *)
        let len = Bytes.length payload in
        let cost =
          Time_ns.add profile.Profile.host_syscall_cost
            (Time_ns.add (Profile.copy_time profile len) profile.Profile.nic_tx_cost)
        in
        let launched =
          Link.occupy (engine fabric "Transport.ktx" tx_engines src.Proc_id.nid)
            cost
        in
        Scheduler.at sched launched (fun () -> Fabric.send fabric ~src ~dst payload));
    register;
    unregister = Fabric.unregister fabric;
    charge_rx;
    rx_track;
    match_entry_cost = profile.Profile.host_match_cost;
    send_overhead = profile.Profile.host_syscall_cost;
  }
