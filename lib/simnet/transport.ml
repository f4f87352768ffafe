open Sim_engine

type t = {
  sched : Scheduler.t;
  name : string;
  send : src:Proc_id.t -> dst:Proc_id.t -> bytes -> unit;
  register : Proc_id.t -> (src:Proc_id.t -> bytes -> unit) -> unit;
  unregister : Proc_id.t -> unit;
  host_cpu : Proc_id.nid -> Cpu.t;
  charge_rx : Proc_id.nid -> Time_ns.t -> unit;
  rx_track : Proc_id.nid -> string;
  match_entry_cost : Time_ns.t;
  rx_fixed_cost : Time_ns.t;
  data_in_time : int -> Time_ns.t;
  host_copy_time : int -> Time_ns.t;
  send_overhead : Time_ns.t;
  node_incarnation : Proc_id.nid -> int;
  integrity : unit -> bool;
  node_up : Proc_id.nid -> bool;
  on_crash : (Proc_id.nid -> unit) -> unit;
  on_restart : (Proc_id.nid -> unit) -> unit;
}

let host_cpu_of fabric nid = Node.host_cpu (Fabric.node fabric nid)

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

(* One receive engine (DMA or kernel-copy pipeline) per node: messages
   land in arrival order even when a small message tails a large one —
   the in-order guarantee of §2 must survive the landing stage. *)
let rx_engines fabric = node_engines fabric "rx"

let offload fabric =
  let profile = Fabric.profile fabric in
  let sched = Fabric.sched fabric in
  let engines = rx_engines fabric in
  {
    sched;
    name = profile.Profile.name ^ "/offload";
    send =
      (fun ~src ~dst payload ->
        (* NIC header build + DMA setup before the message hits the wire. *)
        Scheduler.after sched profile.Profile.nic_tx_cost (fun () ->
            Fabric.send fabric ~src ~dst payload));
    register =
      (fun pid handler ->
        Fabric.register fabric pid (fun ~src payload ->
            (* NIC accept + DMA of the payload into its destination,
               serialised through the node's receive engine; the handler
               observes a fully landed message. *)
            let cost =
              Time_ns.add profile.Profile.nic_rx_cost
                (Profile.dma_time profile (Bytes.length payload))
            in
            let landed =
              Link.occupy (engine fabric "Transport.rx" engines pid.Proc_id.nid)
                cost
            in
            let tr = Scheduler.trace sched in
            if Trace.enabled tr then
              Trace.complete tr ~subsys:"net"
                ~proc:(Printf.sprintf "nic%d" pid.Proc_id.nid)
                ~start:(Time_ns.sub landed cost) ~finish:landed
                (Printf.sprintf "land %dB" (Bytes.length payload));
            Scheduler.at sched landed (fun () -> handler ~src payload)));
    unregister = (fun pid -> Fabric.unregister fabric pid);
    host_cpu = host_cpu_of fabric;
    charge_rx = (fun _nid _cost -> ()) (* runs on the NIC, host untouched *);
    rx_track = (fun nid -> Printf.sprintf "nic%d" nid);
    match_entry_cost = profile.Profile.nic_match_cost;
    rx_fixed_cost = profile.Profile.nic_rx_cost;
    data_in_time = (fun len -> Profile.dma_time profile len);
    host_copy_time = (fun len -> Profile.copy_time profile len);
    send_overhead = Time_ns.ns 500 (* user-space doorbell write *);
    node_incarnation = (fun nid -> Fabric.incarnation fabric nid);
    integrity = (fun () -> Fabric.integrity fabric);
    node_up = (fun nid -> Fabric.is_node_up fabric nid);
    on_crash = (fun f -> Fabric.on_crash fabric f);
    on_restart = (fun f -> Fabric.on_restart fabric f);
  }

let kernel_interrupt fabric =
  let profile = Fabric.profile fabric in
  let sched = Fabric.sched fabric in
  let engines = rx_engines fabric in
  (* The kernel send path (syscall + bounce copy) is also a serialising
     stage — without it a small send would reach the wire before a large
     one posted just ahead of it. *)
  let tx_engines = node_engines fabric "ktx" in
  let charge_rx nid cost = Cpu.steal (host_cpu_of fabric nid) cost in
  {
    sched;
    name = profile.Profile.name ^ "/kernel";
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
    register =
      (fun pid handler ->
        Fabric.register fabric pid (fun ~src payload ->
            let nid = pid.Proc_id.nid in
            (* Interrupt per message; handler entry and the bounce copy
               are charged to the host CPU, perturbing any in-flight
               application compute. Landing serialises per node. *)
            let copy = Profile.copy_time profile (Bytes.length payload) in
            let fixed =
              Time_ns.add profile.Profile.nic_rx_cost
                (Time_ns.add profile.Profile.host_interrupt_cost copy)
            in
            charge_rx nid (Time_ns.add profile.Profile.host_interrupt_cost copy);
            let landed =
              Link.occupy (engine fabric "Transport.rx" engines nid) fixed
            in
            let tr = Scheduler.trace sched in
            if Trace.enabled tr then
              Trace.complete tr ~subsys:"net"
                ~proc:(Printf.sprintf "cpu%d" nid)
                ~start:(Time_ns.sub landed fixed) ~finish:landed
                (Printf.sprintf "interrupt+copy %dB" (Bytes.length payload));
            Scheduler.at sched landed (fun () -> handler ~src payload)));
    unregister = (fun pid -> Fabric.unregister fabric pid);
    host_cpu = host_cpu_of fabric;
    charge_rx;
    rx_track = (fun nid -> Printf.sprintf "cpu%d" nid);
    match_entry_cost = profile.Profile.host_match_cost;
    rx_fixed_cost =
      Time_ns.add profile.Profile.nic_rx_cost profile.Profile.host_interrupt_cost;
    data_in_time = (fun len -> Profile.copy_time profile len);
    host_copy_time = (fun len -> Profile.copy_time profile len);
    send_overhead = profile.Profile.host_syscall_cost;
    node_incarnation = (fun nid -> Fabric.incarnation fabric nid);
    integrity = (fun () -> Fabric.integrity fabric);
    node_up = (fun nid -> Fabric.is_node_up fabric nid);
    on_crash = (fun f -> Fabric.on_crash fabric f);
    on_restart = (fun f -> Fabric.on_restart fabric f);
  }
