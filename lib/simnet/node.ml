type t = { node_nid : Proc_id.nid; cpu : Sim_engine.Cpu.t; link : Link.t }

let create sched ~nid =
  {
    node_nid = nid;
    cpu = Sim_engine.Cpu.create ~name:("cpu" ^ string_of_int nid) sched;
    link = Link.create ~name:("link" ^ string_of_int nid) sched;
  }

let host_cpu t = t.cpu
let tx_link t = t.link
