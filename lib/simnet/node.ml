type t = {
  sched : Sim_engine.Scheduler.t;
  node_nid : Proc_id.nid;
  node_profile : Profile.t;
  cpu : Sim_engine.Cpu.t;
  link : Link.t;
  mutable up : bool;
  mutable node_incarnation : int;
  mutable node_crashes : int;
}

let create sched ~nid ~profile =
  {
    sched;
    node_nid = nid;
    node_profile = profile;
    cpu = Sim_engine.Cpu.create ~name:("cpu" ^ string_of_int nid) sched;
    link = Link.create ~name:("link" ^ string_of_int nid) sched;
    up = true;
    node_incarnation = 0;
    node_crashes = 0;
  }

let nid t = t.node_nid
let profile t = t.node_profile
let host_cpu t = t.cpu
let tx_link t = t.link
let sched t = t.sched
let is_up t = t.up
let incarnation t = t.node_incarnation
let crashes t = t.node_crashes

let crash t =
  if not t.up then invalid_arg (Printf.sprintf "Node.crash: node %d already down" t.node_nid);
  t.up <- false;
  t.node_crashes <- t.node_crashes + 1

let restart t =
  if t.up then invalid_arg (Printf.sprintf "Node.restart: node %d not down" t.node_nid);
  t.up <- true;
  t.node_incarnation <- t.node_incarnation + 1
