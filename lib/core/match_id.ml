type component = Any | Id of int
type t = { nid : component; pid : component }

let any = { nid = Any; pid = Any }

let of_proc (p : Simnet.Proc_id.t) =
  { nid = Id p.Simnet.Proc_id.nid; pid = Id p.Simnet.Proc_id.pid }

let make ~nid ~pid = { nid; pid }

let component_matches c v = match c with Any -> true | Id id -> id = v

let matches t (p : Simnet.Proc_id.t) =
  component_matches t.nid p.Simnet.Proc_id.nid
  && component_matches t.pid p.Simnet.Proc_id.pid

let equal a b = a = b
