type nid = int
type pid = int
type t = { nid : nid; pid : pid }

let make ~nid ~pid = { nid; pid }
let equal a b = a.nid = b.nid && a.pid = b.pid
let compare a b =
  match Int.compare a.nid b.nid with 0 -> Int.compare a.pid b.pid | c -> c

let hash t = (t.nid * 65_537) + t.pid
let pp ppf t = Format.fprintf ppf "%d:%d" t.nid t.pid
let to_string t = string_of_int t.nid ^ ":" ^ string_of_int t.pid
