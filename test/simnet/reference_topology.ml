(* The stored hop graph and list-based router that [Simnet.Topology] and
   [Simnet.Router] compute arithmetically, kept as the reference they must
   agree with: a link table built by wiring each vertex to its neighbours
   in order (deduplicated through an edge index), an adjacency list per
   vertex, and routes found by walking vertex paths through that index.
   Link ids, names, neighbour order and paths are the ones every metric
   label and every simulated result were recorded with. *)

open Simnet

type link = { link_id : int; src_v : int; dst_v : int }

type t = {
  kind : Topology.kind;
  nodes : int;
  links : link array;
  edge_index : (int * int, int) Hashtbl.t;
  adj : int list array;
  names : string array;
}

let link_count t = Array.length t.links
let find_link t ~src_v ~dst_v = Hashtbl.find_opt t.edge_index (src_v, dst_v)

let neighbors t v =
  if t.kind = Topology.Full then
    List.filter (fun u -> u <> v) (List.init t.nodes Fun.id)
  else List.rev t.adj.(v)

let dims kind ~nodes =
  match kind with
  | Topology.Full | Topology.Fat_tree _ -> []
  | Topology.Ring -> [ nodes ]
  | Topology.Torus2d (a, b) -> [ a; b ]
  | Topology.Torus3d (a, b, c) -> [ a; b; c ]

let coords ds nid =
  let rec go nid = function
    | [] -> []
    | [ _ ] -> [ nid ]
    | _ :: rest ->
      let stride = List.fold_left ( * ) 1 rest in
      (nid / stride) :: go (nid mod stride) rest
  in
  go nid ds

let of_coords ds cs = List.fold_left2 (fun acc c d -> (acc * d) + c) 0 cs ds

let vertex_label ~nodes v =
  if v < nodes then "node" ^ string_of_int v else "sw" ^ string_of_int (v - nodes)

type builder = {
  mutable blinks : link list;
  mutable n : int;
  bindex : (int * int, int) Hashtbl.t;
  badj : int list array;
}

let add_link b ~src_v ~dst_v =
  if not (Hashtbl.mem b.bindex (src_v, dst_v)) then begin
    Hashtbl.replace b.bindex (src_v, dst_v) b.n;
    b.blinks <- { link_id = b.n; src_v; dst_v } :: b.blinks;
    b.badj.(src_v) <- dst_v :: b.badj.(src_v);
    b.n <- b.n + 1
  end

let add_bidi b v u =
  add_link b ~src_v:v ~dst_v:u;
  add_link b ~src_v:u ~dst_v:v

let builder vertices =
  { blinks = []; n = 0; bindex = Hashtbl.create 64; badj = Array.make (max vertices 1) [] }

let finish kind ~nodes b =
  let links = Array.of_list (List.rev b.blinks) in
  {
    kind;
    nodes;
    links;
    edge_index = b.bindex;
    adj = b.badj;
    names =
      Array.map
        (fun l ->
          String.concat "->"
            [ vertex_label ~nodes l.src_v; vertex_label ~nodes l.dst_v ])
        links;
  }

let build_torus kind ~nodes =
  let ds = dims kind ~nodes in
  let b = builder nodes in
  for nid = 0 to nodes - 1 do
    let cs = coords ds nid in
    List.iteri
      (fun i d ->
        if d > 1 then begin
          let step s =
            of_coords ds (List.mapi (fun j c -> if j = i then (c + s + d) mod d else c) cs)
          in
          add_bidi b nid (step 1);
          add_bidi b nid (step (-1))
        end)
      ds
  done;
  finish kind ~nodes b

let fat_tree_layout ~nodes k =
  let half = k / 2 in
  let edge p e = nodes + (p * half) + e in
  let agg p a = nodes + (k * half) + (p * half) + a in
  let core g c = nodes + (2 * k * half) + (g * half) + c in
  (half, edge, agg, core)

let build_fat_tree ~nodes k =
  let half, edge, agg, core = fat_tree_layout ~nodes k in
  let b = builder (nodes + (2 * k * half) + (half * half)) in
  for h = 0 to nodes - 1 do
    add_bidi b h (edge (h / (half * half)) (h mod (half * half) / half))
  done;
  for p = 0 to k - 1 do
    for e = 0 to half - 1 do
      for a = 0 to half - 1 do
        add_bidi b (edge p e) (agg p a)
      done
    done;
    for a = 0 to half - 1 do
      for c = 0 to half - 1 do
        add_bidi b (agg p a) (core a c)
      done
    done
  done;
  finish (Topology.Fat_tree k) ~nodes b

let build kind ~nodes =
  match kind with
  | Topology.Full -> finish Topology.Full ~nodes (builder nodes)
  | Topology.Ring | Topology.Torus2d _ | Topology.Torus3d _ -> build_torus kind ~nodes
  | Topology.Fat_tree k -> build_fat_tree ~nodes k

let torus_path t ~src ~dst =
  let ds = dims t.kind ~nodes:t.nodes in
  let cur = Array.of_list (coords ds src) in
  let goal = Array.of_list (coords ds dst) in
  let path = ref [ src ] in
  List.iteri
    (fun i d ->
      let fwd = (goal.(i) - cur.(i) + d) mod d in
      let step = if fwd = 0 then 0 else if 2 * fwd <= d then 1 else -1 in
      while cur.(i) <> goal.(i) do
        cur.(i) <- (cur.(i) + step + d) mod d;
        path := of_coords ds (Array.to_list cur) :: !path
      done)
    ds;
  List.rev !path

let fat_tree_path t ~src ~dst k =
  let half, edge, agg, core = fat_tree_layout ~nodes:t.nodes k in
  let pod h = h / (half * half) and epos h = h mod (half * half) / half in
  let sp = pod src and dp = pod dst in
  let se = epos src and de = epos dst in
  let spread = ((src * 7919) + dst) mod half in
  if sp = dp && se = de then [ src; edge sp se; dst ]
  else if sp = dp then [ src; edge sp se; agg sp spread; edge sp de; dst ]
  else
    [
      src; edge sp se; agg sp spread; core spread ((src + dst) mod half);
      agg dp spread; edge dp de; dst;
    ]

let route t ~src ~dst =
  if src = dst || t.kind = Topology.Full then [||]
  else
    let vs =
      match t.kind with
      | Topology.Fat_tree k -> fat_tree_path t ~src ~dst k
      | _ -> torus_path t ~src ~dst
    in
    let rec links = function
      | a :: (b :: _ as rest) -> Option.get (find_link t ~src_v:a ~dst_v:b) :: links rest
      | [ _ ] | [] -> []
    in
    Array.of_list (links vs)
