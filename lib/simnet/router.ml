let check_node topo what v =
  if v < 0 || v >= Topology.nodes topo then
    invalid_arg (Printf.sprintf "Router: %s node %d out of range" what v)

(* Dimension-order: correct the first dimension, left to right, in which
   [at] and [dst] differ, the shorter way around; ties (offset exactly
   half the dimension) go the positive way. Along a path the direction
   never flips, so deciding it afresh at every vertex walks the same path
   as deciding it once at the source. [rv] and [rd] are [at] and [dst]
   below dimension [i]: peeling the coordinates off outermost first costs
   one division per dimension and vertex. *)
let rec grid_next topo ~at ~dst i rv rd =
  let s = Topology.dim_stride topo i in
  let cv = rv / s and cd = rd / s in
  if cv = cd then grid_next topo ~at ~dst (i + 1) (rv - (cv * s)) (rd - (cd * s))
  else
    let d = Topology.dim_size topo i in
    let fwd = if cd > cv then cd - cv else cd - cv + d in
    Topology.port_link topo at (if 2 * fwd <= d then 2 * i else (2 * i) + 1)

(* Up/down: host -> edge [-> agg [-> core -> agg'] -> edge'] -> host.
   The agg/core choice hashes the (src, dst) pair so each pair is pinned
   to one path (FIFO order survives) while pairs spread over the tree.
   The vertex layout is {!Topology}'s: hosts, then [k/2] edge switches
   per pod, then [k/2] aggregation switches per pod, then the [(k/2)^2]
   core switches in [k/2] groups. *)
let host_edge ~n ~half h = n + (h / (half * half) * half) + (h mod (half * half) / half)

let fat_tree_next topo k ~src ~dst ~at =
  let n = Topology.nodes topo in
  let half = k / 2 in
  let aggs = n + (k * half) and cores = n + (2 * k * half) in
  let spread = ((src * 7919) + dst) mod half in
  let dst_pod = dst / (half * half) in
  let next =
    if at < n then host_edge ~n ~half at
    else if at < aggs then
      if at = host_edge ~n ~half dst then dst
      else aggs + ((at - n) / half * half) + spread
    else if at < cores then
      if (at - aggs) / half = dst_pod then host_edge ~n ~half dst
      else cores + (spread * half) + ((src + dst) mod half)
    else aggs + (dst_pod * half) + spread
  in
  Topology.find_link topo ~src_v:at ~dst_v:next

let next_link topo ~src ~dst ~at =
  if at < 0 || at >= Topology.vertex_count topo then
    invalid_arg (Printf.sprintf "Router.next_link: vertex %d out of range" at);
  check_node topo "src" src;
  check_node topo "dst" dst;
  if at = dst then -1
  else
    match Topology.kind topo with
    | Topology.Full -> -1
    | Topology.Ring | Topology.Torus2d _ | Topology.Torus3d _ ->
      grid_next topo ~at ~dst 0 at dst
    | Topology.Fat_tree k -> fat_tree_next topo k ~src ~dst ~at

(* The link ids from [src] to [dst], by walking [next_link]. A walk
   longer than the vertex count has a cycle: a routing defect. *)
let walk topo ~src ~dst =
  let rec go at budget =
    let l = next_link topo ~src ~dst ~at in
    if l < 0 then []
    else if budget = 0 then
      invalid_arg (Printf.sprintf "Router: route %d->%d does not end" src dst)
    else l :: go (Topology.link_dst topo l) (budget - 1)
  in
  go src (Topology.vertex_count topo)

let route topo ~src ~dst = Array.of_list (walk topo ~src ~dst)

let path_vertices topo ~src ~dst =
  check_node topo "src" src;
  check_node topo "dst" dst;
  if src <> dst && Topology.kind topo = Topology.Full then [ src; dst ]
  else src :: List.map (Topology.link_dst topo) (walk topo ~src ~dst)

let hop_count topo ~src ~dst = Array.length (route topo ~src ~dst)

let min_torus_hops topo ~src ~dst =
  match Topology.dims topo with
  | [] -> invalid_arg "Router.min_torus_hops: not a grid topology"
  | _ ->
    check_node topo "src" src;
    check_node topo "dst" dst;
    List.fold_left2
      (fun acc (a, b) d ->
        let fwd = (b - a + d) mod d in
        acc + min fwd (d - fwd))
      0
      (List.combine (Topology.coords topo src) (Topology.coords topo dst))
      (Topology.dims topo)
