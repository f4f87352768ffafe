type kind =
  | Full
  | Ring
  | Torus2d of int * int
  | Torus3d of int * int * int
  | Fat_tree of int

(* Nothing is stored per link. On a grid (ring or torus) vertex [v] has
   two ports per dimension: [2i] leads to its +1 neighbour in dimension
   [i], [2i + 1] to its -1 neighbour (both to the same one in a
   dimension of size 2, none in a dimension of size 1). Two int arrays
   map ports to link ids and back; a neighbour is arithmetic on the
   row-major coordinates. A fat-tree's links are numbered in closed form
   (see [ft_climb]), and [Full] has no links. *)
type t = {
  kind : kind;
  topo_nodes : int;
  vertices : int;
  link_total : int;
  (* Grids only: dimension sizes and row-major strides, outermost first
     (the last dimension varies fastest). *)
  sizes : int array;
  strides : int array;
  (* Grids only: [v * ports + port] -> link id, or -1 for no link. *)
  port_link : int array;
  (* Grids only: link id -> [(src vertex lsl 3) lor port]. *)
  link_port : int array;
}

let kind t = t.kind
let nodes t = t.topo_nodes
let vertex_count t = t.vertices
let link_count t = t.link_total
let ports t = 2 * Array.length t.sizes

let dim_size t i = t.sizes.(i)
let dim_stride t i = t.strides.(i)

let port_link t v port =
  let ports = ports t in
  if port < 0 || port >= ports then -1 else t.port_link.((v * ports) + port)

(* The vertex behind port [p] of grid vertex [v], with wraparound. *)
let grid_neighbor t v p =
  let i = p lsr 1 in
  let d = t.sizes.(i) and s = t.strides.(i) in
  let c = v / s mod d in
  if p land 1 = 0 then if c = d - 1 then v - (c * s) else v + s
  else if c = 0 then v + ((d - 1) * s)
  else v - s

(* --- fat-tree layout ------------------------------------------------------

   k-ary fat-tree (k even): k pods, each with k/2 edge and k/2 aggregation
   switches; (k/2)^2 core switches; k^3/4 hosts, k/2 per edge switch.
   Vertex layout: hosts 0..n-1, then per-pod edge switches, per-pod
   aggregation switches, then core switches. Every switch pair is wired
   both ways, the climbing link first: host [h] owns ids [2h] (up) and
   [2h + 1] (down); then pod [p]'s block of [4 * half^2] ids holds its
   edge-aggregation pairs, then its aggregation-core pairs. Aggregation
   switch [a] of every pod uplinks to core group [a]. *)

let ft_half t = match t.kind with Fat_tree k -> k / 2 | _ -> assert false
let ft_edge t p e = t.topo_nodes + (p * ft_half t) + e

let ft_agg t p a =
  let half = ft_half t in
  t.topo_nodes + (2 * half * half) + (p * half) + a

let ft_core t g c =
  let half = ft_half t in
  t.topo_nodes + (4 * half * half) + (g * half) + c

let ft_pod_base t p =
  let half = ft_half t in
  (2 * t.topo_nodes) + (p * 4 * half * half)

(* 0 host, 1 edge, 2 aggregation, 3 core. *)
let ft_level t v =
  let half = ft_half t in
  let w = v - t.topo_nodes in
  if w < 0 then 0 else if w < 2 * half * half then 1 else if w < 4 * half * half then 2 else 3

(* The id of the climbing link from [lo] up to [hi] (one level higher),
   or -1 when they are not wired. *)
let ft_climb t lo hi =
  let half = ft_half t in
  let n = t.topo_nodes in
  match ft_level t lo with
  | 0 ->
    let edge = ft_edge t (lo / (half * half)) (lo mod (half * half) / half) in
    if hi = edge then 2 * lo else -1
  | 1 ->
    let p = (lo - n) / half and e = (lo - n) mod half in
    let q = (hi - ft_agg t 0 0) / half and a = (hi - ft_agg t 0 0) mod half in
    if p = q then ft_pod_base t p + (2 * ((e * half) + a)) else -1
  | _ ->
    let p = (lo - ft_agg t 0 0) / half and a = (lo - ft_agg t 0 0) mod half in
    let g = (hi - ft_core t 0 0) / half and c = (hi - ft_core t 0 0) mod half in
    if g = a then ft_pod_base t p + (2 * half * half) + (2 * ((a * half) + c))
    else -1

(* The lower ([upper = false]) or upper end of a fat-tree link. *)
let ft_link_end t id ~upper =
  let half = ft_half t in
  let n = t.topo_nodes in
  if id < 2 * n then
    let h = id / 2 in
    if upper then ft_edge t (h / (half * half)) (h mod (half * half) / half) else h
  else
    let r = id - (2 * n) in
    let block = 4 * half * half in
    let p = r / block and w = r mod block in
    let j = w mod (2 * half * half) / 2 in
    if w < 2 * half * half then
      if upper then ft_agg t p (j mod half) else ft_edge t p (j / half)
    else if upper then ft_core t (j / half) (j mod half)
    else ft_agg t p (j / half)

(* --- links ---------------------------------------------------------------- *)

let check_link t what id =
  if id < 0 || id >= t.link_total then
    invalid_arg (Printf.sprintf "Topology.%s: id %d out of range" what id)

let link_src t id =
  check_link t "link_src" id;
  match t.kind with
  | Fat_tree _ -> ft_link_end t id ~upper:(id land 1 = 1)
  | _ -> t.link_port.(id) lsr 3

let link_dst t id =
  check_link t "link_dst" id;
  match t.kind with
  | Fat_tree _ -> ft_link_end t id ~upper:(id land 1 = 0)
  | _ ->
    let x = t.link_port.(id) in
    grid_neighbor t (x lsr 3) (x land 7)

(* The first port of [src_v], from [p] on, that leads to [dst_v]. *)
let rec grid_find t ~src_v ~dst_v p =
  if p >= ports t then -1
  else
    let id = port_link t src_v p in
    if id >= 0 && grid_neighbor t src_v p = dst_v then id
    else grid_find t ~src_v ~dst_v (p + 1)

let find_link t ~src_v ~dst_v =
  if src_v < 0 || src_v >= t.vertices || dst_v < 0 || dst_v >= t.vertices then -1
  else
    match t.kind with
    | Full -> -1
    | Fat_tree _ ->
      let ls = ft_level t src_v and ld = ft_level t dst_v in
      if ld = ls + 1 then ft_climb t src_v dst_v
      else if ls = ld + 1 then
        let id = ft_climb t dst_v src_v in
        if id < 0 then -1 else id + 1
      else -1
    | Ring | Torus2d _ | Torus3d _ -> grid_find t ~src_v ~dst_v 0

let check_vertex t what v =
  if v < 0 || v >= t.vertices then
    invalid_arg (Printf.sprintf "Topology.%s: vertex %d out of range" what v)

let neighbors t v =
  check_vertex t "neighbors" v;
  match t.kind with
  | Full -> List.filter (fun u -> u <> v) (List.init t.topo_nodes Fun.id)
  | Ring | Torus2d _ | Torus3d _ ->
    (* In link-id order, as the links were numbered. *)
    List.init (ports t) (fun p -> (port_link t v p, p))
    |> List.filter (fun (id, _) -> id >= 0)
    |> List.sort_uniq (fun (a, _) (b, _) -> compare a b)
    |> List.map (fun (_, p) -> grid_neighbor t v p)
  | Fat_tree _ -> (
    let half = ft_half t in
    let n = t.topo_nodes in
    match ft_level t v with
    | 0 -> [ ft_edge t (v / (half * half)) (v mod (half * half) / half) ]
    | 1 ->
      let p = (v - n) / half and e = (v - n) mod half in
      List.init half (fun j -> (p * half * half) + (e * half) + j)
      @ List.init half (ft_agg t p)
    | 2 ->
      let p = (v - ft_agg t 0 0) / half and a = (v - ft_agg t 0 0) mod half in
      List.init half (ft_edge t p) @ List.init half (ft_core t a)
    | _ ->
      let g = (v - ft_core t 0 0) / half in
      List.init (2 * half) (fun p -> ft_agg t p g))

let vertex_name t v =
  if v < t.topo_nodes then "node" ^ string_of_int v
  else "sw" ^ string_of_int (v - t.topo_nodes)

let link_name t id =
  let src = link_src t id and dst = link_dst t id in
  String.concat "->" [ vertex_name t src; vertex_name t dst ]

let dims t = Array.to_list t.sizes

let coords t nid =
  let nd = Array.length t.sizes in
  if nd > 0 && (nid < 0 || nid >= t.topo_nodes) then
    invalid_arg (Printf.sprintf "Topology.coords: nid %d out of range" nid);
  List.init nd (fun i -> nid / t.strides.(i) mod t.sizes.(i))

let of_coords t cs =
  let ds = dims t in
  if List.length ds <> List.length cs then
    invalid_arg "Topology.of_coords: wrong arity";
  List.fold_left2
    (fun acc c d ->
      if c < 0 || c >= d then invalid_arg "Topology.of_coords: out of range";
      (acc * d) + c)
    0 cs ds

(* --- construction ------------------------------------------------------ *)

(* Every check [build] makes, without building: raises [Invalid_argument]
   exactly when [build kind ~nodes] would. *)
let validate kind ~nodes =
  if nodes <= 0 then invalid_arg "Topology.build: need at least one node";
  let torus ds =
    if List.exists (fun d -> d < 1) ds then
      invalid_arg "Topology.build: torus dimensions must be positive";
    if List.fold_left ( * ) 1 ds <> nodes then
      invalid_arg
        (Printf.sprintf
           "Topology.build: dimensions (%s) do not multiply to %d nodes"
           (String.concat "x" (List.map string_of_int ds))
           nodes)
  in
  match kind with
  | Full -> ()
  | Ring -> if nodes < 2 then invalid_arg "Topology.build: ring needs >= 2 nodes"
  | Torus2d (a, b) -> torus [ a; b ]
  | Torus3d (a, b, c) -> torus [ a; b; c ]
  | Fat_tree k ->
    if k < 2 || k mod 2 <> 0 then
      invalid_arg "Topology.build: fat-tree arity must be even and >= 2";
    if k * k * k / 4 <> nodes then
      invalid_arg
        (Printf.sprintf "Topology.build: fattree:%d hosts %d nodes, not %d" k
           (k * k * k / 4) nodes)

let bare kind ~nodes ~vertices ~links =
  {
    kind;
    topo_nodes = nodes;
    vertices;
    link_total = links;
    sizes = [||];
    strides = [||];
    port_link = [||];
    link_port = [||];
  }

(* Number the links as wiring each node to its ±1 neighbour in every
   dimension, node by node, would: for each dimension of size > 1, the
   +1 neighbour both ways, then the -1 neighbour both ways, skipping a
   link already numbered (a dimension of size 2 has one neighbour, so
   one link each way). *)
let build_grid kind ~nodes sizes =
  let nd = Array.length sizes in
  let strides = Array.make nd 1 in
  for i = nd - 2 downto 0 do
    strides.(i) <- strides.(i + 1) * sizes.(i + 1)
  done;
  let links =
    Array.fold_left
      (fun acc d -> acc + if d = 1 then 0 else if d = 2 then nodes else 2 * nodes)
      0 sizes
  in
  let t =
    {
      (bare kind ~nodes ~vertices:nodes ~links) with
      sizes;
      strides;
      port_link = Array.make (nodes * 2 * nd) (-1);
      link_port = Array.make links 0;
    }
  in
  let ports = 2 * nd in
  let next = ref 0 in
  let add v p =
    if t.port_link.((v * ports) + p) < 0 then begin
      let id = !next in
      incr next;
      t.port_link.((v * ports) + p) <- id;
      if sizes.(p lsr 1) = 2 then t.port_link.((v * ports) + (p lxor 1)) <- id;
      t.link_port.(id) <- (v lsl 3) lor p
    end
  in
  for v = 0 to nodes - 1 do
    for i = 0 to nd - 1 do
      if sizes.(i) > 1 then begin
        add v (2 * i);
        add (grid_neighbor t v (2 * i)) ((2 * i) + 1);
        add v ((2 * i) + 1);
        add (grid_neighbor t v ((2 * i) + 1)) (2 * i)
      end
    done
  done;
  t

let build kind ~nodes =
  validate kind ~nodes;
  match kind with
  | Full ->
    (* The fully-connected fabric keeps the seed's private-wire model:
       no shared hop links exist. *)
    bare Full ~nodes ~vertices:nodes ~links:0
  | Ring -> build_grid kind ~nodes [| nodes |]
  | Torus2d (a, b) -> build_grid kind ~nodes [| a; b |]
  | Torus3d (a, b, c) -> build_grid kind ~nodes [| a; b; c |]
  | Fat_tree k ->
    let half = k / 2 in
    bare kind ~nodes
      ~vertices:(nodes + (4 * half * half) + (half * half))
      ~links:((2 * nodes) + (k * 4 * half * half))

(* --- specs ------------------------------------------------------------- *)

let describe = function
  | Full -> "full"
  | Ring -> "ring"
  | Torus2d (a, b) -> Printf.sprintf "torus2d:%dx%d" a b
  | Torus3d (a, b, c) -> Printf.sprintf "torus3d:%dx%dx%d" a b c
  | Fat_tree k -> Printf.sprintf "fattree:%d" k

(* Most-square factorisation: the largest divisor of [n] at most √n. *)
let square_factor n =
  let rec go a best = if a * a > n then best else go (a + 1) (if n mod a = 0 then a else best) in
  go 1 1

let spec_error spec reason =
  invalid_arg
    (Printf.sprintf
       "Topology.of_spec: bad topology %S (%s); expected \
        full|ring|torus2d[:AxB]|torus3d[:AxBxC]|fattree[:K]"
       spec reason)

(* The one spec parser: the kind [spec] names on [nodes] nodes and, for
   explicit dimensions, the node count they describe (at least one, so
   that a fat-tree's bad arity is what a check reports). *)
let parse_spec spec ~nodes =
  let bad = spec_error spec in
  let dims_of s arity =
    match
      List.map
        (fun f ->
          match int_of_string_opt (String.trim f) with
          | Some d when d > 0 -> d
          | Some _ | None -> bad (Printf.sprintf "%S is not a positive integer" f))
        (String.split_on_char 'x' s)
    with
    | ds when List.length ds = arity -> ds
    | _ -> bad (Printf.sprintf "expected %d dimensions" arity)
  in
  match String.split_on_char ':' (String.trim (String.lowercase_ascii spec)) with
  | [ "full" ] -> (Full, None)
  | [ "ring" ] -> (Ring, None)
  | [ "torus2d" ] ->
    let a = square_factor nodes in
    (Torus2d (a, nodes / a), None)
  | [ "torus2d"; d ] -> (
    match dims_of d 2 with
    | [ a; b ] -> (Torus2d (a, b), Some (a * b))
    | _ -> assert false)
  | [ "torus3d" ] ->
    let a = square_factor nodes in
    let b = square_factor (nodes / a) in
    (Torus3d (b, a, nodes / a / b), None)
  | [ "torus3d"; d ] -> (
    match dims_of d 3 with
    | [ a; b; c ] -> (Torus3d (a, b, c), Some (a * b * c))
    | _ -> assert false)
  | [ "fattree" ] ->
    let rec find k = if k * k * k / 4 >= nodes || k > 64 then k else find (k + 2) in
    (Fat_tree (find 2), None)
  | [ "fattree"; ks ] -> (
    match int_of_string_opt (String.trim ks) with
    | Some k -> (Fat_tree k, Some (max 1 (k * k * k / 4)))
    | None -> bad (Printf.sprintf "%S is not an integer arity" ks))
  | _ -> bad "unknown shape"

let checked spec kind ~nodes =
  match validate kind ~nodes with
  | () -> kind
  | exception Invalid_argument msg -> spec_error spec msg

let of_spec ~nodes spec = checked spec (fst (parse_spec spec ~nodes)) ~nodes

let check_spec spec =
  match parse_spec spec ~nodes:1 with
  | _, None -> ()
  | kind, Some nodes -> ignore (checked spec kind ~nodes)

let pp ppf t =
  Format.fprintf ppf "%s (%d nodes, %d vertices, %d links)" (describe t.kind)
    t.topo_nodes t.vertices (link_count t)
