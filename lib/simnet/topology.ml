type kind =
  | Full
  | Ring
  | Torus2d of int * int
  | Torus3d of int * int * int
  | Fat_tree of int

type link = { link_id : int; src_v : int; dst_v : int }

type t = {
  kind : kind;
  topo_nodes : int;
  vertices : int;
  links : link array;
  (* (src_v, dst_v) -> link_id for adjacent vertex pairs. *)
  edge_index : (int * int, int) Hashtbl.t;
  (* vertex -> neighbour vertices in construction order. *)
  adj : int list array;
  (* link_id -> "src->dst", formatted once: every fabric built over this
     topology labels its links with these strings. *)
  link_names : string array;
}

let kind t = t.kind
let nodes t = t.topo_nodes
let vertex_count t = t.vertices
let link_count t = Array.length t.links

let link t id =
  if id < 0 || id >= Array.length t.links then
    invalid_arg (Printf.sprintf "Topology.link: id %d out of range" id);
  t.links.(id)

let find_link t ~src_v ~dst_v = Hashtbl.find_opt t.edge_index (src_v, dst_v)

let neighbors t v =
  if v < 0 || v >= t.vertices then
    invalid_arg (Printf.sprintf "Topology.neighbors: vertex %d out of range" v);
  if t.kind = Full then
    List.filter (fun u -> u <> v) (List.init t.topo_nodes Fun.id)
  else List.rev t.adj.(v)

let vertex_label ~nodes v =
  if v < nodes then "node" ^ string_of_int v
  else "sw" ^ string_of_int (v - nodes)

let vertex_name t v = vertex_label ~nodes:t.topo_nodes v

let link_name t id =
  ignore (link t id);
  t.link_names.(id)

let dims t =
  match t.kind with
  | Full | Fat_tree _ -> []
  | Ring -> [ t.topo_nodes ]
  | Torus2d (a, b) -> [ a; b ]
  | Torus3d (a, b, c) -> [ a; b; c ]

let coords t nid =
  let rec go nid = function
    | [] -> []
    | [ _ ] -> [ nid ]
    | _ :: rest ->
      (* Row-major: the last dimension varies fastest. *)
      let stride = List.fold_left ( * ) 1 rest in
      (nid / stride) :: go (nid mod stride) rest
  in
  match dims t with
  | [] -> []
  | ds ->
    if nid < 0 || nid >= t.topo_nodes then
      invalid_arg (Printf.sprintf "Topology.coords: nid %d out of range" nid);
    go nid ds

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

let finish kind ~nodes ~vertices b =
  let links = Array.of_list (List.rev b.blinks) in
  let link_names = Array.make (Array.length links) "" in
  for id = 0 to Array.length links - 1 do
    let l = links.(id) in
    link_names.(id) <-
      String.concat "->" [ vertex_label ~nodes l.src_v; vertex_label ~nodes l.dst_v ]
  done;
  {
    kind;
    topo_nodes = nodes;
    vertices;
    links;
    edge_index = b.bindex;
    adj = b.badj;
    link_names;
  }

let builder vertices =
  {
    blinks = [];
    n = 0;
    bindex = Hashtbl.create 64;
    badj = Array.make (max vertices 1) [];
  }

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

let build_torus kind ~nodes =
  let b = builder nodes in
  let t0 = finish kind ~nodes ~vertices:nodes b in
  (* Wire each node to its ±1 neighbour in every dimension (wraparound).
     Dimensions of size 1 contribute no links; size 2 contributes one
     bidirectional link (+1 and -1 coincide, deduplicated by add_link). *)
  for nid = 0 to nodes - 1 do
    let cs = coords t0 nid in
    List.iteri
      (fun i d ->
        if d > 1 then begin
          let step s =
            of_coords t0
              (List.mapi (fun j c -> if j = i then (c + s + d) mod d else c) cs)
          in
          add_bidi b nid (step 1);
          add_bidi b nid (step (-1))
        end)
      (dims t0)
  done;
  finish kind ~nodes ~vertices:nodes b

(* k-ary fat-tree (k even): k pods, each with k/2 edge and k/2 aggregation
   switches; (k/2)^2 core switches; k^3/4 hosts, k/2 per edge switch.
   Vertex layout: hosts 0..n-1, then per-pod edge switches, per-pod
   aggregation switches, then core switches. *)
let build_fat_tree ~nodes k =
  let half = k / 2 in
  let edge p e = nodes + (p * half) + e in
  let agg p a = nodes + (k * half) + (p * half) + a in
  let core g c = nodes + (2 * k * half) + (g * half) + c in
  let vertices = nodes + (2 * k * half) + (half * half) in
  let b = builder vertices in
  for h = 0 to nodes - 1 do
    let p = h / (half * half) and e = h mod (half * half) / half in
    add_bidi b h (edge p e)
  done;
  for p = 0 to k - 1 do
    for e = 0 to half - 1 do
      for a = 0 to half - 1 do
        add_bidi b (edge p e) (agg p a)
      done
    done;
    (* Aggregation switch [a] of every pod uplinks to core group [a]. *)
    for a = 0 to half - 1 do
      for c = 0 to half - 1 do
        add_bidi b (agg p a) (core a c)
      done
    done
  done;
  finish (Fat_tree k) ~nodes ~vertices b

let build kind ~nodes =
  validate kind ~nodes;
  match kind with
  | Full ->
    (* The fully-connected fabric keeps the seed's private-wire model:
       no shared hop links exist, so the link table is empty. *)
    finish Full ~nodes ~vertices:nodes (builder nodes)
  | Ring | Torus2d _ | Torus3d _ -> build_torus kind ~nodes
  | Fat_tree k -> build_fat_tree ~nodes k

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

let of_spec ~nodes spec =
  let bad reason =
    invalid_arg
      (Printf.sprintf
         "Topology.of_spec: bad topology %S (%s); expected \
          full|ring|torus2d[:AxB]|torus3d[:AxBxC]|fattree[:K]"
         spec reason)
  in
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
  let check kind =
    match validate kind ~nodes with
    | () -> kind
    | exception Invalid_argument msg -> bad msg
  in
  match String.split_on_char ':' (String.trim (String.lowercase_ascii spec)) with
  | [ "full" ] -> Full
  | [ "ring" ] -> check Ring
  | [ "torus2d" ] ->
    let a = square_factor nodes in
    check (Torus2d (a, nodes / a))
  | [ "torus2d"; d ] -> (
    match dims_of d 2 with [ a; b ] -> check (Torus2d (a, b)) | _ -> assert false)
  | [ "torus3d" ] ->
    let a = square_factor nodes in
    let b = square_factor (nodes / a) in
    check (Torus3d (b, a, nodes / a / b))
  | [ "torus3d"; d ] -> (
    match dims_of d 3 with
    | [ a; b; c ] -> check (Torus3d (a, b, c))
    | _ -> assert false)
  | [ "fattree" ] ->
    let rec find k = if k * k * k / 4 >= nodes || k > 64 then k else find (k + 2) in
    check (Fat_tree (find 2))
  | [ "fattree"; ks ] -> (
    match int_of_string_opt (String.trim ks) with
    | Some k -> check (Fat_tree k)
    | None -> bad (Printf.sprintf "%S is not an integer arity" ks))
  | _ -> bad "unknown shape"

let pp ppf t =
  Format.fprintf ppf "%s (%d nodes, %d vertices, %d links)" (describe t.kind)
    t.topo_nodes t.vertices (link_count t)
