open Sim_engine

(* Node-to-shard partitioning for the parallel engine, plus the
   conservative lookahead bound the window barrier runs on.

   Compute nodes are split into contiguous, balanced blocks of ids. With
   row-major torus numbering this makes each shard a stripe of rows, so
   cut links — links whose endpoints live on different shards — are only
   the stripe boundaries: the partition a human would draw, obtained for
   free from the id layout. Switch vertices of indirect topologies
   (fat-tree) are assigned deterministically by folding the vertex id
   back onto the compute range. Ownership is computed, never stored.

   The lookahead is the minimum latency of any cut link: an event on one
   shard can only affect another after at least one cut-link crossing,
   so every shard may run [lookahead] ahead of the rest without
   communication. On the full topology every cross-node message pays the
   profile wire latency, which is therefore the bound. A partition
   without cut links (a single shard) has no bound: no shard can affect
   another. *)

type t = {
  shards : int;
  nodes : int;
  vertices : int;
  lookahead : Time_ns.t option; (* None: no cut link *)
}

let node_owner ~nodes ~shards nid =
  (* Contiguous balanced blocks: block k covers ids
     [k*nodes/shards, (k+1)*nodes/shards). *)
  min (shards - 1) (nid * shards / nodes)

(* The first id [nid] with [nid * shards / nodes >= k]. *)
let block_start ~nodes ~shards k = ((k * nodes) + shards - 1) / shards

(* A switch vertex folds back onto the compute range. *)
let vertex_owner ~nodes ~shards v =
  node_owner ~nodes ~shards (if v < nodes then v else v mod nodes)

let build topo ~(profile : Profile.t) ~shards =
  let nodes = Topology.nodes topo in
  if shards < 1 then invalid_arg "Shard_map.build: need at least one shard";
  if shards > nodes then
    invalid_arg
      (Printf.sprintf "Shard_map.build: %d shards but only %d nodes" shards
         nodes);
  let vertices = Topology.vertex_count topo in
  let owner v = vertex_owner ~nodes ~shards v in
  let lookahead = ref None in
  let cut latency =
    lookahead :=
      Some (match !lookahead with Some l -> min l latency | None -> latency)
  in
  (* On the full topology every pair of nodes has a wire of its own, so
     the blocks' two ends (nodes 0 and [nodes - 1]) straddle a cut link
     exactly when they sit on different shards. All hop links currently
     share the profile wire latency (the fabric creates them that way),
     but derive the bound from the cut honestly so per-link latencies
     can diverge later without touching this. *)
  if Topology.kind topo = Topology.Full && owner 0 <> owner (nodes - 1) then
    cut profile.Profile.wire_latency;
  for id = 0 to Topology.link_count topo - 1 do
    if owner (Topology.link_src topo id) <> owner (Topology.link_dst topo id)
    then cut profile.Profile.wire_latency
  done;
  (match !lookahead with
  | Some l when Time_ns.compare l Time_ns.zero <= 0 ->
    invalid_arg "Shard_map.build: zero-latency cut link admits no lookahead"
  | _ -> ());
  { shards; nodes; vertices; lookahead = !lookahead }

let shards t = t.shards
let nodes t = t.nodes
let lookahead t = t.lookahead

let owner t v =
  if v < 0 || v >= t.vertices then
    invalid_arg (Printf.sprintf "Shard_map.owner: vertex %d out of range" v);
  vertex_owner ~nodes:t.nodes ~shards:t.shards v

let block t k =
  if k < 0 || k >= t.shards then
    invalid_arg (Printf.sprintf "Shard_map.block: shard %d out of range" k);
  let start = block_start ~nodes:t.nodes ~shards:t.shards in
  (start k, start (k + 1))

let nodes_of t shard =
  let first, stop = block t shard in
  List.init (stop - first) (fun i -> first + i)

let cut_links t topo =
  let owner = owner t in
  List.filter
    (fun id -> owner (Topology.link_src topo id) <> owner (Topology.link_dst topo id))
    (List.init (Topology.link_count topo) Fun.id)
