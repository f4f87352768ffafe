open Sim_engine

(* Node-to-shard partitioning for the parallel engine, plus the
   conservative lookahead bound the window barrier runs on.

   Compute nodes are split into contiguous, balanced blocks of ids. With
   row-major torus numbering this makes each shard a stripe of rows, so
   cut links — links whose endpoints live on different shards — are only
   the stripe boundaries: the partition a human would draw, obtained for
   free from the id layout. Switch vertices of indirect topologies
   (fat-tree) are assigned deterministically by folding the vertex id
   back onto the compute range.

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
  owner : int array; (* vertex id -> shard *)
  lookahead : Time_ns.t option; (* None: no cut link *)
}

let node_owner ~nodes ~shards nid =
  (* Contiguous balanced blocks: block k covers ids
     [k*nodes/shards, (k+1)*nodes/shards). *)
  min (shards - 1) (nid * shards / nodes)

(* The first id [nid] with [nid * shards / nodes >= k]. *)
let block_start ~nodes ~shards k = ((k * nodes) + shards - 1) / shards

let build topo ~(profile : Profile.t) ~shards =
  let nodes = Topology.nodes topo in
  if shards < 1 then invalid_arg "Shard_map.build: need at least one shard";
  if shards > nodes then
    invalid_arg
      (Printf.sprintf "Shard_map.build: %d shards but only %d nodes" shards
         nodes);
  let vertices = Topology.vertex_count topo in
  let owner =
    Array.init vertices (fun v ->
        node_owner ~nodes ~shards (if v < nodes then v else v mod nodes))
  in
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
  if Topology.kind topo = Topology.Full && owner.(0) <> owner.(nodes - 1) then
    cut profile.Profile.wire_latency;
  for id = 0 to Topology.link_count topo - 1 do
    let l = Topology.link topo id in
    if owner.(l.Topology.src_v) <> owner.(l.Topology.dst_v) then
      cut profile.Profile.wire_latency
  done;
  (match !lookahead with
  | Some l when Time_ns.compare l Time_ns.zero <= 0 ->
    invalid_arg "Shard_map.build: zero-latency cut link admits no lookahead"
  | _ -> ());
  { shards; nodes; owner; lookahead = !lookahead }

let shards t = t.shards
let nodes t = t.nodes
let lookahead t = t.lookahead

let owner t v =
  if v < 0 || v >= Array.length t.owner then
    invalid_arg (Printf.sprintf "Shard_map.owner: vertex %d out of range" v);
  t.owner.(v)

let block t k =
  if k < 0 || k >= t.shards then
    invalid_arg (Printf.sprintf "Shard_map.block: shard %d out of range" k);
  let start = block_start ~nodes:t.nodes ~shards:t.shards in
  (start k, start (k + 1))

let nodes_of t shard =
  let acc = ref [] in
  for nid = t.nodes - 1 downto 0 do
    if t.owner.(nid) = shard then acc := nid :: !acc
  done;
  !acc

let cut_links t topo =
  let acc = ref [] in
  for id = Topology.link_count topo - 1 downto 0 do
    let l = Topology.link topo id in
    if t.owner.(l.Topology.src_v) <> t.owner.(l.Topology.dst_v) then
      acc := id :: !acc
  done;
  !acc
