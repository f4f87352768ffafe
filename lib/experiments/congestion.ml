open Sim_engine

type pattern = All_to_all | Nearest_neighbor

let pattern_name = function
  | All_to_all -> "all-to-all"
  | Nearest_neighbor -> "nearest-neighbor"

type row = {
  c_topology : string;
  c_pattern : string;
  c_messages : int;
  c_bytes : int;
  c_elapsed_us : float;
  c_goodput_mbs : float;
  c_peak_queue : int;
  c_drops : int;
}

let default_topologies = [ "full"; "ring"; "torus2d"; "fattree" ]

(* The halo partners of a node: its grid neighbours where the topology
   has a grid, else the ±1 ring peers (full and fat-tree have no
   meaningful node-to-node adjacency — hosts only neighbour switches). *)
let halo_peers topo nid =
  let n = Simnet.Topology.nodes topo in
  match Simnet.Topology.dims topo with
  | [] ->
    List.sort_uniq compare
      (List.filter (fun p -> p <> nid) [ (nid + 1) mod n; (nid + n - 1) mod n ])
  | _ -> Simnet.Topology.neighbors topo nid

let peers_of topo pattern nid =
  match pattern with
  | All_to_all ->
    List.filter (fun p -> p <> nid)
      (List.init (Simnet.Topology.nodes topo) Fun.id)
  | Nearest_neighbor -> halo_peers topo nid

let run_one ~kind ~pattern ~nodes ~msgs_per_peer ~size ?queue_limit () =
  let sched = Scheduler.create () in
  let profile = Simnet.Profile.myrinet_mcp in
  let topo = Simnet.Topology.build kind ~nodes in
  let fabric =
    Simnet.Fabric.create ~topology:topo ?queue_limit sched ~profile ~nodes
  in
  let delivered = ref 0 and delivered_bytes = ref 0 in
  let last_arrival = ref Time_ns.zero in
  for nid = 0 to nodes - 1 do
    Simnet.Fabric.register fabric
      (Simnet.Proc_id.make ~nid ~pid:0)
      (fun ~src:_ payload ->
        incr delivered;
        delivered_bytes := !delivered_bytes + Bytes.length payload;
        last_arrival := Time_ns.max !last_arrival (Scheduler.now sched))
  done;
  (* Every node injects its whole demand at t=0: the interconnect, not
     the injection schedule, decides how the flows interleave. Senders
     round-robin over their peers so no destination sees its traffic in
     one monolithic burst. *)
  let payload = Bytes.create size in
  for round = 1 to msgs_per_peer do
    ignore round;
    for nid = 0 to nodes - 1 do
      List.iter
        (fun peer ->
          Simnet.Fabric.send fabric
            ~src:(Simnet.Proc_id.make ~nid ~pid:0)
            ~dst:(Simnet.Proc_id.make ~nid:peer ~pid:0)
            payload)
        (peers_of topo pattern nid)
    done
  done;
  Scheduler.run sched;
  let stats = Simnet.Fabric.stats fabric in
  let elapsed_us = Time_ns.to_us !last_arrival in
  ( {
      c_topology = Simnet.Topology.describe kind;
      c_pattern = pattern_name pattern;
      c_messages = !delivered;
      c_bytes = !delivered_bytes;
      c_elapsed_us = elapsed_us;
      c_goodput_mbs =
        (if elapsed_us > 0. then float_of_int !delivered_bytes /. elapsed_us
         else 0.);
      c_peak_queue = Simnet.Fabric.peak_link_queue_depth fabric;
      c_drops = stats.Simnet.Fabric.drops_congested;
    },
    Metrics.snapshot (Scheduler.metrics sched) )

let run ?(nodes = 16) ?(topologies = default_topologies) ?(msgs_per_peer = 8)
    ?(size = 4096) ?queue_limit ?registry () =
  List.concat_map
    (fun spec ->
      let kind = Simnet.Topology.of_spec ~nodes spec in
      List.map
        (fun pattern ->
          let row, snapshot =
            run_one ~kind ~pattern ~nodes ~msgs_per_peer ~size ?queue_limit ()
          in
          Option.iter
            (fun registry ->
              Metrics.absorb registry
                ~labels:
                  [
                    ("topology", row.c_topology); ("pattern", row.c_pattern);
                  ]
                snapshot)
            registry;
          row)
        [ Nearest_neighbor; All_to_all ])
    topologies

let pp ppf rows =
  Format.fprintf ppf
    "Traffic patterns across interconnect topologies (contended shared \
     links):@.";
  Format.fprintf ppf "%-16s %-18s %-10s %-12s %-14s %-11s %-8s@." "topology"
    "pattern" "delivered" "elapsed(us)" "goodput(MB/s)" "peak-queue" "drops";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-16s %-18s %-10d %-12.1f %-14.1f %-11d %-8d@."
        r.c_topology r.c_pattern r.c_messages r.c_elapsed_us r.c_goodput_mbs
        r.c_peak_queue r.c_drops)
    rows
