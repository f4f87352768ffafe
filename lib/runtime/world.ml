open Sim_engine

type transport_kind = Offload | Kernel_interrupt | Rtscts

let transport_kind_name = function
  | Offload -> "offload"
  | Kernel_interrupt -> "kernel-interrupt"
  | Rtscts -> "rtscts"

type world = {
  sched : Scheduler.t;
  fabric : Simnet.Fabric.t;
  transport : Simnet.Transport.t;
  ranks : Simnet.Proc_id.t array;
  shard_map : Simnet.Shard_map.t;
  shard : Simnet.Fabric.remote Shard.t;
  scheds : Scheduler.t array;
  fabrics : Simnet.Fabric.t array;
  transports : Simnet.Transport.t array;
  shims : Reliability.t list;
}

let create_world ?(scenario = Scenario.default) ?profile ?(transport = Offload)
    ?(procs_per_node = 1) ?seed ?topology ?queue_limit ?domains ~nodes () =
  if nodes <= 0 then invalid_arg "Runtime.create_world: need at least one node";
  if procs_per_node <= 0 then
    invalid_arg "Runtime.create_world: need at least one process per node";
  let domains = Option.value domains ~default:scenario.Scenario.domains in
  if domains < 1 then
    invalid_arg "Runtime.create_world: need at least one domain";
  (* A scenario's domain count applies to every world an experiment
     builds, including small helper worlds: cap at one shard per node
     instead of rejecting them. *)
  let shards = min domains nodes in
  let seed = Option.value seed ~default:scenario.Scenario.seed in
  let profile =
    match profile with
    | Some p -> p
    | None -> (
      match transport with
      | Offload -> Simnet.Profile.myrinet_mcp
      | Kernel_interrupt | Rtscts -> Simnet.Profile.myrinet_kernel)
  in
  (* An explicit topology wins; otherwise the scenario's spec (if any) is
     fitted to this world's node count; otherwise the seed's
     fully-connected fabric. *)
  let topology =
    match topology with
    | Some k -> k
    | None -> (
      match scenario.Scenario.topology with
      | Some spec -> Simnet.Topology.of_spec ~nodes spec
      | None -> Simnet.Topology.Full)
  in
  let queue_limit =
    match queue_limit with
    | Some _ as l -> l
    | None -> scenario.Scenario.queue_limit
  in
  (* Faulty mode: inject the scenario's fault models and/or partition
     schedule and install the reliability shim so the transports above
     still see the in-order exactly-once fabric they were written
     against. Frames travel checksummed exactly when the world is
     faulty, so a corrupted frame degrades to a loss the shim recovers —
     and a clean world's encodings stay byte-identical to the
     pre-integrity format.

     Each shard gets its own freshly built model instances: models carry
     mutable per-pair PRNG tables that must not be shared across
     domains. Same spec + same seed ⇒ identical per-pair streams, so the
     replicas agree with the sequential reference. *)
  (* Every fault spec parses to at least one model or partition. *)
  let faulty = scenario.Scenario.fault <> None in
  let configure fabric =
    let fault_models, partitions = Scenario.faults scenario ~seed in
    (match fault_models with
    | [] -> ()
    | models ->
      let model =
        match models with [ m ] -> m | ms -> Simnet.Fault.compose ms
      in
      Simnet.Fabric.set_fault_model fabric (Some model));
    (match partitions with
    | [] -> ()
    | schedule -> Simnet.Fabric.apply_partition_schedule fabric schedule);
    let shim =
      if faulty then begin
        Simnet.Fabric.set_integrity fabric true;
        Some (Reliability.attach fabric)
      end
      else None
    in
    (* Scripted node failures apply to every world, so an experiment that
       builds one world per transport subjects each to the identical
       schedule — and, in a parallel world, to every shard, keeping
       every replica's status word for the node in lockstep with its
       owner. *)
    Option.iter
      (Simnet.Fabric.apply_crash_schedule fabric)
      scenario.Scenario.crashes;
    shim
  in
  let transport_over fabric =
    match transport with
    | Offload -> Simnet.Transport.offload fabric
    | Kernel_interrupt -> Simnet.Transport.kernel_interrupt fabric
    | Rtscts -> Rtscts.transport (Rtscts.create fabric)
  in
  let ranks =
    Array.init (nodes * procs_per_node) (fun rank ->
        Simnet.Proc_id.make ~nid:(rank mod nodes) ~pid:(rank / nodes))
  in
  (* One topology for the whole world: it is immutable, so every
     replica's fabric routes over and labels its links from this one. *)
  let topo = Simnet.Topology.build topology ~nodes in
  let shard_map = Simnet.Shard_map.build topo ~profile ~shards in
  (* Each shard's replica is built on its own domain, as [Shard.run]
     places the shards, so a replica's scheduler, fabric and transport
     come from that domain's heap, and it holds only the nodes and hop
     links its shard owns. *)
  let replicas =
    Shard.parallel_init shards (fun k ->
        let sched = Scheduler.create () in
        let fabric =
          Simnet.Fabric.create ~topology:topo ?queue_limit
            ~shard:(shard_map, k) sched ~profile ~nodes
        in
        let shim = configure fabric in
        (sched, fabric, transport_over fabric, shim))
  in
  let scheds = Array.map (fun (s, _, _, _) -> s) replicas in
  let fabrics = Array.map (fun (_, f, _, _) -> f) replicas in
  let transports = Array.map (fun (_, _, tr, _) -> tr) replicas in
  (* The post hooks need the window runtime, which needs every
     scheduler: they are set once all replicas are built. A lone shard
     owns every node and posts nothing, so it needs none. *)
  let shard =
    Shard.create ~scheds ~lookahead:(Simnet.Shard_map.lookahead shard_map) ()
  in
  if shards > 1 then
    Array.iteri
      (fun k fabric ->
        Simnet.Fabric.set_post fabric (fun ~dst_shard ~time msg ->
            Shard.post shard ~src:k ~dst:dst_shard ~time msg))
      fabrics;
  {
    sched = scheds.(0);
    fabric = fabrics.(0);
    transport = transports.(0);
    ranks;
    shard_map;
    shard;
    scheds;
    fabrics;
    transports;
    shims =
      List.filter_map (fun (_, _, _, shim) -> shim) (Array.to_list replicas);
  }

let job_size world = Array.length world.ranks
let domains world = Array.length world.scheds

let shard_of_nid world nid =
  if nid < 0 || nid >= Simnet.Shard_map.nodes world.shard_map then
    invalid_arg "Runtime.shard_of_nid: node out of range";
  Simnet.Shard_map.owner world.shard_map nid

let sched_of_nid world nid = world.scheds.(shard_of_nid world nid)
let fabric_of_nid world nid = world.fabrics.(shard_of_nid world nid)

let nid_of_rank world ~what rank =
  if rank < 0 || rank >= Array.length world.ranks then
    invalid_arg (Printf.sprintf "Runtime.%s: rank out of range" what);
  world.ranks.(rank).Simnet.Proc_id.nid

let sched_of_rank world rank =
  sched_of_nid world (nid_of_rank world ~what:"sched_of_rank" rank)

let transport_of_rank world rank =
  let nid = nid_of_rank world ~what:"transport_of_rank" rank in
  world.transports.(shard_of_nid world nid)

let shard_scheds world = Array.copy world.scheds

let now world =
  Array.fold_left (fun t s -> Time_ns.max t (Scheduler.now s)) Time_ns.zero
    world.scheds

(* Every gauge a shard registers is either one part's (a node's CPU or
   link, an NI), which only its owner registers, or a per-replica total
   (messages sent, handshakes), which every shard registers. Gauges sum
   in [Metrics.absorb] like counters, so absorbing every shard gives the
   world's value of both. *)
let metrics_snapshot world =
  let merged = Metrics.create ~detail:true () in
  Array.iter
    (fun s -> Metrics.absorb merged (Metrics.snapshot (Scheduler.metrics s)))
    world.scheds;
  Metrics.snapshot merged

let enable_trace world =
  Array.iter (fun s -> Trace.enable (Scheduler.trace s)) world.scheds

(* A track (a node's cpu or nic) records only on its node's owner shard,
   in the node's own event order, so a stable sort of every shard's spans
   by (start time, track) is the same list at any shard count. *)
let trace_spans world =
  let by_time_then_track (a : Trace.span) (b : Trace.span) =
    match Time_ns.compare a.Trace.time b.Trace.time with
    | 0 -> compare a.Trace.proc b.Trace.proc
    | c -> c
  in
  Array.to_list world.scheds
  |> List.concat_map (fun s -> Trace.spans (Scheduler.trace s))
  |> List.stable_sort by_time_then_track

let shard_fabrics world = Array.copy world.fabrics

(* Every replica routes over the one topology [create_world] built. *)
let topology world = Simnet.Fabric.topology world.fabrics.(0)
let reliability_shims world = world.shims
let window_rounds world = Shard.rounds world.shard

let lookahead world = Shard.lookahead world.shard

let host_cpu_of_rank world rank =
  let nid = nid_of_rank world ~what:"host_cpu_of_rank" rank in
  Simnet.Node.host_cpu (Simnet.Fabric.node (fabric_of_nid world nid) nid)

let spawn_ranks world main =
  Array.iteri
    (fun rank pid ->
      (* Each rank fiber lives in its node's fault domain: a node crash
         kills it mid-flight ([Scheduler.kill_domain]) — and, in a
         parallel world, on its node's owner shard. *)
      Scheduler.spawn
        (sched_of_nid world pid.Simnet.Proc_id.nid)
        ~name:(Printf.sprintf "rank%d" rank)
        ~domain:pid.Simnet.Proc_id.nid
        (fun () -> main ~rank))
    world.ranks

let run ?until world =
  Shard.run ?until world.shard ~deliver:(fun ~shard ~time msg ->
      Simnet.Fabric.receive_remote world.fabrics.(shard) ~time msg)
