open Sim_engine

type transport_kind = Offload | Kernel_interrupt | Rtscts

let transport_kind_name = function
  | Offload -> "offload"
  | Kernel_interrupt -> "kernel-interrupt"
  | Rtscts -> "rtscts"

(* Everything a parallel world carries beyond shard 0's view: the
   node-to-shard map, the window runtime, and shards 1..N-1's
   scheduler/fabric/transport instances. *)
type par = {
  par_map : Simnet.Shard_map.t;
  par_shard : Simnet.Fabric.remote Shard.t;
  par_scheds : Scheduler.t array;
  par_fabrics : Simnet.Fabric.t array;
  par_transports : Simnet.Transport.t array;
}

type world = {
  sched : Scheduler.t;
  fabric : Simnet.Fabric.t;
  transport : Simnet.Transport.t;
  ranks : Simnet.Proc_id.t array;
  par : par option;
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
  (* Faulty mode: inject the scenario's wire loss, fault model and/or
     partition schedule and install the reliability shim so the
     transports above still see the in-order exactly-once fabric they
     were written against. Frames travel checksummed exactly when the
     world is faulty, so a corrupted frame degrades to a loss the shim
     recovers — and a clean world's encodings stay byte-identical to the
     pre-integrity format.

     Each shard gets its own freshly built model instances: models carry
     mutable per-pair PRNG tables that must not be shared across
     domains. Same spec + same seed ⇒ identical per-pair streams, so the
     replicas agree with the sequential reference. *)
  (* Every fault spec parses to at least one model or partition. *)
  let faulty =
    scenario.Scenario.loss > 0. || scenario.Scenario.fault <> None
  in
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
    if faulty then begin
      Simnet.Fabric.set_integrity fabric true;
      ignore (Reliability.attach fabric)
    end;
    (* Scripted node failures apply to every world, so an experiment that
       builds one world per transport subjects each to the identical
       schedule — and, in a parallel world, to every shard, keeping the
       shadow replicas' crash state in lockstep with the owners. *)
    match scenario.Scenario.crashes with
    | Some schedule -> Simnet.Fabric.apply_crash_schedule fabric schedule
    | None -> ()
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
  if shards = 1 then begin
    let sched = Scheduler.create ~seed () in
    let fabric =
      Simnet.Fabric.create
        ~topology:(Simnet.Topology.build topology ~nodes)
        ?queue_limit sched ~profile ~nodes
    in
    configure fabric;
    { sched; fabric; transport = transport_over fabric; ranks; par = None }
  end
  else begin
    (* One topology for the whole world: it is immutable, so every
       replica's fabric routes over and labels its links from this one. *)
    let topo = Simnet.Topology.build topology ~nodes in
    let par_map = Simnet.Shard_map.build topo ~profile ~shards in
    (* Each shard's replica is built on its own domain, as [Shard.run]
       places the shards, so a replica's scheduler, fabric and transport
       come from that domain's heap. Shard 0 keeps the caller's seed so
       single-shard-visible streams match the sequential world; the rest
       get decorrelated derived streams (nothing deterministic may
       depend on them). *)
    let replicas =
      Shard.parallel_init shards (fun k ->
          let sched =
            Scheduler.create
              ~seed:(if k = 0 then seed else Prng.derived_seed ~seed ~index:k)
              ()
          in
          let fabric =
            Simnet.Fabric.create ~topology:topo ?queue_limit sched ~profile
              ~nodes
          in
          configure fabric;
          (sched, fabric, transport_over fabric))
    in
    let scheds = Array.map (fun (s, _, _) -> s) replicas in
    let fabrics = Array.map (fun (_, f, _) -> f) replicas in
    let par_transports = Array.map (fun (_, _, tr) -> tr) replicas in
    (* The post hooks need the window runtime, which needs every
       scheduler: they are set once all replicas are built. *)
    let par_shard =
      Shard.create ~scheds ~lookahead:(Simnet.Shard_map.lookahead par_map) ()
    in
    Array.iteri
      (fun k fabric ->
        Simnet.Fabric.set_par fabric ~self:k
          ~owner:(Simnet.Shard_map.owner par_map)
          ~post:(fun ~dst_shard ~time msg ->
            Shard.post par_shard ~src:k ~dst:dst_shard ~time msg))
      fabrics;
    {
      sched = scheds.(0);
      fabric = fabrics.(0);
      transport = par_transports.(0);
      ranks;
      par =
        Some
          { par_map; par_shard; par_scheds = scheds; par_fabrics = fabrics;
            par_transports };
    }
  end

let job_size world = Array.length world.ranks
let domains world = match world.par with None -> 1 | Some p -> Array.length p.par_scheds

let shard_of_nid world nid =
  if nid < 0 || nid >= Simnet.Fabric.node_count world.fabric then
    invalid_arg "Runtime.shard_of_nid: node out of range";
  match world.par with
  | None -> 0
  | Some p -> Simnet.Shard_map.owner p.par_map nid

let sched_of_nid world nid =
  let shard = shard_of_nid world nid in
  match world.par with None -> world.sched | Some p -> p.par_scheds.(shard)

let fabric_of_nid world nid =
  let shard = shard_of_nid world nid in
  match world.par with None -> world.fabric | Some p -> p.par_fabrics.(shard)

let nid_of_rank world ~what rank =
  if rank < 0 || rank >= Array.length world.ranks then
    invalid_arg (Printf.sprintf "Runtime.%s: rank out of range" what);
  world.ranks.(rank).Simnet.Proc_id.nid

let sched_of_rank world rank =
  sched_of_nid world (nid_of_rank world ~what:"sched_of_rank" rank)

let fabric_of_rank world rank =
  fabric_of_nid world (nid_of_rank world ~what:"fabric_of_rank" rank)

let transport_of_rank world rank =
  let shard =
    shard_of_nid world (nid_of_rank world ~what:"transport_of_rank" rank)
  in
  match world.par with
  | None -> world.transport
  | Some p -> p.par_transports.(shard)

let shard_scheds world =
  match world.par with
  | None -> [| world.sched |]
  | Some p -> Array.copy p.par_scheds

let now world =
  match world.par with
  | None -> Scheduler.now world.sched
  | Some p ->
    Array.fold_left (fun t s -> Time_ns.max t (Scheduler.now s)) Time_ns.zero
      p.par_scheds

let metrics_snapshot world =
  match world.par with
  | None -> Metrics.snapshot (Scheduler.metrics world.sched)
  | Some p ->
    let merged = Metrics.create ~detail:true () in
    Array.iter
      (fun s -> Metrics.absorb merged (Metrics.snapshot (Scheduler.metrics s)))
      p.par_scheds;
    Metrics.snapshot merged

let shard_fabrics world =
  match world.par with
  | None -> [| world.fabric |]
  | Some p -> Array.copy p.par_fabrics

let window_rounds world =
  match world.par with None -> 0 | Some p -> Shard.rounds p.par_shard

let lookahead world =
  match world.par with None -> None | Some p -> Some (Shard.lookahead p.par_shard)

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
  match world.par with
  | Some p ->
    Shard.run ?until p.par_shard ~deliver:(fun ~shard ~time msg ->
        Simnet.Fabric.receive_remote p.par_fabrics.(shard) ~time msg)
  | None -> (
    match until with
    | None -> Scheduler.run world.sched
    | Some limit -> Scheduler.run ~until:limit world.sched)

let launch ?profile ?transport ?procs_per_node ?seed ?domains ~nodes main =
  let world =
    create_world ?profile ?transport ?procs_per_node ?seed ?domains ~nodes ()
  in
  spawn_ranks world (fun ~rank -> main world ~rank);
  run world;
  world
