open Sim_engine
module C = Collectives
module P = Portals

type cell = {
  c_impl : C.impl;
  c_topology : string;
  c_nodes : int;
  c_busy : bool;
  c_barrier_us : float;
  c_bcast_us : float;
  c_allreduce_us : float;
}

type t = { cells : cell list; metrics : Metrics.Snapshot.t }

let default_plan =
  [ ("torus2d", [ 16; 32; 64 ]); ("fattree", [ 16; 54 ]); ("ring", [ 8; 16; 32 ]) ]

let quick_plan = [ ("torus2d", [ 16 ]); ("ring", [ 8 ]) ]

(* The compute loop's slice length. Long against the host engine's
   per-hop charge (2 us), so a tree hop landing on a busy CPU waits a
   substantial fraction of a slice before its protocol work runs. *)
let busy_slice = Time_ns.us 50.

(* One world: [nodes] ranks over [topology], each rank running [f] over
   an endpoint of [impl]. With [busy], every node's host CPU also runs a
   compute fiber in [busy_slice] pieces until its rank's main returns —
   the application the paper's §5.1 bypass argument protects. The host
   engine always charges its per-hop cost to the rank's CPU; the NIC
   engine never touches it, which is the measured contrast. *)
let with_world ~scenario ~impl ~topology ~nodes ~busy f =
  let kind = Simnet.Topology.of_spec ~nodes topology in
  let world = Runtime.create_world ~scenario ~nodes ~topology:kind () in
  let ranks = world.Runtime.ranks in
  let quit = Array.make (Array.length ranks) false in
  if busy then
    Array.iteri
      (fun r _ ->
        let sched = Runtime.sched_of_rank world r in
        let cpu = Runtime.host_cpu_of_rank world r in
        Scheduler.spawn sched (fun () ->
            while not quit.(r) do
              Cpu.compute cpu busy_slice;
              (* Let a queued protocol charge take the CPU between
                 slices — without this the loop re-acquires at the same
                 instant and starves the host engine's hops forever. *)
              Scheduler.yield sched
            done))
      ranks;
  Runtime.spawn_ranks world (fun ~rank ->
      let ni =
        P.Ni.create (Runtime.transport_of_rank world rank) ~id:ranks.(rank) ()
      in
      let coll =
        C.create_impl impl ni ~ranks ~rank
          ~host_cpu:(Runtime.host_cpu_of_rank world rank) ()
      in
      f world coll ~rank;
      quit.(rank) <- true);
  Runtime.run world;
  world

(* Mean per-call latency of the three tree collectives in one world:
   a sync barrier, rank 0 stamps the start, [iters] back-to-back calls,
   every rank stamps its own finish; the cell's number is
   (latest finish - start) / iters. The sync run is outside the window,
   so a busy host pays only for the measured calls. *)
let measure ~scenario ~iters ~impl ~topology ~nodes ~busy =
  let starts = Array.make 3 Time_ns.zero in
  let finishes = Array.init 3 (fun _ -> Array.make nodes Time_ns.zero) in
  let world =
    with_world ~scenario ~impl ~topology ~nodes ~busy (fun world coll ~rank ->
        let sched = Runtime.sched_of_rank world rank in
        let payload =
          C.bytes_of_floats (Array.init 8 (fun i -> float_of_int (rank + i)))
        in
        let timed op f =
          C.any_barrier coll;
          if rank = 0 then starts.(op) <- Scheduler.now sched;
          for _ = 1 to iters do
            f ()
          done;
          finishes.(op).(rank) <- Scheduler.now sched
        in
        timed 0 (fun () -> C.any_barrier coll);
        timed 1 (fun () -> ignore (C.any_bcast coll ~root:0 payload));
        timed 2 (fun () ->
            ignore (C.any_allreduce coll ~op:C.sum_floats payload)))
  in
  ignore world;
  let lat op =
    let finish =
      Array.fold_left
        (fun acc t -> if Time_ns.compare t acc > 0 then t else acc)
        Time_ns.zero finishes.(op)
    in
    Time_ns.to_us (Time_ns.sub finish starts.(op)) /. float_of_int iters
  in
  {
    c_impl = impl;
    c_topology = topology;
    c_nodes = nodes;
    c_busy = busy;
    c_barrier_us = lat 0;
    c_bcast_us = lat 1;
    c_allreduce_us = lat 2;
  }

let run ?(scenario = Runtime.Scenario.default) ?(iters = 8) ?(quick = false)
    ?plan () =
  let plan =
    match plan with
    | Some p -> p
    | None -> if quick then quick_plan else default_plan
  in
  let registry = Metrics.create ~detail:true () in
  let cells =
    List.concat_map
      (fun (topology, node_counts) ->
        List.concat_map
          (fun nodes ->
            List.concat_map
              (fun busy ->
                List.map
                  (fun impl ->
                    let cell =
                      measure ~scenario ~iters ~impl ~topology ~nodes ~busy
                    in
                    let labels =
                      [
                        ("impl", C.impl_name impl);
                        ("topology", topology);
                        ("host", if busy then "busy" else "idle");
                      ]
                    in
                    List.iter
                      (fun (name, y) ->
                        Metrics.push
                          (Metrics.series registry ~labels name)
                          ~x:(float_of_int nodes) ~y)
                      [
                        ("coll.barrier_us", cell.c_barrier_us);
                        ("coll.bcast_us", cell.c_bcast_us);
                        ("coll.allreduce_us", cell.c_allreduce_us);
                      ];
                    cell)
                  [ C.Host; C.Nic_offload ])
              [ false; true ])
          node_counts)
      plan
  in
  { cells; metrics = Metrics.snapshot registry }

let pp ppf t =
  Format.fprintf ppf
    "NIC-offloaded vs host-driven collectives: mean per-call latency (us)@.";
  Format.fprintf ppf "%-10s %-7s %-5s %-6s %-12s %-12s %-12s@." "topology"
    "nodes" "host" "impl" "barrier" "bcast" "allreduce";
  List.iter
    (fun c ->
      Format.fprintf ppf "%-10s %-7d %-5s %-6s %-12.2f %-12.2f %-12.2f@."
        c.c_topology c.c_nodes
        (if c.c_busy then "busy" else "idle")
        (C.impl_name c.c_impl) c.c_barrier_us c.c_bcast_us c.c_allreduce_us)
    t.cells

(* Cross-engine equality: the mixed workload of the conformance suite in
   miniature — every rank's concatenated observable bytes must agree
   between engines on the same world. *)
let workload_bytes ~scenario impl ~nodes ~topology =
  let out = Array.make nodes "" in
  let _ =
    with_world ~scenario ~impl ~topology ~nodes ~busy:false
      (fun _ coll ~rank ->
        let n = nodes in
        let buf = Buffer.create 128 in
        for round = 1 to 4 do
          let mine =
            C.bytes_of_floats
              [| float_of_int ((rank + 1) * round); 0.5 *. float_of_int round |]
          in
          Buffer.add_bytes buf (C.any_allreduce coll ~op:C.sum_floats mine);
          let root = round mod n in
          let payload =
            if rank = root then
              Bytes.of_string (Printf.sprintf "coll-%d" round)
            else Bytes.empty
          in
          Buffer.add_bytes buf (C.any_bcast coll ~root payload);
          C.any_barrier coll;
          (match
             C.any_reduce coll ~root ~op:C.sum_floats
               (C.bytes_of_floats [| float_of_int rank |])
           with
          | Some b -> Buffer.add_bytes buf b
          | None -> ())
        done;
        out.(rank) <- Buffer.contents buf)
  in
  out

let check ?(scenario = Runtime.Scenario.default) ?(nodes = 16)
    ?(topology = "torus2d:4x4") () =
  workload_bytes ~scenario C.Host ~nodes ~topology
  = workload_bytes ~scenario C.Nic_offload ~nodes ~topology

(* Perf records: each id meters one collective hammered on a 16-node
   torus with busy host CPUs — the regime the offload exists for. *)
let record_id impl op = Printf.sprintf "COLL.%s.%s" (C.impl_name impl) op

let perf_records ?(scenario = Runtime.Scenario.default) ?(quick = false) () =
  let iters = if quick then 8 else 32 in
  let drive impl f =
    ignore
      (with_world ~scenario ~impl ~topology:"torus2d" ~nodes:16 ~busy:true
         (fun _ coll ~rank ->
           ignore rank;
           for _ = 1 to iters do
             f coll
           done))
  in
  let payload = C.bytes_of_floats (Array.init 8 float_of_int) in
  List.concat_map
    (fun impl ->
      [
        Perf.meter ~id:(record_id impl "barrier") (fun () ->
            drive impl (fun coll -> C.any_barrier coll));
        Perf.meter ~id:(record_id impl "allreduce") (fun () ->
            drive impl (fun coll ->
                ignore (C.any_allreduce coll ~op:C.sum_floats payload)));
      ])
    [ C.Host; C.Nic_offload ]
