open Sim_engine

type memory_row = {
  job_size : int;
  portals_reserved : int;
  portals_highwater : int;
  via_like_bytes : int;
}

module MP = Mpi.Mpi_portals

let run_memory ?scenario ?(job_sizes = [ 4; 8; 16; 32; 64 ]) ?(credits = 8)
    ?(eager = 16_384) () =
  let measure n =
    let world = Runtime.create_world ?scenario ~nodes:n () in
    let config = MP.default_config in
    let endpoints =
      Array.init n (fun rank ->
          MP.create
            (Runtime.transport_of_rank world rank)
            ~ranks:world.Runtime.ranks ~rank ~config ())
    in
    Runtime.spawn_ranks world (fun ~rank ->
        let ep = endpoints.(rank) in
        if rank <> 0 then
          for i = 0 to 3 do
            ignore (Mpi.wait ep (Mpi.isend ep ~dst:0 ~tag:((rank * 10) + i) (Bytes.create 1_024)))
          done
        else begin
          (* Let everything arrive unexpected, then claim it. *)
          Scheduler.delay (Runtime.sched_of_rank world 0) (Time_ns.ms 50.0);
          for src = 1 to n - 1 do
            for i = 0 to 3 do
              ignore
                (Mpi.wait ep
                   (Mpi.irecv ep ~source:src ~tag:((src * 10) + i)
                      (Bytes.create 1_024)))
            done
          done
        end);
    Runtime.run world;
    {
      job_size = n;
      portals_reserved = config.MP.slab_size * config.MP.slab_count;
      portals_highwater = MP.unexpected_bytes_highwater endpoints.(0);
      via_like_bytes = (n - 1) * credits * eager;
    }
  in
  List.map measure job_sizes

let pp_memory ppf rows =
  Format.fprintf ppf
    "Receive-buffer memory vs job size (section 4.1):@.";
  Format.fprintf ppf "%-10s %-20s %-20s %-20s@." "job" "portals-reserved"
    "portals-highwater" "via-like-per-conn";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-10d %-20d %-20d %-20d@." r.job_size
        r.portals_reserved r.portals_highwater r.via_like_bytes)
    rows

type coll_row = { nodes : int; barrier_us : float; allreduce_us : float }

let run_collectives ?(scenario = Runtime.Scenario.default) ?impl
    ?(node_counts = [ 2; 4; 8; 16; 32; 64; 128; 256 ]) () =
  (* The engine follows the scenario's unless the caller picks one; both
     give the same results, only the timing of a busy host differs
     (Experiments.Coll measures that contrast). *)
  let impl =
    match impl with
    | Some i -> i
    | None -> (
      match
        Collectives.impl_of_string scenario.Runtime.Scenario.collectives
      with
      | Some i -> i
      | None -> Collectives.Host)
  in
  let measure n =
    let world = Runtime.create_world ~scenario ~nodes:n () in
    let colls =
      Array.mapi
        (fun rank pid ->
          let ni =
            Portals.Ni.create (Runtime.transport_of_rank world rank) ~id:pid ()
          in
          Collectives.create_impl impl ni ~ranks:world.Runtime.ranks ~rank ())
        world.Runtime.ranks
    in
    (* One finish slot per rank: ranks on different shards run on
       different domains, so none writes another's. *)
    let barrier_done = Array.make n Time_ns.zero in
    let allreduce_done = Array.make n Time_ns.zero in
    let barrier_start = ref Time_ns.zero in
    let allreduce_start = ref Time_ns.zero in
    Array.iteri
      (fun rank coll ->
        let sched = Runtime.sched_of_rank world rank in
        Scheduler.spawn sched (fun () ->
            let payload = Collectives.bytes_of_floats (Array.make 8 1.0) in
            (* Warmup to hide first-touch effects, then measured rounds. *)
            Collectives.any_barrier coll;
            if rank = 0 then barrier_start := Scheduler.now sched;
            Collectives.any_barrier coll;
            barrier_done.(rank) <- Scheduler.now sched;
            Collectives.any_barrier coll;
            if rank = 0 then allreduce_start := Scheduler.now sched;
            ignore
              (Collectives.any_allreduce coll ~op:Collectives.sum_floats payload);
            allreduce_done.(rank) <- Scheduler.now sched))
      colls;
    Runtime.run world;
    let last = Array.fold_left Time_ns.max Time_ns.zero in
    {
      nodes = n;
      barrier_us = Time_ns.to_us (Time_ns.sub (last barrier_done) !barrier_start);
      allreduce_us =
        Time_ns.to_us (Time_ns.sub (last allreduce_done) !allreduce_start);
    }
  in
  List.map measure node_counts

let pp_collectives ppf rows =
  Format.fprintf ppf "Collective completion time vs nodes:@.";
  Format.fprintf ppf "%-10s %-16s %-16s@." "nodes" "barrier(us)" "allreduce(us)";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-10d %-16.2f %-16.2f@." r.nodes r.barrier_us
        r.allreduce_us)
    rows

type perf_row = {
  p_nodes : int;
  p_sim_events : int;
  p_wall_s : float;
  p_events_per_sec : float;
}

(* The simulator-throughput sweep: how fast the discrete-event engine
   chews through a communication-heavy workload as the world grows. Each
   round is a segmented gather (every rank sends [frags] small fragments
   to rank 0, which claims them per-sender after the round's allreduce
   has synchronised everyone) followed by an 8-float allreduce. The
   gather leaves rank 0 with a deep unexpected-message queue claimed by
   match bits, so the sweep is sensitive to both raw event cost and the
   pool's claim-path complexity. Only the timed rounds are metered; world
   construction and one warmup barrier run before the clock starts. *)
let run_perf ?scenario ?(node_counts = [ 64; 128; 256; 512; 1024 ])
    ?(rounds = 4) ?(frags = 4) () =
  let root = 0 in
  let measure n =
    let world = Runtime.create_world ?scenario ~nodes:n () in
    let nis =
      Array.mapi
        (fun rank pid ->
          Portals.Ni.create (Runtime.transport_of_rank world rank) ~id:pid ())
        world.Runtime.ranks
    in
    let colls =
      Array.mapi
        (fun rank ni -> Collectives.create ni ~ranks:world.Runtime.ranks ~rank ())
        nis
    in
    (* The gather pool lives on its own portal entry, away from the
       collectives' (default entry 6). Its EQ follows the job: the root
       drains round r's fragments before it joins allreduce r + 1, which
       every sender must pass before sending round r + 2, so at most two
       rounds' fragments wait undrained. The ring grows only on the root. *)
    let eq_capacity = max 1 (2 * (n - 1) * frags) in
    let pools =
      Array.map
        (fun ni -> Collectives.Pool.create ni ~portal_index:7 ~eq_capacity ())
        nis
    in
    Array.iteri
      (fun rank coll ->
        Scheduler.spawn (Runtime.sched_of_rank world rank) (fun () ->
            Collectives.barrier coll))
      colls;
    Runtime.run world;
    let payload = Bytes.create 8 in
    Array.iteri
      (fun rank coll ->
        Scheduler.spawn (Runtime.sched_of_rank world rank) (fun () ->
            for _ = 1 to rounds do
              if rank <> root then
                for _frag = 1 to frags do
                  Collectives.Pool.send pools.(rank)
                    ~dst:world.Runtime.ranks.(root)
                    ~bits:(Portals.Match_bits.of_int rank)
                    payload
                done;
              ignore (Collectives.allreduce_float_sum coll (Array.make 8 1.0));
              if rank = root then
                for k = 0 to n - 1 do
                  if k <> root then
                    for _frag = 1 to frags do
                      ignore
                        (Collectives.Pool.recv pools.(root)
                           ~bits:(Portals.Match_bits.of_int k))
                    done
                done
            done))
      colls;
    let e0 = (Scheduler.global_totals ()).Scheduler.t_events in
    let t0 = Unix.gettimeofday () in
    Runtime.run world;
    let t1 = Unix.gettimeofday () in
    let e1 = (Scheduler.global_totals ()).Scheduler.t_events in
    let wall = t1 -. t0 and events = e1 - e0 in
    {
      p_nodes = n;
      p_sim_events = events;
      p_wall_s = wall;
      p_events_per_sec =
        (if wall > 0. then float_of_int events /. wall else 0.);
    }
  in
  List.map measure node_counts

let pp_perf ppf rows =
  Format.fprintf ppf
    "Simulator throughput (timed gather+allreduce rounds):@.";
  Format.fprintf ppf "%-10s %-14s %-12s %-14s@." "nodes" "sim-events"
    "wall(s)" "events/sec";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-10d %-14d %-12.4f %-14.0f@." r.p_nodes
        r.p_sim_events r.p_wall_s r.p_events_per_sec)
    rows
