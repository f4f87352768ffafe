open Sim_engine

type params = {
  backend : [ `Portals | `Gm ];
  transport : Runtime.transport_kind;
  message_size : int;
  batch : int;
  iterations : int;
  work : Time_ns.t;
  tests_during_work : int;
}

let default_params =
  {
    backend = `Portals;
    transport = Runtime.Rtscts;
    message_size = 50_000;
    batch = 10;
    iterations = 4;
    work = Time_ns.zero;
    tests_during_work = 0;
  }

type result = {
  mean_wait : float;
  max_wait : float;
  mean_work_elapsed : float;
  metrics : Metrics.Snapshot.t;
  spans : Trace.span list;
}

let run ?scenario ?(capture_trace = false) p =
  let world = Runtime.create_world ?scenario ~transport:p.transport ~nodes:2 () in
  (* This world's snapshot is the figure's data: record the EQ-depth and
     protocol time-series, not just the counters (every shard's registry
     in a parallel world; there is exactly one sequentially). *)
  Array.iter
    (fun s -> Metrics.set_detail (Scheduler.metrics s) true)
    (Runtime.shard_scheds world);
  if capture_trace then Runtime.enable_trace world;
  let endpoints =
    Array.init 2 (fun rank ->
        let tp = Runtime.transport_of_rank world rank in
        match p.backend with
        | `Portals -> Mpi.create_portals tp ~ranks:world.Runtime.ranks ~rank ()
        | `Gm -> Mpi.create_gm tp ~ranks:world.Runtime.ranks ~rank ())
  in
  let worker = 1 in
  (* The measured quantities live in the worker's shard registry
     alongside the fabric's own instruments, so one merged snapshot
     carries the whole run. *)
  let worker_registry = Scheduler.metrics (Runtime.sched_of_rank world worker) in
  let wait_stats = Metrics.summary worker_registry "fig.wait_us" in
  let work_stats = Metrics.summary worker_registry "fig.work_us" in
  Runtime.spawn_ranks world (fun ~rank ->
      let ep = endpoints.(rank) in
      let peer = 1 - rank in
      (* All in-fiber clock reads go to this rank's own shard. *)
      let sched = Runtime.sched_of_rank world rank in
      let cpu = Runtime.host_cpu_of_rank world rank in
      (* Like an MPI benchmark, each rank allocates its buffers once and
         reuses them every iteration. *)
      let recv_bufs = Array.init p.batch (fun _ -> Bytes.create p.message_size) in
      let send_bufs = Array.init p.batch (fun _ -> Bytes.create p.message_size) in
      for _iter = 1 to p.iterations do
        (* pre-post several non-blocking receives *)
        let recvs =
          List.init p.batch (fun i ->
              Mpi.irecv ep ~source:peer ~tag:i recv_bufs.(i))
        in
        (* barrier *)
        Mpi.barrier ep;
        (* post a batch of sends *)
        let sends =
          List.init p.batch (fun i -> Mpi.isend ep ~dst:peer ~tag:i send_bufs.(i))
        in
        (* work (fixed loop iterations) — only the working node *)
        if rank = worker && Time_ns.compare p.work Time_ns.zero > 0 then begin
          let started = Scheduler.now sched in
          if p.tests_during_work > 0 then begin
            let slices = p.tests_during_work + 1 in
            let slice = Time_ns.ns (p.work / slices) in
            for s = 1 to slices do
              Cpu.compute cpu slice;
              if s < slices then Mpi.progress ep
            done
          end
          else Cpu.compute cpu p.work;
          Metrics.observe work_stats
            (Time_ns.to_us (Time_ns.sub (Scheduler.now sched) started))
        end;
        (* time A; wait for the batch; time B *)
        let time_a = Scheduler.now sched in
        ignore (Mpi.waitall ep (sends @ recvs));
        let time_b = Scheduler.now sched in
        if rank = worker then
          Metrics.observe wait_stats (Time_ns.to_us (Time_ns.sub time_b time_a))
      done;
      Mpi.barrier ep;
      Mpi.finalize ep);
  Runtime.run world;
  let metrics = Runtime.metrics_snapshot world in
  let summary_of name =
    match Metrics.Snapshot.find metrics name with
    | Some (Metrics.Snapshot.Summary { mean; max; _ }) -> (mean, max)
    | _ -> (0., 0.)
  in
  let mean_wait, max_wait = summary_of "fig.wait_us" in
  let mean_work_elapsed, _ = summary_of "fig.work_us" in
  {
    mean_wait;
    max_wait;
    mean_work_elapsed;
    metrics;
    spans = Runtime.trace_spans world;
  }
