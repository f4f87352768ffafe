open Sim_engine

(* The cross-stack benchmark matrix: {portals, gm, rtscts, ibverbs} x
   {latency, bandwidth, overlap, loss-goodput, congestion-goodput},
   every cell the same MPI-level workload built over a different stack
   on the one MPI engine (Mpi_core). This is the repo's summary
   artifact: the paper's Figure 6 argument (who progresses without the
   application), Liu et al.'s fast-path numbers and the
   degraded-fabric behaviour, all in one grid. *)

type cell = {
  transport : string;
  axis : string;
  value : float;
  unit_ : string;
  sim_time_us : float; (* simulated span the measurement covered *)
}

type t = { cells : cell list }

let axis_names =
  [ "latency"; "bandwidth"; "overlap"; "loss-goodput"; "congestion-goodput" ]

let transport_names = Runtime.Stack.names

(* --- workload parameters (full / --quick) ------------------------------ *)

type params = {
  lat_iters : int;
  lat_size : int;
  bw_msgs : int;
  bw_size : int;
  ov_size : int;
  ov_work_us : float;
  loss_msgs : int;
  loss_size : int;
  loss_p : float;
  cg_nodes : int;
  cg_msgs : int; (* per (src, dst) pair *)
  cg_size : int;
}

let full_params =
  {
    lat_iters = 60;
    lat_size = 64;
    bw_msgs = 48;
    bw_size = 262_144;
    ov_size = 262_144;
    ov_work_us = 2_000.;
    loss_msgs = 200;
    loss_size = 4096;
    loss_p = 0.02;
    cg_nodes = 8;
    cg_msgs = 4;
    cg_size = 4096;
  }

let quick_params =
  {
    lat_iters = 10;
    lat_size = 64;
    bw_msgs = 8;
    bw_size = 65_536;
    ov_size = 65_536;
    ov_work_us = 500.;
    loss_msgs = 50;
    loss_size = 4096;
    loss_p = 0.02;
    cg_nodes = 4;
    cg_msgs = 2;
    cg_size = 4096;
  }

(* --- the five workloads ------------------------------------------------ *)

(* Small-message ping-pong; mean round trip in us. *)
let run_latency ~scenario ~p stack =
  let rtts = ref [] in
  let world =
    Runtime.create_world ~scenario ~transport:stack.Runtime.Stack.kind ~nodes:2 ()
  in
  ignore
    (Runtime.Stack.launch_on world stack (fun ep ->
         let sched = Runtime.sched_of_rank world (Mpi.rank ep) in
         let buf = Bytes.create p.lat_size in
         let msg = Bytes.create p.lat_size in
         if Mpi.rank ep = 0 then
           for i = 0 to p.lat_iters do
             (* One warmup round trip, then the measured ones. *)
             let start = Scheduler.now sched in
             Mpi.send ep ~dst:1 ~tag:1 msg;
             ignore (Mpi.recv ep ~source:1 ~tag:2 buf);
             if i > 0 then
               rtts :=
                 Time_ns.to_us (Time_ns.sub (Scheduler.now sched) start)
                 :: !rtts
           done
         else
           for _ = 0 to p.lat_iters do
             ignore (Mpi.recv ep ~source:0 ~tag:1 buf);
             Mpi.send ep ~dst:0 ~tag:2 msg
           done));
  let n = List.length !rtts in
  let mean = if n = 0 then 0. else List.fold_left ( +. ) 0. !rtts /. float_of_int n in
  (mean, "us-rtt", Time_ns.to_us (Runtime.now world))

(* One-way stream; payload MB/s over the span from first send posted to
   last receive complete. *)
let run_bandwidth ~scenario ~p stack =
  let t_start = ref Time_ns.zero and t_end = ref Time_ns.zero in
  let world =
    Runtime.create_world ~scenario ~transport:stack.Runtime.Stack.kind ~nodes:2 ()
  in
  ignore
    (Runtime.Stack.launch_on world stack (fun ep ->
         let sched = Runtime.sched_of_rank world (Mpi.rank ep) in
         if Mpi.rank ep = 0 then begin
           let msg = Bytes.create p.bw_size in
           t_start := Scheduler.now sched;
           let reqs =
             List.init p.bw_msgs (fun _ -> Mpi.isend ep ~dst:1 ~tag:1 msg)
           in
           ignore (Mpi.waitall ep reqs)
         end
         else begin
           let bufs = List.init p.bw_msgs (fun _ -> Bytes.create p.bw_size) in
           let reqs =
             List.map (fun b -> Mpi.irecv ep ~source:0 ~tag:1 b) bufs
           in
           ignore (Mpi.waitall ep reqs);
           t_end := Scheduler.now sched
         end));
  let span_us = Time_ns.to_us (Time_ns.sub !t_end !t_start) in
  let mbps =
    if span_us <= 0. then 0.
    else float_of_int (p.bw_msgs * p.bw_size) /. span_us
  in
  (mbps, "MB/s", Time_ns.to_us (Runtime.now world))

(* Communication/computation overlap availability, fig6-style: elapse a
   large transfer alone (t_comm), then the same transfer with [work] of
   application compute between post and wait (t_both). Overlap% =
   (t_comm + work - t_both) / min(t_comm, work) — 100 means the whole
   cheaper leg hid behind the other, 0 means full serialisation. *)
let run_overlap ~scenario ~p stack =
  let elapse ~work_us =
    let t0 = ref Time_ns.zero and t1 = ref Time_ns.zero in
    let world =
      Runtime.create_world ~scenario ~transport:stack.Runtime.Stack.kind
        ~nodes:2 ()
    in
    ignore
      (Runtime.Stack.launch_on world stack (fun ep ->
           let sched = Runtime.sched_of_rank world (Mpi.rank ep) in
           if Mpi.rank ep = 0 then begin
             let msg = Bytes.create p.ov_size in
             t0 := Scheduler.now sched;
             let r = Mpi.isend ep ~dst:1 ~tag:1 msg in
             if work_us > 0. then Scheduler.delay sched (Time_ns.us work_us);
             ignore (Mpi.wait ep r);
             (* The transfer is done only when the receiver has it; the
                reply bounds the far end. *)
             ignore (Mpi.recv ep ~source:1 ~tag:2 (Bytes.create 1));
             t1 := Scheduler.now sched
           end
           else begin
             let buf = Bytes.create p.ov_size in
             ignore (Mpi.recv ep ~source:0 ~tag:1 buf);
             Mpi.send ep ~dst:0 ~tag:2 (Bytes.create 1)
           end));
    Time_ns.to_us (Time_ns.sub !t1 !t0)
  in
  let t_comm = elapse ~work_us:0. in
  let t_both = elapse ~work_us:p.ov_work_us in
  let hidden = t_comm +. p.ov_work_us -. t_both in
  let denom = Float.min t_comm p.ov_work_us in
  let pct = if denom <= 0. then 0. else 100. *. hidden /. denom in
  let pct = Float.max 0. (Float.min 100. pct) in
  (pct, "%overlap", t_comm +. t_both)

(* Goodput of a fixed eager stream over a Bernoulli-lossy fabric with
   the reliability shim underneath. The cell scripts its own loss, so
   its world is built from the default scenario and takes only the
   scenario's seed: the run's faults, topology and domains do not reach
   it, and its frames stay unchecksummed. *)
let run_loss_goodput ~scenario ~p stack =
  let seed = scenario.Runtime.Scenario.seed in
  let world =
    Runtime.create_world ~transport:stack.Runtime.Stack.kind ~seed ~nodes:2 ()
  in
  let sched = world.Runtime.sched and fabric = world.Runtime.fabric in
  Simnet.Fabric.set_fault_model fabric
    (Some (Simnet.Fault.bernoulli ~seed ~p:p.loss_p ()));
  ignore (Reliability.attach fabric);
  let t_start = ref Time_ns.zero and t_end = ref Time_ns.zero in
  ignore
    (Runtime.Stack.launch_on world stack (fun ep ->
         if Mpi.rank ep = 0 then begin
           let msg = Bytes.create p.loss_size in
           t_start := Scheduler.now sched;
           for _ = 1 to p.loss_msgs do
             Mpi.send ep ~dst:1 ~tag:1 msg
           done
         end
         else begin
           let buf = Bytes.create p.loss_size in
           for _ = 1 to p.loss_msgs do
             ignore (Mpi.recv ep ~source:0 ~tag:1 buf)
           done;
           t_end := Scheduler.now sched
         end));
  let span_us = Time_ns.to_us (Time_ns.sub !t_end !t_start) in
  let mbps =
    if span_us <= 0. then 0.
    else float_of_int (p.loss_msgs * p.loss_size) /. span_us
  in
  (mbps, "MB/s", Time_ns.to_us (Scheduler.now sched))

(* Aggregate all-to-all goodput on a 2D-torus interconnect: every rank
   streams to every peer, so messages contend on shared hop links. *)
let run_congestion_goodput ~scenario ~p stack =
  let nodes = p.cg_nodes in
  let topology = Simnet.Topology.of_spec ~nodes "torus2d" in
  let world =
    Runtime.create_world ~scenario ~transport:stack.Runtime.Stack.kind
      ~topology ~nodes ()
  in
  (* One finish slot per rank: ranks on different shards run on
     different domains, so none writes another's. *)
  let t_end = Array.make (Runtime.job_size world) Time_ns.zero in
  ignore
    (Runtime.Stack.launch_on world stack (fun ep ->
         let me = Mpi.rank ep and n = Mpi.size ep in
         let recvs = ref [] in
         for peer = 0 to n - 1 do
           if peer <> me then
             for _ = 1 to p.cg_msgs do
               recvs :=
                 Mpi.irecv ep ~source:peer ~tag:1 (Bytes.create p.cg_size)
                 :: !recvs
             done
         done;
         let sends = ref [] in
         let msg = Bytes.create p.cg_size in
         for peer = 0 to n - 1 do
           if peer <> me then
             for _ = 1 to p.cg_msgs do
               sends := Mpi.isend ep ~dst:peer ~tag:1 msg :: !sends
             done
         done;
         ignore (Mpi.waitall ep !sends);
         ignore (Mpi.waitall ep !recvs);
         t_end.(me) <- Scheduler.now (Runtime.sched_of_rank world me)));
  let span_us = Time_ns.to_us (Array.fold_left Time_ns.max Time_ns.zero t_end) in
  let total_bytes = nodes * (nodes - 1) * p.cg_msgs * p.cg_size in
  let mbps =
    if span_us <= 0. then 0. else float_of_int total_bytes /. span_us
  in
  (mbps, "MB/s-agg", Time_ns.to_us (Runtime.now world))

let run_axis ~scenario ~p stack axis =
  let value, unit_, sim_time_us =
    match axis with
    | "latency" -> run_latency ~scenario ~p stack
    | "bandwidth" -> run_bandwidth ~scenario ~p stack
    | "overlap" -> run_overlap ~scenario ~p stack
    | "loss-goodput" -> run_loss_goodput ~scenario ~p stack
    | "congestion-goodput" -> run_congestion_goodput ~scenario ~p stack
    | other -> invalid_arg (Printf.sprintf "Matrix: unknown axis %S" other)
  in
  { transport = stack.Runtime.Stack.name; axis; value; unit_; sim_time_us }

let resolve_stacks transports =
  List.map Runtime.Stack.find_exn transports

let run ?(scenario = Runtime.Scenario.default) ?(transports = transport_names)
    ?(axes = axis_names) ?(quick = false) () =
  let p = if quick then quick_params else full_params in
  let stacks = resolve_stacks transports in
  List.iter
    (fun a ->
      if not (List.mem a axis_names) then
        invalid_arg
          (Printf.sprintf "Matrix: unknown axis %S (valid: %s)" a
             (String.concat ", " axis_names)))
    axes;
  let cells =
    List.concat_map
      (fun stack -> List.map (fun axis -> run_axis ~scenario ~p stack axis) axes)
      stacks
  in
  { cells }

(* --- output ------------------------------------------------------------ *)

let find_cell t ~transport ~axis =
  List.find_opt (fun c -> c.transport = transport && c.axis = axis) t.cells

let pp ppf t =
  let transports =
    List.filter
      (fun name -> List.exists (fun c -> c.transport = name) t.cells)
      transport_names
  in
  let axes =
    List.filter (fun a -> List.exists (fun c -> c.axis = a) t.cells) axis_names
  in
  Format.fprintf ppf "benchmark matrix (value per transport x axis)@.";
  Format.fprintf ppf "%-10s" "";
  List.iter (fun a -> Format.fprintf ppf " %-20s" a) axes;
  Format.fprintf ppf "@.";
  List.iter
    (fun name ->
      Format.fprintf ppf "%-10s" name;
      List.iter
        (fun axis ->
          match find_cell t ~transport:name ~axis with
          | Some c ->
            Format.fprintf ppf " %-20s"
              (Printf.sprintf "%.1f %s" c.value c.unit_)
          | None -> Format.fprintf ppf " %-20s" "-")
        axes;
      Format.fprintf ppf "@.")
    transports

(* --- perf records ------------------------------------------------------ *)

(* One portals-bench/2 record per cell, id MX.<transport>.<axis>; the
   committed bench/baseline.json pins every cell's sim-side fields like
   any other experiment's. *)
let record_id ~transport ~axis = Printf.sprintf "MX.%s.%s" transport axis

let perf_records ?(scenario = Runtime.Scenario.default)
    ?(transports = transport_names) ?(axes = axis_names) ?(quick = false) () =
  let p = if quick then quick_params else full_params in
  let stacks = resolve_stacks transports in
  List.concat_map
    (fun stack ->
      List.map
        (fun axis ->
          Perf.meter
            ~id:(record_id ~transport:stack.Runtime.Stack.name ~axis)
            (fun () -> run_axis ~scenario ~p stack axis))
        axes)
    stacks
