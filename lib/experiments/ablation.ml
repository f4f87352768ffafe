open Sim_engine

type threshold_row = { message_size : int; eager : bool; wait_ms : float }

let run_threshold ?(sizes = [ 16_384; 32_768; 65_536; 98_304; 131_072 ]) () =
  let threshold = Mpi.Mpi_portals.default_config.Mpi.Mpi_portals.eager_threshold in
  List.map
    (fun message_size ->
      let result =
        Fig5.run
          {
            Fig5.default_params with
            Fig5.backend = `Portals;
            transport = Runtime.Offload;
            message_size;
            batch = 4;
            iterations = 3;
            work = Time_ns.ms 20.0;
          }
      in
      {
        message_size;
        eager = message_size <= threshold;
        wait_ms = result.Fig5.mean_wait /. 1000.;
      })
    sizes

let pp_threshold ppf rows =
  Format.fprintf ppf
    "Eager-threshold ablation: remaining wait after 20ms work vs size:@.";
  Format.fprintf ppf "%-12s %-10s %-12s@." "size(B)" "protocol" "wait(ms)";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-12d %-10s %-12.3f@." r.message_size
        (if r.eager then "eager" else "rendezvous")
        r.wait_ms)
    rows

type interrupt_row = {
  per_packet_interrupt : bool;
  work_elapsed_ms : float;
  host_stolen_ms : float;
}

module MP = Mpi.Mpi_portals

let run_interrupt_case per_packet =
  let sched = Scheduler.create () in
  let fabric =
    Simnet.Fabric.create sched ~profile:Simnet.Profile.myrinet_kernel ~nodes:2
  in
  let rtscts =
    Rtscts.create
      ~config:{ Rtscts.eager_threshold = 4096; per_packet_interrupt = per_packet }
      fabric
  in
  let tp = Rtscts.transport rtscts in
  let ranks = Array.init 2 (fun nid -> Simnet.Proc_id.make ~nid ~pid:0) in
  let eps = Array.init 2 (fun rank -> MP.create tp ~ranks ~rank ()) in
  let work_elapsed = ref 0. in
  let batch = 10 and size = 50_000 in
  Scheduler.spawn sched (fun () ->
      let sends =
        List.init batch (fun i -> Mpi.isend eps.(0) ~dst:1 ~tag:i (Bytes.create size))
      in
      List.iter (fun r -> ignore (Mpi.wait eps.(0) r)) sends);
  Scheduler.spawn sched (fun () ->
      let recvs =
        List.init batch (fun i ->
            Mpi.irecv eps.(1) ~source:0 ~tag:i (Bytes.create size))
      in
      let cpu = Simnet.Node.host_cpu (Simnet.Fabric.node fabric 1) in
      let started = Scheduler.now sched in
      Cpu.compute cpu (Time_ns.ms 20.0);
      work_elapsed := Time_ns.to_ms (Time_ns.sub (Scheduler.now sched) started);
      List.iter (fun r -> ignore (Mpi.wait eps.(1) r)) recvs);
  Scheduler.run sched;
  let cpu = Simnet.Node.host_cpu (Simnet.Fabric.node fabric 1) in
  {
    per_packet_interrupt = per_packet;
    work_elapsed_ms = !work_elapsed;
    host_stolen_ms = Time_ns.to_ms (Cpu.stolen_total cpu);
  }

let run_interrupts () = [ run_interrupt_case true; run_interrupt_case false ]

let pp_interrupts ppf rows =
  Format.fprintf ppf
    "Interrupt ablation: 20ms nominal work while 10x50KB arrive (kernel path):@.";
  Format.fprintf ppf "%-22s %-18s %-18s@." "per-packet-interrupt"
    "work-elapsed(ms)" "host-stolen(ms)";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-22b %-18.3f %-18.3f@." r.per_packet_interrupt
        r.work_elapsed_ms r.host_stolen_ms)
    rows
