(* Command-line driver for the reproduction: run any experiment (table or
   figure) on demand with tweakable parameters.

     dune exec bin/portals_repro.exe -- --help
     dune exec bin/portals_repro.exe -- fig6 --sizes 50000 --work 0,10,20
     dune exec bin/portals_repro.exe -- latency --size 1024 *)

open Cmdliner

let ppf = Format.std_formatter

(* --- shared arguments -------------------------------------------------- *)

let transport_conv =
  let kinds =
    [
      ("offload", Runtime.Offload);
      ("mcp", Runtime.Offload);
      ("kernel", Runtime.Kernel_interrupt);
      ("rtscts", Runtime.Rtscts);
    ]
  in
  let parse s =
    match List.assoc_opt s kinds with
    | Some k -> Ok k
    | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown transport %S (valid: offload|kernel|rtscts)"
             s))
  in
  let print fmt t = Format.fprintf fmt "%s" (Runtime.transport_kind_name t) in
  Arg.conv (parse, print)

let backend_conv =
  let parse = function
    | "portals" -> Ok `Portals
    | "gm" -> Ok `Gm
    | s -> Error (`Msg (Printf.sprintf "unknown backend %S" s))
  in
  let print fmt = function
    | `Portals -> Format.fprintf fmt "portals"
    | `Gm -> Format.fprintf fmt "gm"
  in
  Arg.conv (parse, print)

let floats_conv = Arg.list ~sep:',' Arg.float
let ints_conv = Arg.list ~sep:',' Arg.int

(* Comma-separated name lists ("--transports gm,ibverbs") validated
   against a closed set: every name checked, with the set spelled out in
   the error; duplicates dropped (first wins), order kept. "" and "all"
   select the whole set. *)
let names_conv ~what ~valid =
  let pick acc x =
    match acc with
    | Error _ -> acc
    | Ok _ when not (List.mem x valid) ->
      Error
        (`Msg
          (Printf.sprintf "unknown %s %S (valid: %s)" what x
             (String.concat ", " valid)))
    | Ok l -> Ok (if List.mem x l then l else x :: l)
  in
  let parse = function
    | "" | "all" -> Ok valid
    | s -> (
      match
        String.split_on_char ',' s |> List.map String.trim
        |> List.filter (fun x -> x <> "")
      with
      | [] -> Error (`Msg (Printf.sprintf "empty %s list" what))
      | xs -> Result.map List.rev (List.fold_left pick (Ok []) xs))
  in
  let print fmt l = Format.fprintf fmt "%s" (String.concat "," l) in
  Arg.conv (parse, print)

(* Every command takes [--loss] / [--seed] / [--fault] / [--crash] and
   the other scenario flags: together they make one Runtime.Scenario.t
   that the command hands to its experiment, which builds every world
   from it, so any experiment replays deterministically on a degraded
   fabric — lossy/bursty/flapping wires, scheduled node crash-restarts —
   with the reliability protocol shimmed underneath. *)
let scenario_term =
  let loss =
    Arg.(
      value
      & opt (some float) None
      & info [ "loss" ] ~docv:"RATE"
          ~doc:
            "Run on a lossy fabric: drop each wire message with \
             probability $(docv) (in [0, 1)) and shim the reliability \
             protocol underneath the transport.")
  in
  let seed =
    Arg.(
      value
      & opt (some int) None
      & info [ "seed" ] ~docv:"N"
          ~doc:
            "Scheduler, fault-model and campaign PRNG seed, for \
             deterministic replay (default 0).")
  in
  let fault =
    Arg.(
      value
      & opt (some string) None
      & info [ "fault" ] ~docv:"MODEL"
          ~doc:
            "Run every world under fault model $(docv): \
             $(b,bernoulli:P), $(b,gilbert:PE:PX), $(b,duplicate:P), \
             $(b,corrupt:P) (seeded bit-flips/truncations), \
             $(b,delay:MEAN_US[:JITTER_US]) (extra seeded latency), \
             $(b,flap:PERIOD_US:DOWN_US), \
             $(b,partition:A.B|C.D@CUT_US[:HEAL_US]) (scheduled \
             group cut; $(b,>) instead of $(b,|) cuts one way only) or \
             $(b,none); combine with $(b,+) (a drop by any component \
             wins, corruption over delay). Implies the reliability shim, \
             like $(b,--loss), and switches on CRC-32C frame \
             checksums.")
  in
  let crash =
    Arg.(
      value
      & opt (some string) None
      & info [ "crash" ] ~docv:"SPEC"
          ~doc:
            "Crash-stop nodes mid-run: $(docv) is a comma-separated list \
             of $(b,NID@DOWN_US) (crash forever) or \
             $(b,NID@DOWN_US:UP_US) (restart with a fresh incarnation \
             at UP_US). Applied to every world the experiment builds.")
  in
  let topology =
    Arg.(
      value
      & opt (some string) None
      & info [ "topology" ] ~docv:"NAME[:DIMS]"
          ~doc:
            "Interconnect topology for every world the experiment \
             builds: $(b,full) (default; private wires, the seed \
             model), $(b,ring), $(b,torus2d[:AxB]), \
             $(b,torus3d[:AxBxC]) or $(b,fattree[:K]). Without \
             explicit dimensions the shape is fitted to each world's \
             node count; with them, the product must match. Messages \
             then hop across shared links (dimension-order or up/down \
             routed) and contend.")
  in
  let queue_limit =
    Arg.(
      value
      & opt (some int) None
      & info [ "queue-limit" ] ~docv:"N"
          ~doc:
            "Bound each shared hop link's queue at $(docv) outstanding \
             transmissions; overload beyond it is congestion-dropped \
             (and re-sent by the reliability shim when one is \
             attached). Only meaningful with a non-full $(b,--topology).")
  in
  let domains =
    Arg.(
      value
      & opt (some int) None
      & info [ "domains" ] ~docv:"N"
          ~doc:
            "Shard every world the experiment builds across $(docv) \
             OCaml domains (default 1 = the sequential reference \
             scheduler). Nodes are split into contiguous blocks, each \
             shard runs its own event heap, and a conservative window \
             barrier synchronizes them; same seed gives the same \
             simulated history at any $(docv). Worlds with fewer nodes \
             than $(docv) use one shard per node.")
  in
  let collectives =
    Arg.(
      value
      & opt (some string) None
      & info [ "collectives" ] ~docv:"ENGINE"
          ~doc:
            "Collective engine for every workload the experiment builds: \
             $(b,host) (default; host-driven trees, every hop a host \
             fiber) or $(b,nic) (NIC-resident triggered chains — tree \
             hops fire inside the interface with no host involvement). \
             Results are byte-identical; only busy-host timing differs.")
  in
  let perf =
    Arg.(
      value & flag
      & info [ "perf" ]
          ~doc:
            "After the experiment, print the run's totals: scheduler \
             events processed, fibers spawned, simulated time, wall time \
             and sim-events/sec.")
  in
  let set loss seed fault crashes topology queue_limit domains collectives perf =
    if perf then begin
      let t0 = Unix.gettimeofday () in
      at_exit (fun () ->
          let totals = Sim_engine.Scheduler.global_totals () in
          let wall = Unix.gettimeofday () -. t0 in
          let events = totals.Sim_engine.Scheduler.t_events in
          Format.printf
            "perf: %d sim-events, %d fibers, %.1f ms simulated | %.2f s \
             wall, %.0f sim-events/sec@."
            events totals.Sim_engine.Scheduler.t_fibers
            (Sim_engine.Time_ns.to_us totals.Sim_engine.Scheduler.t_sim_time
            /. 1e3)
            wall
            (if wall > 0. then float_of_int events /. wall else 0.))
    end;
    match
      Runtime.Scenario.make ?loss ?seed ?fault ?crashes ?topology ?queue_limit
        ?domains ?collectives ()
    with
    | scenario -> `Ok scenario
    | exception Invalid_argument msg -> `Error (false, msg)
  in
  Term.(
    ret
      (const set $ loss $ seed $ fault $ crash $ topology $ queue_limit
     $ domains $ collectives $ perf))

(* --- observability flags ------------------------------------------------ *)

let report_format_conv =
  let parse s =
    match Sim_engine.Report.format_of_string s with
    | Some f -> Ok f
    | None -> Error (`Msg (Printf.sprintf "unknown metrics format %S (table|json)" s))
  in
  let print fmt = function
    | Sim_engine.Report.Table -> Format.fprintf fmt "table"
    | Sim_engine.Report.Json -> Format.fprintf fmt "json"
  in
  Arg.conv (parse, print)

let metrics_arg =
  Arg.(
    value
    & opt ~vopt:(Some Sim_engine.Report.Table) (some report_format_conv) None
    & info [ "metrics" ] ~docv:"FORMAT"
        ~doc:
          "Print the run's metrics registry snapshot after the experiment \
           output; FORMAT is $(b,table) (default) or $(b,json).")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Enable structured tracing and write the spans to FILE as Chrome \
           trace_event JSON (open in chrome://tracing or Perfetto).")

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let emit_observability ~metrics ~trace_out ~snapshot ~traces =
  (match metrics with
  | None -> ()
  | Some format ->
    Sim_engine.Report.print ~format ppf snapshot;
    Format.pp_print_flush ppf ());
  match trace_out with
  | None -> ()
  | Some path -> (
    match write_file path (Sim_engine.Trace.Chrome.to_string traces) with
    | () -> Format.fprintf ppf "trace written to %s@." path
    | exception Sys_error msg ->
      Format.eprintf "portals_repro: cannot write trace: %s@." msg;
      exit 1)

(* --- commands ----------------------------------------------------------- *)

let tables_cmd =
  let run _scenario = Experiments.Tables.pp ppf (Experiments.Tables.run ()) in
  Cmd.v (Cmd.info "tables" ~doc:"Regenerate Tables 1-6 (wire formats)")
    Term.(const run $ scenario_term)

let protocols_cmd =
  let run scenario transport =
    Experiments.Protocols.pp ppf
      (Experiments.Protocols.run_put ~scenario ~transport ());
    Experiments.Protocols.pp ppf
      (Experiments.Protocols.run_get ~scenario ~transport ())
  in
  let transport =
    Arg.(value & opt transport_conv Runtime.Offload
         & info [ "transport" ] ~doc:"offload | kernel | rtscts")
  in
  Cmd.v
    (Cmd.info "protocols" ~doc:"Regenerate Figures 1-2 (put/get timelines)")
    Term.(const run $ scenario_term $ transport)

let translation_cmd =
  let run scenario depths =
    Experiments.Translation.pp ppf
      (Experiments.Translation.run ~scenario ~depths ())
  in
  let depths =
    Arg.(value & opt ints_conv Experiments.Translation.default_depths
         & info [ "depths" ] ~doc:"Match-list depths to sweep")
  in
  Cmd.v
    (Cmd.info "translation" ~doc:"Regenerate Figures 3-4 (address translation)")
    Term.(const run $ scenario_term $ depths)

let latency_cmd =
  let run scenario size iterations =
    Experiments.Latency.pp ppf
      (Experiments.Latency.run ~scenario ~message_size:size ~iterations ())
  in
  let size =
    Arg.(value & opt int 0 & info [ "size" ] ~doc:"Message size in bytes")
  in
  let iterations =
    Arg.(value & opt int 50 & info [ "iterations" ] ~doc:"Ping-pong rounds")
  in
  Cmd.v (Cmd.info "latency" ~doc:"Ping-pong latency across placements (L1)")
    Term.(const run $ scenario_term $ size $ iterations)

let bandwidth_cmd =
  let run scenario sizes count =
    Experiments.Bandwidth.pp ppf
      (Experiments.Bandwidth.run ~scenario ~sizes ~count ())
  in
  let sizes =
    Arg.(value & opt ints_conv Experiments.Bandwidth.default_sizes
         & info [ "sizes" ] ~doc:"Message sizes in bytes")
  in
  let count =
    Arg.(value & opt int 16 & info [ "count" ] ~doc:"Messages per size")
  in
  Cmd.v (Cmd.info "bandwidth" ~doc:"Streaming bandwidth vs size (B1)")
    Term.(const run $ scenario_term $ sizes $ count)

let fig5_cmd =
  let run scenario backend transport size batch work tests metrics trace_out =
    let label = match backend with `Portals -> "portals" | `Gm -> "gm" in
    let r =
      Experiments.Fig5.run ~scenario
        ~capture_trace:(trace_out <> None)
        {
          Experiments.Fig5.backend;
          transport;
          message_size = size;
          batch;
          iterations = 4;
          work = Sim_engine.Time_ns.ms work;
          tests_during_work = tests;
        }
    in
    Format.fprintf ppf
      "fig5: backend=%s work=%.1fms -> mean wait %.3f ms (max %.3f), work took %.3f ms@."
      label work
      (r.Experiments.Fig5.mean_wait /. 1000.)
      (r.Experiments.Fig5.max_wait /. 1000.)
      (r.Experiments.Fig5.mean_work_elapsed /. 1000.);
    emit_observability ~metrics ~trace_out ~snapshot:r.Experiments.Fig5.metrics
      ~traces:[ (label, r.Experiments.Fig5.spans) ]
  in
  let backend =
    Arg.(value & opt backend_conv `Portals & info [ "backend" ] ~doc:"portals | gm")
  in
  let transport =
    Arg.(value & opt transport_conv Runtime.Rtscts
         & info [ "transport" ] ~doc:"offload | kernel | rtscts")
  in
  let size = Arg.(value & opt int 50_000 & info [ "size" ] ~doc:"Message size") in
  let batch = Arg.(value & opt int 10 & info [ "batch" ] ~doc:"Messages per batch") in
  let work = Arg.(value & opt float 10.0 & info [ "work" ] ~doc:"Work interval, ms") in
  let tests =
    Arg.(value & opt int 0 & info [ "tests" ] ~doc:"MPI test calls during work")
  in
  Cmd.v (Cmd.info "fig5" ~doc:"One application-bypass measurement (Table 5)")
    Term.(
      const run $ scenario_term $ backend $ transport $ size $ batch $ work $ tests
      $ metrics_arg $ trace_out_arg)

let run_fig6 ~scenario ?message_size ?work_ms ?iterations ~metrics ~trace_out
    () =
  let t =
    Experiments.Fig6.run ~scenario ?message_size ?work_ms ?iterations
      ~capture_trace:(trace_out <> None) ()
  in
  Experiments.Fig6.pp ppf t;
  emit_observability ~metrics ~trace_out ~snapshot:t.Experiments.Fig6.metrics
    ~traces:t.Experiments.Fig6.traces

let fig6_cmd =
  let run scenario size work_ms iterations metrics trace_out =
    run_fig6 ~scenario ~message_size:size ~work_ms ~iterations ~metrics
      ~trace_out ()
  in
  let size = Arg.(value & opt int 50_000 & info [ "size" ] ~doc:"Message size") in
  let work =
    Arg.(value & opt floats_conv Experiments.Fig6.work_intervals_ms
         & info [ "work" ] ~doc:"Work intervals (ms), comma separated")
  in
  let iterations =
    Arg.(value & opt int 3 & info [ "iterations" ] ~doc:"Averaging repetitions")
  in
  Cmd.v (Cmd.info "fig6" ~doc:"Regenerate Figure 6 (application bypass)")
    Term.(
      const run $ scenario_term $ size $ work $ iterations $ metrics_arg
      $ trace_out_arg)

let memory_cmd =
  let run scenario jobs =
    Experiments.Scaling.pp_memory ppf
      (Experiments.Scaling.run_memory ~scenario ~job_sizes:jobs ())
  in
  let jobs =
    Arg.(value & opt ints_conv [ 4; 8; 16; 32; 64 ]
         & info [ "jobs" ] ~doc:"Job sizes to sweep")
  in
  Cmd.v (Cmd.info "memory" ~doc:"Unexpected-buffer memory vs job size (S1)")
    Term.(const run $ scenario_term $ jobs)

let collectives_cmd =
  let run scenario nodes =
    Experiments.Scaling.pp_collectives ppf
      (Experiments.Scaling.run_collectives ~scenario ~node_counts:nodes ())
  in
  let nodes =
    Arg.(value & opt ints_conv [ 2; 4; 8; 16; 32; 64; 128; 256 ]
         & info [ "nodes" ] ~doc:"Node counts to sweep")
  in
  Cmd.v (Cmd.info "collectives" ~doc:"Collective scaling (S2)")
    Term.(const run $ scenario_term $ nodes)

let drops_cmd =
  let run scenario =
    Experiments.Drops.pp ppf (Experiments.Drops.run ~scenario ())
  in
  Cmd.v (Cmd.info "drops" ~doc:"Trigger and count every drop reason (A1)")
    Term.(const run $ scenario_term)

let ablation_cmd =
  let run _scenario =
    Experiments.Ablation.pp_threshold ppf (Experiments.Ablation.run_threshold ());
    Experiments.Ablation.pp_interrupts ppf (Experiments.Ablation.run_interrupts ())
  in
  Cmd.v (Cmd.info "ablation" ~doc:"Design-choice ablations (A2)")
    Term.(const run $ scenario_term)

let run_rel_loss_sweep ?losses ?seeds ?msgs ?size ~metrics () =
  let registry = Sim_engine.Metrics.create () in
  let rows =
    Experiments.Rel_loss_sweep.run ?losses ?seeds ?msgs ?size ~registry ()
  in
  Experiments.Rel_loss_sweep.pp ppf rows;
  match metrics with
  | None -> ()
  | Some format ->
    Sim_engine.Report.print ~format ppf (Sim_engine.Metrics.snapshot registry);
    Format.pp_print_flush ppf ()

let rel_loss_sweep_cmd =
  let run _scenario losses seeds msgs size metrics =
    run_rel_loss_sweep ~losses ~seeds ~msgs ~size ~metrics ()
  in
  let losses =
    Arg.(value & opt floats_conv Experiments.Rel_loss_sweep.default_losses
         & info [ "losses" ] ~doc:"Wire loss rates to sweep")
  in
  let seeds =
    Arg.(value & opt ints_conv [ 1; 2; 3 ]
         & info [ "seeds" ] ~doc:"PRNG seeds averaged per loss rate")
  in
  let msgs =
    Arg.(value & opt int 200 & info [ "msgs" ] ~doc:"Messages per stream")
  in
  let size =
    Arg.(value & opt int 1024 & info [ "size" ] ~doc:"Message size in bytes")
  in
  Cmd.v
    (Cmd.info "rel-loss-sweep"
       ~doc:"Goodput/completion vs wire loss, reliable vs raw fabric (R1)")
    Term.(const run $ scenario_term $ losses $ seeds $ msgs $ size $ metrics_arg)

let crash_restart_cmd =
  let run scenario msgs size down_at up_at horizon =
    let d = Experiments.Crash_restart.default_config in
    let config =
      {
        d with
        Experiments.Crash_restart.msgs;
        size;
        down_at = Sim_engine.Time_ns.us down_at;
        up_at = Sim_engine.Time_ns.us up_at;
        horizon = Sim_engine.Time_ns.us horizon;
      }
    in
    Format.fprintf ppf "%a@." Experiments.Crash_restart.pp_config config;
    Experiments.Crash_restart.pp ppf
      (Experiments.Crash_restart.run ~scenario ~config ())
  in
  let d = Experiments.Crash_restart.default_config in
  let msgs =
    Arg.(value & opt int d.Experiments.Crash_restart.msgs
         & info [ "msgs" ] ~doc:"Messages streamed by the survivor")
  in
  let size =
    Arg.(value & opt int d.Experiments.Crash_restart.size
         & info [ "size" ] ~doc:"Message size in bytes")
  in
  let down_at =
    Arg.(value
         & opt float (Sim_engine.Time_ns.to_us d.Experiments.Crash_restart.down_at)
         & info [ "down-at" ] ~doc:"Victim crash time, us")
  in
  let up_at =
    Arg.(value
         & opt float (Sim_engine.Time_ns.to_us d.Experiments.Crash_restart.up_at)
         & info [ "up-at" ] ~doc:"Victim restart time, us")
  in
  let horizon =
    Arg.(value
         & opt float (Sim_engine.Time_ns.to_us d.Experiments.Crash_restart.horizon)
         & info [ "horizon" ] ~doc:"Simulation horizon, us")
  in
  Cmd.v
    (Cmd.info "crash-restart"
       ~doc:
         "Mid-run node crash + restart: recovery time and messages lost, \
          Portals vs GM (C1)")
    Term.(const run $ scenario_term $ msgs $ size $ down_at $ up_at $ horizon)

let run_congestion ?nodes ?topologies ?msgs_per_peer ?size ?queue_limit ?seed
    ~metrics () =
  let registry = Sim_engine.Metrics.create () in
  let rows =
    Experiments.Congestion.run ?nodes ?topologies ?msgs_per_peer ?size
      ?queue_limit ?seed ~registry ()
  in
  Experiments.Congestion.pp ppf rows;
  match metrics with
  | None -> ()
  | Some format ->
    Sim_engine.Report.print ~format ppf (Sim_engine.Metrics.snapshot registry);
    Format.pp_print_flush ppf ()

let congestion_cmd =
  let run scenario nodes topologies msgs size queue_limit metrics =
    run_congestion ~nodes ~topologies ~msgs_per_peer:msgs ~size ?queue_limit
      ~seed:scenario.Runtime.Scenario.seed ~metrics ()
  in
  let nodes =
    Arg.(value & opt int 16 & info [ "nodes" ] ~doc:"Nodes per world")
  in
  let topologies =
    Arg.(
      value
      & opt (list ~sep:',' string) Experiments.Congestion.default_topologies
      & info [ "topologies" ]
          ~doc:"Topology specs to sweep (comma separated; see --topology)")
  in
  let msgs =
    Arg.(value & opt int 8 & info [ "msgs" ] ~doc:"Messages per (src, peer) pair")
  in
  let size =
    Arg.(value & opt int 4096 & info [ "size" ] ~doc:"Message size in bytes")
  in
  let queue_limit =
    Arg.(
      value
      & opt (some int) None
      & info [ "limit" ] ~doc:"Hop-link queue limit (congestion drops beyond it)")
  in
  Cmd.v
    (Cmd.info "congestion"
       ~doc:
         "All-to-all vs nearest-neighbor goodput across interconnect \
          topologies (N1)")
    Term.(
      const run $ scenario_term $ nodes $ topologies $ msgs $ size $ queue_limit
      $ metrics_arg)

let run_matrix ~scenario ?(transports = Experiments.Matrix.transport_names)
    ?(axes = Experiments.Matrix.axis_names) ?(quick = false) ?json () =
  let t = Experiments.Matrix.run ~scenario ~transports ~axes ~quick () in
  Experiments.Matrix.pp ppf t;
  match json with
  | None -> ()
  | Some out ->
    let records =
      Experiments.Matrix.perf_records ~scenario ~transports ~axes ~quick ()
    in
    Experiments.Perf.write_json ~path:out records;
    Format.fprintf ppf "matrix: wrote %s@." out

let matrix_cmd =
  let run scenario transports axes quick json =
    run_matrix ~scenario ~transports ~axes ~quick ?json ()
  in
  let transports =
    Arg.(
      value
      & opt
          (names_conv ~what:"transport" ~valid:Experiments.Matrix.transport_names)
          Experiments.Matrix.transport_names
      & info [ "transports" ] ~docv:"LIST"
          ~doc:
            "Comma-separated stacks to run ($(b,portals), $(b,gm), \
             $(b,rtscts), $(b,ibverbs); $(b,all) for every stack).")
  in
  let axes =
    Arg.(
      value
      & opt (names_conv ~what:"axis" ~valid:Experiments.Matrix.axis_names)
          Experiments.Matrix.axis_names
      & info [ "axes" ] ~docv:"LIST"
          ~doc:
            "Comma-separated axes to run ($(b,latency), $(b,bandwidth), \
             $(b,overlap), $(b,loss-goodput), $(b,congestion-goodput); \
             $(b,all) for every axis).")
  in
  let quick =
    Arg.(value & flag & info [ "quick" ] ~doc:"Smoke-test sized workloads.")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"OUT"
          ~doc:
            "Also meter every cell as a portals-bench/2 record \
             (id $(b,MX.<transport>.<axis>)) and write the report to \
             $(docv) — the records the CI bench gate compares.")
  in
  Cmd.v
    (Cmd.info "matrix"
       ~doc:
         "Cross-stack benchmark matrix: every transport x \
          {latency, bandwidth, overlap, loss-goodput, congestion-goodput} \
          (MX)")
    Term.(const run $ scenario_term $ transports $ axes $ quick $ json)

let run_rma ~scenario ?(workloads = Experiments.Rma.workload_names)
    ?(quick = false) ?json () =
  let t = Experiments.Rma.run ~scenario ~workloads ~quick () in
  Experiments.Rma.pp ppf t;
  match json with
  | None -> ()
  | Some out ->
    let records =
      Experiments.Rma.perf_records ~scenario ~workloads ~quick ()
    in
    Experiments.Perf.write_json ~path:out records;
    Format.fprintf ppf "rma: wrote %s@." out

let rma_cmd =
  let run scenario workloads quick json =
    run_rma ~scenario ~workloads ~quick ?json ()
  in
  let workloads =
    Arg.(
      value
      & opt
          (names_conv ~what:"workload" ~valid:Experiments.Rma.workload_names)
          Experiments.Rma.workload_names
      & info [ "workloads" ] ~docv:"LIST"
          ~doc:
            "Comma-separated workloads to run ($(b,latency), $(b,passive), \
             $(b,halo), $(b,hashtable); $(b,all) for every workload).")
  in
  let quick =
    Arg.(value & flag & info [ "quick" ] ~doc:"Smoke-test sized workloads.")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"OUT"
          ~doc:
            "Also meter every workload as a portals-bench/2 record \
             (id $(b,RMA.<workload>)) and write the report to $(docv) — \
             the records the CI bench gate compares.")
  in
  Cmd.v
    (Cmd.info "rma"
       ~doc:
         "One-sided RMA: window put/atomic latency, passive-target \
          progress, RMA vs send/recv halo, CAS hash table (RMA)")
    Term.(const run $ scenario_term $ workloads $ quick $ json)

let run_chaos ~scenario ?(quick = false) ?json () =
  let t = Experiments.Chaos.run ~scenario ~quick () in
  Experiments.Chaos.pp ppf t;
  (match json with
  | None -> ()
  | Some out ->
    let records = Experiments.Chaos.perf_records ~scenario ~quick () in
    Experiments.Perf.write_json ~path:out records;
    Format.fprintf ppf "chaos: wrote %s@." out);
  if not (Experiments.Chaos.zero_violations t) then
    failwith
      (Printf.sprintf "chaos: %d invariant violations"
         (Experiments.Chaos.total_violations t))

let chaos_cmd =
  let run scenario quick json =
    match run_chaos ~scenario ~quick ?json () with
    | () -> `Ok ()
    | exception Failure msg -> `Error (false, msg)
  in
  let quick =
    Arg.(
      value & flag
      & info [ "quick" ]
          ~doc:
            "One cell per fault axis plus a mixed cell, instead of the \
             full corruption x delay x partition x crash x loss grid.")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"OUT"
          ~doc:
            "Also meter each fault axis as a portals-bench/2 record \
             (id $(b,CH.<axis>)) and write the report to $(docv).")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Invariant-checked chaos campaign: corruption x delay x \
          partition x crash x loss cells, asserting exactly-once \
          delivery, byte integrity, RMA linearizability and \
          partition-aware liveness (exit 1 on any violation)")
    Term.(ret (const run $ scenario_term $ quick $ json))

(* The multicore lane's gate: PAR.par4's run phase must be [floor] times
   shorter than PAR.seq's. Meaningless on one hardware core, where the
   window barrier only adds overhead. *)
let speedup_gate ~floor metered =
  let events =
    match Experiments.Par.events_speedup metered.Experiments.Par.records with
    | Some e -> Printf.sprintf ", events/sec ratio %.2fx" e
    | None -> ""
  in
  match Experiments.Par.run_speedup metered with
  | None ->
    Format.eprintf "par: --min-speedup needs the PAR.seq/PAR.par4 run times@.";
    exit 2
  | Some s when s < floor ->
    Format.eprintf
      "par: run-phase speedup %.2fx below the %.2fx floor (PAR.par4 vs \
       PAR.seq run_s%s)@."
      s floor events;
    exit 1
  | Some s ->
    Format.fprintf ppf "par: run-phase speedup %.2fx (floor %.2fx%s)@." s
      floor events

let run_par ~scenario ?(nodes = 256) ?(steps = 8) ?(check = false) ?json
    ?min_speedup () =
  (if check then begin
     (* --check always compares against a genuinely parallel run, even
        when the scenario is sequential. *)
     let domains =
       let d = scenario.Runtime.Scenario.domains in
       if d > 1 then d else 4
     in
     match Experiments.Par.selfcheck ~scenario ~nodes ~steps ~domains () with
     | Ok (seq, par) ->
       Experiments.Par.pp ppf seq;
       Experiments.Par.pp ppf par;
       Format.fprintf ppf "par: domains=1 and domains=%d agree@."
         par.Experiments.Par.domains
     | Error msg -> failwith ("par: " ^ msg)
   end
   else begin
     let r = Experiments.Par.run ~scenario ~nodes ~steps () in
     Experiments.Par.pp ppf r;
     if not (Experiments.Par.ok r) then
       failwith
         (Printf.sprintf "par: %d/%d payloads delivered, %d damaged"
            r.Experiments.Par.delivered r.Experiments.Par.expected
            r.Experiments.Par.errors)
   end);
  if json <> None || min_speedup <> None then begin
    let metered = Experiments.Par.meter_runs ~scenario () in
    (match json with
    | None -> ()
    | Some out ->
      Experiments.Perf.write_json ~path:out metered.Experiments.Par.records;
      (match Experiments.Par.events_speedup metered.Experiments.Par.records with
      | Some s -> Format.fprintf ppf "par: par4/seq events/sec ratio %.2fx@." s
      | None -> ());
      Format.fprintf ppf "par: wrote %s@." out);
    Option.iter (fun floor -> speedup_gate ~floor metered) min_speedup
  end

let par_cmd =
  let run scenario nodes steps check json min_speedup =
    match min_speedup with
    | Some x when x <= 0. -> `Error (false, "--min-speedup must be > 0")
    | _ -> (
      match run_par ~scenario ~nodes ~steps ~check ?json ?min_speedup () with
      | () -> `Ok ()
      | exception Failure msg -> `Error (false, msg))
  in
  let nodes =
    Arg.(
      value & opt int 256
      & info [ "nodes" ] ~docv:"N"
          ~doc:
            "Torus size (>= 9; fitted to the nearest 2-D shape). The \
             10000-node run is the completion scenario the multicore CI \
             lane drives.")
  in
  let steps =
    Arg.(
      value & opt int 8
      & info [ "steps" ] ~docv:"N" ~doc:"Halo-exchange rounds per neighbour.")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Run the identical world at $(b,--domains 1) and at the \
             session's domain count (4 when sequential) and fail unless \
             the canonical lines agree byte-for-byte.")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"OUT"
          ~doc:
            "Also meter the workload sequentially and at 4 domains as \
             portals-bench/2 records ($(b,PAR.seq), $(b,PAR.par4)) and \
             write them to $(docv) — the records the multicore speedup \
             gate consumes.")
  in
  let min_speedup =
    Arg.(
      value
      & opt (some float) None
      & info [ "min-speedup" ] ~docv:"X"
          ~doc:
            "Meter $(b,PAR.seq) and $(b,PAR.par4) and exit 1 unless \
             PAR.par4's run phase (after the world is built) is at least \
             $(docv) times shorter than PAR.seq's; the events/sec ratio \
             is printed beside it (the multicore CI lane gates X=2; \
             meaningless on one core).")
  in
  Cmd.v
    (Cmd.info "par"
       ~doc:
         "Parallel engine: halo exchange on a 2-D torus sharded across \
          OCaml domains, with an order-insensitive delivery digest that \
          must match the sequential reference bit-for-bit")
    Term.(
      ret
        (const run $ scenario_term $ nodes $ steps $ check $ json $ min_speedup))

let run_coll ~scenario ?(quick = false) ?(check = false) ?(iters = 8) ?json () =
  if check then begin
    if Experiments.Coll.check ~scenario () then
      Format.fprintf ppf "coll: host and nic agree (torus2d:4x4)@."
    else failwith "coll: host and nic engines disagree"
  end
  else begin
    let t = Experiments.Coll.run ~scenario ~iters ~quick () in
    Experiments.Coll.pp ppf t
  end;
  match json with
  | None -> ()
  | Some out ->
    let records = Experiments.Coll.perf_records ~scenario ~quick () in
    Experiments.Perf.write_json ~path:out records;
    Format.fprintf ppf "coll: wrote %s@." out

let coll_cmd =
  let run scenario quick check iters json =
    match run_coll ~scenario ~quick ~check ~iters ?json () with
    | () -> `Ok ()
    | exception Failure msg -> `Error (false, msg)
  in
  let quick =
    Arg.(
      value & flag
      & info [ "quick" ] ~doc:"Two cells' worth of topologies/node counts.")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Instead of the latency table, run a mixed \
             allreduce/bcast/barrier/reduce workload on a 4x4 torus under \
             both engines and fail unless every rank's bytes agree.")
  in
  let iters =
    Arg.(
      value & opt int 8
      & info [ "iters" ] ~docv:"N" ~doc:"Averaged calls per cell.")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"OUT"
          ~doc:
            "Also meter busy-host barrier/allreduce under each engine as \
             portals-bench/2 records (id $(b,COLL.<engine>.<op>)) and \
             write the report to $(docv) — gated against \
             bench/baseline.json by the CI bench gate.")
  in
  Cmd.v
    (Cmd.info "coll"
       ~doc:
         "NIC-offloaded vs host-driven collectives: barrier/bcast/allreduce \
          latency across topologies and node counts, host CPUs idle vs \
          busy (COLL)")
    Term.(ret (const run $ scenario_term $ quick $ check $ iters $ json))

(* Performance records for every experiment, metered, optionally gated
   against a baseline: the file the CI bench gate compares against
   bench/baseline.json. The gate compares the deterministic sim-side
   fields exactly; exit 1 on any drift, 2 on an unreadable baseline. *)
let bench_cmd =
  let run scenario json baseline quick =
    let baseline =
      Option.map
        (fun path ->
          match Experiments.Perf.read_json ~path with
          | Ok records -> records
          | Error msg ->
            Format.eprintf "bench: cannot read baseline %s: %s@." path msg;
            exit 2)
        baseline
    in
    let records =
      Experiments.Perf.all ~scenario ~quick ()
      @ Experiments.Matrix.perf_records ~scenario ~quick ()
      @ Experiments.Rma.perf_records ~scenario ~quick ()
      @ Experiments.Chaos.perf_records ~scenario ~quick:true ()
      @ Experiments.Par.perf_records ~scenario ~quick ()
      @ Experiments.Coll.perf_records ~scenario ~quick ()
    in
    Experiments.Perf.pp ppf records;
    Option.iter
      (fun out ->
        Experiments.Perf.write_json ~path:out records;
        Format.fprintf ppf "bench: wrote %s@." out)
      json;
    Option.iter
      (fun baseline ->
        match Experiments.Perf.drift ~baseline ~current:records with
        | [] ->
          Format.fprintf ppf
            "bench: all %d records match the baseline's sim fields exactly@."
            (List.length records)
        | drifts ->
          Experiments.Perf.pp_drift Format.err_formatter drifts;
          exit 1)
      baseline
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"OUT"
          ~doc:"Write the records to $(docv) as portals-bench/2 JSON.")
  in
  let baseline =
    Arg.(
      value
      & opt (some string) None
      & info [ "baseline" ] ~docv:"FILE"
          ~doc:
            "Compare against the records in $(docv), a file written by \
             $(b,--json): exit 1 if any record's $(b,sim_events), \
             $(b,fibers) or $(b,sim_time_us) differs, or if an id is \
             missing from either side; exit 2 if $(docv) cannot be read. \
             Wall time and allocation are not compared.")
  in
  let quick =
    Arg.(value & flag & info [ "quick" ] ~doc:"Smoke-test sized workloads.")
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:
         "Meter every experiment (wall time, sim-events, fibers, events/sec, \
          allocated words) and optionally gate the sim-side fields against \
          a baseline, exactly")
    Term.(const run $ scenario_term $ json $ baseline $ quick)

(* Every table and figure, each under a section header. *)
let all_cmd =
  let rule () = Format.fprintf ppf "%s@." (String.make 78 '-') in
  let section title f =
    rule ();
    Format.fprintf ppf "%s@." title;
    rule ();
    f ()
  in
  let run scenario =
    section "T1-T4: wire formats" (fun () ->
        Experiments.Tables.pp ppf (Experiments.Tables.run ()));
    section "F1/F2: data movement protocols" (fun () ->
        Experiments.Protocols.pp ppf (Experiments.Protocols.run_put ~scenario ());
        Experiments.Protocols.pp ppf (Experiments.Protocols.run_get ~scenario ()));
    section "F3/F4: address translation" (fun () ->
        Experiments.Translation.pp ppf
          (Experiments.Translation.run ~scenario ()));
    section "L1: zero-length ping-pong latency (section 3: MCP < 20us)"
      (fun () ->
        Experiments.Latency.pp ppf (Experiments.Latency.run ~scenario ()));
    section "B1: streaming bandwidth (section 3: packet pipelining)" (fun () ->
        Experiments.Bandwidth.pp ppf (Experiments.Bandwidth.run ~scenario ()));
    section "F5/F6: application bypass (the paper's headline result)"
      (fun () -> Experiments.Fig6.pp ppf (Experiments.Fig6.run ~scenario ()));
    section "S1: unexpected-buffer memory vs job size (section 4.1)" (fun () ->
        Experiments.Scaling.pp_memory ppf
          (Experiments.Scaling.run_memory ~scenario ()));
    section "S2: collective scaling on connectionless Portals" (fun () ->
        Experiments.Scaling.pp_collectives ppf
          (Experiments.Scaling.run_collectives ~scenario ()));
    section "A1: dropped-message accounting (section 4.8)" (fun () ->
        Experiments.Drops.pp ppf (Experiments.Drops.run ~scenario ()));
    section "A2: ablations" (fun () ->
        Experiments.Ablation.pp_threshold ppf
          (Experiments.Ablation.run_threshold ());
        Experiments.Ablation.pp_interrupts ppf
          (Experiments.Ablation.run_interrupts ()));
    section
      "R1: reliability under wire loss (section 2: reliable in-order delivery)"
      (fun () ->
        Experiments.Rel_loss_sweep.pp ppf (Experiments.Rel_loss_sweep.run ()));
    section "C1: crash-restart recovery (section 3: connectionless peers)"
      (fun () ->
        Experiments.Crash_restart.pp ppf
          (Experiments.Crash_restart.run ~scenario ()));
    section
      "N1: traffic patterns vs interconnect topology (section 2: Cplant scale)"
      (fun () ->
        Experiments.Congestion.pp ppf
          (Experiments.Congestion.run ~seed:scenario.Runtime.Scenario.seed ()));
    section
      "RMA: one-sided windows over Portals atomics (section 4.4, MPI-2 \
       heritage)" (fun () ->
        Experiments.Rma.pp ppf (Experiments.Rma.run ~scenario ()));
    section
      "COLL: NIC-offloaded vs host-driven collectives (sections 2/5.1 bypass; \
       quick cells — `portals_repro coll` for the full sweep)"
      (fun () ->
        Experiments.Coll.pp ppf (Experiments.Coll.run ~scenario ~quick:true ()));
    rule ()
  in
  Cmd.v (Cmd.info "all" ~doc:"Regenerate every table and figure")
    Term.(const run $ scenario_term)

(* Flag-style entry point: [--experiment NAME --metrics[=json] --trace-out F]
   without naming a subcommand. *)
let default_term =
  let experiment =
    Arg.(
      value
      & opt (some string) None
      & info [ "experiment" ] ~docv:"NAME"
          ~doc:
            "Run experiment $(docv) with default parameters (equivalent to \
             the $(docv) subcommand). $(b,--metrics) applies to fig5, \
             fig6, rel_loss_sweep and congestion; $(b,--trace-out) to fig5 \
             and fig6.")
  in
  let run scenario experiment metrics trace_out =
    let run_if ok name f =
      if ok then begin
        f ();
        `Ok ()
      end
      else
        `Error
          ( false,
            Printf.sprintf
              "--metrics applies only to --experiment \
               fig5|fig6|rel_loss_sweep|congestion, --trace-out only to \
               fig5|fig6 (got %s)"
              name )
    in
    let plain = run_if (metrics = None && trace_out = None) in
    let metrics_only = run_if (trace_out = None) in
    match experiment with
    | None -> `Help (`Pager, None)
    | Some "fig6" ->
      run_fig6 ~scenario ~metrics ~trace_out ();
      `Ok ()
    | Some "fig5" ->
      let r =
        Experiments.Fig5.run ~scenario
          ~capture_trace:(trace_out <> None)
          Experiments.Fig5.default_params
      in
      Format.fprintf ppf "fig5: mean wait %.3f ms (max %.3f)@."
        (r.Experiments.Fig5.mean_wait /. 1000.)
        (r.Experiments.Fig5.max_wait /. 1000.);
      emit_observability ~metrics ~trace_out ~snapshot:r.Experiments.Fig5.metrics
        ~traces:[ ("portals", r.Experiments.Fig5.spans) ];
      `Ok ()
    | Some ("tables" as n) ->
      plain n (fun () -> Experiments.Tables.pp ppf (Experiments.Tables.run ()))
    | Some ("latency" as n) ->
      plain n (fun () ->
          Experiments.Latency.pp ppf (Experiments.Latency.run ~scenario ()))
    | Some ("bandwidth" as n) ->
      plain n (fun () ->
          Experiments.Bandwidth.pp ppf (Experiments.Bandwidth.run ~scenario ()))
    | Some ("drops" as n) ->
      plain n (fun () ->
          Experiments.Drops.pp ppf (Experiments.Drops.run ~scenario ()))
    | Some ("translation" as n) ->
      plain n (fun () ->
          Experiments.Translation.pp ppf
            (Experiments.Translation.run ~scenario ()))
    | Some (("rel_loss_sweep" | "rel-loss-sweep") as n) ->
      metrics_only n (fun () -> run_rel_loss_sweep ~metrics ())
    | Some (("crash_restart" | "crash-restart") as n) ->
      plain n (fun () ->
          Experiments.Crash_restart.pp ppf
            (Experiments.Crash_restart.run ~scenario ()))
    | Some ("congestion" as n) ->
      metrics_only n (fun () ->
          run_congestion ~seed:scenario.Runtime.Scenario.seed ~metrics ())
    | Some ("matrix" as n) -> plain n (fun () -> run_matrix ~scenario ())
    | Some ("rma" as n) -> plain n (fun () -> run_rma ~scenario ())
    | Some ("chaos" as n) ->
      plain n (fun () -> run_chaos ~scenario ~quick:true ())
    | Some other ->
      `Error
        ( false,
          Printf.sprintf
            "unknown experiment %S (try a subcommand; see --help)" other )
  in
  Term.(ret (const run $ scenario_term $ experiment $ metrics_arg $ trace_out_arg))

let () =
  let doc = "Reproduction harness for Portals 3.0 (IPPS 2002)" in
  let info = Cmd.info "portals_repro" ~version:"1.0" ~doc in
  (* Domain validation that only triggers inside an experiment body —
     e.g. a topology spec whose dimensions cannot host that
     experiment's world size — surfaces as [Invalid_argument]; render
     it like any other usage error instead of a crash. *)
  exit
    (try
       Cmd.eval ~catch:false
         (Cmd.group ~default:default_term info
            [
              tables_cmd; protocols_cmd; translation_cmd; latency_cmd;
              bandwidth_cmd; fig5_cmd; fig6_cmd; memory_cmd; collectives_cmd;
              drops_cmd; ablation_cmd; rel_loss_sweep_cmd; crash_restart_cmd;
              congestion_cmd; matrix_cmd; rma_cmd; chaos_cmd; par_cmd;
              coll_cmd; bench_cmd; all_cmd;
            ])
     with Invalid_argument msg ->
       Format.eprintf "portals_repro: %s@." msg;
       1)
