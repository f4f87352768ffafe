(* Command-line driver for the reproduction: run any experiment (table or
   figure) on demand with tweakable parameters. Every subcommand but
   [bench] and [all] is an entry of Experiments.Registry.

     dune exec bin/portals_repro.exe -- --help
     dune exec bin/portals_repro.exe -- fig6 --size 50000 --work 0,10,20
     dune exec bin/portals_repro.exe -- latency --size 1024 *)

open Cmdliner
module Registry = Experiments.Registry

let ppf = Format.std_formatter

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
             protocol underneath the transport. The same as a leading \
             $(b,bernoulli:)$(docv) in $(b,--fault).")
  in
  let seed =
    Arg.(
      value
      & opt (some int) None
      & info [ "seed" ] ~docv:"N"
          ~doc:
            "Fault-model and campaign PRNG seed, for deterministic \
             replay (default 0).")
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
             wins, corruption over delay). A seeded model takes \
             $(b,--seed) unless a suffix $(b,@s)N gives it seed N, \
             e.g. $(b,corrupt:0.02@s9). Implies the reliability shim, \
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

let json_arg doc =
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"OUT" ~doc)

(* What every experiment can emit besides its printed result. *)
let outputs_term =
  Term.(
    const (fun metrics trace_out json -> (metrics, trace_out, json))
    $ metrics_arg $ trace_out_arg
    $ json_arg
        "Also meter the experiment as portals-bench/2 records (the ones \
         $(b,bench) writes for it; none for some experiments) and write \
         them to $(docv).")

let emit ~metrics ~trace_out (observed : Registry.observed) =
  (match metrics with
  | None -> ()
  | Some format ->
    Sim_engine.Report.print ~format ppf observed.Registry.metrics;
    Format.pp_print_flush ppf ());
  match trace_out with
  | None -> ()
  | Some path -> (
    match
      write_file path (Sim_engine.Trace.Chrome.to_string observed.Registry.traces)
    with
    | () -> Format.fprintf ppf "trace written to %s@." path
    | exception Sys_error msg ->
      Format.eprintf "portals_repro: cannot write trace: %s@." msg;
      exit 1)

(* --- commands ----------------------------------------------------------- *)

(* One subcommand per registry entry: its own flags, then the shared
   outputs. A run that fails its own check still writes its records. *)
let experiment_cmd (e : Registry.entry) =
  let run scenario job (metrics, trace_out, json) =
    let job = job scenario in
    let guard f = match f () with x -> Ok x | exception Failure msg -> Error msg in
    let printed =
      guard (fun () -> job.Registry.print ~trace:(trace_out <> None) ppf)
    in
    Result.iter (emit ~metrics ~trace_out) printed;
    let written =
      match json with
      | None -> Ok ()
      | Some out ->
        guard (fun () ->
            Experiments.Perf.write_json ~path:out (job.Registry.records ());
            Format.fprintf ppf "%s: wrote %s@." e.Registry.name out)
    in
    match (printed, written) with
    | Ok _, Ok () -> `Ok ()
    | Error msg, _ | _, Error msg -> `Error (false, msg)
  in
  Cmd.v
    (Cmd.info e.Registry.name ~doc:e.Registry.doc)
    Term.(ret (const run $ scenario_term $ e.Registry.flags $ outputs_term))

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
      List.concat_map
        (fun (e : Registry.entry) ->
          (e.Registry.default scenario ~quick).Registry.records ())
        Registry.entries
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
  let json = json_arg "Write the records to $(docv) as portals-bench/2 JSON." in
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

(* Every registry entry with a section, under its header. *)
let all_cmd =
  let rule () = Format.fprintf ppf "%s@." (String.make 78 '-') in
  let run scenario =
    List.iter
      (fun (e : Registry.entry) ->
        Option.iter
          (fun { Registry.title; quick } ->
            rule ();
            Format.fprintf ppf "%s@." title;
            rule ();
            ignore ((e.Registry.default scenario ~quick).Registry.print ~trace:false ppf))
          e.Registry.section)
      Registry.entries;
    rule ()
  in
  Cmd.v (Cmd.info "all" ~doc:"Regenerate every table and figure")
    Term.(const run $ scenario_term)

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
         (Cmd.group
            ~default:Term.(ret (const (`Help (`Pager, None))))
            info
            (List.map experiment_cmd Registry.entries @ [ bench_cmd; all_cmd ]))
     with Invalid_argument msg ->
       Format.eprintf "portals_repro: %s@." msg;
       1)
