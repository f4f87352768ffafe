open Cmdliner
open Sim_engine

type observed = {
  metrics : Metrics.Snapshot.t;
  traces : (string * Trace.span list) list;
}

type job = {
  print : trace:bool -> Format.formatter -> observed;
  records : unit -> Perf.record list;
}

type section = { title : string; quick : bool }

type entry = {
  name : string;
  doc : string;
  section : section option;
  default : Runtime.Scenario.t -> quick:bool -> job;
  flags : (Runtime.Scenario.t -> job) Term.t;
}

let nothing = { metrics = []; traces = [] }

(* Meter each runner in list order (a list literal's elements are
   evaluated right to left, hence the thunks). *)
let meter runs () = List.map (fun (id, run) -> Perf.meter ~id run) runs
let record id run = (id, fun () -> ignore (run ()))

(* A job that prints [pp ppf (run ())] and observes nothing. *)
let printed ?(records = []) pp run =
  {
    print =
      (fun ~trace:_ ppf ->
        pp ppf (run ());
        nothing);
    records = meter records;
  }

let full title = { title; quick = false }

(* Without [flags], the subcommand takes no parameter flags and runs the
   full default. *)
let entry ?section ?flags name doc default =
  let flags =
    match flags with
    | Some f -> f
    | None -> Term.const (fun scenario -> default scenario ~quick:false)
  in
  { name; doc; section; default; flags }

(* --- flag parsers -------------------------------------------------------- *)

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

let opt c v name doc = Arg.value (Arg.opt c v (Arg.info [ name ] ~doc))

let ints = Arg.list ~sep:',' Arg.int
let transport default = opt transport_conv default "transport" "offload | kernel | rtscts"
let quick_flag doc = Arg.(value & flag & info [ "quick" ] ~doc)
let smoke_quick = quick_flag "Smoke-test sized workloads."

(* --- the paper's tables and figures -------------------------------------- *)

let tables =
  entry "tables" "Regenerate Tables 1-6 (wire formats)"
    ~section:(full "T1-T4: wire formats")
    (fun _ ~quick:_ -> printed Tables.pp Tables.run)

let protocols =
  let job ?transport scenario =
    {
      print =
        (fun ~trace:_ ppf ->
          Protocols.pp ppf (Protocols.run_put ~scenario ?transport ());
          Protocols.pp ppf (Protocols.run_get ~scenario ?transport ());
          nothing);
      records =
        meter
          [
            record "F1" (fun () -> Protocols.run_put ~scenario ());
            record "F2" (fun () -> Protocols.run_get ~scenario ());
          ];
    }
  in
  entry "protocols" "Regenerate Figures 1-2 (put/get timelines)"
    ~section:(full "F1/F2: data movement protocols")
    ~flags:
      Term.(
        const (fun transport scenario -> job ~transport scenario)
        $ transport Runtime.Offload)
    (fun scenario ~quick:_ -> job scenario)

let translation =
  let job ?depths scenario ~quick =
    printed Translation.pp (fun () -> Translation.run ~scenario ?depths ())
      ~records:
        [
          record "F3" (fun () -> Translation.run ~scenario ~depths:[ 0; 16; 64 ] ());
          record "F4" (fun () ->
              Translation.run ~scenario
                ~depths:(if quick then [ 128 ] else [ 128; 256 ])
                ());
        ]
  in
  entry "translation" "Regenerate Figures 3-4 (address translation)"
    ~section:(full "F3/F4: address translation")
    ~flags:
      Term.(
        const (fun depths scenario -> job ~depths scenario ~quick:false)
        $ opt ints Translation.default_depths "depths" "Match-list depths to sweep")
    (fun scenario ~quick -> job scenario ~quick)

let latency =
  let job ?message_size ?iterations scenario ~quick =
    printed Latency.pp (fun () ->
        Latency.run ~scenario ?message_size ?iterations ())
      ~records:
        [
          record "L1" (fun () ->
              if quick then
                Latency.run_one ~scenario ~iterations:10 Runtime.Offload
              else List.hd (Latency.run ~scenario ()));
        ]
  in
  entry "latency" "Ping-pong latency across placements (L1)"
    ~section:(full "L1: zero-length ping-pong latency (section 3: MCP < 20us)")
    ~flags:
      Term.(
        const (fun message_size iterations scenario ->
            job ~message_size ~iterations scenario ~quick:false)
        $ opt Arg.int 0 "size" "Message size in bytes"
        $ opt Arg.int 50 "iterations" "Ping-pong rounds")
    (fun scenario ~quick -> job scenario ~quick)

let bandwidth =
  let job ?sizes ?count scenario ~quick =
    printed Bandwidth.pp (fun () -> Bandwidth.run ~scenario ?sizes ?count ())
      ~records:
        [
          record "B1" (fun () ->
              if quick then
                Bandwidth.run_one ~scenario ~sizes:[ 65_536 ] ~count:8
                  Runtime.Offload
              else List.hd (Bandwidth.run ~scenario ()));
        ]
  in
  entry "bandwidth" "Streaming bandwidth vs size (B1)"
    ~section:(full "B1: streaming bandwidth (section 3: packet pipelining)")
    ~flags:
      Term.(
        const (fun sizes count scenario -> job ~sizes ~count scenario ~quick:false)
        $ opt ints Bandwidth.default_sizes "sizes" "Message sizes in bytes"
        $ opt Arg.int 16 "count" "Messages per size")
    (fun scenario ~quick -> job scenario ~quick)

let fig5 =
  let job (p : Fig5.params) scenario =
    {
      print =
        (fun ~trace ppf ->
          let label = match p.Fig5.backend with `Portals -> "portals" | `Gm -> "gm" in
          let r = Fig5.run ~scenario ~capture_trace:trace p in
          Format.fprintf ppf
            "fig5: backend=%s work=%.1fms -> mean wait %.3f ms (max %.3f), \
             work took %.3f ms@."
            label (Time_ns.to_ms p.Fig5.work)
            (r.Fig5.mean_wait /. 1000.)
            (r.Fig5.max_wait /. 1000.)
            (r.Fig5.mean_work_elapsed /. 1000.);
          { metrics = r.Fig5.metrics; traces = [ (label, r.Fig5.spans) ] });
      records =
        meter [ record "F5" (fun () -> Fig5.run ~scenario Fig5.default_params) ];
    }
  in
  let params backend transport message_size batch work tests_during_work =
    job
      {
        Fig5.backend;
        transport;
        message_size;
        batch;
        iterations = 4;
        work = Time_ns.ms work;
        tests_during_work;
      }
  in
  entry "fig5" "One application-bypass measurement (Table 5)"
    ~flags:
      Term.(
        const params
        $ opt backend_conv `Portals "backend" "portals | gm"
        $ transport Runtime.Rtscts
        $ opt Arg.int 50_000 "size" "Message size"
        $ opt Arg.int 10 "batch" "Messages per batch"
        $ opt Arg.float 10.0 "work" "Work interval, ms"
        $ opt Arg.int 0 "tests" "MPI test calls during work")
    (fun scenario ~quick:_ -> job Fig5.default_params scenario)

let fig6 =
  let job ?message_size ?work_ms ?iterations scenario ~quick =
    {
      print =
        (fun ~trace ppf ->
          let t =
            Fig6.run ~scenario ?message_size ?work_ms ?iterations
              ~capture_trace:trace ()
          in
          Fig6.pp ppf t;
          { metrics = t.Fig6.metrics; traces = t.Fig6.traces });
      records =
        meter
          [
            record "F6" (fun () ->
                if quick then Fig6.run ~scenario ~iterations:1 ~work_ms:[ 0.; 20. ] ()
                else Fig6.run ~scenario ());
          ];
    }
  in
  entry "fig6" "Regenerate Figure 6 (application bypass)"
    ~section:(full "F5/F6: application bypass (the paper's headline result)")
    ~flags:
      Term.(
        const (fun message_size work_ms iterations scenario ->
            job ~message_size ~work_ms ~iterations scenario ~quick:false)
        $ opt Arg.int 50_000 "size" "Message size"
        $ opt (Arg.list ~sep:',' Arg.float) Fig6.work_intervals_ms "work"
            "Work intervals (ms), comma separated"
        $ opt Arg.int 3 "iterations" "Averaging repetitions")
    (fun scenario ~quick -> job scenario ~quick)

let memory =
  let job ?job_sizes scenario ~quick =
    printed Scaling.pp_memory (fun () ->
        Scaling.run_memory ~scenario ?job_sizes ())
      ~records:
        [
          record "S1" (fun () ->
              if quick then Scaling.run_memory ~scenario ~job_sizes:[ 8 ] ()
              else Scaling.run_memory ~scenario ());
        ]
  in
  entry "memory" "Unexpected-buffer memory vs job size (S1)"
    ~section:(full "S1: unexpected-buffer memory vs job size (section 4.1)")
    ~flags:
      Term.(
        const (fun job_sizes scenario -> job ~job_sizes scenario ~quick:false)
        $ opt ints [ 4; 8; 16; 32; 64 ] "jobs" "Job sizes to sweep")
    (fun scenario ~quick -> job scenario ~quick)

let collectives =
  let job ?node_counts scenario ~quick =
    printed Scaling.pp_collectives (fun () ->
        Scaling.run_collectives ~scenario ?node_counts ())
      ~records:
        [
          record "S2" (fun () ->
              if quick then
                Scaling.run_collectives ~scenario ~node_counts:[ 16; 64 ] ()
              else Scaling.run_collectives ~scenario ());
          record "S3" (fun () ->
              if quick then Scaling.run_perf ~scenario ~node_counts:[ 64; 256 ] ()
              else Scaling.run_perf ~scenario ());
        ]
  in
  entry "collectives" "Collective scaling (S2)"
    ~section:(full "S2: collective scaling on connectionless Portals")
    ~flags:
      Term.(
        const (fun node_counts scenario -> job ~node_counts scenario ~quick:false)
        $ opt ints [ 2; 4; 8; 16; 32; 64; 128; 256 ] "nodes"
            "Node counts to sweep")
    (fun scenario ~quick -> job scenario ~quick)

let drops =
  entry "drops" "Trigger and count every drop reason (A1)"
    ~section:(full "A1: dropped-message accounting (section 4.8)")
    (fun scenario ~quick:_ ->
      printed Drops.pp (fun () -> Drops.run ~scenario ())
        ~records:[ record "A1" (fun () -> Drops.run ~scenario ()) ])

let ablation =
  entry "ablation" "Design-choice ablations (A2)" ~section:(full "A2: ablations")
    (fun _ ~quick ->
      {
        print =
          (fun ~trace:_ ppf ->
            Ablation.pp_threshold ppf (Ablation.run_threshold ());
            Ablation.pp_interrupts ppf (Ablation.run_interrupts ());
            nothing);
        records =
          meter
            [
              record "A2" (fun () ->
                  ignore
                    (if quick then
                       Ablation.run_threshold ~sizes:[ 32_768; 131_072 ] ()
                     else Ablation.run_threshold ());
                  Ablation.run_interrupts ());
            ];
      })

(* --- reliability, crashes, topology -------------------------------------- *)

(* The loss sweep builds its own fabrics: it takes no scenario. *)
let rel_loss_sweep =
  let job ?losses ?seeds ?msgs ?size ~quick () =
    {
      print =
        (fun ~trace:_ ppf ->
          let registry = Metrics.create () in
          Rel_loss_sweep.pp ppf
            (Rel_loss_sweep.run ?losses ?seeds ?msgs ?size ~registry ());
          { nothing with metrics = Metrics.snapshot registry });
      records =
        meter
          [
            record "R1" (fun () ->
                if quick then
                  Rel_loss_sweep.run ~losses:[ 0.; 0.05 ] ~seeds:[ 1 ] ~msgs:50 ()
                else Rel_loss_sweep.run ());
          ];
    }
  in
  entry "rel-loss-sweep"
    "Goodput/completion vs wire loss, reliable vs raw fabric (R1)"
    ~section:
      (full "R1: reliability under wire loss (section 2: reliable in-order delivery)")
    ~flags:
      Term.(
        const (fun losses seeds msgs size _ ->
            job ~losses ~seeds ~msgs ~size ~quick:false ())
        $ opt (Arg.list ~sep:',' Arg.float) Rel_loss_sweep.default_losses
            "losses" "Wire loss rates to sweep"
        $ opt ints [ 1; 2; 3 ] "seeds" "PRNG seeds averaged per loss rate"
        $ opt Arg.int 200 "msgs" "Messages per stream"
        $ opt Arg.int 1024 "size" "Message size in bytes")
    (fun _ ~quick -> job ~quick ())

let crash_restart =
  let job ?config scenario =
    printed Crash_restart.pp (fun () -> Crash_restart.run ~scenario ?config ())
      ~records:[ record "C1" (fun () -> Crash_restart.run ~scenario ()) ]
  in
  let d = Crash_restart.default_config in
  let us field name doc = opt Arg.float (Time_ns.to_us (field d)) name doc in
  (* The subcommand states the schedule above its table; [all] does not. *)
  let flags msgs size down_at up_at horizon scenario =
    let config =
      {
        d with
        Crash_restart.msgs;
        size;
        down_at = Time_ns.us down_at;
        up_at = Time_ns.us up_at;
        horizon = Time_ns.us horizon;
      }
    in
    let j = job ~config scenario in
    {
      j with
      print =
        (fun ~trace ppf ->
          Format.fprintf ppf "%a@." Crash_restart.pp_config config;
          j.print ~trace ppf);
    }
  in
  entry "crash-restart"
    "Mid-run node crash + restart: recovery time and messages lost, Portals \
     vs GM (C1)"
    ~section:(full "C1: crash-restart recovery (section 3: connectionless peers)")
    ~flags:
      Term.(
        const flags
        $ opt Arg.int d.Crash_restart.msgs "msgs" "Messages streamed by the survivor"
        $ opt Arg.int d.Crash_restart.size "size" "Message size in bytes"
        $ us (fun d -> d.Crash_restart.down_at) "down-at" "Victim crash time, us"
        $ us (fun d -> d.Crash_restart.up_at) "up-at" "Victim restart time, us"
        $ us (fun d -> d.Crash_restart.horizon) "horizon" "Simulation horizon, us")
    (fun scenario ~quick:_ -> job scenario)

(* Congestion builds its own worlds; it draws no random numbers, so the
   scenario's seed does not reach it. *)
let congestion =
  let job ?nodes ?topologies ?msgs_per_peer ?size ?queue_limit _scenario =
    {
      print =
        (fun ~trace:_ ppf ->
          let registry = Metrics.create () in
          Congestion.pp ppf
            (Congestion.run ?nodes ?topologies ?msgs_per_peer ?size ?queue_limit
               ~registry ());
          { nothing with metrics = Metrics.snapshot registry });
      records = (fun () -> []);
    }
  in
  entry "congestion"
    "All-to-all vs nearest-neighbor goodput across interconnect topologies \
     (N1)"
    ~section:
      (full "N1: traffic patterns vs interconnect topology (section 2: Cplant scale)")
    ~flags:
      Term.(
        const (fun nodes topologies msgs_per_peer size queue_limit ->
            job ~nodes ~topologies ~msgs_per_peer ~size ?queue_limit)
        $ opt Arg.int 16 "nodes" "Nodes per world"
        $ opt (Arg.list ~sep:',' Arg.string) Congestion.default_topologies
            "topologies" "Topology specs to sweep (comma separated; see --topology)"
        $ opt Arg.int 8 "msgs" "Messages per (src, peer) pair"
        $ opt Arg.int 4096 "size" "Message size in bytes"
        $ opt (Arg.some Arg.int) None "limit"
            "Hop-link queue limit (congestion drops beyond it)")
    (fun scenario ~quick:_ -> job scenario)

(* --- cross-stack, one-sided, chaos, parallel, collectives ---------------- *)

let matrix =
  let job ?transports ?axes scenario ~quick =
    {
      (printed Matrix.pp (fun () -> Matrix.run ~scenario ?transports ?axes ~quick ()))
      with
      records = (fun () -> Matrix.perf_records ~scenario ?transports ?axes ~quick ());
    }
  in
  let names ~what name valid doc =
    Arg.(
      value & opt (names_conv ~what ~valid) valid & info [ name ] ~docv:"LIST" ~doc)
  in
  entry "matrix"
    "Cross-stack benchmark matrix: every transport x {latency, bandwidth, \
     overlap, loss-goodput, congestion-goodput} (MX)"
    ~flags:
      Term.(
        const (fun transports axes quick scenario ->
            job ~transports ~axes scenario ~quick)
        $ names ~what:"transport" "transports" Matrix.transport_names
            "Comma-separated stacks to run ($(b,portals), $(b,gm), \
             $(b,rtscts), $(b,ibverbs); $(b,all) for every stack)."
        $ names ~what:"axis" "axes" Matrix.axis_names
            "Comma-separated axes to run ($(b,latency), $(b,bandwidth), \
             $(b,overlap), $(b,loss-goodput), $(b,congestion-goodput); \
             $(b,all) for every axis)."
        $ smoke_quick)
    (fun scenario ~quick -> job scenario ~quick)

let rma =
  let job ?workloads scenario ~quick =
    {
      (printed Rma.pp (fun () -> Rma.run ~scenario ?workloads ~quick ())) with
      records = (fun () -> Rma.perf_records ~scenario ?workloads ~quick ());
    }
  in
  entry "rma"
    "One-sided RMA: window put/atomic latency, passive-target progress, RMA \
     vs send/recv halo, CAS hash table (RMA)"
    ~section:
      (full
         "RMA: one-sided windows over Portals atomics (section 4.4, MPI-2 \
          heritage)")
    ~flags:
      Term.(
        const (fun workloads quick scenario -> job ~workloads scenario ~quick)
        $ Arg.(
            value
            & opt (names_conv ~what:"workload" ~valid:Rma.workload_names)
                Rma.workload_names
            & info [ "workloads" ] ~docv:"LIST"
                ~doc:
                  "Comma-separated workloads to run ($(b,latency), \
                   $(b,passive), $(b,halo), $(b,hashtable); $(b,all) for \
                   every workload).")
        $ smoke_quick)
    (fun scenario ~quick -> job scenario ~quick)

let chaos =
  let job scenario ~quick =
    {
      print =
        (fun ~trace:_ ppf ->
          let t = Chaos.run ~scenario ~quick () in
          Chaos.pp ppf t;
          if not (Chaos.zero_violations t) then
            failwith
              (Printf.sprintf "chaos: %d invariant violations"
                 (Chaos.total_violations t));
          nothing);
      records = (fun () -> Chaos.perf_records ~scenario ~quick ());
    }
  in
  entry "chaos"
    "Invariant-checked chaos campaign: corruption x delay x partition x crash \
     x loss cells, asserting exactly-once delivery, byte integrity, RMA \
     linearizability and partition-aware liveness (exit 1 on any violation)"
    ~flags:
      Term.(
        const (fun quick scenario -> job scenario ~quick)
        $ quick_flag
            "One cell per fault axis plus a mixed cell, instead of the full \
             corruption x delay x partition x crash x loss grid.")
    (* bench meters the quick cells at any size. *)
    (fun scenario ~quick ->
      { (job scenario ~quick) with records = (job scenario ~quick:true).records })

(* The multicore lane's gate: PAR.par4's run phase must be [floor] times
   shorter than PAR.seq's. Meaningless on one hardware core, where the
   window barrier only adds overhead. Exits 1 below the floor, as its
   flag documents. *)
let speedup_gate ppf ~floor metered =
  let events =
    match Par.events_speedup metered.Par.records with
    | Some e -> Printf.sprintf ", events/sec ratio %.2fx" e
    | None -> ""
  in
  match Par.run_speedup metered with
  | None -> failwith "par: --min-speedup needs the PAR.seq/PAR.par4 run times"
  | Some s when s < floor ->
    Format.eprintf
      "par: run-phase speedup %.2fx below the %.2fx floor (PAR.par4 vs \
       PAR.seq run_s%s)@."
      s floor events;
    exit 1
  | Some s ->
    Format.fprintf ppf "par: run-phase speedup %.2fx (floor %.2fx%s)@." s floor
      events

let par =
  let job ?(nodes = 256) ?(steps = 8) ?(check = false) ?min_speedup scenario
      ~quick =
    (* Metered at most once, for the gate and the records alike. *)
    let metered = lazy (Par.meter_runs ~scenario ~quick ()) in
    {
      print =
        (fun ~trace:_ ppf ->
          (if check then begin
             (* --check always compares against a genuinely parallel
                run, even when the scenario is sequential. *)
             let domains =
               let d = scenario.Runtime.Scenario.domains in
               if d > 1 then d else 4
             in
             match Par.selfcheck ~scenario ~nodes ~steps ~domains () with
             | Ok (seq, par) ->
               Par.pp ppf seq;
               Par.pp ppf par;
               Format.fprintf ppf "par: domains=1 and domains=%d agree@."
                 par.Par.domains
             | Error msg -> failwith ("par: " ^ msg)
           end
           else begin
             let r = Par.run ~scenario ~nodes ~steps () in
             Par.pp ppf r;
             if not (Par.ok r) then
               failwith
                 (Printf.sprintf "par: %d/%d payloads delivered, %d damaged"
                    r.Par.delivered r.Par.expected r.Par.errors)
           end);
          Option.iter
            (fun floor -> speedup_gate ppf ~floor (Lazy.force metered))
            min_speedup;
          nothing);
      records = (fun () -> (Lazy.force metered).Par.records);
    }
  in
  let flags nodes steps check min_speedup =
    match min_speedup with
    | Some x when x <= 0. -> `Error (false, "--min-speedup must be > 0")
    | _ ->
      `Ok
        (fun scenario ->
          job ~nodes ~steps ~check ?min_speedup scenario ~quick:false)
  in
  entry "par"
    "Parallel engine: halo exchange on a 2-D torus sharded across OCaml \
     domains, with an order-insensitive delivery digest that must match the \
     sequential reference bit-for-bit"
    ~flags:
      Term.(
        ret
          (const flags
          $ Arg.(
              value & opt int 256
              & info [ "nodes" ] ~docv:"N"
                  ~doc:
                    "Torus size (>= 9; fitted to the nearest 2-D shape). The \
                     10000-node run is the completion scenario the multicore \
                     CI lane drives.")
          $ Arg.(
              value & opt int 8
              & info [ "steps" ] ~docv:"N"
                  ~doc:"Halo-exchange rounds per neighbour.")
          $ Arg.(
              value & flag
              & info [ "check" ]
                  ~doc:
                    "Run the identical world at $(b,--domains 1) and at the \
                     session's domain count (4 when sequential) and fail \
                     unless the canonical lines agree byte-for-byte.")
          $ Arg.(
              value
              & opt (some float) None
              & info [ "min-speedup" ] ~docv:"X"
                  ~doc:
                    "Meter $(b,PAR.seq) and $(b,PAR.par4) and exit 1 unless \
                     PAR.par4's run phase (after the world is built) is at \
                     least $(docv) times shorter than PAR.seq's; the \
                     events/sec ratio is printed beside it (the multicore CI \
                     lane gates X=2; meaningless on one core).")))
    (fun scenario ~quick -> job scenario ~quick)

let coll =
  let job ?(check = false) ?iters scenario ~quick =
    {
      print =
        (fun ~trace:_ ppf ->
          if check then begin
            if Coll.check ~scenario () then
              Format.fprintf ppf "coll: host and nic agree (torus2d:4x4)@."
            else failwith "coll: host and nic engines disagree";
            nothing
          end
          else begin
            let t = Coll.run ~scenario ?iters ~quick () in
            Coll.pp ppf t;
            { nothing with metrics = t.Coll.metrics }
          end);
      records = (fun () -> Coll.perf_records ~scenario ~quick ());
    }
  in
  entry "coll"
    "NIC-offloaded vs host-driven collectives: barrier/bcast/allreduce latency \
     across topologies and node counts, host CPUs idle vs busy (COLL)"
    ~section:
      {
        title =
          "COLL: NIC-offloaded vs host-driven collectives (sections 2/5.1 \
           bypass; quick cells — `portals_repro coll` for the full sweep)";
        quick = true;
      }
    ~flags:
      Term.(
        const (fun quick check iters scenario -> job ~check ~iters scenario ~quick)
        $ quick_flag "Two cells' worth of topologies/node counts."
        $ Arg.(
            value & flag
            & info [ "check" ]
                ~doc:
                  "Instead of the latency table, run a mixed \
                   allreduce/bcast/barrier/reduce workload on a 4x4 torus \
                   under both engines and fail unless every rank's bytes \
                   agree.")
        $ Arg.(
            value & opt int 8
            & info [ "iters" ] ~docv:"N" ~doc:"Averaged calls per cell."))
    (fun scenario ~quick -> job scenario ~quick)

let entries =
  [
    tables; protocols; translation; latency; bandwidth; fig5; fig6; memory;
    collectives; drops; ablation; rel_loss_sweep; crash_restart; congestion;
    matrix; rma; chaos; par; coll;
  ]
