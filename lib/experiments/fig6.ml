open Sim_engine

type series = { label : string; points : (float * float) list }

type t = {
  message_size : int;
  batch : int;
  series : series list;
  metrics : Metrics.Snapshot.t;
  traces : (string * Trace.span list) list;
}

let work_intervals_ms = [ 0.; 2.; 5.; 10.; 15.; 20.; 25.; 30.; 40.; 50. ]

(* One configuration's sweep. Each (work interval, mean wait) point goes
   into the aggregate registry as a ["fig6.wait_ms"] series labelled with
   the configuration (the registry is created with [~detail:true], so the
   series keeps every point); the figure's [points] are read back from
   it, and consumers can read the same curve out of a metrics snapshot. The final (largest-work) run of each sweep donates
   its full world registry, labelled by configuration, and optionally its
   trace spans. *)
let sweep ~scenario ~registry ~capture_trace ~label ~message_size ~batch ~iterations
    ~work_ms ~backend ~transport ~tests_during_work =
  let labels = [ ("config", label) ] in
  let curve = Metrics.series registry ~labels "fig6.wait_ms" in
  let last = List.length work_ms - 1 in
  let spans = ref [] in
  List.iteri
    (fun i ms ->
      let donor = i = last in
      let result =
        Fig5.run ~scenario
          ~capture_trace:(capture_trace && donor)
          {
            Fig5.backend;
            transport;
            message_size;
            batch;
            iterations;
            work = Time_ns.ms ms;
            tests_during_work;
          }
      in
      let y = result.Fig5.mean_wait /. 1000. in
      Metrics.push curve ~x:ms ~y;
      if donor then begin
        Metrics.absorb registry ~labels result.Fig5.metrics;
        spans := result.Fig5.spans
      end)
    work_ms;
  ({ label; points = Metrics.series_points curve }, (label, !spans))

let run ?(scenario = Runtime.Scenario.default) ?(message_size = 50_000)
    ?(batch = 10) ?(iterations = 3) ?(work_ms = work_intervals_ms)
    ?(capture_trace = false) () =
  let registry = Metrics.create ~detail:true () in
  let sweep ~label ~backend ~transport ~tests_during_work =
    sweep ~scenario ~registry ~capture_trace ~label ~message_size ~batch ~iterations
      ~work_ms ~backend ~transport ~tests_during_work
  in
  let runs =
    [
      sweep ~label:"MPICH/GM" ~backend:`Gm ~transport:Runtime.Offload
        ~tests_during_work:0;
      sweep ~label:"MPICH/Portals3.0" ~backend:`Portals ~transport:Runtime.Rtscts
        ~tests_during_work:0;
      sweep ~label:"MPICH/GM+3tests" ~backend:`Gm ~transport:Runtime.Offload
        ~tests_during_work:3;
      sweep ~label:"Portals3.0-MCP" ~backend:`Portals ~transport:Runtime.Offload
        ~tests_during_work:0;
    ]
  in
  {
    message_size;
    batch;
    series = List.map fst runs;
    metrics = Metrics.snapshot registry;
    traces = (if capture_trace then List.map snd runs else []);
  }

let pp ppf t =
  Format.fprintf ppf
    "Figure 6: wait duration vs work interval (%d x %d-byte messages)@."
    t.batch t.message_size;
  Format.fprintf ppf "%-14s" "work(ms)";
  List.iter (fun s -> Format.fprintf ppf "%-20s" s.label) t.series;
  Format.fprintf ppf "@.";
  match t.series with
  | [] -> ()
  | first :: _ ->
    List.iteri
      (fun i (x, _) ->
        Format.fprintf ppf "%-14.1f" x;
        List.iter
          (fun s ->
            let _, y = List.nth s.points i in
            Format.fprintf ppf "%-20.3f" y)
          t.series;
        Format.fprintf ppf "@.")
      first.points
