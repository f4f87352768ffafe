open Sim_engine

type record = {
  id : string;
  wall_s : float;
  sim_events : int;
  fibers : int;
  sim_time_us : float;
  events_per_sec : float;
  alloc_words : int;
}

(* Words allocated by the process so far, net of minor-to-major
   promotions (counted the way perfbench counts them). [Gc.counters] is
   exact but sees only the calling domain, so a run that spawns domains
   reads the all-domain [Gc.quick_stat] instead, after a minor collection
   has flushed this domain's young words into it. *)
let allocated_words ~domains =
  Gc.minor ();
  if domains > 1 then
    let g = Gc.quick_stat () in
    g.Gc.minor_words +. g.Gc.major_words -. g.Gc.promoted_words
  else
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted

(* Each runner is metered as a delta of the process-wide scheduler totals
   and of the allocation counters around its run, so a record reflects
   exactly the work the experiment caused (every world it built
   included). Wall time and allocated words vary run to run (the latter
   with the compiler); the sim-side fields (sim_events, fibers,
   sim_time_us) are deterministic for a fixed seed. *)
let meter_once ~domains ~id f =
  (* Compact first so one experiment's garbage cannot charge the next
     one's wall clock with a major collection. *)
  Gc.compact ();
  let e0 = Scheduler.global_totals () in
  let w0 = allocated_words ~domains in
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (f ()));
  let t1 = Unix.gettimeofday () in
  let w1 = allocated_words ~domains in
  let e1 = Scheduler.global_totals () in
  let wall = t1 -. t0 in
  let events = e1.Scheduler.t_events - e0.Scheduler.t_events in
  {
    id;
    wall_s = wall;
    sim_events = events;
    fibers = e1.Scheduler.t_fibers - e0.Scheduler.t_fibers;
    sim_time_us =
      Time_ns.to_us (Time_ns.sub e1.Scheduler.t_sim_time e0.Scheduler.t_sim_time);
    events_per_sec = (if wall > 0. then float_of_int events /. wall else 0.);
    alloc_words = int_of_float (w1 -. w0);
  }

(* Best of three: the sim-side fields are deterministic, so repeats agree
   on them exactly and only the host-side fields differ; keeping the
   fastest repeat filters out wall-clock interference (GC pauses, a busy
   host), which the multicore speed-up gate would otherwise misread. *)
let meter ?(domains = 1) ~id f =
  let rec best n acc =
    if n = 0 then acc
    else begin
      let r = meter_once ~domains ~id f in
      best (n - 1) (if r.events_per_sec > acc.events_per_sec then r else acc)
    end
  in
  best 2 (meter_once ~domains ~id f)

(* Runners are thunks so the experiments run in report order (the
   elements of a list literal are evaluated right to left). *)
let all ?(quick = false) () =
  let m id f () = meter ~id f in
  List.map
    (fun run -> run ())
    [
      m "F1" (fun () -> Protocols.run_put ());
      m "F2" (fun () -> Protocols.run_get ());
      m "F3" (fun () -> Translation.run ~depths:[ 0; 16; 64 ] ());
      m "F4" (fun () ->
          Translation.run ~depths:(if quick then [ 128 ] else [ 128; 256 ]) ());
      m "F5" (fun () -> Fig5.run Fig5.default_params);
      m "F6" (fun () ->
          if quick then Fig6.run ~iterations:1 ~work_ms:[ 0.; 20. ] ()
          else Fig6.run ());
      m "L1" (fun () ->
          if quick then Latency.run_one ~iterations:10 Runtime.Offload
          else List.hd (Latency.run ()));
      m "B1" (fun () ->
          if quick then
            Bandwidth.run_one ~sizes:[ 65_536 ] ~count:8 Runtime.Offload
          else List.hd (Bandwidth.run ()));
      m "S1" (fun () ->
          if quick then Scaling.run_memory ~job_sizes:[ 8 ] ()
          else Scaling.run_memory ());
      m "S2" (fun () ->
          if quick then Scaling.run_collectives ~node_counts:[ 16; 64 ] ()
          else Scaling.run_collectives ());
      m "S3" (fun () ->
          if quick then Scaling.run_perf ~node_counts:[ 64; 256 ] ()
          else Scaling.run_perf ());
      m "A1" (fun () -> Drops.run ());
      m "A2" (fun () ->
          if quick then Ablation.run_threshold ~sizes:[ 32_768; 131_072 ] ()
          else Ablation.run_threshold ());
      m "R1" (fun () ->
          if quick then
            Rel_loss_sweep.run ~losses:[ 0.; 0.05 ] ~seeds:[ 1 ] ~msgs:50 ()
          else Rel_loss_sweep.run ());
      m "C1" (fun () -> Crash_restart.run ());
    ]

let pp ppf records =
  Format.fprintf ppf "%-6s %-10s %-12s %-8s %-14s %-14s %-14s@." "id"
    "wall(s)" "sim-events" "fibers" "sim-time(us)" "events/sec" "alloc(w)";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-6s %-10.4f %-12d %-8d %-14.1f %-14.0f %-14d@."
        r.id r.wall_s r.sim_events r.fibers r.sim_time_us r.events_per_sec
        r.alloc_words)
    records

(* {2 JSON} — the writer prints a fixed layout with one record per line;
   the reader is the same format strings run backwards through [Scanf],
   so it reads exactly what the writer wrote and nothing else. *)

let schema = "portals-bench/2"

let header : (_, _, _, _, _, _) format6 =
  "{\n  \"schema\": %S,\n  \"ocaml\": %S,\n  \"records\": [\n"

let record_line : (_, _, _, _, _, _) format6 =
  "    {\"id\": %S, \"wall_s\": %.6f, \"sim_events\": %d, \"fibers\": %d, \
   \"sim_time_us\": %.3f, \"events_per_sec\": %.1f, \"alloc_words\": %d}"

let footer = "\n  ]\n}\n"

let to_json records =
  Printf.sprintf header schema Sys.ocaml_version
  ^ String.concat ",\n"
      (List.map
         (fun r ->
           Printf.sprintf record_line r.id r.wall_s r.sim_events r.fibers
             r.sim_time_us r.events_per_sec r.alloc_words)
         records)
  ^ footer

let read_record line =
  match
    Scanf.sscanf line (record_line ^^ "%s%!")
      (fun id wall_s sim_events fibers sim_time_us events_per_sec alloc_words
           sep ->
        ( { id; wall_s; sim_events; fibers; sim_time_us; events_per_sec;
            alloc_words },
          sep ))
  with
  | r, ("," | "") -> Ok r
  | _ | (exception (Scanf.Scan_failure _ | Failure _ | End_of_file)) ->
    Error (Printf.sprintf "unreadable record line %S" line)

let of_json_string text =
  match Scanf.sscanf text (header ^^ "%n") (fun s _ n -> (s, n)) with
  | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) ->
    Error "not a portals-bench document header"
  | s, _ when s <> schema ->
    Error (Printf.sprintf "schema %S, want %S" s schema)
  | _, n -> (
    let rest = String.sub text n (String.length text - n) in
    if not (String.ends_with ~suffix:footer rest) then
      Error "truncated document"
    else
      match String.sub rest 0 (String.length rest - String.length footer) with
      | "" -> Error "no records"
      | body ->
        List.fold_right
          (fun line acc ->
            Result.bind acc (fun rs ->
                Result.map (fun r -> r :: rs) (read_record line)))
          (String.split_on_char '\n' body)
          (Ok []))

let write_json ~path records =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_json records))

let read_json ~path =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic ->
    let text =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    of_json_string text

(* {2 Gate} — the deterministic fields must match exactly, compared as
   the writer prints them. *)

type drift =
  | Changed of {
      id : string;
      field : string;
      baseline : string;
      current : string;
    }
  | Missing of string
  | Extra of string

let gated r =
  [
    ("sim_events", string_of_int r.sim_events);
    ("fibers", string_of_int r.fibers);
    ("sim_time_us", Printf.sprintf "%.3f" r.sim_time_us);
  ]

let drift ~baseline ~current =
  let find id records = List.find_opt (fun r -> r.id = id) records in
  List.concat_map
    (fun cur ->
      match find cur.id baseline with
      | None -> [ Extra cur.id ]
      | Some base ->
        List.filter_map
          (fun ((field, baseline), (_, current)) ->
            if baseline = current then None
            else Some (Changed { id = cur.id; field; baseline; current }))
          (List.combine (gated base) (gated cur)))
    current
  @ List.filter_map
      (fun base ->
        if find base.id current = None then Some (Missing base.id) else None)
      baseline

let pp_drift ppf drifts =
  List.iter
    (function
      | Changed { id; field; baseline; current } ->
        Format.fprintf ppf "DRIFT %s %s: baseline %s, now %s@." id field
          baseline current
      | Missing id ->
        Format.fprintf ppf "DRIFT %s: in the baseline, missing from this run@."
          id
      | Extra id ->
        Format.fprintf ppf "DRIFT %s: new in this run, not in the baseline@."
          id)
    drifts
