(* Runs one workload for a fixed host-time budget and turns its passes
   into the benchmark's metrics. The untraced run gives the end-to-end
   metrics; the traced run repeats the workload untraced, then traced, and
   gives the per-layer metrics. *)

module W = Workloads

(* Metric names and units. BENCHMARK.json lists the same names, with the
   direction that counts as better and, end to end, the bound. *)
let end_to_end =
  [
    ("wall_s", "s");
    ("setup_s", "s");
    ("peak_rss_mb", "MB");
    ("alloc_mwords", "Mw");
  ]

let per_layer =
  List.map (fun l -> (Layers.name l ^ ".self_share", "ratio")) Layers.all
  @ [
      ("engine.events_per_s", "1/s");
      ("engine.fibers", "count");
      ("shard.idle_frac", "ratio");
      ("shard.rounds", "count");
      ("shard.events_per_round", "count");
      ("shard.speedup_vs_1", "ratio");
      ("simnet.msgs", "count");
      ("portals.msgs_received", "count");
      ("portals.triggered_fired", "count");
      ("portals.drops", "count");
      ("portals.checksum_drops", "count");
      ("reliability.corrupt_drops", "count");
      ("runtime.create_world_frac", "ratio");
      ("portals.ni_create_frac", "ratio");
      ("collectives.create_frac", "ratio");
      ("gc.share", "ratio");
      ("gc.words_per_event", "words");
      ("gc.minor_collections", "count");
      ("gc.major_collections", "count");
      ("trace.overhead_frac", "ratio");
      ("trace.samples", "count");
    ]

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;
  notes : (string * float * string) list;
      (** Printed with the metrics but not part of the result: raw host
          seconds and the calibration kernel's time. *)
}

let unit_of name =
  match List.assoc_opt name (end_to_end @ per_layer) with
  | Some u -> u
  | None -> invalid_arg ("Measure.unit_of: " ^ name)

let to_json r =
  Json.obj
    [
      ("correct", string_of_bool r.correct);
      ("attempted", string_of_int r.attempted);
      ("failed", string_of_int r.failed);
      ( "metrics",
        Json.obj
          (List.map
             (fun (name, v) ->
               ( name,
                 Json.obj
                   [ ("value", Json.num v); ("unit", Json.str (unit_of name)) ]
               ))
             r.metrics) );
    ]

let pp_table ppf r =
  List.iter
    (fun (name, v) ->
      Format.fprintf ppf "  %-28s %16.6g %s@." name v (unit_of name))
    r.metrics;
  List.iter
    (fun (name, v, u) -> Format.fprintf ppf "  (%-26s %16.6g %s)@." name v u)
    r.notes;
  Format.fprintf ppf "  %-28s %16s %d/%d failed@." "correct"
    (string_of_bool r.correct) r.failed r.attempted

(* --- passes and the calibration kernel ----------------------------------- *)

let median = function
  | [] -> 0.
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let ratio a b = if b > 0. then a /. b else 0.

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Host seconds are reported calibrated: multiplied by [nominal_kernel_s]
   over the calibration kernel's time, taken as the mean of its runs right
   before and right after the pass. A calibrated second is a second on a
   host that runs the kernel in exactly [nominal_kernel_s], which is about
   what the kernel takes on the 2-vCPU Xeon the benchmark was defined on.
   On a shared host whose speed drifts, this removes most of the drift
   from run-to-run comparisons; the raw seconds are printed alongside. *)
let nominal_kernel_s = 0.05

type timed = {
  p : W.pass;
  kernel_s : float;  (** Mean calibration-kernel time around the pass. *)
}

let calibrated t x = x *. nominal_kernel_s /. t.kernel_s
let med f ts = median (List.map f ts)

(* Passes until [seconds] of host time have gone by, at least [min_passes]
   of them. The kernel runs on as many [domains] as the passes use, before
   the first pass and after every pass, between full major collections:
   every pass starts on a freshly collected heap, and neither the previous
   pass's garbage nor the kernel's is charged to it. [around] wraps each
   pass; the second result is the CPU seconds the passes themselves
   took. *)
let passes ?(around = fun f -> f ()) ?(min_passes = 2) ~domains ~seconds f =
  let t0 = Unix.gettimeofday () in
  let kernel () =
    Gc.full_major ();
    let k = Calib.run ~domains in
    Gc.full_major ();
    k
  in
  let rec go acc cpu n before =
    if n >= min_passes && Unix.gettimeofday () -. t0 >= seconds then
      (List.rev acc, cpu)
    else begin
      let c0 = cpu_now () in
      let p = around f in
      let cpu = cpu +. cpu_now () -. c0 in
      let after = kernel () in
      go ({ p; kernel_s = (before +. after) /. 2. } :: acc) cpu (n + 1) after
    end
  in
  go [] 0. 0 (kernel ())

let vm_hwm_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> None
      | line -> (
        match Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id with
        | Some kb -> Some (float_of_int kb /. 1024.)
        | None -> scan ())
    in
    Fun.protect ~finally:(fun () -> close_in ic) scan

let peak_rss_mb () =
  match vm_hwm_mb () with
  | Some mb -> mb
  | None ->
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.

let totals ts =
  List.fold_left
    (fun (a, f) t -> (a + t.p.W.attempted, f + t.p.W.failed))
    (0, 0) ts

(* Every pass of one seed must produce the same outputs. *)
let consistent = function
  | [] -> true
  | t :: rest -> List.for_all (fun u -> u.p.W.digest = t.p.W.digest) rest

(* The paper and faults workloads build their worlds inside Experiments
   calls, so they have no set-up phase of their own: one untimed warm-up
   pass, checked like the others, stands in for it. *)
let warm_up (w : W.t) ~size ~seed =
  if w.W.own_setup then []
  else
    fst
      (passes ~min_passes:1 ~domains:w.W.domains ~seconds:0. (fun () ->
           w.W.pass ~domains:w.W.domains size ~seed))

let setup_seconds ~warm ~timed =
  match warm with
  | [ t ] -> calibrated t (t.p.W.setup_s +. t.p.W.wall_s)
  | _ -> med (fun t -> calibrated t t.p.W.setup_s) timed

(* --- the untraced run: end-to-end metrics -------------------------------- *)

let run_end_to_end (w : W.t) ~size ~seed ~seconds =
  let warm = warm_up w ~size ~seed in
  let timed, _ =
    passes ~domains:w.W.domains ~seconds (fun () ->
        w.W.pass ~domains:w.W.domains size ~seed)
  in
  let attempted, failed = totals (warm @ timed) in
  {
    correct = failed = 0 && consistent (warm @ timed);
    attempted;
    failed;
    metrics =
      [
        ("wall_s", med (fun t -> calibrated t t.p.W.wall_s) timed);
        ("setup_s", setup_seconds ~warm ~timed);
        ("peak_rss_mb", peak_rss_mb ());
        ("alloc_mwords", med (fun t -> t.p.W.alloc_words) timed /. 1e6);
      ];
    notes =
      [
        ("raw wall_s", med (fun t -> t.p.W.wall_s) timed, "s");
        ("kernel_s", med (fun t -> t.kernel_s) (warm @ timed), "s");
        ("passes", float_of_int (List.length timed), "count");
      ];
  }

(* --- the traced run: per-layer metrics ----------------------------------- *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.is_directory dir -> ()
  end

let layer_table shares samples =
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Printf.sprintf "  %-12s %8s %8s\n" "layer" "share" "samples");
  List.iter
    (fun (l, s) ->
      Buffer.add_string b
        (Printf.sprintf "  %-12s %8.4f %8.0f\n" (Layers.name l) s
           (s *. float_of_int samples)))
    shares;
  Buffer.contents b

let span_categories =
  [ "runtime.create_world"; "portals.ni_create"; "collectives.create" ]

(* The budget is split between an untraced and a traced half; a sharded
   workload gives a third of it to the same world at one domain, whose
   digest must match. Only the passes themselves are sampled and have
   their collector time counted; the calibration kernel is not. *)
let run_per_layer (w : W.t) ~size ~seed ~seconds ~trace_dir =
  let pass ~domains () = w.W.pass ~domains size ~seed in
  let sharded = w.W.domains > 1 in
  let share = seconds /. if sharded then 3. else 2. in
  let warm = warm_up w ~size ~seed in
  let plain, _ =
    passes ~domains:w.W.domains ~seconds:share (pass ~domains:w.W.domains)
  in
  let single =
    if sharded then fst (passes ~domains:1 ~seconds:share (pass ~domains:1))
    else []
  in
  let span_fracs = ref [] in
  let around f =
    Spans.reset ();
    Gc_time.resume ();
    Sampler.active := true;
    let p =
      Fun.protect
        ~finally:(fun () ->
          Sampler.active := false;
          Gc_time.pause ())
        (fun () -> Spans.time ~cat:"pass" w.W.name f)
    in
    let pass_s = p.W.setup_s +. p.W.wall_s in
    span_fracs :=
      List.map (fun c -> ratio (Spans.total c) pass_s) span_categories
      :: !span_fracs;
    p
  in
  Spans.enable ();
  Gc_time.start ();
  Sampler.start ~tick:Gc_time.poll ();
  let traced, traced_cpu =
    Fun.protect
      ~finally:(fun () ->
        Sampler.stop ();
        Spans.disable ())
      (fun () ->
        passes ~around ~domains:w.W.domains ~seconds:share
          (pass ~domains:w.W.domains))
  in
  let shares = Sampler.shares () in
  let samples = Sampler.samples () in
  let table = layer_table shares samples in
  Option.iter
    (fun dir ->
      mkdir_p dir;
      Spans.write_chrome (Filename.concat dir (w.W.name ^ ".trace.json"));
      Out_channel.with_open_text
        (Filename.concat dir (w.W.name ^ ".layers.txt"))
        (fun oc -> output_string oc table))
    trace_dir;
  print_string table;
  let all = warm @ plain @ single @ traced in
  let attempted, failed = totals all in
  let span_frac i = median (List.map (fun l -> List.nth l i) !span_fracs) in
  let wall ts = med (fun t -> calibrated t t.p.W.wall_s) ts in
  let raw_wall ts = med (fun t -> t.p.W.wall_s) ts in
  let per_pass f = med (fun t -> float_of_int (f t.p)) plain in
  let count f = per_pass (fun p -> f p.W.counters) in
  let events = per_pass (fun p -> p.W.events) in
  let rounds = count (fun c -> c.W.rounds) in
  {
    correct = failed = 0 && consistent all;
    attempted;
    failed;
    metrics =
      List.map (fun (l, s) -> (Layers.name l ^ ".self_share", s)) shares
      @ [
          ( "engine.events_per_s",
            med (fun t -> ratio (float_of_int t.p.W.events) t.p.W.wall_s) plain
          );
          ("engine.fibers", per_pass (fun p -> p.W.fibers));
          ( "shard.idle_frac",
            med
              (fun t ->
                Float.max 0.
                  (1.
                  -. ratio t.p.W.cpu_s
                       (float_of_int w.W.domains *. t.p.W.wall_s)))
              plain );
          ("shard.rounds", rounds);
          ("shard.events_per_round", ratio events rounds);
          ( "shard.speedup_vs_1",
            if sharded then ratio (raw_wall single) (raw_wall plain) else 1. );
          ("simnet.msgs", count (fun c -> c.W.simnet_msgs));
          ("portals.msgs_received", count (fun c -> c.W.portals_received));
          ("portals.triggered_fired", count (fun c -> c.W.triggered_fired));
          ("portals.drops", count (fun c -> c.W.portals_drops));
          ("portals.checksum_drops", count (fun c -> c.W.checksum_drops));
          ("reliability.corrupt_drops", count (fun c -> c.W.corrupt_drops));
          ("runtime.create_world_frac", span_frac 0);
          ("portals.ni_create_frac", span_frac 1);
          ("collectives.create_frac", span_frac 2);
          ("gc.share", ratio (Gc_time.seconds ()) traced_cpu);
          ( "gc.words_per_event",
            ratio (med (fun t -> t.p.W.alloc_words) plain) events );
          ("gc.minor_collections", per_pass (fun p -> p.W.minor_gcs));
          ("gc.major_collections", per_pass (fun p -> p.W.major_gcs));
          ("trace.overhead_frac", ratio (wall traced) (wall plain) -. 1.);
          ("trace.samples", float_of_int samples);
        ];
    notes =
      [
        ("gc lost events", float_of_int (Gc_time.lost_events ()), "count");
        ("kernel_s", med (fun t -> t.kernel_s) all, "s");
      ];
  }
