(* Fast checks of the benchmark itself: every workload runs
   in-process at its small size. *)

open Bench_suite
module W = Workloads

let failures = ref 0

let check what ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" what
  end

let names r = List.map fst r.Measure.metrics

(* Every metric the suite reports, and every workload, is declared in
   BENCHMARK.json, and the result carries exactly the declared names. *)
let declared =
  In_channel.with_open_text "../BENCHMARK.json" In_channel.input_all

let declares name =
  let needle = Printf.sprintf "\"name\": %S" name in
  let n = String.length needle and m = String.length declared in
  let rec go i = i + n <= m && (String.sub declared i n = needle || go (i + 1)) in
  go 0

let () =
  List.iter
    (fun name -> check ("BENCHMARK.json declares " ^ name) (declares name))
    (W.names @ List.map fst Measure.end_to_end @ List.map fst Measure.per_layer)

let layered =
  List.map
    (fun (w : W.t) ->
      let e2e = Measure.run_end_to_end w ~size:W.Small ~seed:1 ~seconds:0. in
      check (w.W.name ^ ": end-to-end names")
        (names e2e = List.map fst Measure.end_to_end);
      check (w.W.name ^ ": correct, no failures")
        (e2e.Measure.correct && e2e.Measure.failed = 0
       && e2e.Measure.attempted > 0);
      check (w.W.name ^ ": metrics never 0")
        (List.for_all (fun (_, v) -> v > 0.) e2e.Measure.metrics);
      let r =
        Measure.run_per_layer w ~size:W.Small ~seed:1 ~seconds:0.
          ~trace_dir:None
      in
      check (w.W.name ^ ": per-layer names")
        (names r = List.map fst Measure.per_layer);
      check (w.W.name ^ ": traced run correct") r.Measure.correct;
      (w.W.name, r))
    W.all

(* Same seed, same pass: identical event counts, allocation and outputs.
   Allocation is exact at one domain; the sharded halo is checked at one
   domain and its digest compared with the two-domain run. *)
let () =
  List.iter
    (fun (w : W.t) ->
      let run ~domains = w.W.pass ~domains W.Small ~seed:5 in
      let a = run ~domains:1 and b = run ~domains:1 in
      check (w.W.name ^ ": events repeat") (a.W.events = b.W.events);
      check (w.W.name ^ ": allocation repeats") (a.W.alloc_words = b.W.alloc_words);
      check (w.W.name ^ ": digest repeats") (a.W.digest = b.W.digest);
      if w.W.domains > 1 then
        check (w.W.name ^ ": digest independent of domains")
          ((run ~domains:w.W.domains).W.digest = a.W.digest))
    W.all

(* The sampler charges every sample to exactly one layer, and the paper
   workload's time lands in the MPI and transport-stack layers. *)
let () =
  let r = List.assoc "paper" layered in
  let v name = List.assoc name r.Measure.metrics in
  let shares =
    List.fold_left
      (fun acc l -> acc +. v (Layers.name l ^ ".self_share"))
      0. Layers.all
  in
  check "sampler took samples" (v "trace.samples" > 0.);
  check "shares sum to 1" (Float.abs (shares -. 1.) <= 0.02);
  check "paper spends time in mpi and stacks"
    (v "mpi.self_share" +. v "stacks.self_share" > 0.)

(* Frames of the standard library pass the charge to their caller. *)
let () =
  check "stdlib frames are skipped"
    (Layers.of_frame "Stdlib__Hashtbl.find" = None);
  check "shard map is shard"
    (Layers.of_frame "Simnet__Shard_map.owner" = Some Layers.Shard);
  check "NI is portals" (Layers.of_frame "Portals__Ni.deliver.(fun)" = Some Layers.Portals);
  check "transport stacks"
    (Layers.of_frame "Transport.send" = Some Layers.Stacks
    && Layers.of_frame "Simnet__Transport.send" = Some Layers.Simnet)

(* Malformed arguments are usage errors: exit code 2, nothing run. *)
let () =
  let exit_code args =
    let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
    let pid =
      Unix.create_process "./suite.exe"
        (Array.of_list ("./suite.exe" :: args))
        Unix.stdin null null
    in
    Unix.close null;
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED n -> n
    | _ -> -1
  in
  List.iter
    (fun args ->
      check
        ("exit 2 on: " ^ String.concat " " args)
        (exit_code args = 2))
    [
      [ "--workload"; "nope" ];
      [ "--seed"; "x" ];
      [ "--seed"; "-1" ];
      [ "--seconds"; "0" ];
      [ "--seconds"; "nan" ];
      [ "--trace"; "2" ];
      [ "--trace" ];
      [ "stray" ];
      [ "--child" ];
    ]

let () =
  if !failures > 0 then begin
    Printf.printf "%d check(s) failed\n" !failures;
    exit 1
  end
  else print_endline "perfbench: all checks passed"
