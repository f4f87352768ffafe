(* The benchmark's command line. Each workload runs in a child process of
   its own, so peak RSS and allocation never carry over from one workload
   to the next; the parent relays the child's report and ends with the
   result as one JSON line. *)

module B = Bench_suite

let usage =
  "usage: suite.exe [--workload NAME|all] [--seed N] [--seconds S] [--trace \
   0|1] [--trace-dir DIR] [--out FILE]\n\
  \       suite.exe --paper-digests\n\n\
   Runs the benchmark's workloads (" ^ String.concat ", " B.Workloads.names
  ^ ")\n\
     for S seconds each and prints their metrics, ending with one JSON line.\n\
     --trace 1 gives the per-layer metrics instead of the end-to-end ones.\n"

type opts = {
  mutable workload : string;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : bool;
  mutable trace_dir : string;
  mutable out : string option;
  mutable child : bool;
  mutable paper_digests : bool;
}

let parse () =
  let o =
    {
      workload = "all";
      seed = 0;
      seconds = 15.;
      trace = false;
      trace_dir = "_perfbench";
      out = None;
      child = false;
      paper_digests = false;
    }
  in
  let bad fmt = Printf.ksprintf (fun s -> raise (Arg.Bad s)) fmt in
  let specs =
    [
      ( "--workload",
        Arg.String
          (fun w ->
            if w = "all" || List.mem w B.Workloads.names then o.workload <- w
            else bad "unknown workload %S" w),
        "NAME  one workload, or all (default)" );
      ( "--seed",
        Arg.String
          (fun s ->
            match int_of_string_opt s with
            | Some n when n >= 0 -> o.seed <- n
            | _ -> bad "bad seed %S" s),
        "N  seed for the workloads' inputs (default 0)" );
      ( "--seconds",
        Arg.String
          (fun s ->
            match float_of_string_opt s with
            | Some x when Float.is_finite x && x > 0. -> o.seconds <- x
            | _ -> bad "bad duration %S" s),
        "S  host seconds each workload measures for (default 15)" );
      ( "--trace",
        Arg.String
          (function
            | "0" -> o.trace <- false
            | "1" -> o.trace <- true
            | s -> bad "--trace takes 0 or 1, not %S" s),
        "0|1  1: per-layer metrics from an untraced and a traced run" );
      ( "--trace-dir",
        Arg.String (fun d -> o.trace_dir <- d),
        "DIR  where traced runs write <workload>.trace.json and \
         <workload>.layers.txt (default _perfbench)" );
      ( "--out",
        Arg.String (fun f -> o.out <- Some f),
        "FILE  also write every result and the host record to FILE" );
      ( "--paper-digests",
        Arg.Unit (fun () -> o.paper_digests <- true),
        " print the digest of each paper artifact (the reference)" );
      ( "--child",
        Arg.Unit (fun () -> o.child <- true),
        " run the workload in this process (used by the parent)" );
    ]
  in
  Arg.parse (Arg.align specs) (fun a -> bad "unexpected argument %S" a) usage;
  if o.child && o.workload = "all" then begin
    prerr_endline "suite.exe: --child needs one --workload";
    exit 2
  end;
  o

(* --- child: one workload in this process --------------------------------- *)

let run_here o =
  let w = Option.get (B.Workloads.find o.workload) in
  let size = B.Workloads.Full in
  let r =
    if o.trace then
      B.Measure.run_per_layer w ~size ~seed:o.seed ~seconds:o.seconds
        ~trace_dir:(Some o.trace_dir)
    else B.Measure.run_end_to_end w ~size ~seed:o.seed ~seconds:o.seconds
  in
  Format.printf "%s (%s, seed %d):@." w.B.Workloads.name
    (if o.trace then "per layer" else "end to end")
    o.seed;
  B.Measure.pp_table Format.std_formatter r;
  print_endline (B.Measure.to_json r)

(* --- parent: one child per workload -------------------------------------- *)

let child_pid = ref None

let kill_child () =
  match !child_pid with
  | Some pid ->
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
    child_pid := None
  | None -> ()

let fail fmt =
  Printf.ksprintf
    (fun s ->
      kill_child ();
      prerr_endline ("suite.exe: " ^ s);
      exit 1)
    fmt

(* The child's speed and peak RSS turned out to depend on the number of
   bytes its arguments and environment take at the top of its stack: the
   same pass ran 20% slower with half the peak RSS after a longer
   --trace-dir, or from a checkout at a longer path. So the child gets a
   fixed-size start: the binary named as /proc/self/exe where Linux
   provides it, no inherited environment, and a padding variable that
   brings arguments and environment to [start_bytes]. *)
let start_bytes = 1024

let self_exe =
  if Sys.file_exists "/proc/self/exe" then "/proc/self/exe"
  else Sys.executable_name

let child_start args env =
  let size l = List.fold_left (fun n s -> n + String.length s + 1) 0 l in
  let pad = "PERFBENCH_PAD=" in
  let fill = start_bytes - size args - size env - String.length pad - 1 in
  (Array.of_list args, Array.of_list ((pad ^ String.make (max 0 fill) 'x') :: env))

(* Runs the child, echoing its lines as they come; returns its last line,
   the result. A child that hangs past [deadline] seconds is killed. *)
let run_child o workload ~deadline =
  let args =
    [
      "suite.exe"; "--child"; "--workload"; workload; "--seed";
      string_of_int o.seed; "--seconds"; Printf.sprintf "%g" o.seconds;
      "--trace"; (if o.trace then "1" else "0"); "--trace-dir"; o.trace_dir;
    ]
  in
  let env =
    if o.trace then begin
      B.Measure.mkdir_p o.trace_dir;
      [ "OCAML_RUNTIME_EVENTS_DIR=" ^ o.trace_dir ]
    end
    else []
  in
  let argv, envp = child_start args env in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process_env self_exe argv envp Unix.stdin wr Unix.stderr
  in
  child_pid := Some pid;
  Unix.close wr;
  let t_end = Unix.gettimeofday () +. deadline in
  let buf = Bytes.create 65536 in
  let pending = Buffer.create 256 in
  let last = ref None in
  let take_lines () =
    let s = Buffer.contents pending in
    match String.rindex_opt s '\n' with
    | None -> ()
    | Some i ->
      Buffer.clear pending;
      Buffer.add_string pending (String.sub s (i + 1) (String.length s - i - 1));
      List.iter
        (fun line ->
          Option.iter print_endline !last;
          last := Some line)
        (String.split_on_char '\n' (String.sub s 0 i))
  in
  let rec pump () =
    let left = t_end -. Unix.gettimeofday () in
    if left <= 0. then fail "%s: no result after %.0f s, killed" workload deadline;
    match Unix.select [ rd ] [] [] left with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> pump ()
    | [], _, _ -> pump ()
    | _ -> (
      match Unix.read rd buf 0 (Bytes.length buf) with
      | 0 -> ()
      | n ->
        Buffer.add_subbytes pending buf 0 n;
        take_lines ();
        pump ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> pump ())
  in
  pump ();
  Unix.close rd;
  if Buffer.length pending > 0 then begin
    Buffer.add_char pending '\n';
    take_lines ()
  end;
  let _, status = Unix.waitpid [] pid in
  child_pid := None;
  match (status, !last) with
  | Unix.WEXITED 0, Some line when String.starts_with ~prefix:"{" line -> line
  | Unix.WEXITED n, _ -> fail "%s: child exited with code %d" workload n
  | (Unix.WSIGNALED n | Unix.WSTOPPED n), _ ->
    fail "%s: child killed by signal %d" workload n

let () =
  let o = parse () in
  if o.paper_digests then
    List.iter
      (fun (name, d) -> Printf.printf "    (%S, %S);\n" name d)
      (B.Workloads.artifact_digests ())
  else if o.child then run_here o
  else begin
    List.iter
      (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> fail "interrupted")))
      [ Sys.sigint; Sys.sigterm ];
    let host = B.Host.record ~seed:o.seed in
    print_endline ("host: " ^ host);
    let workloads =
      if o.workload = "all" then B.Workloads.names else [ o.workload ]
    in
    let deadline = 60. +. (4. *. o.seconds) in
    let results =
      List.map (fun w -> (w, run_child o w ~deadline)) workloads
    in
    let combined =
      B.Json.obj
        [
          ("host", host);
          ("trace", string_of_bool o.trace);
          ("results", B.Json.obj results);
        ]
    in
    Option.iter
      (fun path ->
        Out_channel.with_open_text path (fun oc ->
            output_string oc combined;
            output_char oc '\n'))
      o.out;
    match results with
    | [ (_, line) ] -> print_endline line
    | _ -> print_endline combined
  end
