open Sim_engine

(* PAR: the parallel-engine workload — a nearest-neighbour halo exchange
   on a 2-D torus, sized so the shard map cuts it into contiguous stripes
   and every stripe boundary carries cross-shard traffic each step.

   The workload is the determinism witness for the window-barrier engine:
   every delivery folds (src, dst, step, arrival time) into a per-node
   digest, and the digests are summed into one order-insensitive value.
   Same seed, same world => the canonical line (nodes, steps, deliveries,
   digest, final sim time) is identical at any domain count; [selfcheck]
   asserts exactly that, and the smoke script diffs the printed lines
   across --domains values. The same run doubles as the speedup workload
   the multicore CI lane meters (PAR.seq vs PAR.par4). *)

type result = {
  nodes : int;
  dims : int list;  (** Torus dimensions actually used. *)
  steps : int;
  domains : int;  (** Shards actually used (capped at [nodes]). *)
  delivered : int;
  expected : int;
  errors : int;  (** Damaged or misattributed payloads accepted. *)
  digest : int;  (** Order-insensitive fold of every delivery. *)
  sim_time_us : float;
  window_rounds : int;  (** 0 when sequential. *)
  lookahead_us : float;  (** 0 when sequential. *)
  setup_s : float;
  run_s : float;
  wall_s : float;
}

let step_interval = Time_ns.us 50.

(* splitmix64's finalizer over the int domain. Per-delivery contributions
   are mixed then {e summed}, so the order shards accumulate them in
   cannot show through the digest. *)
let mix v =
  let z = Int64.of_int v in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL
  in
  Int64.to_int (Int64.logxor z (Int64.shift_right_logical z 31))

let payload_len = 32

let payload ~src ~step =
  let b = Bytes.create payload_len in
  Bytes.set_int32_le b 0 (Int32.of_int src);
  Bytes.set_int32_le b 4 (Int32.of_int step);
  for j = 8 to payload_len - 1 do
    Bytes.set_uint8 b j (((src * 131) + (step * 17) + j) land 0xFF)
  done;
  b

let payload_ok ~src ~step b =
  Bytes.length b = payload_len
  &&
  let ok = ref true in
  for j = 8 to payload_len - 1 do
    if Bytes.get_uint8 b j <> ((src * 131) + (step * 17) + j) land 0xFF then
      ok := false
  done;
  !ok

let run ?scenario ?(nodes = 256) ?(steps = 8) ?domains () =
  if nodes < 9 then invalid_arg "Par.run: need at least a 3x3 torus";
  let topology = Simnet.Topology.of_spec ~nodes "torus2d" in
  let t0 = Unix.gettimeofday () in
  let world =
    Runtime.create_world ?scenario ~topology ?domains ~nodes ()
  in
  let topo = Runtime.topology world in
  (* Torus links are node-to-node; keep the guard in case a switch-based
     shape is ever substituted. *)
  let neighbors nid =
    List.filter (fun v -> v < nodes) (Simnet.Topology.neighbors topo nid)
  in
  let counts = Array.make nodes 0 in
  let digests = Array.make nodes 0 in
  let bad = Array.make nodes 0 in
  let expected = ref 0 in
  let proc nid = world.Runtime.ranks.(nid) in
  for nid = 0 to nodes - 1 do
    (* Both the receive handler and the step sends live on the node's
       owner shard; only that domain ever touches slot [nid]. *)
    let sched = Runtime.sched_of_nid world nid in
    let fabric = Runtime.fabric_of_nid world nid in
    Simnet.Fabric.register fabric (proc nid) (fun ~src buf ->
        let s = Int32.to_int (Bytes.get_int32_le buf 0) in
        let step = Int32.to_int (Bytes.get_int32_le buf 4) in
        if s <> src.Simnet.Proc_id.nid || not (payload_ok ~src:s ~step buf)
        then bad.(nid) <- bad.(nid) + 1
        else begin
          counts.(nid) <- counts.(nid) + 1;
          let c = mix ((s * nodes) + nid) in
          let c = mix (c lxor step) in
          let c = mix (c lxor Scheduler.now sched) in
          digests.(nid) <- digests.(nid) + c
        end);
    List.iter
      (fun dst ->
        expected := !expected + steps;
        for step = 0 to steps - 1 do
          Scheduler.at sched
            (step_interval * (step + 1))
            (fun () ->
              Simnet.Fabric.send fabric ~src:(proc nid) ~dst:(proc dst)
                (payload ~src:nid ~step))
        done)
      (neighbors nid)
  done;
  let t1 = Unix.gettimeofday () in
  Runtime.run world;
  let t2 = Unix.gettimeofday () in
  let sum a = Array.fold_left ( + ) 0 a in
  let sim_time_us = Time_ns.to_us (Runtime.now world) in
  {
    nodes;
    dims = Simnet.Topology.dims topo;
    steps;
    domains = Runtime.domains world;
    delivered = sum counts;
    expected = !expected;
    errors = sum bad;
    digest = sum digests land max_int;
    sim_time_us;
    window_rounds = Runtime.window_rounds world;
    lookahead_us =
      (match Runtime.lookahead world with
      | None -> 0.
      | Some l -> Time_ns.to_us l);
    setup_s = t1 -. t0;
    run_s = t2 -. t1;
    wall_s = t2 -. t0;
  }

let ok r = r.errors = 0 && r.delivered = r.expected

(* The line the CI determinism diff compares: everything in it must be a
   pure function of (seed, world) — never of the domain count. *)
let canonical r =
  Printf.sprintf "PAR nodes=%d steps=%d delivered=%d digest=%016x sim_us=%.1f"
    r.nodes r.steps r.delivered r.digest r.sim_time_us

let pp ppf r =
  Format.fprintf ppf
    "parallel engine: halo exchange on a %s torus, %d nodes, %d steps@."
    (String.concat "x" (List.map string_of_int r.dims))
    r.nodes r.steps;
  Format.fprintf ppf
    "  domains=%d lookahead=%.1fus window_rounds=%d wall=%.3fs setup=%.3fs \
     run=%.3fs%s@."
    r.domains r.lookahead_us r.window_rounds r.wall_s r.setup_s r.run_s
    (if ok r then ""
     else
       Printf.sprintf "  [%d/%d delivered, %d errors]" r.delivered r.expected
         r.errors);
  Format.fprintf ppf "  %s@." (canonical r)

(* Run the identical world sequentially and at [domains]; any divergence
   in the canonical line is an engine determinism bug. *)
let selfcheck ?scenario ?nodes ?steps ?(domains = 4) () =
  let seq = run ?scenario ?nodes ?steps ~domains:1 () in
  let par = run ?scenario ?nodes ?steps ~domains () in
  let problems =
    List.concat
      [
        (if ok seq then []
         else [ Printf.sprintf "sequential run incomplete: %s" (canonical seq) ]);
        (if ok par then []
         else [ Printf.sprintf "parallel run incomplete: %s" (canonical par) ]);
        (if canonical seq = canonical par then []
         else
           [
             Printf.sprintf "domains=1 and domains=%d diverge:@.  %s@.  %s"
               par.domains (canonical seq) (canonical par);
           ]);
      ]
  in
  match problems with
  | [] -> Ok (seq, par)
  | ps -> Error (String.concat "; " ps)

(* --- perf records ------------------------------------------------------- *)

(* The workload at 1 and at 4 domains. *)
let record_seq = "PAR.seq"
let record_par4 = "PAR.par4"

(* Each side is metered best of three ({!Perf.meter}); its fastest run
   phase is kept beside the records. *)
type metered = { records : Perf.record list; seq_run_s : float; par4_run_s : float }

let meter_runs ?scenario ?(quick = false) () =
  let nodes = if quick then 64 else 256 in
  let steps = if quick then 4 else 8 in
  let side ~domains id =
    let fastest = ref infinity in
    let record =
      Perf.meter ~id (fun () ->
          let r = run ?scenario ~nodes ~steps ~domains () in
          fastest := Float.min !fastest r.run_s)
    in
    (record, !fastest)
  in
  let seq, seq_run_s = side ~domains:1 record_seq in
  let par4, par4_run_s = side ~domains:4 record_par4 in
  { records = [ seq; par4 ]; seq_run_s; par4_run_s }

(* The run phase of the sequential world over that of the 4-domain one —
   the ratio the multicore CI lane gates at >= 2x. Set-up is left out: it
   is built on as many domains as the run, but it is not what the window
   barrier speeds up. On one hardware core the barrier overhead makes
   this < 1. *)
let run_speedup m =
  if m.par4_run_s > 0. then Some (m.seq_run_s /. m.par4_run_s) else None

(* Aggregate events/sec ratio over the whole meter, set-up included. *)
let events_speedup records =
  let rate id =
    List.find_map
      (fun r ->
        if r.Perf.id = id && r.Perf.events_per_sec > 0. then
          Some r.Perf.events_per_sec
        else None)
      records
  in
  match (rate record_seq, rate record_par4) with
  | Some seq, Some par -> Some (par /. seq)
  | _ -> None
