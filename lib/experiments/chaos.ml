open Sim_engine
module P = Portals
module C = Reliability.Chaos

(* Invariant-checked chaos campaigns: every cell of a corruption x delay
   x partition x crash x loss grid runs two worlds and asserts what must
   survive the abuse.

     stream     seeded per-pair message streams (over the reliability
                shim in a faulty cell) — delivered exactly once, in
                order, byte-identical (corruption must degrade to loss,
                never to silent damage), with a liveness monitor
                asserting that a partitioned-but-alive peer is reported
                partitioned, not crashed, and that suspicion converges
                after the heal
     rma        the PR-7 linearizability harness promoted from the test
                suite: concurrent fetch_adds must fetch each pre-value
                exactly once, CAS slot claims must be exclusive — under
                the same faults (crash axis excluded: atomics to a dead
                node have no completion to wait on)

   A cell passes when its violation list is empty; the campaign passes
   when every cell does ([zero_violations]). Deterministic per seed. *)

type report = {
  cell : C.cell;
  violations : string list;
  delivered : int;  (** Stream payloads accepted exactly once. *)
  corrupts_injected : int;
  delays_injected : int;
  drops_partitioned : int;
  rel_corrupt_drops : int;  (** Shim frames discarded on bad CRC. *)
  checksum_drops : int;  (** NI-level [Checksum_failed] drops (§4.8). *)
  sim_time_us : float;
}

type t = { reports : report list }

(* --- campaign parameters ----------------------------------------------- *)

let horizon = Time_ns.ms 8.
let liveness_period = Time_ns.us 100.
let liveness_timeout = Time_ns.us 500.
let stream_msgs ~quick = if quick then 24 else 60
let rma_ops ~quick = if quick then 4 else 8

(* --- the stream checker ------------------------------------------------- *)

type stream = {
  st_src : int;
  st_dst : int;
  st_msgs : int;
  mutable expected : int;  (** Next in-order sequence number. *)
  mutable accepted : int;
  mutable seq_violations : int;
  mutable byte_violations : int;
}

let stream ~src ~dst ~msgs =
  {
    st_src = src;
    st_dst = dst;
    st_msgs = msgs;
    expected = 0;
    accepted = 0;
    seq_violations = 0;
    byte_violations = 0;
  }

let payload_byte ~src ~dst ~seq j =
  ((src * 31) + (dst * 17) + (seq * 7) + j) land 0xFF

let stream_payload ~src ~dst ~seq =
  let len = 16 + (seq mod 48) in
  let b = Bytes.create len in
  Bytes.set_int32_le b 0 (Int32.of_int seq);
  for j = 4 to len - 1 do
    Bytes.set_uint8 b j (payload_byte ~src ~dst ~seq j)
  done;
  b

let check_payload ~src ~dst ~seq buf =
  let ok = ref (Bytes.length buf = 16 + (seq mod 48)) in
  if !ok then
    for j = 4 to Bytes.length buf - 1 do
      if Bytes.get_uint8 buf j <> payload_byte ~src ~dst ~seq j then ok := false
    done;
  !ok

let stream_receive st ~src:from buf =
  let src = st.st_src and dst = st.st_dst in
  if from.Simnet.Proc_id.nid <> src then ()
  else if Bytes.length buf < 4 then begin
    (* Too short to carry a sequence number: only damage makes such a
       payload, and it must show up as a violation rather than abort the
       campaign. *)
    st.seq_violations <- st.seq_violations + 1;
    st.byte_violations <- st.byte_violations + 1
  end
  else begin
    let seq = Int32.to_int (Bytes.get_int32_le buf 0) in
    if seq <> st.expected then st.seq_violations <- st.seq_violations + 1
    else begin
      st.expected <- st.expected + 1;
      st.accepted <- st.accepted + 1
    end;
    if not (check_payload ~src ~dst ~seq buf) then
      st.byte_violations <- st.byte_violations + 1
  end

let stream_violations st =
  let src = st.st_src and dst = st.st_dst in
  List.filter_map Fun.id
    [
      (if st.accepted <> st.st_msgs then
         Some
           (Printf.sprintf "stream %d->%d: %d/%d delivered" src dst st.accepted
              st.st_msgs)
       else None);
      (if st.seq_violations > 0 then
         Some
           (Printf.sprintf "stream %d->%d: %d out-of-order/duplicate arrivals"
              src dst st.seq_violations)
       else None);
      (if st.byte_violations > 0 then
         Some
           (Printf.sprintf "stream %d->%d: %d corrupted payloads surfaced" src
              dst st.byte_violations)
       else None);
    ]

(* --- a cell as two scenarios ------------------------------------------- *)

(* Both worlds run six nodes on the full fabric. Crash victims live
   outside every stream pair and the liveness monitor, so the
   exactly-once obligation stays well-defined: nobody streams to a node
   that ceases to exist. *)
let nodes = 6
let victims = [ nodes - 2; nodes - 1 ]

(* Each axis draws from its own stream, seeded [4 * seed + k], so turning
   one axis on or off never perturbs another's. The partition is one
   symmetric cut across the middle of the node range for the middle half
   of the horizon: late enough that liveness has formed a full picture
   of the job, healed early enough that convergence after the heal is
   observable before the run ends. Times are written as microseconds
   with three decimals, which [Time_ns.us] reads back to the
   nanosecond. *)
let world_scenarios ~domains (cell : C.cell) =
  let seed k = (4 * cell.C.seed) + k in
  let us t = Printf.sprintf "%.3f" (Time_ns.to_us t) in
  let group lo hi =
    String.concat "." (List.init (hi - lo) (fun i -> string_of_int (lo + i)))
  in
  let on axis element = if axis then [ element ] else [] in
  let elements =
    on (cell.C.corrupt > 0.)
      (Printf.sprintf "corrupt:%.17g@s%d" cell.C.corrupt (seed 1))
    @ on (cell.C.delay > 0)
        (Printf.sprintf "delay:%s@s%d" (us cell.C.delay) (seed 2))
    @ on (cell.C.loss > 0.)
        (Printf.sprintf "bernoulli:%.17g@s%d" cell.C.loss (seed 3))
    @ on cell.C.partition
        (Printf.sprintf "partition:%s|%s@%s:%s" (group 0 (nodes / 2))
           (group (nodes / 2) nodes) (us (horizon / 4))
           (us (horizon * 3 / 4)))
  in
  (* A faulty cell always names a fault, ["none"] when crashes are its
     only axis, so both of its worlds get checksummed frames and the
     shim; a clean cell names none and its worlds stay clean. *)
  let fault =
    match elements with
    | [] -> if C.faulty cell then "none" else ""
    | elements -> String.concat "+" elements
  in
  let crashes =
    Simnet.Fault.random_crash_schedule ~seed:(seed 4) ~nids:victims
      ~crashes:cell.C.crashes ~horizon ()
    |> List.map (fun e ->
           Printf.sprintf "%d@%s%s" e.Simnet.Fault.victim
             (us e.Simnet.Fault.down_at)
             (Option.fold ~none:"" ~some:(fun t -> ":" ^ us t)
                e.Simnet.Fault.up_at))
    |> String.concat ","
  in
  (* The RMA world takes no crashes: atomics to a dead node have no
     completion to wait on. *)
  ( Runtime.Scenario.make ~seed:cell.C.seed ~fault ~crashes ~domains (),
    Runtime.Scenario.make ~seed:(cell.C.seed + 1) ~fault ~domains () )

(* --- the stream + liveness world --------------------------------------- *)

let run_stream_world ~quick scenario =
  let nids = List.init nodes Fun.id in
  let msgs = stream_msgs ~quick in
  let world = Runtime.create_world ~scenario ~nodes () in
  let violations = ref [] in
  let violation fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  (* Streams: one pair crossing the partition cut each way, one pair
     inside the first half each way. *)
  let pairs = [ (0, nodes / 2); (nodes / 2, 0); (1, 2); (2, 1) ] in
  let stats =
    List.map (fun ((src, dst) as pair) -> (pair, stream ~src ~dst ~msgs)) pairs
  in
  let proc nid = world.Runtime.ranks.(nid) in
  (* No two pairs share a destination, so each dst registers exactly one
     handler (the monitor's beat handler lives on a different pid) — on
     the dst's owner-shard fabric, where its frames are delivered. *)
  List.iter
    (fun ((_, dst), st) ->
      Simnet.Fabric.register (Runtime.fabric_of_nid world dst) (proc dst)
        (stream_receive st))
    stats;
  (* Sends spread over the first 80% of the horizon, so some land inside
     the cut window and must ride retransmission out of it. *)
  let spacing = horizon * 4 / (5 * msgs) in
  List.iter
    (fun ((src, dst), _) ->
      (* Sends are scheduled on the src's owner shard and injected into
         its fabric replica, exactly as a resident fiber would. *)
      let src_sched = Runtime.sched_of_nid world src in
      let src_fabric = Runtime.fabric_of_nid world src in
      for seq = 0 to msgs - 1 do
        Scheduler.at src_sched
          (spacing * (seq + 1))
          (fun () ->
            Simnet.Fabric.send src_fabric ~src:(proc src) ~dst:(proc dst)
              (stream_payload ~src ~dst ~seq))
      done)
    stats;
  (* The liveness monitor on node 0, and its two scheduled audits. *)
  let liveness =
    Runtime.Liveness.start ~period:liveness_period ~timeout:liveness_timeout
      ~until:horizon world
  in
  (* Both audits run on the monitor's shard: verdicts are monitor-local
     state, and crash flags are replicated on every fabric. *)
  let mon_sched = Runtime.sched_of_nid world 0 in
  let mon_fabric = Runtime.fabric_of_nid world 0 in
  let partitions = Simnet.Fabric.partition_schedule mon_fabric in
  (match partitions with
  | [] -> ()
  | event :: _ ->
    let cut = event.Simnet.Fault.cut_at in
    let heal = Option.value event.Simnet.Fault.heal_at ~default:horizon in
    let mid = (cut + heal) / 2 in
    Scheduler.at mon_sched mid (fun () ->
        (* Mid-cut: every unreachable-but-up peer must be reported
           partitioned, never crashed; cross-cut peers must actually be
           suspected by now (the cut is many timeouts old). *)
        List.iter
          (fun nid ->
            match Runtime.Liveness.verdict liveness nid with
            | Runtime.Liveness.Suspected_crashed
              when Simnet.Fabric.is_node_up mon_fabric nid ->
              violation "mid-cut: up node %d reported crashed" nid
            | _ -> ())
          (List.tl nids);
        List.iter
          (fun nid ->
            if
              (not (List.mem nid victims))
              && nid >= nodes / 2
              && Runtime.Liveness.verdict liveness nid
                 <> Runtime.Liveness.Suspected_partitioned
            then violation "mid-cut: cross-cut node %d not suspected" nid)
          nids));
  Scheduler.at mon_sched (Time_ns.sub horizon (Time_ns.us 10.)) (fun () ->
      (* End of run: for healing partitions, suspicion must have
         converged back to clean on every non-victim node. *)
      if partitions <> [] then
        List.iter
          (fun nid ->
            if
              (not (List.mem nid victims))
              && nid <> 0
              && Runtime.Liveness.verdict liveness nid <> Runtime.Liveness.Alive
            then violation "post-heal: node %d still suspected" nid)
          nids);
  Runtime.run world;
  List.iter
    (fun (_, st) -> List.iter (violation "%s") (stream_violations st))
    stats;
  (* Injection counters accumulate where each stochastic decision was
     made (the src shard), CRC drops where the frame was received — sum
     over replicas to recover the sequential totals. *)
  let sum f arr = Array.fold_left (fun a x -> a + f x) 0 arr in
  let fabrics = Runtime.shard_fabrics world in
  let corrupts =
    sum (fun f -> (Simnet.Fabric.stats f).Simnet.Fabric.corrupts_injected) fabrics
  in
  let delays =
    sum (fun f -> (Simnet.Fabric.stats f).Simnet.Fabric.delays_injected) fabrics
  in
  let parted =
    sum (fun f -> (Simnet.Fabric.stats f).Simnet.Fabric.drops_partitioned) fabrics
  in
  let rel_corrupt =
    List.fold_left
      (fun a s -> a + (Reliability.stats s).Reliability.corrupt_drops)
      0
      (Runtime.reliability_shims world)
  in
  let now_us = Time_ns.to_us (Runtime.now world) in
  let delivered = List.fold_left (fun a (_, st) -> a + st.accepted) 0 stats in
  (!violations, delivered, (corrupts, delays, parted), rel_corrupt, now_us)

(* --- the RMA linearizability world ------------------------------------- *)

let run_rma_world ~quick scenario =
  let ranks = 4 in
  let ops = rma_ops ~quick in
  let world = Runtime.create_world ~scenario ~nodes () in
  (* Ranks straddle the cut (nids 0, 1, n/2, n/2+1) so atomics must
     survive the partition, not merely avoid it. *)
  let rank_nids = [| 0; 1; nodes / 2; (nodes / 2) + 1 |] in
  let procs = Array.map (fun nid -> Simnet.Proc_id.make ~nid ~pid:0) rank_nids in
  (* Each NI lives over its node's owner-shard transport. *)
  let nis =
    Array.map
      (fun pid ->
        P.Ni.create
          (Runtime.transport_of_rank world pid.Simnet.Proc_id.nid)
          ~id:pid ())
      procs
  in
  let oss =
    Array.mapi (fun rank ni -> Onesided.create_exn ni ~ranks:procs ~rank ()) nis
  in
  let slots = ranks * ops in
  let wins =
    Array.map (fun os -> Onesided.win_create os ~size:(8 + (slots * 8))) oss
  in
  let fetched = Array.make ranks [] in
  let claimed = Array.make ranks [] in
  Array.iteri
    (fun rank pid ->
      Scheduler.spawn
        (Runtime.sched_of_nid world pid.Simnet.Proc_id.nid)
        ~name:(Printf.sprintf "chaos-rma%d" rank)
        ~domain:pid.Simnet.Proc_id.nid
        (fun () ->
          let w = wins.(rank) in
          for i = 0 to ops - 1 do
            (* The shared counter on rank 0: every increment must fetch
               a distinct pre-value. *)
            let old = Onesided.Win.fetch_and_add w ~rank:0 ~offset:0 1L in
            fetched.(rank) <- old :: fetched.(rank);
            (* A CAS slot claim: key (rank, i) targets slot
               rank*ops + i on its owner — plus a contended claim on
               slot 0 that exactly one rank can win. *)
            let slot = (rank * ops) + i in
            let owner = slot mod ranks and off = 8 + (slot / ranks * 8) in
            let key = Int64.of_int ((rank * ops) + i + 1) in
            let prev =
              Onesided.Win.compare_and_swap w ~rank:owner ~offset:off
                ~expected:0L ~desired:key
            in
            if prev = 0L then claimed.(rank) <- slot :: claimed.(rank)
          done))
    procs;
  Runtime.run world;
  let violations = ref [] in
  let violation fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  let total = ranks * ops in
  let counter = Bytes.get_int64_le (Onesided.Win.local_data wins.(0)) 0 in
  if counter <> Int64.of_int total then
    violation "rma: counter %Ld after %d fetch_adds" counter total;
  let all_fetched =
    List.sort compare (Array.to_list fetched |> List.concat)
  in
  if all_fetched <> List.init total Int64.of_int then
    violation "rma: fetch_add pre-values not a permutation of 0..%d"
      (total - 1);
  let all_claims = Array.to_list claimed |> List.concat in
  if List.length all_claims <> List.length (List.sort_uniq compare all_claims)
  then violation "rma: a CAS slot claimed twice";
  if List.length all_claims <> total then
    violation "rma: %d/%d CAS claims succeeded" (List.length all_claims) total;
  let checksum_drops =
    Array.fold_left
      (fun acc ni -> acc + P.Ni.dropped ni P.Ni.Checksum_failed)
      0 nis
  in
  let now_us = Time_ns.to_us (Runtime.now world) in
  (!violations, checksum_drops, now_us)

(* --- per-cell driver ---------------------------------------------------- *)

let run_cell ?(scenario = Runtime.Scenario.default) ?(quick = false) cell =
  let stream_scenario, rma_scenario =
    world_scenarios ~domains:scenario.Runtime.Scenario.domains cell
  in
  let sviol, delivered, (corrupts, delays, parted), rel_corrupt_drops, t1 =
    run_stream_world ~quick stream_scenario
  in
  let rviol, checksum_drops, t2 = run_rma_world ~quick rma_scenario in
  {
    cell;
    violations = List.rev sviol @ List.rev rviol;
    delivered;
    corrupts_injected = corrupts;
    delays_injected = delays;
    drops_partitioned = parted;
    rel_corrupt_drops;
    checksum_drops;
    sim_time_us = t1 +. t2;
  }

(* --- campaign grids ----------------------------------------------------- *)

let axis_cells ~seed =
  [
    ("clean", C.cell ~seed ());
    ("corrupt", C.cell ~corrupt:0.02 ~seed ());
    ("delay", C.cell ~delay:(Time_ns.us 40.) ~seed ());
    ("partition", C.cell ~partition:true ~seed ());
    ("crash", C.cell ~crashes:1 ~seed ());
    ("loss", C.cell ~loss:0.02 ~seed ());
    ( "mix",
      C.cell ~corrupt:0.01 ~delay:(Time_ns.us 20.) ~partition:true ~loss:0.01
        ~seed () );
  ]

let default_cells ?(quick = false) ~seed () =
  if quick then List.map snd (axis_cells ~seed)
  else
    C.grid ~corrupts:[ 0.; 0.02 ]
      ~delays:[ 0; Time_ns.us 40. ]
      ~partitions:[ false; true ] ~crash_counts:[ 0; 1 ] ~losses:[ 0.; 0.02 ]
      ~seeds:[ seed + 1 ] ()

let run ?(scenario = Runtime.Scenario.default) ?(cells = []) ?(quick = false)
    () =
  let cells =
    match cells with
    | [] -> default_cells ~quick ~seed:scenario.Runtime.Scenario.seed ()
    | cells -> cells
  in
  { reports = List.map (run_cell ~scenario ~quick) cells }

let zero_violations t =
  List.for_all (fun r -> r.violations = []) t.reports

let total_violations t =
  List.fold_left (fun a r -> a + List.length r.violations) 0 t.reports

let pp ppf t =
  Format.fprintf ppf
    "chaos campaign: %d cells (invariants: exactly-once, in-order, \
     byte-clean, RMA linearizable, liveness partition-aware)@."
    (List.length t.reports);
  Format.fprintf ppf "%-44s %-9s %9s %8s %8s %6s@." "cell" "verdict"
    "delivered" "corrupts" "cksum" "part";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-44s %-9s %9d %8d %8d %6d@." (C.describe r.cell)
        (if r.violations = [] then "ok" else "VIOLATED")
        r.delivered r.corrupts_injected
        (r.rel_corrupt_drops + r.checksum_drops)
        r.drops_partitioned;
      List.iter (fun v -> Format.fprintf ppf "    violation: %s@." v) r.violations)
    t.reports;
  Format.fprintf ppf "total violations: %d@." (total_violations t)

(* --- perf records ------------------------------------------------------- *)

let record_id name = "CH." ^ name

let perf_records ?(scenario = Runtime.Scenario.default) ?(quick = true) () =
  List.map
    (fun (name, cell) ->
      Perf.meter ~id:(record_id name) (fun () ->
          let r = run_cell ~scenario ~quick cell in
          if r.violations <> [] then
            failwith
              (Printf.sprintf "chaos invariant violated in %s: %s" name
                 (String.concat "; " r.violations))))
    (axis_cells ~seed:scenario.Runtime.Scenario.seed)
