open Sim_engine
module C = Collectives
module P = Portals

(* Conformance: the host-driven and NIC-offloaded collective engines
   must be observationally identical — byte-identical results on every
   rank, the same barrier release semantics, the same tolerant-barrier
   shutdown behaviour — whatever the domain count or fault regime. One
   functorizable surface ({!Coll_intf.S}, packed as {!Collectives.any})
   runs every check against both. *)

let impls = [ ("host", C.Host); ("nic", C.Nic_offload) ]

(* An order-sensitive fold (non-commutative, non-associative): any
   divergence in the combining order between the two engines — host
   ascending-mask folds vs NIC Triggered_combine chains — shows up as a
   byte difference, where a plain sum could hide it. *)
let mix acc contribution =
  let n = min (Bytes.length acc) (Bytes.length contribution) in
  for i = 0 to n - 1 do
    Bytes.set_uint8 acc i
      (((Bytes.get_uint8 acc i * 31) + Bytes.get_uint8 contribution i)
      land 0xff)
  done

(* Run [f world coll ~rank] on an [n]-rank world under [impl]; returns
   total §4.8 drops across every rank's interface after quiescence (the
   NIC engine must never mis-fire a chain). *)
let run_group ?scenario ?(n = 4) ?(domains = 1) ?(seed = 0) impl f =
  let world = Runtime.create_world ?scenario ~nodes:n ~domains ~seed () in
  let nis = Array.make n None in
  Runtime.spawn_ranks world (fun ~rank ->
      let ni =
        P.Ni.create
          (Runtime.transport_of_rank world rank)
          ~id:world.Runtime.ranks.(rank) ()
      in
      nis.(rank) <- Some ni;
      let coll = C.create_impl impl ni ~ranks:world.Runtime.ranks ~rank () in
      f world coll ~rank);
  Runtime.run world;
  Array.fold_left
    (fun acc -> function Some ni -> acc + P.Ni.dropped_total ni | None -> acc)
    0 nis

(* A mixed workload touching every operation, long enough to drive the
   NIC engine's sequence window across several internal syncs; returns
   this rank's concatenated observable bytes. *)
let workload n world coll ~rank =
  ignore world;
  let buf = Buffer.create 256 in
  for round = 1 to 6 do
    let mine =
      C.bytes_of_floats
        [| float_of_int (rank + round) *. 1.5; 0.25 *. float_of_int round |]
    in
    Buffer.add_bytes buf (C.any_allreduce coll ~op:C.sum_floats mine);
    let root = round mod n in
    let payload =
      if rank = root then Bytes.of_string (Printf.sprintf "round-%d" round)
      else Bytes.empty
    in
    Buffer.add_bytes buf (C.any_bcast coll ~root payload);
    C.any_barrier coll;
    (match
       C.any_reduce coll ~root ~op:mix
         (Bytes.make 5 (Char.chr ((rank + round) land 0xff)))
     with
    | Some b -> Buffer.add_bytes buf b
    | None -> ())
  done;
  Buffer.contents buf

(* Slot-frame reuse: bcasts whose payload shrinks on every call, with an
   allreduce after each, over several windows' worth of sequences. The
   NIC engine recycles retired slot frames, so every frame is armed again
   while still holding a longer frame from an earlier sequence; only the
   new frame may reach the result. *)
let shrinking_bcasts n _world coll ~rank =
  let buf = Buffer.create 8192 in
  for i = 0 to 39 do
    let root = i mod n in
    let payload =
      if rank = root then
        Bytes.init (400 - (i * 10)) (fun j -> Char.chr (((i * 7) + j) land 0xff))
      else Bytes.empty
    in
    Buffer.add_bytes buf (C.any_bcast coll ~root payload);
    Buffer.add_bytes buf
      (C.any_allreduce coll ~op:C.sum_floats
         (C.bytes_of_floats [| float_of_int (rank * i); 0.5 |]))
  done;
  Buffer.contents buf

let run_workload ?scenario ?(n = 8) ?domains ?(workload = workload) impl =
  let results = Array.make n "" in
  let drops =
    run_group ?scenario ~n ?domains impl (fun world coll ~rank ->
        results.(rank) <- workload n world coll ~rank)
  in
  (results, drops)

let equality_tests =
  List.map
    (fun (name, workload) ->
      Alcotest.test_case ("nic matches host on " ^ name) `Quick (fun () ->
          let host, _ = run_workload ~workload C.Host in
          let nic, drops = run_workload ~workload C.Nic_offload in
          Array.iteri
            (fun rank h ->
              Alcotest.(check string)
                (Printf.sprintf "rank %d bytes" rank)
                h nic.(rank))
            host;
          Alcotest.(check int) "nic runs drop-free" 0 drops))
    [
      ("a mixed workload", workload);
      ("shrinking bcasts with reused slot frames", shrinking_bcasts);
    ]
  @ [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"random payloads agree between engines"
         ~count:10
         QCheck.(
           pair (int_range 2 9)
             (list_of_size Gen.(int_range 1 6) (float_range (-50.) 50.)))
         (fun (n, base) ->
           let base = Array.of_list base in
           let run impl =
             let out = Array.make n ("", "") in
             let _ =
               run_group ~n impl (fun _ coll ~rank ->
                   let mine =
                     Array.map (fun x -> x +. (1.5 *. float_of_int rank)) base
                   in
                   let ar =
                     C.any_allreduce coll ~op:C.sum_floats
                       (C.bytes_of_floats mine)
                   in
                   let rd =
                     match
                       C.any_reduce coll ~root:(n - 1) ~op:mix
                         (Bytes.make 7 (Char.chr (rank + 1)))
                     with
                     | Some b -> Bytes.to_string b
                     | None -> "-"
                   in
                   out.(rank) <- (Bytes.to_string ar, rd))
             in
             out
           in
           run C.Host = run C.Nic_offload));
  ]

let barrier_tests =
  List.map
    (fun (name, impl) ->
      Alcotest.test_case
        (Printf.sprintf "%s barrier releases nobody early" name)
        `Quick
        (fun () ->
          let n = 5 in
          let leave = Array.make n 0 in
          let _ =
            run_group ~n impl (fun world coll ~rank ->
                let sched = Runtime.sched_of_rank world rank in
                Scheduler.delay sched (Time_ns.ms (float_of_int rank));
                C.any_barrier coll;
                leave.(rank) <- Scheduler.now sched)
          in
          let slowest = Time_ns.ms (float_of_int (n - 1)) in
          Array.iteri
            (fun rank t ->
              Alcotest.(check bool)
                (Printf.sprintf "rank %d after slowest" rank)
                true (t >= slowest))
            leave))
    impls

(* The ranks whose tolerant shutdown barrier released them, in a world
   of four ranks sharded over [domains] whose scenario crash-stops rank
   2's node at 2 ms, after every rank has passed a first barrier. *)
let tolerant_release impl ~domains =
  let n = 4 in
  let victim = 2 in
  let released = Array.make n false in
  let scenario = Runtime.Scenario.make ~crashes:"2@2000" ~domains () in
  let world = Runtime.create_world ~scenario ~nodes:n () in
  Runtime.spawn_ranks world (fun ~rank ->
      let ni =
        P.Ni.create
          (Runtime.transport_of_rank world rank)
          ~id:world.Runtime.ranks.(rank) ()
      in
      let coll = C.create_impl impl ni ~ranks:world.Runtime.ranks ~rank () in
      C.any_barrier coll;
      if rank <> victim then begin
        (* Give the crash (at 2 ms) time to land, then run the shutdown
           barrier among the survivors. *)
        Scheduler.delay (Runtime.sched_of_rank world rank) (Time_ns.ms 5.);
        C.any_barrier ~tolerant:true coll;
        released.(rank) <- true
      end);
  Runtime.run world;
  List.filter (fun rank -> released.(rank)) (List.init n Fun.id)

let tolerant_tests =
  List.map
    (fun (name, impl) ->
      Alcotest.test_case
        (Printf.sprintf "%s tolerant barrier survives a crashed rank" name)
        `Quick
        (fun () ->
          List.iter
            (fun domains ->
              Alcotest.(check (list int))
                (Printf.sprintf "survivors released at %d domains" domains)
                [ 0; 1; 3 ]
                (tolerant_release impl ~domains))
            [ 1; 2 ]))
    impls

let domain_tests =
  [
    Alcotest.test_case "byte-identical across engines and domain counts"
      `Quick
      (fun () ->
        let reference, _ = run_workload ~domains:1 C.Host in
        List.iter
          (fun (label, impl, domains) ->
            let got, drops = run_workload ~domains impl in
            Array.iteri
              (fun rank r ->
                Alcotest.(check string)
                  (Printf.sprintf "%s rank %d" label rank)
                  r got.(rank))
              reference;
            if impl = C.Nic_offload then
              Alcotest.(check int)
                (Printf.sprintf "%s drop-free" label)
                0 drops)
          [
            ("host@4", C.Host, 4);
            ("nic@1", C.Nic_offload, 1);
            ("nic@4", C.Nic_offload, 4);
          ])
  ]

let chaos_tests =
  [
    Alcotest.test_case "nic chains survive loss, delay and duplication"
      `Quick
      (fun () ->
        (* Same workload, now over a faulty fabric with the reliability
           shim underneath: retransmits and duplicate deliveries must
           not double-fire chains or skew counters — results still match
           the clean-fabric host reference bit for bit. *)
        let reference, _ = run_workload C.Host in
        let scenario =
          Runtime.Scenario.make ~fault:"bernoulli:0.03+delay:30:15" ()
        in
        List.iter
          (fun (label, impl) ->
            let got, _ = run_workload ~scenario impl in
            Array.iteri
              (fun rank r ->
                Alcotest.(check string)
                  (Printf.sprintf "%s under faults rank %d" label rank)
                  r got.(rank))
              reference)
          [ ("host", C.Host); ("nic", C.Nic_offload) ])
  ]

(* Soak: windows of mixed calls on 16 ranks, each worth the NIC engine's
   whole sequence window (24 sequences: 21 calls' worth plus 3 internal
   syncs), so every slot set is retired and re-armed once per window.
   The first [soak_warmup] windows settle the window's phase against the
   sync period (the first sync retires one more set than it arms); the
   [soak_windows] after them are measured. Then one rank crashes and the
   survivors run tolerant barriers across more internal syncs. Returns
   each rank's observable bytes, how many survivors the tolerant
   barriers released, and for each measured window the (translations,
   entries walked) summed over every NI and each rank's held
   resources at its end. *)
let soak_warmup = 2
let soak_windows = 10

let soak impl =
  let n = 16 and victim = 5 in
  let total = soak_warmup + soak_windows in
  let world = Runtime.create_world ~nodes:n () in
  let out = Array.init n (fun _ -> Buffer.create 4096) in
  let walks = Array.make_matrix total n (0, 0) in
  let held = Array.make_matrix total n None in
  let released = ref 0 in
  (* The victim's fiber triggers its own node's crash: a run-time crash
     on the only shard's fabric. *)
  let victim_sched = Runtime.sched_of_rank world victim in
  let victim_nid = world.Runtime.ranks.(victim).Simnet.Proc_id.nid in
  let victim_done = Sync.Ivar.create victim_sched in
  Runtime.spawn_ranks world (fun ~rank ->
      let ni =
        P.Ni.create (Runtime.transport_of_rank world rank)
          ~id:world.Runtime.ranks.(rank) ()
      in
      let coll = C.create_impl impl ni ~ranks:world.Runtime.ranks ~rank () in
      let bcast root tag =
        let payload =
          if rank = root then Bytes.of_string (Printf.sprintf "%s-%d" tag root)
          else Bytes.empty
        in
        Buffer.add_bytes out.(rank) (C.any_bcast coll ~root payload)
      in
      for w = 0 to total - 1 do
        for g = 0 to 6 do
          let root = ((w * 7) + g) mod n in
          if g mod 2 = 0 then begin
            bcast root (Printf.sprintf "w%d" w);
            Buffer.add_bytes out.(rank)
              (C.any_allreduce coll ~op:C.sum_floats
                 (C.bytes_of_floats
                    [| float_of_int (rank + w); 0.5 *. float_of_int g |]))
          end
          else begin
            C.any_barrier coll;
            C.any_barrier ~tolerant:true coll;
            bcast root "b"
          end
        done;
        let c = P.Ni.counters ni in
        walks.(w).(rank) <- (c.P.Ni.translations, c.P.Ni.entries_walked);
        held.(w).(rank) <- Some (P.Ni.resources ni)
      done;
      C.any_barrier coll;
      if rank = victim then Sync.Ivar.fill victim_done ()
      else begin
        (* The crash lands 1 ms after the victim's last barrier, with
           nothing in flight; survivors start 2 ms after theirs. *)
        Scheduler.delay (Runtime.sched_of_rank world rank) (Time_ns.ms 2.);
        for _ = 1 to 12 do
          C.any_barrier ~tolerant:true coll
        done;
        incr released
      end);
  Scheduler.spawn victim_sched (fun () ->
      Sync.Ivar.read victim_done;
      Scheduler.delay victim_sched (Time_ns.ms 1.);
      Simnet.Fabric.crash (Runtime.fabric_of_nid world victim_nid) victim_nid);
  Runtime.run world;
  let summed w =
    Array.fold_left (fun (t, e) (t', e') -> (t + t', e + e')) (0, 0) walks.(w)
  in
  let measured =
    List.init soak_windows (fun i ->
        let w = soak_warmup + i in
        let (t, e), (t0, e0) = (summed w, summed (w - 1)) in
        ((t - t0, e - e0), held.(w)))
  in
  (Array.map Buffer.contents out, !released, measured)

let soak_tests =
  [
    Alcotest.test_case "window soak: nic matches host and leaks nothing"
      `Quick (fun () ->
        let host, host_released, _ = soak C.Host in
        let nic, nic_released, measured = soak C.Nic_offload in
        Array.iteri
          (fun rank h ->
            Alcotest.(check string) (Printf.sprintf "rank %d bytes" rank) h
              nic.(rank))
          host;
        Alcotest.(check int) "host survivors released" 15 host_released;
        Alcotest.(check int) "nic survivors released" 15 nic_released;
        let first = List.hd measured
        and last = List.nth measured (soak_windows - 1) in
        let (t0, e0), held0 = first and (t1, e1), held1 = last in
        Alcotest.(check bool) "every window translates" true (t0 > 0 && t1 > 0);
        (* Equal means, compared exactly: e0 / t0 = e1 / t1. A slot set
           left linked would lengthen every later walk. *)
        Alcotest.(check int) "mean walk per translation, cross-multiplied"
          (e0 * t1) (e1 * t0);
        Array.iteri
          (fun rank h ->
            Alcotest.(check bool)
              (Printf.sprintf "rank %d holds the same handles" rank)
              true
              (h <> None && h = held1.(rank)))
          held0)
  ]

let () =
  Alcotest.run "coll-conformance"
    [
      ("equality", equality_tests);
      ("barrier", barrier_tests);
      ("tolerant", tolerant_tests);
      ("domains", domain_tests);
      ("chaos", chaos_tests);
      ("soak", soak_tests);
    ]
