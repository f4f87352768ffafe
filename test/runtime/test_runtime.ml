open Sim_engine

let portals = Runtime.Stack.find_exn "portals"

let world_tests =
  [
    Alcotest.test_case "rank to process id mapping round-robins nodes" `Quick
      (fun () ->
        let world = Runtime.create_world ~nodes:3 ~procs_per_node:2 () in
        Alcotest.(check int) "job size" 6 (Runtime.job_size world);
        let ids =
          Array.to_list (Array.map Simnet.Proc_id.to_string world.Runtime.ranks)
        in
        Alcotest.(check (list string))
          "round robin"
          [ "0:0"; "1:0"; "2:0"; "0:1"; "1:1"; "2:1" ]
          ids);
    Alcotest.test_case "transport kinds choose matching defaults" `Quick
      (fun () ->
        let offload = Runtime.create_world ~nodes:2 () in
        let kernel =
          Runtime.create_world ~transport:Runtime.Kernel_interrupt ~nodes:2 ()
        in
        Alcotest.(check string) "offload profile" "myrinet-mcp"
          (Simnet.Fabric.profile (Runtime.fabric_of_nid offload 0))
            .Simnet.Profile.name;
        Alcotest.(check string) "kernel profile" "myrinet-kernel"
          (Simnet.Fabric.profile (Runtime.fabric_of_nid kernel 0))
            .Simnet.Profile.name);
    Alcotest.test_case "validation" `Quick (fun () ->
        Alcotest.check_raises "no nodes"
          (Invalid_argument "Runtime.create_world: need at least one node")
          (fun () -> ignore (Runtime.create_world ~nodes:0 ()));
        let world = Runtime.create_world ~nodes:2 () in
        Alcotest.check_raises "bad rank"
          (Invalid_argument "Runtime.host_cpu_of_rank: rank out of range")
          (fun () -> ignore (Runtime.host_cpu_of_rank world 7)));
    Alcotest.test_case "launch runs every rank to completion" `Quick (fun () ->
        let ran = Array.make 5 false in
        let world = Runtime.create_world ~nodes:5 () in
        Runtime.spawn_ranks world (fun ~rank ->
            Scheduler.delay (Runtime.sched_of_rank world rank)
              (Time_ns.us 10.0);
            ran.(rank) <- true);
        Runtime.run world;
        Alcotest.(check (array bool)) "all ran" (Array.make 5 true) ran);
    Alcotest.test_case "Stack.launch_on wires a working job" `Quick (fun () ->
        let total = ref 0 in
        ignore
          (Runtime.Stack.launch_on (Runtime.create_world ~nodes:4 ()) portals
             (fun ep ->
               let rank = Mpi.rank ep in
               if rank <> 0 then
                 Mpi.send ep ~dst:0 ~tag:1 (Bytes.make 1 (Char.chr rank))
               else
                 for _ = 1 to 3 do
                   let b = Bytes.create 1 in
                   let _st = Mpi.recv ep ~tag:1 b in
                   total := !total + Char.code (Bytes.get b 0)
                 done));
        Alcotest.(check int) "sum of ranks" 6 !total);
    Alcotest.test_case "Stack.launch_on over the gm stack" `Quick (fun () ->
        let ok = ref false in
        let gm = Runtime.Stack.find_exn "gm" in
        ignore
          (Runtime.Stack.launch_on
             (Runtime.create_world ~transport:gm.Runtime.Stack.kind ~nodes:2 ())
             gm
             (fun ep ->
               if Mpi.rank ep = 0 then Mpi.send ep ~dst:1 ~tag:0 (Bytes.create 8)
               else begin
                 let st = Mpi.recv ep ~source:0 ~tag:0 (Bytes.create 8) in
                 ok := st.Mpi.length = 8
               end));
        Alcotest.(check bool) "delivered" true !ok);
    Alcotest.test_case "lossy run environment shims reliability under MPI"
      `Quick (fun () ->
        let scenario = Runtime.Scenario.make ~loss:0.15 ~seed:11 () in
        let total = ref 0 in
        let world =
          Runtime.Stack.launch_on
            (Runtime.create_world ~scenario ~nodes:4 ())
            portals
            (fun ep ->
              let rank = Mpi.rank ep in
              if rank <> 0 then
                for _ = 1 to 8 do
                  Mpi.send ep ~dst:0 ~tag:1 (Bytes.make 2048 (Char.chr rank))
                done
              else
                for _ = 1 to 24 do
                  let b = Bytes.create 2048 in
                  let _st = Mpi.recv ep ~tag:1 b in
                  total := !total + Char.code (Bytes.get b 0)
                done)
        in
        Alcotest.(check int) "sum of ranks despite 15% loss" 48 !total;
        (* The wire really was lossy and the shim really repaired it. *)
        let fabrics = Runtime.shard_fabrics world in
        Alcotest.(check bool) "drops injected" true
          (Array.exists
             (fun f -> (Simnet.Fabric.stats f).Simnet.Fabric.drops_injected > 0)
             fabrics);
        Alcotest.(check bool) "shim installed" true
          (Array.for_all Simnet.Fabric.has_shim fabrics));
    Alcotest.test_case "multiple processes per node share the host cpu" `Quick
      (fun () ->
        let world = Runtime.create_world ~nodes:2 ~procs_per_node:2 () in
        (* Ranks 0 and 2 are both on node 0. *)
        Alcotest.(check bool) "same cpu" true
          (Runtime.host_cpu_of_rank world 0 == Runtime.host_cpu_of_rank world 2);
        Alcotest.(check bool) "different nodes differ" false
          (Runtime.host_cpu_of_rank world 0 == Runtime.host_cpu_of_rank world 1));
    Alcotest.test_case "deadlocked job raises with blocked ranks" `Quick
      (fun () ->
        let world = Runtime.create_world ~nodes:2 () in
        let endpoints =
          Array.init 2 (fun rank ->
              Mpi.create_portals (Runtime.transport_of_rank world rank)
                ~ranks:world.Runtime.ranks ~rank ())
        in
        Runtime.spawn_ranks world (fun ~rank ->
            if rank = 0 then
              (* Receive that never gets a message. *)
              ignore (Mpi.recv endpoints.(0) ~source:1 ~tag:9 (Bytes.create 4)));
        (match Runtime.run world with
        | () -> Alcotest.fail "expected deadlock"
        | exception Scheduler.Deadlock blocked ->
          Alcotest.(check int) "one blocked fiber" 1 (List.length blocked)));
    Alcotest.test_case "rtscts transport kind carries mpi traffic" `Quick
      (fun () ->
        let ok = ref false in
        let rtscts = Runtime.Stack.find_exn "rtscts" in
        ignore
          (Runtime.Stack.launch_on
             (Runtime.create_world ~transport:rtscts.Runtime.Stack.kind ~nodes:2 ())
             rtscts
             (fun ep ->
               if Mpi.rank ep = 0 then
                 Mpi.send ep ~dst:1 ~tag:0 (Bytes.make 50_000 'r')
               else begin
                 let b = Bytes.create 50_000 in
                 let st = Mpi.recv ep ~source:0 ~tag:0 b in
                 ok := st.Mpi.length = 50_000 && Bytes.get b 49_999 = 'r'
               end));
        Alcotest.(check bool) "large message over kernel path" true !ok);
  ]

let control_tests =
  [
    Alcotest.test_case "yod launches and gathers exit statuses" `Quick
      (fun () ->
        let world = Runtime.create_world ~nodes:5 () in
        let report =
          Runtime.Control.run_job ~job_id:7 world (fun ~rank -> rank * 10)
        in
        Alcotest.(check int) "job id" 7 report.Runtime.Control.job_id;
        Alcotest.(check (array int)) "statuses"
          [| 0; 10; 20; 30; 40 |]
          report.Runtime.Control.statuses;
        Alcotest.(check bool) "took wire time" true
          (report.Runtime.Control.elapsed > 0));
    Alcotest.test_case "yod runs a job at 1, 2 and 4 domains" `Quick
      (fun () ->
        (* Each agent runs on its rank's shard, so the job is the same
           at any domain count: same statuses, same elapsed time. *)
        let job domains =
          let world = Runtime.create_world ~domains ~nodes:4 () in
          Alcotest.(check int) "domains" domains (Runtime.domains world);
          Runtime.Control.run_job world (fun ~rank -> rank * 10)
        in
        let one = job 1 in
        Alcotest.(check (array int)) "statuses" [| 0; 10; 20; 30 |]
          one.Runtime.Control.statuses;
        List.iter
          (fun domains ->
            let r = job domains in
            Alcotest.(check (array int))
              (Printf.sprintf "statuses at %d domains" domains)
              one.Runtime.Control.statuses r.Runtime.Control.statuses;
            Alcotest.(check int)
              (Printf.sprintf "elapsed at %d domains" domains)
              one.Runtime.Control.elapsed r.Runtime.Control.elapsed)
          [ 2; 4 ]);
    Alcotest.test_case "mains wait for their start message" `Quick (fun () ->
        (* No main may run at t=0: the start put has to cross the wire. *)
        let world = Runtime.create_world ~nodes:3 () in
        let start_times = Array.make 3 0 in
        ignore
          (Runtime.Control.run_job world (fun ~rank ->
               start_times.(rank) <-
                 Scheduler.now (Runtime.sched_of_rank world rank);
               0));
        Array.iteri
          (fun rank t ->
            Alcotest.(check bool)
              (Printf.sprintf "rank %d started after launch traffic" rank)
              true (t > 0))
          start_times);
    Alcotest.test_case "control agents coexist with an MPI job" `Quick
      (fun () ->
        (* The runtime protocol and application traffic share nodes and
           wires but use distinct processes (multiple pids per node). *)
        let world = Runtime.create_world ~nodes:2 () in
        let endpoints =
          Array.init 2 (fun rank ->
              Mpi.create_portals (Runtime.transport_of_rank world rank)
                ~ranks:world.Runtime.ranks ~rank ())
        in
        let got = ref "" in
        let report =
          Runtime.Control.run_job world (fun ~rank ->
              let ep = endpoints.(rank) in
              if rank = 0 then Mpi.send ep ~dst:1 ~tag:0 (Bytes.of_string "app")
              else begin
                let b = Bytes.create 8 in
                let st = Mpi.recv ep ~source:0 ~tag:0 b in
                got := Bytes.sub_string b 0 st.Mpi.length
              end;
              0)
        in
        Alcotest.(check string) "app message flowed" "app" !got;
        Alcotest.(check (array int)) "both exited cleanly" [| 0; 0 |]
          report.Runtime.Control.statuses);
  ]

let env_tests =
  let rejects ?fault ?crashes label =
    Alcotest.(check bool) label true
      (try
         ignore (Runtime.Scenario.make ?fault ?crashes ());
         false
       with Invalid_argument _ -> true)
  in
  let accepts ?fault ?crashes () =
    ignore (Runtime.Scenario.make ?fault ?crashes ())
  in
  [
    Alcotest.test_case "malformed --fault and --crash specs are rejected"
      `Quick (fun () ->
        rejects ~fault:"bogus:0.1" "unknown model";
        rejects ~fault:"bernoulli" "missing parameter";
        rejects ~fault:"bernoulli:1.5" "probability out of range";
        rejects ~fault:"flap:10:20" "downtime exceeds period";
        rejects ~crashes:"1@" "missing crash time";
        rejects ~crashes:"x@10" "non-numeric nid";
        rejects ~crashes:"1@-5" "negative time";
        rejects ~crashes:"1@20:10" "restart before crash";
        (* Valid specs must be accepted. *)
        accepts ~fault:"bernoulli:0.05+duplicate:0.01+flap:100:20" ();
        accepts ~crashes:"1@50:80,0@200" ());
    Alcotest.test_case "corrupt, delay and partition specs are validated"
      `Quick (fun () ->
        rejects ~fault:"corrupt" "corrupt without probability";
        rejects ~fault:"corrupt:-0.1" "corrupt probability negative";
        rejects ~fault:"corrupt:2" "corrupt probability above one";
        rejects ~fault:"delay:-5" "negative delay mean";
        rejects ~fault:"delay:10:20" "delay jitter exceeds mean";
        rejects ~fault:"delay:abc" "non-numeric delay";
        rejects ~fault:"partition:0.1|2.3" "partition without '@'";
        rejects ~fault:"partition:0.1@50" "partition without groups";
        rejects ~fault:"partition:0.1|1.2@50" "node on both sides";
        rejects ~fault:"partition:|2@50" "empty partition group";
        rejects ~fault:"partition:0|1@50:20" "heal before cut";
        rejects ~fault:"partition:0|x@50" "non-numeric nid";
        (* Valid compositions of the new forms must be accepted. *)
        accepts ~fault:"corrupt:0.02+delay:40:10" ();
        accepts ~fault:"partition:0.1|2.3@100:200" ();
        accepts ~fault:"partition:0>1@100" ();
        accepts ~fault:"bernoulli:0.01+corrupt:0.01+partition:0|1@80:160" ());
    Alcotest.test_case "a model's @sN suffix seeds it" `Quick (fun () ->
        let of_spec ?(world_seed = 0) fault =
          match
            Runtime.Scenario.faults
              (Runtime.Scenario.make ~fault ())
              ~seed:world_seed
          with
          | [ m ], [] -> m
          | _ -> Alcotest.fail "one model, no partition"
        in
        let decisions model =
          let src = Simnet.Proc_id.make ~nid:0 ~pid:0
          and dst = Simnet.Proc_id.make ~nid:1 ~pid:0 in
          List.init 1_000 (fun i ->
              Simnet.Fault.decide model ~now:(i * 100) ~src ~dst
                ~len:(64 + (i mod 7)))
        in
        let own = decisions (of_spec "corrupt:0.3@s7") in
        Alcotest.(check bool) "Fault.corrupt ~seed:7's decisions" true
          (own = decisions (Simnet.Fault.corrupt ~seed:7 ~p:0.3 ()));
        Alcotest.(check bool) "whatever the world's seed" true
          (own = decisions (of_spec ~world_seed:5 "corrupt:0.3@s7"));
        Alcotest.(check bool) "not the world-seeded model's" false
          (own = decisions (of_spec "corrupt:0.3")));
    Alcotest.test_case "a malformed or misplaced seed suffix is rejected"
      `Quick (fun () ->
        let bad_spec fault =
          match Runtime.Scenario.make ~fault () with
          | _ -> Alcotest.failf "accepted %S" fault
          | exception Invalid_argument msg ->
            Alcotest.(check bool) (fault ^ " says bad fault spec") true
              (String.starts_with ~prefix:"Runtime: bad fault spec" msg)
        in
        List.iter bad_spec
          [
            "corrupt:0.3@s";
            "corrupt:0.3@sx";
            "corrupt:0.3@7";
            "partition:0|1@s3";
            "flap:100:20@s3";
            "none@s3";
          ];
        accepts
          ~fault:"bernoulli:0.1@s1+gilbert:0.1:0.5@s2+duplicate:0.1@s3" ();
        accepts ~fault:"delay:40:10@s4+corrupt:0.01@s5+partition:0|1@80" ());
    Alcotest.test_case "--loss P is the spec bernoulli:P, first" `Quick
      (fun () ->
        let fault ?fault loss =
          (Runtime.Scenario.make ~loss ?fault ()).Runtime.Scenario.fault
        in
        (* Seventeen digits read back as the same float. *)
        Alcotest.(check (option string)) "alone"
          (Some "bernoulli:0.050000000000000003") (fault 0.05);
        Alcotest.(check (option string)) "ahead of a spec"
          (Some "bernoulli:0.25+corrupt:0.01")
          (fault ~fault:"corrupt:0.01" 0.25);
        Alcotest.(check (option string)) "zero adds nothing" None (fault 0.));
    Alcotest.test_case "partition nids outside the world are rejected" `Quick
      (fun () ->
        let scenario = Runtime.Scenario.make ~fault:"partition:0.1|2.9@100" () in
        Alcotest.(check bool) "create_world rejects nid 9" true
          (try
             ignore (Runtime.create_world ~scenario ~nodes:4 ());
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "env fault spec reaches the fabric of new worlds"
      `Quick (fun () ->
        let scenario =
          Runtime.Scenario.make ~fault:"partition:0.1|2.3@100:400" ()
        in
        let world = Runtime.create_world ~scenario ~nodes:4 () in
        let fabrics = Runtime.shard_fabrics world in
        Alcotest.(check bool) "schedule installed" true
          (Array.for_all Simnet.Fabric.has_partitions fabrics);
        (* Scheduled faults switch the world to checksummed framing, so
           damage is detectable end to end. *)
        Alcotest.(check bool) "integrity enabled" true
          (Array.for_all Simnet.Fabric.integrity fabrics));
    Alcotest.test_case "env crash schedule is applied to new worlds" `Quick
      (fun () ->
        let scenario = Runtime.Scenario.make ~crashes:"1@50:80" () in
        let world = Runtime.create_world ~scenario ~nodes:2 () in
        let downs = ref [] in
        Simnet.Fabric.on_crash (Runtime.fabric_of_nid world 1) (fun nid ->
            downs := nid :: !downs);
        Runtime.run world;
        Alcotest.(check (list int)) "node 1 crashed" [ 1 ] !downs;
        Alcotest.(check int) "and restarted, one incarnation later" 1
          (Simnet.Fabric.incarnation (Runtime.fabric_of_nid world 1) 1));
  ]

(* One 64-byte MPI send between two ranks of [world]; returns the bytes
   the fabric carried and the simulated time the job ended at. *)
let one_message world =
  ignore
    (Runtime.Stack.launch_on world portals (fun ep ->
         if Mpi.rank ep = 0 then Mpi.send ep ~dst:1 ~tag:0 (Bytes.make 64 'm')
         else ignore (Mpi.recv ep ~source:0 ~tag:0 (Bytes.create 64))));
  ( Array.fold_left
      (fun bytes f -> bytes + (Simnet.Fabric.stats f).Simnet.Fabric.bytes_sent)
      0 (Runtime.shard_fabrics world),
    Runtime.now world )

let scenario_tests =
  [
    Alcotest.test_case "a world's wire format does not depend on later worlds"
      `Quick (fun () ->
        let faulty () =
          Runtime.create_world
            ~scenario:
              (Runtime.Scenario.make ~fault:"partition:0|1@100000:200000" ())
            ~nodes:2 ()
        in
        let alone = one_message (faulty ()) in
        let world = faulty () in
        let clean = Runtime.create_world ~nodes:2 () in
        let interleaved = one_message world in
        Alcotest.(check bool) "the clean world stays unchecksummed" false
          (Array.exists Simnet.Fabric.integrity (Runtime.shard_fabrics clean));
        Alcotest.(check (pair int int))
          "bytes sent and end time as when built alone" alone interleaved);
    Alcotest.test_case "scenario constructor rejects bad settings" `Quick
      (fun () ->
        let rejects label msg f =
          Alcotest.check_raises label (Invalid_argument msg) (fun () ->
              ignore (f ()))
        in
        rejects "loss" "Runtime.Scenario.make: loss must be in [0, 1)"
          (Runtime.Scenario.make ~loss:1.);
        rejects "domains" "Runtime.Scenario.make: need at least one domain"
          (Runtime.Scenario.make ~domains:0);
        rejects "queue limit"
          "Runtime.Scenario.make: queue limit must be positive"
          (Runtime.Scenario.make ~queue_limit:0);
        rejects "collectives"
          "Runtime.Scenario.make: unknown collectives engine \"gpu\" \
           (host|nic)"
          (Runtime.Scenario.make ~collectives:"gpu");
        let s = Runtime.Scenario.make ~fault:"" ~crashes:"" ~topology:"" () in
        Alcotest.(check bool) "empty specs mean none" true
          (s = Runtime.Scenario.default));
  ]

let liveness_tests =
  [
    Alcotest.test_case "monitor suspects a crashed node and sees it recover"
      `Quick (fun () ->
        let scenario = Runtime.Scenario.make ~crashes:"2@500:1500" () in
        let world = Runtime.create_world ~scenario ~nodes:3 () in
        let lv =
          Runtime.Liveness.start ~period:(Time_ns.us 100.)
            ~timeout:(Time_ns.us 350.) ~until:(Time_ns.us 3000.) world
        in
        let downs = ref [] in
        let ups = ref [] in
        Runtime.Liveness.on_down lv (fun nid -> downs := nid :: !downs);
        Runtime.Liveness.on_up lv (fun nid -> ups := nid :: !ups);
        Runtime.run ~until:(Time_ns.us 3000.) world;
        Alcotest.(check (list int)) "suspected the victim once" [ 2 ] !downs;
        Alcotest.(check (list int)) "saw it come back" [ 2 ] !ups;
        Alcotest.(check (list int)) "nobody suspected at the end" []
          (Runtime.Liveness.suspected lv));
    Alcotest.test_case "a node that never restarts stays suspected" `Quick
      (fun () ->
        let scenario = Runtime.Scenario.make ~crashes:"1@400" () in
        let world = Runtime.create_world ~scenario ~nodes:3 () in
        let lv =
          Runtime.Liveness.start ~period:(Time_ns.us 100.)
            ~timeout:(Time_ns.us 350.) ~until:(Time_ns.us 2000.) world
        in
        Runtime.run ~until:(Time_ns.us 2000.) world;
        Alcotest.(check (list int)) "still suspected" [ 1 ]
          (Runtime.Liveness.suspected lv));
    Alcotest.test_case
      "heal un-suspects partitioned peers on every transport stack" `Quick
      (fun () ->
        (* The PR 8 regression: a partitioned-but-alive peer must be
           reported partitioned (never crashed) while the cut holds, and
           return to Alive after the heal — on all four stacks' wire
           placements. Heartbeats travel as raw datagrams, so this holds
           even where a reliability shim carries the application traffic. *)
        let verdict_t =
          Alcotest.testable Runtime.Liveness.pp_verdict ( = )
        in
        List.iter
          (fun stack ->
            let name = stack.Runtime.Stack.name in
            let world =
              Runtime.create_world ~transport:stack.Runtime.Stack.kind
                ~nodes:4 ()
            in
            Array.iter
              (fun fabric ->
                Simnet.Fabric.apply_partition_schedule fabric
                  (Simnet.Fault.partition_schedule
                     [
                       {
                         Simnet.Fault.group_a = [ 0; 1 ];
                         group_b = [ 2; 3 ];
                         one_way = false;
                         cut_at = Time_ns.us 500.;
                         heal_at = Some (Time_ns.us 2000.);
                       };
                     ]))
              (Runtime.shard_fabrics world);
            let lv =
              Runtime.Liveness.start ~period:(Time_ns.us 100.)
                ~timeout:(Time_ns.us 350.) ~until:(Time_ns.us 4000.)
                world
            in
            let mid = ref [] in
            (* Node 0 runs the monitor; its shard reads the verdicts. *)
            let monitor = Runtime.sched_of_nid world 0 in
            Scheduler.at monitor (Time_ns.us 1500.)
              (fun () ->
                mid :=
                  List.map
                    (fun nid -> Runtime.Liveness.verdict lv nid)
                    [ 1; 2; 3 ]);
            let final_suspects = ref [ -1 ] in
            Scheduler.at monitor (Time_ns.us 3900.)
              (fun () -> final_suspects := Runtime.Liveness.suspected lv);
            Runtime.run ~until:(Time_ns.us 4000.) world;
            Alcotest.(check (list verdict_t))
              (name ^ ": mid-cut verdicts")
              [
                Runtime.Liveness.Alive;
                Runtime.Liveness.Suspected_partitioned;
                Runtime.Liveness.Suspected_partitioned;
              ]
              !mid;
            Alcotest.(check (list int))
              (name ^ ": nobody suspected after the heal")
              [] !final_suspects)
          Runtime.Stack.all);
    Alcotest.test_case "liveness validates its arguments" `Quick (fun () ->
        let world = Runtime.create_world ~nodes:2 () in
        let rejects label f =
          Alcotest.(check bool) label true
            (try
               ignore (f ());
               false
             with Invalid_argument _ -> true)
        in
        rejects "timeout below period" (fun () ->
            Runtime.Liveness.start ~period:(Time_ns.us 100.)
              ~timeout:(Time_ns.us 50.) ~until:(Time_ns.us 1000.) world);
        rejects "monitor out of range" (fun () ->
            Runtime.Liveness.start ~monitor:7 ~until:(Time_ns.us 1000.) world));
  ]

(* --- parallel worlds --------------------------------------------------- *)

(* One deterministic messaging pattern over a raw fabric; returns every
   delivery as (dst, arrival_ns, src, len) plus the fabric totals summed
   across shards — the signature that must be invariant in the domain
   count. *)
let par_signature ?scenario ~domains ~nodes ?topology () =
  let world =
    Runtime.create_world ?scenario ~domains ~seed:42 ?topology ~nodes ()
  in
  let proc nid = Simnet.Proc_id.make ~nid ~pid:0 in
  let log = Array.make nodes [] in
  for nid = 0 to nodes - 1 do
    let sched = Runtime.sched_of_nid world nid in
    Simnet.Fabric.register
      (Runtime.fabric_of_nid world nid)
      (proc nid)
      (fun ~src payload ->
        log.(nid) <-
          (Scheduler.now sched, src.Simnet.Proc_id.nid, Bytes.length payload)
          :: log.(nid))
  done;
  (* Bursts from every node to a near and a far peer: the far peer lives
     on another shard under any contiguous split, so remote landings —
     and on a torus, remote hop continuations — are exercised. *)
  for nid = 0 to nodes - 1 do
    let sched = Runtime.sched_of_nid world nid in
    let fabric = Runtime.fabric_of_nid world nid in
    for k = 0 to 3 do
      Scheduler.at sched
        (Time_ns.us (float_of_int (5 * k)))
        (fun () ->
          Simnet.Fabric.send fabric ~src:(proc nid)
            ~dst:(proc ((nid + 1) mod nodes))
            (Bytes.create (48 + (16 * k)));
          Simnet.Fabric.send fabric ~src:(proc nid)
            ~dst:(proc ((nid + (nodes / 2)) mod nodes))
            (Bytes.create 32))
    done
  done;
  Runtime.run world;
  let sum f =
    Array.fold_left
      (fun acc fab -> acc + f (Simnet.Fabric.stats fab))
      0 (Runtime.shard_fabrics world)
  in
  let totals =
    Simnet.Fabric.
      [
        sum (fun s -> s.messages_sent);
        sum (fun s -> s.bytes_sent);
        sum (fun s -> s.messages_delivered);
        sum (fun s -> s.drops_unregistered);
        sum (fun s -> s.drops_injected);
        sum (fun s -> s.drops_congested);
        sum (fun s -> s.drops_crashed);
        sum (fun s -> s.drops_partitioned);
        sum (fun s -> s.dups_injected);
        sum (fun s -> s.corrupts_injected);
        sum (fun s -> s.delays_injected);
      ]
  in
  (Array.to_list (Array.map List.rev log), totals)

let check_par_matches_seq ?scenario ~nodes ?topology () =
  let seq_log, seq_totals =
    par_signature ?scenario ~domains:1 ~nodes ?topology ()
  in
  let par_log, par_totals =
    par_signature ?scenario ~domains:4 ~nodes ?topology ()
  in
  Alcotest.(check (list (list (triple int int int))))
    "same per-node delivery history" seq_log par_log;
  Alcotest.(check (list int)) "same fabric totals" seq_totals par_totals

let par_tests =
  [
    Alcotest.test_case "same seed, 1 vs 4 domains: clean full fabric" `Quick
      (fun () -> check_par_matches_seq ~nodes:8 ());
    Alcotest.test_case "same seed, 1 vs 4 domains: clean torus" `Quick
      (fun () ->
        check_par_matches_seq ~nodes:16
          ~topology:(Simnet.Topology.of_spec ~nodes:16 "torus2d")
          ());
    Alcotest.test_case "same seed, 1 vs 4 domains: faults and crashes" `Quick
      (fun () ->
        check_par_matches_seq
          ~scenario:
            (Runtime.Scenario.make ~fault:"corrupt:0.3+delay:3:1"
               ~crashes:"2@8:80" ())
          ~nodes:8 ());
    Alcotest.test_case
      "same seed, 1 vs 4 domains: multi-hop faults on a torus" `Quick
      (fun () ->
        check_par_matches_seq
          ~scenario:(Runtime.Scenario.make ~fault:"bernoulli:0.1+corrupt:0.25" ())
          ~nodes:16
          ~topology:(Simnet.Topology.of_spec ~nodes:16 "torus2d")
          ());
    Alcotest.test_case "one shard runs as the sequential scheduler" `Quick
      (fun () ->
        (* Ranks 1 and 2 finish; ranks 0 and 3 wait for messages that
           never come. *)
        let job () =
          let world = Runtime.create_world ~domains:1 ~nodes:4 () in
          let ranks = world.Runtime.ranks in
          let endpoints =
            Array.init 4 (fun rank ->
                Mpi.create_portals (Runtime.transport_of_rank world rank)
                  ~ranks ~rank ())
          in
          let ran_on = Array.make 4 None in
          Runtime.spawn_ranks world (fun ~rank ->
              ran_on.(rank) <- Some (Domain.self ());
              if rank mod 3 = 0 then
                ignore
                  (Mpi.recv endpoints.(rank) ~source:(3 - rank) ~tag:9
                     (Bytes.create 4)));
          (world, ran_on)
        in
        let blocked run =
          match run () with
          | () -> Alcotest.fail "expected deadlock"
          | exception Scheduler.Deadlock names -> names
        in
        let world, ran_on = job () in
        let names = blocked (fun () -> Runtime.run world) in
        Alcotest.(check int) "one domain" 1 (Runtime.domains world);
        Alcotest.(check int) "no window turned" 0 (Runtime.window_rounds world);
        Alcotest.(check bool) "no lookahead" true (Runtime.lookahead world = None);
        Array.iteri
          (fun rank d ->
            Alcotest.(check bool)
              (Printf.sprintf "rank %d ran on the calling domain" rank)
              true
              (d = Some (Domain.self ())))
          ran_on;
        let reference, _ = job () in
        Alcotest.(check (list string)) "same blocked fibers as Scheduler.run"
          (blocked (fun () -> Scheduler.run (Runtime.sched_of_nid reference 0)))
          names;
        Alcotest.(check int) "two blocked" 2 (List.length names);
        (* A lone shard has no cut link, so a zero-latency wire needs no
           window. *)
        let profile =
          { Simnet.Profile.myrinet_mcp with Simnet.Profile.wire_latency = 0 }
        in
        Runtime.run (Runtime.create_world ~profile ~domains:1 ~nodes:2 ()));
    Alcotest.test_case "parallel world exposes shard placement" `Quick
      (fun () ->
        let world = Runtime.create_world ~domains:4 ~nodes:8 () in
        Alcotest.(check int) "domains" 4 (Runtime.domains world);
        Alcotest.(check bool) "lookahead positive" true
          (match Runtime.lookahead world with
          | Some l -> l > 0
          | None -> false);
        (* Contiguous blocks of two nodes per shard. *)
        Alcotest.(check (list int)) "owners"
          [ 0; 0; 1; 1; 2; 2; 3; 3 ]
          (List.init 8 (Runtime.shard_of_nid world));
        for nid = 0 to 7 do
          let shard = Runtime.shard_of_nid world nid in
          Alcotest.(check bool) "sched matches shard" true
            (Runtime.sched_of_nid world nid
            == (Runtime.shard_scheds world).(shard))
        done;
        (* Small worlds fall back to one shard per node. *)
        let tiny = Runtime.create_world ~domains:4 ~nodes:2 () in
        Alcotest.(check int) "capped at nodes" 2 (Runtime.domains tiny));
    Alcotest.test_case "replicas share one topology" `Quick (fun () ->
        let world =
          Runtime.create_world ~domains:4 ~nodes:16
            ~topology:(Simnet.Topology.of_spec ~nodes:16 "torus2d")
            ()
        in
        let fabrics = Runtime.shard_fabrics world in
        Alcotest.(check int) "four replicas" 4 (Array.length fabrics);
        Array.iteri
          (fun k fabric ->
            Alcotest.(check bool)
              (Printf.sprintf "replica %d: same topology" k)
              true
              (Simnet.Fabric.topology fabric == Runtime.topology world);
            Alcotest.(check bool)
              (Printf.sprintf "replica %d: own scheduler" k)
              true
              (Simnet.Fabric.sched fabric == (Runtime.shard_scheds world).(k)))
          fabrics);
    Alcotest.test_case "a replica that fails to build fails the world" `Quick
      (fun () ->
        (* Every replica applies the crash schedule, so each of the four
           domains raises; the caller sees the same error as at 1 domain. *)
        let build domains =
          match
            Runtime.create_world
              ~scenario:(Runtime.Scenario.make ~crashes:"9@10:20" ())
              ~domains ~nodes:8 ()
          with
          | _ -> "built"
          | exception Invalid_argument msg -> msg
        in
        Alcotest.(check string) "same error" (build 1) (build 4);
        Alcotest.(check bool) "an error" true (build 4 <> "built"));
    Alcotest.test_case "Stack.launch_on runs a parallel job" `Quick (fun () ->
        let total = Atomic.make 0 in
        let world =
          Runtime.Stack.launch_on
            (Runtime.create_world ~nodes:4 ~domains:2 ())
            portals
            (fun ep ->
              let rank = Mpi.rank ep in
              if rank <> 0 then
                Mpi.send ep ~dst:0 ~tag:1 (Bytes.make 1 (Char.chr rank))
              else
                for _ = 1 to 3 do
                  let b = Bytes.create 1 in
                  let _st = Mpi.recv ep ~tag:1 b in
                  Atomic.set total (Atomic.get total + Char.code (Bytes.get b 0))
                done)
        in
        Alcotest.(check int) "2 domains" 2 (Runtime.domains world);
        Alcotest.(check bool) "windows turned" true
          (Runtime.window_rounds world > 0);
        Alcotest.(check int) "sum of ranks" 6 (Atomic.get total));
  ]

(* [f ()] raises [Invalid_argument] whose message names each of
   [names]. *)
let rejects what names f =
  match f () with
  | _ -> Alcotest.failf "%s: a replica served another shard's part" what
  | exception Invalid_argument msg ->
    let has sub =
      let n = String.length sub in
      let rec at i =
        i + n <= String.length msg && (String.sub msg i n = sub || at (i + 1))
      in
      at 0
    in
    List.iter
      (fun sub ->
        if not (has sub) then
          Alcotest.failf "%s: %S does not name %S" what msg sub)
      names

(* ... naming the part, its owner shard and the shard that was asked. *)
let rejects_unowned what ~part ~owner ~asked f =
  rejects what
    [ part ^ " "; Printf.sprintf "shard %d" owner; Printf.sprintf "shard %d" asked ]
    f

let replica_tests =
  let proc nid = Simnet.Proc_id.make ~nid ~pid:0 in
  [
    Alcotest.test_case "each replica holds its shard's block of nodes" `Quick
      (fun () ->
        let world = Runtime.create_world ~domains:3 ~nodes:8 () in
        Array.iteri
          (fun k fabric ->
            Alcotest.(check (pair int int))
              (Printf.sprintf "shard %d" k)
              (Simnet.Shard_map.block world.Runtime.shard_map k)
              (Simnet.Fabric.owned_nodes fabric);
            Alcotest.(check int) "world size" 8
              (Simnet.Fabric.node_count fabric))
          (Runtime.shard_fabrics world);
        let lone = Runtime.create_world ~nodes:8 () in
        Alcotest.(check (pair int int)) "one shard owns every node" (0, 8)
          (Simnet.Fabric.owned_nodes (Runtime.fabric_of_nid lone 0)));
    Alcotest.test_case "a replica rejects a node it does not own" `Quick
      (fun () ->
        (* 4 nodes on 2 shards: shard 0 owns nodes 0 and 1. *)
        let reject ?(nid = 3) what f =
          rejects_unowned what ~part:(Printf.sprintf "node %d" nid) ~owner:1
            ~asked:0 f
        in
        List.iter
          (fun transport ->
            let world =
              Runtime.create_world ~transport ~domains:2 ~nodes:4
                ~topology:(Simnet.Topology.of_spec ~nodes:4 "torus2d:2x2")
                ()
            in
            (* Shard 0's replica and transport, asked about node 3. *)
            let fabric = Runtime.fabric_of_nid world 0 in
            let tr = Runtime.transport_of_rank world 0 in
            reject "Fabric.register" (fun () ->
                Simnet.Fabric.register fabric (proc 3) (fun ~src:_ _ -> ()));
            reject "Fabric.register_frames" (fun () ->
                Simnet.Fabric.register_frames fabric (proc 3) (fun ~src:_ _ ->
                    ()));
            reject ~nid:2 "Fabric.unregister" (fun () ->
                Simnet.Fabric.unregister fabric (proc 2));
            reject ~nid:2 "Fabric.is_registered" (fun () ->
                Simnet.Fabric.is_registered fabric (proc 2));
            reject "Fabric.node" (fun () -> Simnet.Fabric.node fabric 3);
            reject "Fabric.send" (fun () ->
                Simnet.Fabric.send fabric ~src:(proc 3) ~dst:(proc 0)
                  (Bytes.create 8));
            reject "Transport.register" (fun () ->
                tr.Simnet.Transport.register (proc 3) (fun ~src:_ _ -> ()));
            reject "Transport.host_cpu" (fun () ->
                tr.Simnet.Transport.host_cpu 3);
            (* The kernel paths charge the receiving host's CPU and
               serialise a send on the sender's engine: ktx for the
               kernel module, kcopy (after the syscall's CPU charge) for
               RTS/CTS. The offload NIC charges no host. *)
            if transport <> Runtime.Offload then begin
              reject "Transport.charge_rx" (fun () ->
                  tr.Simnet.Transport.charge_rx 3 (Time_ns.us 1.));
              reject "Transport.send" (fun () ->
                  tr.Simnet.Transport.send ~src:(proc 3) ~dst:(proc 0)
                    (Bytes.create 8))
            end;
            (* Node 3's own replica serves it. *)
            let owner = Runtime.fabric_of_nid world 3 in
            Simnet.Fabric.register owner (proc 3) (fun ~src:_ _ -> ());
            Alcotest.(check bool) "owner registers" true
              (Simnet.Fabric.is_registered owner (proc 3));
            ignore (Runtime.host_cpu_of_rank world 3);
            (* Of a node it does not own, a replica knows the up bit and
               the incarnation. *)
            Alcotest.(check bool) "up" true (Simnet.Fabric.is_node_up fabric 3);
            Alcotest.(check int) "incarnation" 0
              (Simnet.Fabric.incarnation fabric 3))
          [ Runtime.Offload; Runtime.Kernel_interrupt; Runtime.Rtscts ]);
    Alcotest.test_case "a replica holds only the hop links it sends on" `Quick
      (fun () ->
        let topology = Simnet.Topology.of_spec ~nodes:4 "torus2d:2x2" in
        let world = Runtime.create_world ~domains:2 ~topology ~nodes:4 () in
        let topo = Runtime.topology world in
        for id = 0 to Simnet.Topology.link_count topo - 1 do
          let src = Simnet.Topology.link_src topo id in
          let owner = Simnet.Shard_map.owner world.Runtime.shard_map src in
          let fabrics = Runtime.shard_fabrics world in
          Alcotest.(check string) "named" (Simnet.Topology.link_name topo id)
            (Simnet.Link.name (Simnet.Fabric.hop_link fabrics.(owner) id));
          let other = 1 - owner in
          rejects_unowned "Fabric.hop_link"
            ~part:(Printf.sprintf "link %d" id)
            ~owner ~asked:other
            (fun () -> Simnet.Fabric.hop_link fabrics.(other) id)
        done);
  ]

let build_cost_tests =
  [
    Alcotest.test_case "a 2-domain world costs at most two 1-domain ones"
      `Quick (fun () ->
        (* Each shard's replica holds only the nodes and hop links it
           owns, so two shards build what one builds, plus one status
           word per node and a scheduler, transport and placeholder per
           replica: a quarter more is a generous bound (about 8% was
           measured), where replicas of the whole fabric cost half as
           much again. The constant covers the shard map and the window
           runtime. *)
        let slack_words = 32_768. in
        let words domains =
          (* The replicas are built on domains of their own, which have
             ended when [create_world] returns; [Gc.quick_stat] folds
             their words in, where [Gc.counters] counts the calling
             domain's only. Either takes in the minor heap's words only
             when it is emptied, so empty it on both sides. *)
          let count () =
            Gc.minor ();
            let g = Gc.quick_stat () in
            g.Gc.minor_words +. g.Gc.major_words -. g.Gc.promoted_words
          in
          let w0 = count () in
          let world =
            Runtime.create_world ~seed:0
              ~topology:(Simnet.Topology.Torus2d (64, 64))
              ~domains ~nodes:4096 ()
          in
          let w1 = count () in
          Alcotest.(check int) "domains" domains (Runtime.domains world);
          w1 -. w0
        in
        let one = words 1 and two = words 2 in
        if two > (1.25 *. one) +. slack_words then
          Alcotest.failf "2 domains allocate %.0f words, 1 domain %.0f" two one);
  ]

let () =
  Alcotest.run "runtime"
    [
      ("world", world_tests);
      ("control", control_tests);
      ("run env", env_tests);
      ("scenario", scenario_tests);
      ("liveness", liveness_tests);
      ("parallel", par_tests);
      ("replicas", replica_tests);
      ("setup", build_cost_tests);
    ]
