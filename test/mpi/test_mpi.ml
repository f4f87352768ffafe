(* MPI layer tests, run against the Portals, GM and ibverbs backends
   through the same scenarios, plus backend-specific progress-semantics
   tests — the behavioural split that Figure 6 of the paper measures. *)

open Sim_engine

let proc nid pid = Simnet.Proc_id.make ~nid ~pid

type backend = Portals_b | Gm_b | Ibverbs_b

let create backend tp ~ranks ~rank =
  match backend with
  | Portals_b -> Mpi.create_portals tp ~ranks ~rank ()
  | Gm_b -> Mpi.create_gm tp ~ranks ~rank ()
  | Ibverbs_b -> Mpi.create_ibverbs tp ~ranks ~rank ()

(* Build an [n]-rank world and run [f ep rank] in one fiber per rank. *)
let with_world ?(n = 2) ?(profile = Simnet.Profile.myrinet_mcp) ~backend f =
  let sched = Scheduler.create () in
  let fabric = Simnet.Fabric.create sched ~profile ~nodes:n in
  let tp = Simnet.Transport.offload fabric in
  let ranks = Array.init n (fun r -> proc r 0) in
  let endpoints = Array.init n (fun rank -> create backend tp ~ranks ~rank) in
  Array.iteri
    (fun rank ep ->
      Scheduler.spawn sched ~name:(Printf.sprintf "rank%d" rank) (fun () ->
          f ep rank))
    endpoints;
  Scheduler.run sched;
  (sched, endpoints)

let bytes_of_string = Bytes.of_string

(* One test case per backend. *)
let per_backend name speed body =
  [
    Alcotest.test_case (name ^ " [portals]") speed (fun () -> body Portals_b);
    Alcotest.test_case (name ^ " [gm]") speed (fun () -> body Gm_b);
    Alcotest.test_case (name ^ " [ibverbs]") speed (fun () -> body Ibverbs_b);
  ]

let basic_tests =
  per_backend "blocking send/recv round trip" `Quick (fun backend ->
      let got = ref None in
      ignore
        (with_world ~backend (fun ep rank ->
             if rank = 0 then Mpi.send ep ~dst:1 ~tag:7 (bytes_of_string "hello mpi")
             else begin
               let buffer = Bytes.create 64 in
               let st = Mpi.recv ep ~source:0 ~tag:7 buffer in
               got := Some (st, Bytes.sub_string buffer 0 st.Mpi.length)
             end));
      match !got with
      | Some (st, data) ->
        Alcotest.(check int) "source" 0 st.Mpi.source;
        Alcotest.(check int) "tag" 7 st.Mpi.tag;
        Alcotest.(check string) "data" "hello mpi" data
      | None -> Alcotest.fail "no message")
  @ per_backend "isend/irecv with waitall" `Quick (fun backend ->
        let results = ref [] in
        ignore
          (with_world ~backend (fun ep rank ->
               if rank = 0 then begin
                 let reqs =
                   List.init 5 (fun i ->
                       Mpi.isend ep ~dst:1 ~tag:i
                         (bytes_of_string (Printf.sprintf "msg%d" i)))
                 in
                 ignore (Mpi.waitall ep reqs)
               end
               else begin
                 let bufs = List.init 5 (fun _ -> Bytes.create 16) in
                 let reqs =
                   List.mapi (fun i b -> Mpi.irecv ep ~source:0 ~tag:i b) bufs
                 in
                 let sts = Mpi.waitall ep reqs in
                 results :=
                   List.map2
                     (fun st b -> (st.Mpi.tag, Bytes.sub_string b 0 st.Mpi.length))
                     sts bufs
               end));
        Alcotest.(check (list (pair int string)))
          "all five in tag order"
          [ (0, "msg0"); (1, "msg1"); (2, "msg2"); (3, "msg3"); (4, "msg4") ]
          !results)
  @ per_backend "zero-length message" `Quick (fun backend ->
        let st = ref None in
        ignore
          (with_world ~backend (fun ep rank ->
               if rank = 0 then Mpi.send ep ~dst:1 ~tag:3 Bytes.empty
               else st := Some (Mpi.recv ep ~source:0 ~tag:3 (Bytes.create 0))));
        match !st with
        | Some s ->
          Alcotest.(check int) "length" 0 s.Mpi.length;
          Alcotest.(check int) "tag" 3 s.Mpi.tag
        | None -> Alcotest.fail "no status")
  @ per_backend "large message uses rendezvous and is intact" `Quick
      (fun backend ->
        (* Above both backends' eager thresholds. *)
        let len = 200_000 in
        let payload = Bytes.init len (fun i -> Char.chr (i * 7 mod 256)) in
        let ok = ref false in
        ignore
          (with_world ~backend (fun ep rank ->
               if rank = 0 then Mpi.send ep ~dst:1 ~tag:1 payload
               else begin
                 let buffer = Bytes.create len in
                 let st = Mpi.recv ep ~source:0 ~tag:1 buffer in
                 ok := st.Mpi.length = len && Bytes.equal buffer payload
               end));
        Alcotest.(check bool) "intact" true !ok)

let matching_tests =
  per_backend "tags select among out-of-order receives" `Quick (fun backend ->
      let a = ref "" and b = ref "" in
      ignore
        (with_world ~backend (fun ep rank ->
             if rank = 0 then begin
               Mpi.send ep ~dst:1 ~tag:10 (bytes_of_string "for-ten");
               Mpi.send ep ~dst:1 ~tag:20 (bytes_of_string "for-twenty")
             end
             else begin
               (* Post in the opposite order of sending. *)
               let buf20 = Bytes.create 32 and buf10 = Bytes.create 32 in
               let r20 = Mpi.irecv ep ~source:0 ~tag:20 buf20 in
               let r10 = Mpi.irecv ep ~source:0 ~tag:10 buf10 in
               let st20 = Mpi.wait ep r20 and st10 = Mpi.wait ep r10 in
               a := Bytes.sub_string buf10 0 st10.Mpi.length;
               b := Bytes.sub_string buf20 0 st20.Mpi.length
             end));
      Alcotest.(check string) "tag 10" "for-ten" !a;
      Alcotest.(check string) "tag 20" "for-twenty" !b)
  @ per_backend "any_source and any_tag wildcards" `Quick (fun backend ->
        let seen = ref [] in
        ignore
          (with_world ~n:3 ~backend (fun ep rank ->
               if rank = 1 || rank = 2 then
                 Mpi.send ep ~dst:0 ~tag:(100 + rank)
                   (bytes_of_string (Printf.sprintf "from%d" rank))
               else
                 for _ = 1 to 2 do
                   let buffer = Bytes.create 16 in
                   let st = Mpi.recv ep buffer in
                   seen := (st.Mpi.source, st.Mpi.tag) :: !seen
                 done));
        let sorted = List.sort compare !seen in
        Alcotest.(check (list (pair int int)))
          "both arrived with real source/tag"
          [ (1, 101); (2, 102) ]
          sorted)
  @ per_backend "same-envelope messages match receives in order" `Quick
      (fun backend ->
        let got = ref [] in
        ignore
          (with_world ~backend (fun ep rank ->
               if rank = 0 then
                 for i = 1 to 4 do
                   Mpi.send ep ~dst:1 ~tag:5
                     (bytes_of_string (Printf.sprintf "m%d" i))
                 done
               else
                 for _ = 1 to 4 do
                   let buffer = Bytes.create 8 in
                   let st = Mpi.recv ep ~source:0 ~tag:5 buffer in
                   got := Bytes.sub_string buffer 0 st.Mpi.length :: !got
                 done));
        Alcotest.(check (list string)) "order preserved"
          [ "m1"; "m2"; "m3"; "m4" ]
          (List.rev !got))
let matching_tests =
  matching_tests
  @ per_backend "unexpected messages are buffered and claimed" `Quick
      (fun backend ->
        let got = ref [] in
        let sched = Scheduler.create () in
        let fabric =
          Simnet.Fabric.create sched ~profile:Simnet.Profile.myrinet_mcp ~nodes:2
        in
        let tp = Simnet.Transport.offload fabric in
        let ranks = [| proc 0 0; proc 1 0 |] in
        let mk rank = create backend tp ~ranks ~rank in
        let ep0 = mk 0 and ep1 = mk 1 in
        Scheduler.spawn sched (fun () ->
            Mpi.send ep0 ~dst:1 ~tag:1 (bytes_of_string "early-bird");
            Mpi.send ep0 ~dst:1 ~tag:2 (bytes_of_string "second"));
        Scheduler.spawn sched (fun () ->
            (* Post receives long after arrival: both were unexpected. *)
            Scheduler.delay sched (Time_ns.ms 10.0);
            let b2 = Bytes.create 32 and b1 = Bytes.create 32 in
            let st2 = Mpi.recv ep1 ~source:0 ~tag:2 b2 in
            let st1 = Mpi.recv ep1 ~source:0 ~tag:1 b1 in
            got :=
              [
                Bytes.sub_string b1 0 st1.Mpi.length;
                Bytes.sub_string b2 0 st2.Mpi.length;
              ]);
        Scheduler.run sched;
        Alcotest.(check (list string)) "claimed out of order"
          [ "early-bird"; "second" ] !got)
  @ per_backend "receive truncates an over-long message" `Quick (fun backend ->
        let st = ref None in
        ignore
          (with_world ~backend (fun ep rank ->
               if rank = 0 then
                 Mpi.send ep ~dst:1 ~tag:0 (bytes_of_string "0123456789")
               else begin
                 let buffer = Bytes.create 4 in
                 let s = Mpi.recv ep ~source:0 ~tag:0 buffer in
                 st := Some (s, Bytes.to_string buffer)
               end));
        match !st with
        | Some (s, data) ->
          Alcotest.(check int) "length capped" 4 s.Mpi.length;
          Alcotest.(check string) "prefix" "0123" data
        | None -> Alcotest.fail "no status")

let collective_tests =
  per_backend "barrier synchronises all ranks" `Quick (fun backend ->
      let sched = Scheduler.create () in
      let fabric =
        Simnet.Fabric.create sched ~profile:Simnet.Profile.myrinet_mcp ~nodes:4
      in
      let tp = Simnet.Transport.offload fabric in
      let ranks = Array.init 4 (fun r -> proc r 0) in
      let mk rank = create backend tp ~ranks ~rank in
      let eps = Array.init 4 mk in
      let leave = Array.make 4 0 in
      Array.iteri
        (fun rank ep ->
          Scheduler.spawn sched (fun () ->
              Scheduler.delay sched (Time_ns.ms (float_of_int rank));
              Mpi.barrier ep;
              leave.(rank) <- Scheduler.now sched))
        eps;
      Scheduler.run sched;
      let slowest_arrival = Time_ns.ms 3.0 in
      Array.iteri
        (fun rank t ->
          Alcotest.(check bool)
            (Printf.sprintf "rank %d left after slowest arrival" rank)
            true (t >= slowest_arrival))
        leave)
  @ per_backend "ring exchange across eight ranks" `Quick (fun backend ->
        let n = 8 in
        let sums = Array.make n (-1) in
        ignore
          (with_world ~n ~backend (fun ep rank ->
               let next = (rank + 1) mod n and prev = (rank - 1 + n) mod n in
               let payload = Bytes.make 1 (Char.chr rank) in
               let r = Mpi.irecv ep ~source:prev ~tag:0 (Bytes.create 1) in
               let s = Mpi.isend ep ~dst:next ~tag:0 payload in
               let _st = Mpi.wait ep r in
               ignore (Mpi.wait ep s);
               sums.(rank) <- prev));
        Array.iteri
          (fun rank v ->
            Alcotest.(check int)
              (Printf.sprintf "rank %d heard from prev" rank)
              ((rank - 1 + n) mod n)
              v)
          sums)

(* The heart of the reproduction: progress during a compute interval. *)
let progress_tests =
  [
    Alcotest.test_case "portals backend progresses during compute" `Quick
      (fun () ->
        (* 10 x 50KB messages pre-posted; receiver computes 50 ms with NO
           library calls. Under Portals the transfers complete during the
           compute, so the trailing waitall is nearly instant. *)
        let wait_time = ref 0 in
        let sched = Scheduler.create () in
        let fabric =
          Simnet.Fabric.create sched ~profile:Simnet.Profile.myrinet_mcp ~nodes:2
        in
        let tp = Simnet.Transport.offload fabric in
        let ranks = [| proc 0 0; proc 1 0 |] in
        let ep0 = Mpi.create_portals tp ~ranks ~rank:0 () in
        let ep1 = Mpi.create_portals tp ~ranks ~rank:1 () in
        Scheduler.spawn sched (fun () ->
            for i = 0 to 9 do
              Mpi.send ep0 ~dst:1 ~tag:i (Bytes.create 50_000)
            done);
        Scheduler.spawn sched (fun () ->
            let reqs =
              List.init 10 (fun i ->
                  Mpi.irecv ep1 ~source:0 ~tag:i (Bytes.create 50_000))
            in
            let cpu = Simnet.Node.host_cpu (Simnet.Fabric.node fabric 1) in
            Cpu.compute cpu (Time_ns.ms 50.0);
            let before = Scheduler.now sched in
            ignore (Mpi.waitall ep1 reqs);
            wait_time := Time_ns.sub (Scheduler.now sched) before);
        Scheduler.run sched;
        (* All data moved during the work interval: the wait is bounded by
           library bookkeeping, far below one message's transfer time. *)
        Alcotest.(check bool)
          (Printf.sprintf "wait %s is tiny" (Time_ns.to_string !wait_time))
          true
          (!wait_time < Time_ns.us 200.0));
    Alcotest.test_case "gm backend makes no rendezvous progress during compute"
      `Quick (fun () ->
        (* Same shape, GM backend, 50KB > its eager threshold: the RTS
           sits unanswered until the receiver's waitall. *)
        let wait_time = ref 0 in
        let sched = Scheduler.create () in
        let fabric =
          Simnet.Fabric.create sched ~profile:Simnet.Profile.myrinet_mcp ~nodes:2
        in
        let tp = Simnet.Transport.offload fabric in
        let ranks = [| proc 0 0; proc 1 0 |] in
        let ep0 = Mpi.create_gm tp ~ranks ~rank:0 () in
        let ep1 = Mpi.create_gm tp ~ranks ~rank:1 () in
        Scheduler.spawn sched (fun () ->
            let reqs =
              List.init 10 (fun i -> Mpi.isend ep0 ~dst:1 ~tag:i (Bytes.create 50_000))
            in
            ignore (Mpi.waitall ep0 reqs));
        Scheduler.spawn sched (fun () ->
            let reqs =
              List.init 10 (fun i ->
                  Mpi.irecv ep1 ~source:0 ~tag:i (Bytes.create 50_000))
            in
            let cpu = Simnet.Node.host_cpu (Simnet.Fabric.node fabric 1) in
            Cpu.compute cpu (Time_ns.ms 50.0);
            let before = Scheduler.now sched in
            ignore (Mpi.waitall ep1 reqs);
            wait_time := Time_ns.sub (Scheduler.now sched) before);
        Scheduler.run sched;
        (* The whole 500KB crosses the wire inside the wait. *)
        let min_transfer = Simnet.Profile.tx_time Simnet.Profile.myrinet_mcp 500_000 in
        Alcotest.(check bool)
          (Printf.sprintf "wait %s covers the transfers" (Time_ns.to_string !wait_time))
          true
          (!wait_time > min_transfer));
    Alcotest.test_case "test calls during work let GM progress" `Quick (fun () ->
        (* The paper's side experiment: three MPI calls inside the work
           interval let MPICH/GM make significant progress. *)
        let run with_tests =
          let wait_time = ref 0 in
          let sched = Scheduler.create () in
          let fabric =
            Simnet.Fabric.create sched ~profile:Simnet.Profile.myrinet_mcp
              ~nodes:2
          in
          let tp = Simnet.Transport.offload fabric in
          let ranks = [| proc 0 0; proc 1 0 |] in
          let ep0 = Mpi.create_gm tp ~ranks ~rank:0 () in
          let ep1 = Mpi.create_gm tp ~ranks ~rank:1 () in
          Scheduler.spawn sched (fun () ->
              let reqs =
                List.init 10 (fun i ->
                    Mpi.isend ep0 ~dst:1 ~tag:i (Bytes.create 50_000))
              in
              ignore (Mpi.waitall ep0 reqs));
          Scheduler.spawn sched (fun () ->
              let reqs =
                List.init 10 (fun i ->
                    Mpi.irecv ep1 ~source:0 ~tag:i (Bytes.create 50_000))
              in
              let cpu = Simnet.Node.host_cpu (Simnet.Fabric.node fabric 1) in
              let slice = Time_ns.ms 12.5 in
              if with_tests then
                for _ = 1 to 4 do
                  Cpu.compute cpu slice;
                  Mpi.progress ep1
                done
              else Cpu.compute cpu (Time_ns.ms 50.0);
              let before = Scheduler.now sched in
              ignore (Mpi.waitall ep1 reqs);
              wait_time := Time_ns.sub (Scheduler.now sched) before);
          Scheduler.run sched;
          !wait_time
        in
        let plain = run false and sprinkled = run true in
        Alcotest.(check bool)
          (Printf.sprintf "sprinkled %s < plain %s" (Time_ns.to_string sprinkled)
             (Time_ns.to_string plain))
          true
          (sprinkled < plain / 2));
    Alcotest.test_case "portals slabs recycle across many unexpected" `Quick
      (fun () ->
        let sched = Scheduler.create () in
        let fabric =
          Simnet.Fabric.create sched ~profile:Simnet.Profile.myrinet_mcp ~nodes:2
        in
        let tp = Simnet.Transport.offload fabric in
        let ranks = [| proc 0 0; proc 1 0 |] in
        let ep0 = Mpi.create_portals tp ~ranks ~rank:0 () in
        let ep1 = Mpi.create_portals tp ~ranks ~rank:1 () in
        let rounds = 6 and per_round = 40 and len = 10_000 in
        (* 6 x 40 x 10KB = 2.4MB through 8 x 256KB of slab: recycling is
           required for this to survive. *)
        let all_ok = ref true in
        Scheduler.spawn sched (fun () ->
            for r = 0 to rounds - 1 do
              for i = 0 to per_round - 1 do
                let payload = Bytes.make len (Char.chr (65 + ((r + i) mod 26))) in
                Mpi.send ep0 ~dst:1 ~tag:((r * per_round) + i) payload
              done;
              (* Let the receiver drain before the next burst. *)
              Mpi.recv ep0 ~source:1 ~tag:999_999 (Bytes.create 1) |> ignore
            done);
        Scheduler.spawn sched (fun () ->
            for r = 0 to rounds - 1 do
              Scheduler.delay sched (Time_ns.ms 5.0);
              for i = 0 to per_round - 1 do
                let buffer = Bytes.create len in
                let st =
                  Mpi.recv ep1 ~source:0 ~tag:((r * per_round) + i) buffer
                in
                let expect = Char.chr (65 + ((r + i) mod 26)) in
                if st.Mpi.length <> len || Bytes.get buffer 0 <> expect
                   || Bytes.get buffer (len - 1) <> expect
                then all_ok := false
              done;
              Mpi.send ep1 ~dst:0 ~tag:999_999 (Bytes.create 1)
            done);
        Scheduler.run sched;
        Alcotest.(check bool) "all rounds intact" true !all_ok);
    Alcotest.test_case "gm: eager arrivals after a grant leave its token alone"
      `Quick (fun () ->
        (* Rank 2 has posted its receives when rank 0's RTS arrives, so it
           grants at once: the rendezvous token joins the port behind the
           63 free eager tokens (the RTS holds the 64th). Rank 0 computes
           for 5 ms before it sends the data, and meanwhile rank 1 sends
           64 eager messages. Taken first-fit from one FIFO, the 64th
           would spend the rendezvous token, leaving the data nothing to
           land in. *)
        let sched = Scheduler.create () in
        let fabric =
          Simnet.Fabric.create sched ~profile:Simnet.Profile.myrinet_mcp ~nodes:3
        in
        let tp = Simnet.Transport.offload fabric in
        let ranks = [| proc 0 0; proc 1 0; proc 2 0 |] in
        let eps = Array.init 3 (fun rank -> Mpi.create_gm tp ~ranks ~rank ()) in
        let n = 64 and big = 50_000 in
        let big_msg = Bytes.init big (fun i -> Char.chr (i land 255)) in
        let small i = Bytes.make 100 (Char.chr (65 + (i mod 26))) in
        Scheduler.spawn sched (fun () ->
            Scheduler.delay sched (Time_ns.us 20.0);
            let req = Mpi.isend eps.(0) ~dst:2 ~tag:0 big_msg in
            Cpu.compute
              (Simnet.Node.host_cpu (Simnet.Fabric.node fabric 0))
              (Time_ns.ms 5.0);
            ignore (Mpi.wait eps.(0) req));
        Scheduler.spawn sched (fun () ->
            Scheduler.delay sched (Time_ns.us 100.0);
            let reqs =
              List.init n (fun i -> Mpi.isend eps.(1) ~dst:2 ~tag:(i + 1) (small i))
            in
            ignore (Mpi.waitall eps.(1) reqs));
        let got_big = Bytes.create big in
        let got_small = Array.init n (fun _ -> Bytes.create 100) in
        Scheduler.spawn sched (fun () ->
            let reqs =
              Mpi.irecv eps.(2) ~source:0 ~tag:0 got_big
              :: List.init n (fun i ->
                     Mpi.irecv eps.(2) ~source:1 ~tag:(i + 1) got_small.(i))
            in
            ignore (Mpi.waitall eps.(2) reqs));
        (match Scheduler.run sched with
        | () -> ()
        | exception Scheduler.Deadlock _ ->
          Alcotest.failf "deadlock at %s"
            (Time_ns.to_string (Scheduler.now sched)));
        Alcotest.(check bool) "rendezvous data intact" true
          (Bytes.equal big_msg got_big);
        Array.iteri
          (fun i b ->
            Alcotest.(check bool) "eager message intact" true (Bytes.equal (small i) b))
          got_small);
  ]

(* Differential testing: the two backends implement the same MPI
   semantics over radically different substrates (network-level matching
   vs library matching, different eager thresholds, receiver-pull vs
   CTS-data rendezvous). Any divergence in delivered data or statuses is
   a bug in one of them. *)
let run_schedule ?lossy backend ~sizes ~recv_order =
  let sched = Scheduler.create () in
  let fabric =
    Simnet.Fabric.create sched ~profile:Simnet.Profile.myrinet_mcp ~nodes:2
  in
  (* Lossy mode: a Bernoulli wire with the reliability protocol shimmed
     underneath; MPI (either backend) must neither notice nor diverge. *)
  (match lossy with
  | None -> ()
  | Some (loss, seed) ->
    Simnet.Fabric.set_fault_model fabric
      (Some (Simnet.Fault.bernoulli ~seed ~p:loss ()));
    ignore (Reliability.attach fabric));
  let tp = Simnet.Transport.offload fabric in
  let ranks = [| proc 0 0; proc 1 0 |] in
  let mk rank = create backend tp ~ranks ~rank in
  let ep0 = mk 0 and ep1 = mk 1 in
  let n = List.length sizes in
  let outcomes = Array.make n (0, 0, "") in
  Scheduler.spawn sched (fun () ->
      let reqs =
        List.mapi
          (fun i len ->
            let payload = Bytes.make len (Char.chr (65 + (i mod 26))) in
            Mpi.isend ep0 ~dst:1 ~tag:(i mod 3) payload)
          sizes
      in
      (* An MPI program must complete its requests — under GM, rendezvous
         grants are only serviced inside these library calls. *)
      ignore (Mpi.waitall ep0 reqs);
      Mpi.send ep0 ~dst:1 ~tag:7 Bytes.empty);
  Scheduler.spawn sched (fun () ->
      (* Post receives in the permuted order; sizes are generous. *)
      let reqs =
        List.map
          (fun i ->
            let buffer = Bytes.create 200_000 in
            (i, buffer, Mpi.irecv ep1 ~source:0 ~tag:(i mod 3) buffer))
          recv_order
      in
      List.iter
        (fun (slot, buffer, req) ->
          let st = Mpi.wait ep1 req in
          outcomes.(slot) <-
            ( st.Mpi.source,
              st.Mpi.length,
              if st.Mpi.length = 0 then ""
              else Printf.sprintf "%c%c" (Bytes.get buffer 0)
                  (Bytes.get buffer (st.Mpi.length - 1)) ))
        reqs;
      ignore (Mpi.recv ep1 ~source:0 ~tag:7 (Bytes.create 1)));
  Scheduler.run sched;
  Array.to_list outcomes

let differential_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"portals and gm backends agree on any schedule"
         ~count:30
         QCheck.(
           pair
             (list_of_size Gen.(int_range 1 8) (int_range 0 120_000))
             small_int)
         (fun (sizes, shuffle_seed) ->
           let n = List.length sizes in
           let order = Array.init n (fun i -> i) in
           let prng = Prng.create ~seed:shuffle_seed in
           Prng.shuffle_in_place prng order;
           let recv_order = Array.to_list order in
           let a = run_schedule Portals_b ~sizes ~recv_order in
           let b = run_schedule Gm_b ~sizes ~recv_order in
           a = b));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"backends agree on any schedule over a lossy fabric"
         ~count:12
         QCheck.(
           triple
             (list_of_size Gen.(int_range 1 5) (int_range 0 60_000))
             small_nat (int_range 0 2))
         (fun (sizes, seed, loss_idx) ->
           let loss = List.nth [ 0.01; 0.05; 0.1 ] loss_idx in
           let n = List.length sizes in
           let order = Array.init n (fun i -> i) in
           let prng = Prng.create ~seed in
           Prng.shuffle_in_place prng order;
           let recv_order = Array.to_list order in
           let reference = run_schedule Portals_b ~sizes ~recv_order in
           let a =
             run_schedule ~lossy:(loss, seed) Portals_b ~sizes ~recv_order
           in
           let b = run_schedule ~lossy:(loss, seed) Gm_b ~sizes ~recv_order in
           (* Both backends must survive the loss, agree with each other,
              and match the lossless outcome bit for bit. *)
           a = b && a = reference));
  ]

let fault_tests =
  [
    Alcotest.test_case "a lost message is a diagnosable deadlock" `Quick
      (fun () ->
        (* Portals assumes reliable delivery below it (section 2); inject
           a loss and the job hangs — but deterministically, with the
           blocked rank named and the drop counted at the fabric. *)
        let sched = Scheduler.create () in
        let fabric =
          Simnet.Fabric.create sched ~profile:Simnet.Profile.myrinet_mcp
            ~nodes:2
        in
        let tp = Simnet.Transport.offload fabric in
        let ranks = [| proc 0 0; proc 1 0 |] in
        let ep0 = Mpi.create_portals tp ~ranks ~rank:0 () in
        let ep1 = Mpi.create_portals tp ~ranks ~rank:1 () in
        (* Drop exactly the first sizeable message (the MPI payload put;
           barrier-less direct send keeps the schedule simple). *)
        let dropped_one = ref false in
        Simnet.Fabric.set_fault_model fabric
          (Some
             (Simnet.Fault.custom (fun ~now:_ ~src:_ ~dst:_ ~len ->
                  if (not !dropped_one) && len > 1_000 then begin
                    dropped_one := true;
                    Simnet.Fault.Drop
                  end
                  else Simnet.Fault.Deliver)));
        Scheduler.spawn sched (fun () ->
            ignore (Mpi.isend ep0 ~dst:1 ~tag:0 (Bytes.create 10_000)));
        Scheduler.spawn sched ~name:"victim" (fun () ->
            ignore (Mpi.recv ep1 ~source:0 ~tag:0 (Bytes.create 10_000)));
        (match Scheduler.run sched with
        | () -> Alcotest.fail "expected a deadlock"
        | exception Scheduler.Deadlock blocked ->
          Alcotest.(check int) "one blocked rank" 1 (List.length blocked));
        Alcotest.(check int) "fabric counted the loss" 1
          (Simnet.Fabric.stats fabric).Simnet.Fabric.drops_injected);
    Alcotest.test_case "losses before recovery do not corrupt later traffic"
      `Quick (fun () ->
        let sched = Scheduler.create () in
        let fabric =
          Simnet.Fabric.create sched ~profile:Simnet.Profile.myrinet_mcp
            ~nodes:2
        in
        let tp = Simnet.Transport.offload fabric in
        let ranks = [| proc 0 0; proc 1 0 |] in
        let ep0 = Mpi.create_portals tp ~ranks ~rank:0 () in
        let ep1 = Mpi.create_portals tp ~ranks ~rank:1 () in
        (* Lose an un-waited-for message, then heal the network; fresh
           traffic must flow normally. *)
        let failing = ref true in
        Simnet.Fabric.set_fault_model fabric
          (Some
             (Simnet.Fault.custom (fun ~now:_ ~src:_ ~dst:_ ~len ->
                  if !failing && len > 1_000 then Simnet.Fault.Drop
                  else Simnet.Fault.Deliver)));
        let got = ref "" in
        Scheduler.spawn sched (fun () ->
            ignore (Mpi.isend ep0 ~dst:1 ~tag:0 (Bytes.create 5_000));
            Scheduler.delay sched (Time_ns.ms 1.0);
            failing := false;
            Mpi.send ep0 ~dst:1 ~tag:1 (Bytes.of_string "after the storm"));
        Scheduler.spawn sched (fun () ->
            let b = Bytes.create 32 in
            let st = Mpi.recv ep1 ~source:0 ~tag:1 b in
            got := Bytes.sub_string b 0 st.Mpi.length);
        Scheduler.run ~allow_blocked:true sched;
        Alcotest.(check string) "later message intact" "after the storm" !got);
  ]

(* A world whose rank fibers live on their own fault domains, so a node
   crash kills its resident rank. Unlike [with_world], nothing is spawned
   here — crash tests need full control over who runs where and when. *)
let crash_world ?(n = 2) ~backend () =
  let sched = Scheduler.create () in
  let fabric =
    Simnet.Fabric.create sched ~profile:Simnet.Profile.myrinet_mcp ~nodes:n
  in
  let tp = Simnet.Transport.offload fabric in
  let ranks = Array.init n (fun r -> proc r 0) in
  let mk rank = create backend tp ~ranks ~rank in
  (sched, fabric, mk)

let crash_tests =
  per_backend "peer death fails a blocked recv instead of deadlocking" `Quick
    (fun backend ->
      let sched, fabric, mk = crash_world ~backend () in
      let ep0 = mk 0 in
      let _ep1 = mk 1 in
      let outcome = ref `Pending in
      Scheduler.spawn sched ~name:"rank0" ~domain:0 (fun () ->
          match Mpi.recv ep0 ~source:1 ~tag:0 (Bytes.create 64) with
          | _ -> outcome := `Returned
          | exception Mpi.Peer_failed r -> outcome := `Failed r);
      Scheduler.at sched (Time_ns.us 50.) (fun () ->
          Simnet.Fabric.crash fabric 1);
      (* Crucially: plain [run], no [~until] — the blocked recv must be
         woken and failed, not left to deadlock. *)
      Scheduler.run sched;
      Alcotest.(check bool) "recv raised Peer_failed 1" true
        (!outcome = `Failed 1))
  @ per_backend "on_peer_failure fires and failed_ranks reports" `Quick
      (fun backend ->
        let sched, fabric, mk = crash_world ~n:3 ~backend () in
        let ep0 = mk 0 in
        let _ep1 = mk 1 in
        let _ep2 = mk 2 in
        let seen = ref [] in
        Mpi.on_peer_failure ep0 (fun ~rank -> seen := rank :: !seen);
        Scheduler.at sched (Time_ns.us 10.) (fun () ->
            Simnet.Fabric.crash fabric 2);
        Scheduler.run sched;
        Alcotest.(check (list int)) "callback saw rank 2" [ 2 ] !seen;
        Alcotest.(check (list int)) "failed_ranks" [ 2 ]
          (Mpi.failed_ranks ep0))
  @ per_backend "tolerant barrier completes with a dead rank" `Quick
      (fun backend ->
        let sched, fabric, mk = crash_world ~n:3 ~backend () in
        let eps = Array.init 3 mk in
        let finished = ref 0 in
        for r = 0 to 1 do
          Scheduler.spawn sched
            ~name:(Printf.sprintf "rank%d" r)
            ~domain:r
            (fun () ->
              Mpi.barrier ~tolerant:true eps.(r);
              incr finished)
        done;
        (* Rank 2 enters the barrier too and dies inside it. *)
        Scheduler.spawn sched ~name:"rank2" ~domain:2 (fun () ->
            Mpi.barrier ~tolerant:true eps.(2));
        Scheduler.at sched (Time_ns.us 10.) (fun () ->
            Simnet.Fabric.crash fabric 2);
        Scheduler.run sched;
        Alcotest.(check int) "both survivors synchronised" 2 !finished)
  @ [
      Alcotest.test_case "dead-peer sends: portals completes, gm raises"
        `Quick (fun () ->
          (* The §3 asymmetry at the API surface. The connectionless
             Portals sender fire-and-forgets an eager put — the loss is
             the fabric's to account. The connection-oriented GM and
             ibverbs senders hold per-peer state (tokens, rings) that
             died with the peer, so the send itself fails. *)
          let attempt backend =
            let sched, fabric, mk = crash_world ~backend () in
            let ep0 = mk 0 in
            let _ep1 = mk 1 in
            let result = ref `None in
            Scheduler.spawn sched ~name:"rank0" ~domain:0 (fun () ->
                Scheduler.delay sched (Time_ns.us 50.);
                match Mpi.send ep0 ~dst:1 ~tag:0 (Bytes.create 16) with
                | () -> result := `Sent
                | exception Mpi.Peer_failed r -> result := `Failed r);
            Scheduler.at sched (Time_ns.us 10.) (fun () ->
                Simnet.Fabric.crash fabric 1);
            Scheduler.run ~until:(Time_ns.ms 1.) sched;
            (!result, (Simnet.Fabric.stats fabric).Simnet.Fabric.drops_crashed)
          in
          let p, pdrops = attempt Portals_b in
          Alcotest.(check bool) "portals eager send completes locally" true
            (p = `Sent);
          Alcotest.(check bool) "the fabric absorbed it as a crash drop" true
            (pdrops > 0);
          let g, _ = attempt Gm_b in
          Alcotest.(check bool) "gm send raises Peer_failed 1" true
            (g = `Failed 1);
          let i, _ = attempt Ibverbs_b in
          Alcotest.(check bool) "ibverbs send raises Peer_failed 1" true
            (i = `Failed 1));
      Alcotest.test_case "restart: portals resumes with zero survivor action"
        `Quick (fun () ->
          let sched, fabric, mk = crash_world ~backend:Portals_b () in
          let ep0 = mk 0 in
          let ep1 = mk 1 in
          let got = ref "" in
          Scheduler.spawn sched ~name:"rank1" ~domain:1 (fun () ->
              try ignore (Mpi.recv ep1 ~source:0 ~tag:0 (Bytes.create 64))
              with Mpi.Peer_failed _ -> ());
          Simnet.Fabric.apply_crash_schedule fabric
            (Simnet.Fault.crash_schedule
               [ (1, Time_ns.us 20., Some (Time_ns.us 40.)) ]);
          Scheduler.at sched (Time_ns.us 41.) (fun () ->
              let ep1' = mk 1 in
              Scheduler.spawn sched ~name:"rank1-restarted" ~domain:1
                (fun () ->
                  let b = Bytes.create 64 in
                  let st = Mpi.recv ep1' ~source:0 ~tag:1 b in
                  got := Bytes.sub_string b 0 st.Mpi.length));
          Scheduler.spawn sched ~name:"rank0" ~domain:0 (fun () ->
              Scheduler.delay sched (Time_ns.us 60.);
              (* No reconnect, no re-registration: the survivor just
                 sends. *)
              Mpi.send ep0 ~dst:1 ~tag:1 (Bytes.of_string "hello again"));
          Scheduler.run sched;
          Alcotest.(check string) "post-restart delivery" "hello again" !got;
          Alcotest.(check (list int)) "no rank still marked failed" []
            (Mpi.failed_ranks ep0));
      Alcotest.test_case "restart: gm stays fenced until reconnect" `Quick
        (fun () ->
          let sched, fabric, mk = crash_world ~backend:Gm_b () in
          let ep0 = mk 0 in
          let ep1 = mk 1 in
          let got = ref "" in
          Scheduler.spawn sched ~name:"rank1" ~domain:1 (fun () ->
              try ignore (Mpi.recv ep1 ~source:0 ~tag:0 (Bytes.create 64))
              with Mpi.Peer_failed _ -> ());
          Simnet.Fabric.apply_crash_schedule fabric
            (Simnet.Fault.crash_schedule
               [ (1, Time_ns.us 20., Some (Time_ns.us 40.)) ]);
          Scheduler.at sched (Time_ns.us 41.) (fun () ->
              let ep1' = mk 1 in
              Scheduler.spawn sched ~name:"rank1-restarted" ~domain:1
                (fun () ->
                  let b = Bytes.create 64 in
                  let st = Mpi.recv ep1' ~source:0 ~tag:1 b in
                  got := Bytes.sub_string b 0 st.Mpi.length));
          Scheduler.spawn sched ~name:"rank0" ~domain:0 (fun () ->
              Scheduler.delay sched (Time_ns.us 60.);
              (* The peer is back up, but the survivor's connection state
                 for it died: sends keep failing until reconnect. *)
              (match Mpi.send ep0 ~dst:1 ~tag:1 (Bytes.of_string "x") with
              | () -> Alcotest.fail "send must fail before reconnect"
              | exception Mpi.Peer_failed _ -> ());
              Alcotest.(check (list int)) "still marked failed" [ 1 ]
                (Mpi.failed_ranks ep0);
              Mpi.reconnect ep0 ~rank:1;
              Mpi.send ep0 ~dst:1 ~tag:1 (Bytes.of_string "hello again"));
          Scheduler.run sched;
          Alcotest.(check string) "post-reconnect delivery" "hello again" !got);
    ]

let nx_world n f =
  let sched = Scheduler.create () in
  let fabric =
    Simnet.Fabric.create sched ~profile:Simnet.Profile.myrinet_mcp ~nodes:n
  in
  let tp = Simnet.Transport.offload fabric in
  let ranks = Array.init n (fun r -> proc r 0) in
  let eps = Array.init n (fun rank -> Mpi.Nx.create tp ~ranks ~rank ()) in
  Array.iteri
    (fun rank ep -> Scheduler.spawn sched (fun () -> f ep rank))
    eps;
  Scheduler.run sched

let nx_tests =
  [
    Alcotest.test_case "csend/crecv typed exchange" `Quick (fun () ->
        let len = ref 0 and typ = ref 0 and node = ref 0 in
        nx_world 2 (fun ep rank ->
            if rank = 0 then
              Mpi.Nx.csend ep ~typ:42 ~node:1 (Bytes.of_string "paragon")
            else begin
              let b = Bytes.create 32 in
              len := Mpi.Nx.crecv ep ~typesel:42 b;
              typ := Mpi.Nx.infotype ep;
              node := Mpi.Nx.infonode ep
            end);
        Alcotest.(check int) "count" 7 !len;
        Alcotest.(check int) "type" 42 !typ;
        Alcotest.(check int) "node" 0 !node);
    Alcotest.test_case "typesel -1 accepts any type" `Quick (fun () ->
        let types = ref [] in
        nx_world 2 (fun ep rank ->
            if rank = 0 then begin
              Mpi.Nx.csend ep ~typ:5 ~node:1 (Bytes.of_string "a");
              Mpi.Nx.csend ep ~typ:9 ~node:1 (Bytes.of_string "b")
            end
            else
              for _ = 1 to 2 do
                ignore (Mpi.Nx.crecv ep ~typesel:Mpi.Nx.any_type (Bytes.create 8));
                types := Mpi.Nx.infotype ep :: !types
              done);
        Alcotest.(check (list int)) "types in order" [ 5; 9 ] (List.rev !types));
  ]

let nx_tests =
  nx_tests
  @ [
      Alcotest.test_case "msgdone polls and msgwait completes" `Quick
        (fun () ->
          let sched = Scheduler.create () in
          let fabric =
            Simnet.Fabric.create sched ~profile:Simnet.Profile.myrinet_mcp
              ~nodes:2
          in
          let tp = Simnet.Transport.offload fabric in
          let ranks = [| proc 0 0; proc 1 0 |] in
          let ep0 = Mpi.Nx.create tp ~ranks ~rank:0 () in
          let ep1 = Mpi.Nx.create tp ~ranks ~rank:1 () in
          let polled_incomplete = ref false in
          Scheduler.spawn sched (fun () ->
              let buffer = Bytes.create 16 in
              let id = Mpi.Nx.irecv ep1 ~typesel:3 buffer in
              (* Nothing has been sent yet: must not be done. *)
              if not (Mpi.Nx.msgdone ep1 id) then polled_incomplete := true;
              Mpi.Nx.msgwait ep1 id;
              Alcotest.(check int) "count" 4 (Mpi.Nx.infocount ep1));
          Scheduler.spawn sched (fun () ->
              Scheduler.delay sched (Time_ns.ms 1.0);
              Mpi.Nx.csend ep0 ~typ:3 ~node:1 (Bytes.of_string "late"));
          Scheduler.run sched;
          Alcotest.(check bool) "was pending at first poll" true
            !polled_incomplete);
      Alcotest.test_case "types must be non-negative" `Quick (fun () ->
          let sched = Scheduler.create () in
          let fabric =
            Simnet.Fabric.create sched ~profile:Simnet.Profile.myrinet_mcp
              ~nodes:2
          in
          let tp = Simnet.Transport.offload fabric in
          let ranks = [| proc 0 0; proc 1 0 |] in
          let ep = Mpi.Nx.create tp ~ranks ~rank:0 () in
          Scheduler.spawn sched (fun () ->
              Alcotest.check_raises "negative type"
                (Invalid_argument "Nx: message types must be non-negative")
                (fun () -> ignore (Mpi.Nx.isend ep ~typ:(-3) ~node:1 Bytes.empty)));
          Scheduler.run sched);
    ]

let context_tests =
  per_backend "contexts isolate identical envelopes" `Quick (fun backend ->
      (* Same source, same tag, two contexts: each receive must get the
         message from its own context — communicator isolation. *)
      let a = ref "" and b = ref "" in
      ignore
        (with_world ~backend (fun ep rank ->
             if rank = 0 then begin
               Mpi.send ep ~context:1 ~dst:1 ~tag:5 (bytes_of_string "ctx-one");
               Mpi.send ep ~context:2 ~dst:1 ~tag:5 (bytes_of_string "ctx-two")
             end
             else begin
               (* Post the context-2 receive first: it must NOT take the
                  context-1 message even though it arrives first. *)
               let b2 = Bytes.create 16 and b1 = Bytes.create 16 in
               let r2 = Mpi.irecv ep ~context:2 ~source:0 ~tag:5 b2 in
               let r1 = Mpi.irecv ep ~context:1 ~source:0 ~tag:5 b1 in
               let st2 = Mpi.wait ep r2 and st1 = Mpi.wait ep r1 in
               a := Bytes.sub_string b1 0 st1.Mpi.length;
               b := Bytes.sub_string b2 0 st2.Mpi.length
             end));
      Alcotest.(check string) "context 1" "ctx-one" !a;
      Alcotest.(check string) "context 2" "ctx-two" !b)
  @ per_backend "wildcards stay inside their context" `Quick (fun backend ->
        let got = ref (-1, -1) in
        ignore
          (with_world ~backend (fun ep rank ->
               if rank = 0 then begin
                 Mpi.send ep ~context:3 ~dst:1 ~tag:8 (bytes_of_string "x");
                 Mpi.send ep ~context:4 ~dst:1 ~tag:9 (bytes_of_string "y")
               end
               else begin
                 (* any-source any-tag inside context 4 only. *)
                 let buf = Bytes.create 4 in
                 let st = Mpi.recv ep ~context:4 buf in
                 got := (st.Mpi.tag, st.Mpi.length);
                 (* Drain the other context so the world quiesces. *)
                 ignore (Mpi.recv ep ~context:3 (Bytes.create 4))
               end));
        Alcotest.(check (pair int int)) "matched only context 4" (9, 1) !got)
  @ [
      Alcotest.test_case "unexpected messages keep their context [portals]"
        `Quick (fun () ->
          let sched = Scheduler.create () in
          let fabric =
            Simnet.Fabric.create sched ~profile:Simnet.Profile.myrinet_mcp
              ~nodes:2
          in
          let tp = Simnet.Transport.offload fabric in
          let ranks = [| proc 0 0; proc 1 0 |] in
          let ep0 = Mpi.create_portals tp ~ranks ~rank:0 () in
          let ep1 = Mpi.create_portals tp ~ranks ~rank:1 () in
          let got = ref "" in
          Scheduler.spawn sched (fun () ->
              Mpi.send ep0 ~context:6 ~dst:1 ~tag:1 (Bytes.of_string "six");
              Mpi.send ep0 ~context:7 ~dst:1 ~tag:1 (Bytes.of_string "seven"));
          Scheduler.spawn sched (fun () ->
              (* Both arrive unexpected; claim context 7 first. *)
              Scheduler.delay sched (Time_ns.ms 5.0);
              let b = Bytes.create 8 in
              let st = Mpi.recv ep1 ~context:7 ~source:0 ~tag:1 b in
              got := Bytes.sub_string b 0 st.Mpi.length;
              ignore (Mpi.recv ep1 ~context:6 ~source:0 ~tag:1 (Bytes.create 8)));
          Scheduler.run sched;
          Alcotest.(check string) "claimed by context" "seven" !got);
    ]

(* Allocation budgets: words this domain allocates for one large
   message, with the two application buffers allocated beforehand. Each
   stack is allowed its payload-sized copies and less than one payload of
   everything else, so a copy that creeps back in fails here. *)
let budget_payload = 50_000
let payload_words = budget_payload / (Sys.word_size / 8)

(* The counters take in the minor heap's words only when it is emptied;
   emptying it on both sides makes the count exact instead of depending
   on how full the heap was when [f] started. *)
let words_during f =
  Gc.minor ();
  let minor0, promoted0, major0 = Gc.counters () in
  let v = f () in
  Gc.minor ();
  let minor1, promoted1, major1 = Gc.counters () in
  (v, int_of_float (minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0)))

(* One message from rank 0 to rank 1 of [eps]: the words it allocates. *)
let exchange_once ?(size = budget_payload) ~sched eps =
  let sent = Bytes.init size (fun i -> Char.chr (i land 255)) in
  let got = Bytes.create size in
  Scheduler.spawn sched (fun () ->
      ignore (Mpi.wait eps.(0) (Mpi.isend eps.(0) ~dst:1 ~tag:3 sent)));
  Scheduler.spawn sched (fun () ->
      ignore (Mpi.wait eps.(1) (Mpi.irecv eps.(1) ~source:0 ~tag:3 got)));
  let (), words = words_during (fun () -> Scheduler.run sched) in
  Alcotest.(check bool) "payload delivered" true (Bytes.equal sent got);
  words

let exchange_words ~sched ~tp create =
  let ranks = [| proc 0 0; proc 1 0 |] in
  exchange_once ~sched (Array.init 2 (fun rank -> create tp ~ranks ~rank))

let check_copies ?(payload_words = payload_words) name ~copies words =
  if words >= (copies + 1) * payload_words then
    Alcotest.failf "%s: %d words for a %d-word message, budget %d payload copies"
      name words payload_words copies

(* An eager message's payload copies: the words a 1 KB message costs
   over a 16-byte one on warmed-up endpoints, so everything that does
   not grow with the payload cancels out. *)
let eager_size = 1024

let eager_words ~sched ~tp create =
  let ranks = [| proc 0 0; proc 1 0 |] in
  let eps = Array.init 2 (fun rank -> create tp ~ranks ~rank) in
  ignore (exchange_once ~size:16 ~sched eps);
  let small = exchange_once ~size:16 ~sched eps in
  exchange_once ~size:eager_size ~sched eps - small

let alloc_budget_tests =
  let fabric profile =
    let sched = Scheduler.create () in
    (sched, Simnet.Fabric.create sched ~profile ~nodes:2)
  in
  [
    (* The encoded image and the rendezvous receive token. *)
    Alcotest.test_case "gm: 2 payload copies per message" `Quick (fun () ->
        let sched, fab = fabric Simnet.Profile.myrinet_mcp in
        exchange_words ~sched ~tp:(Simnet.Transport.offload fab)
          (fun tp ~ranks ~rank -> Mpi.create_gm tp ~ranks ~rank ())
        |> check_copies "gm" ~copies:2);
    (* The wire image only: each packet is a header plus a view of it,
       and the receiver hands the image itself up. *)
    Alcotest.test_case "portals over rtscts: 1 payload copy per message"
      `Quick (fun () ->
        let sched, fab = fabric Simnet.Profile.myrinet_kernel in
        exchange_words ~sched ~tp:(Rtscts.transport (Rtscts.create fab))
          (fun tp ~ranks ~rank -> Mpi.create_portals tp ~ranks ~rank ())
        |> check_copies "rtscts" ~copies:1);
    (* The same for an eager frame: no copy into the frame, none out. *)
    Alcotest.test_case "portals over rtscts: 1 payload copy per eager message"
      `Quick (fun () ->
        let sched, fab = fabric Simnet.Profile.myrinet_kernel in
        eager_words ~sched ~tp:(Rtscts.transport (Rtscts.create fab))
          (fun tp ~ranks ~rank -> Mpi.create_portals tp ~ranks ~rank ())
        |> check_copies "rtscts eager" ~copies:1
             ~payload_words:(eager_size / (Sys.word_size / 8)));
    (* The wire image only: it lands straight in the receive buffer. *)
    Alcotest.test_case "portals over offload: 1 payload copy per message"
      `Quick (fun () ->
        let sched, fab = fabric Simnet.Profile.myrinet_mcp in
        exchange_words ~sched ~tp:(Simnet.Transport.offload fab)
          (fun tp ~ranks ~rank -> Mpi.create_portals tp ~ranks ~rank ())
        |> check_copies "offload" ~copies:1);
    Alcotest.test_case "portals endpoint creation leaves its slabs unallocated"
      `Quick (fun () ->
        let _, fab = fabric Simnet.Profile.myrinet_mcp in
        let tp = Simnet.Transport.offload fab in
        let cfg = Mpi.Mpi_portals.default_config in
        let _, words =
          words_during (fun () ->
              Mpi.Mpi_portals.create tp ~ranks:[| proc 0 0; proc 1 0 |] ~rank:0 ())
        in
        let slab_words = cfg.Mpi.Mpi_portals.slab_size / (Sys.word_size / 8) in
        if words >= slab_words then
          Alcotest.failf "create allocated %d words, one slab is %d" words
            slab_words);
    (* The RDMA write's wire image only: the rendezvous data lands
       straight in the registered receive buffer. *)
    Alcotest.test_case "ibverbs: 1 payload copy per message" `Quick (fun () ->
        let sched, fab = fabric Simnet.Profile.myrinet_mcp in
        exchange_words ~sched ~tp:(Simnet.Transport.offload fab)
          (fun tp ~ranks ~rank -> Mpi.create_ibverbs tp ~ranks ~rank ())
        |> check_copies "ibverbs" ~copies:1);
    (* The token drained after the first rendezvous is granted again, so
       the second message costs only its encoded image. *)
    Alcotest.test_case "gm: a second rendezvous of the same size reuses its token"
      `Quick (fun () ->
        let sched, fab = fabric Simnet.Profile.myrinet_mcp in
        let tp = Simnet.Transport.offload fab in
        let ranks = [| proc 0 0; proc 1 0 |] in
        let eps = Array.init 2 (fun rank -> Mpi.create_gm tp ~ranks ~rank ()) in
        ignore (exchange_once ~sched eps);
        exchange_once ~sched eps |> check_copies "gm, second message" ~copies:1);
    Alcotest.test_case "gm endpoint creation leaves its receive tokens unbacked"
      `Quick (fun () ->
        let _, fab = fabric Simnet.Profile.myrinet_mcp in
        let tp = Simnet.Transport.offload fab in
        let cfg = Mpi.Mpi_gm.default_config in
        let _, words =
          words_during (fun () ->
              Mpi.Mpi_gm.create tp ~ranks:[| proc 0 0; proc 1 0 |] ~rank:0 ())
        in
        let token_words =
          (cfg.Mpi.Mpi_gm.eager_threshold + Mpi.Envelope.gm_header_size)
          / (Sys.word_size / 8)
        in
        if words >= token_words then
          Alcotest.failf "create allocated %d words, one token is %d" words
            token_words);
  ]

(* Buffer ownership. Every stack snapshots a message when it is sent,
   so a sender may reuse its buffer once the send completes locally;
   below that snapshot every frame is immutable once sent, so no layer
   writes into a wire image it did not allocate — not when a fabric
   delivers a frame twice, and not when it damages one (damage copies on
   write). *)
type stack = {
  s_name : string;
  s_profile : Simnet.Profile.t;
  s_transport : Simnet.Fabric.t -> Simnet.Transport.t;
  s_create :
    Simnet.Transport.t -> ranks:Simnet.Proc_id.t array -> rank:int -> Mpi.t;
}

let stacks =
  let offload = Simnet.Transport.offload in
  [
    {
      s_name = "portals over rtscts";
      s_profile = Simnet.Profile.myrinet_kernel;
      s_transport = (fun fab -> Rtscts.transport (Rtscts.create fab));
      s_create = (fun tp ~ranks ~rank -> Mpi.create_portals tp ~ranks ~rank ());
    };
    {
      s_name = "portals over offload";
      s_profile = Simnet.Profile.myrinet_mcp;
      s_transport = offload;
      s_create = (fun tp ~ranks ~rank -> Mpi.create_portals tp ~ranks ~rank ());
    };
    {
      s_name = "gm";
      s_profile = Simnet.Profile.myrinet_mcp;
      s_transport = offload;
      s_create = (fun tp ~ranks ~rank -> Mpi.create_gm tp ~ranks ~rank ());
    };
    {
      s_name = "ibverbs";
      s_profile = Simnet.Profile.myrinet_mcp;
      s_transport = offload;
      s_create = (fun tp ~ranks ~rank -> Mpi.create_ibverbs tp ~ranks ~rank ());
    };
  ]

let reuse_sizes = [ 1024; 50_000 ]
let pattern ~size ~seed =
  Bytes.init size (fun i -> Char.chr (((i * 7) + seed) land 255))

(* A transport whose sends record every wire image it is handed, with
   the image's digest at send time. *)
let recording tp =
  let images = ref [] in
  ( {
      tp with
      Simnet.Transport.send =
        (fun ~src ~dst image ->
          images := (image, Simnet.Crc32c.digest image) :: !images;
          tp.Simnet.Transport.send ~src ~dst image);
    },
    images )

(* Rank 0 sends one message of each size and overwrites each buffer as
   soon as its send completes locally; rank 1 posts its receives late,
   after the overwrites. Returns the received buffers, the sent
   patterns and the recorded wire images. *)
let reuse_run ?(setup = fun _ -> ()) stack =
  let sched = Scheduler.create () in
  let fabric =
    Simnet.Fabric.create sched ~profile:stack.s_profile ~nodes:2
  in
  setup fabric;
  let tp, images = recording (stack.s_transport fabric) in
  let ranks = [| proc 0 0; proc 1 0 |] in
  let eps = Array.init 2 (fun rank -> stack.s_create tp ~ranks ~rank) in
  let sent = List.mapi (fun i size -> pattern ~size ~seed:i) reuse_sizes in
  let got = List.map Bytes.create reuse_sizes in
  Scheduler.spawn sched (fun () ->
      List.iteri
        (fun tag buf ->
          ignore (Mpi.wait eps.(0) (Mpi.isend eps.(0) ~dst:1 ~tag buf));
          Bytes.fill buf 0 (Bytes.length buf) '\xEE')
        (List.map Bytes.copy sent));
  Scheduler.spawn sched (fun () ->
      Scheduler.delay sched (Time_ns.ms 2.0);
      List.iteri
        (fun tag buf -> ignore (Mpi.recv eps.(1) ~source:0 ~tag buf))
        got);
  Scheduler.run sched;
  (fabric, sent, got, !images)

let check_received name ~sent ~got =
  List.iter2
    (fun s g ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d-byte message intact" name (Bytes.length s))
        true (Bytes.equal s g))
    sent got

let check_images name images =
  Alcotest.(check bool) (name ^ ": images were recorded") true (images <> []);
  List.iter
    (fun (image, digest) ->
      if Simnet.Crc32c.digest image <> digest then
        Alcotest.failf "%s: a %d-byte wire image changed after it was sent"
          name (Bytes.length image))
    images

(* The reliability shim under a faulty fabric, as a faulty scenario's
   world has it: checksummed frames, damage degraded to loss. *)
let shimmed fault fabric =
  Simnet.Fabric.set_fault_model fabric (Some fault);
  Simnet.Fabric.set_integrity fabric true;
  ignore (Reliability.attach fabric)

let buffer_reuse_tests =
  List.map
    (fun stack ->
      Alcotest.test_case (stack.s_name ^ ": a sender may reuse its buffer")
        `Quick (fun () ->
          let _, sent, got, images = reuse_run stack in
          check_received stack.s_name ~sent ~got;
          check_images stack.s_name images))
    stacks
  @ List.concat_map
      (fun (fault_name, fault) ->
        List.map
          (fun stack ->
            let name = Printf.sprintf "%s under %s" stack.s_name fault_name in
            Alcotest.test_case (name ^ ": wire images unchanged") `Quick
              (fun () ->
                let fabric, sent, got, images =
                  reuse_run ~setup:(shimmed (fault ())) stack
                in
                let st = Simnet.Fabric.stats fabric in
                Alcotest.(check bool) (name ^ ": the fault fired") true
                  (st.Simnet.Fabric.dups_injected
                   + st.Simnet.Fabric.corrupts_injected
                  > 0);
                check_received name ~sent ~got;
                check_images name images))
          stacks)
      [
        ("duplicator", fun () -> Simnet.Fault.duplicator ~seed:3 ~p:0.5 ());
        ("corrupt", fun () -> Simnet.Fault.corrupt ~seed:3 ~p:0.2 ());
      ]
  @ [
      (* Without the shim the duplicates reach the RTS/CTS receiver
         itself, which hands the sender's image up as is. *)
      Alcotest.test_case
        "portals over rtscts under duplicator, no shim: wire images unchanged"
        `Quick (fun () ->
          let stack = List.hd stacks in
          let fabric, sent, got, images =
            reuse_run stack ~setup:(fun fabric ->
                Simnet.Fabric.set_fault_model fabric
                  (Some (Simnet.Fault.duplicator ~seed:5 ~p:0.5 ())))
          in
          Alcotest.(check bool) "frames were duplicated" true
            ((Simnet.Fabric.stats fabric).Simnet.Fabric.dups_injected > 0);
          check_received stack.s_name ~sent ~got;
          check_images stack.s_name images);
      (* Damage with no shim to hide it: the RTS/CTS receiver meets
         damaged packets itself, and the NI's checksum must stop every
         damaged image before it reaches an MD. Each receive buffer
         ends up either untouched or exactly the message. *)
      Alcotest.test_case "portals over rtscts: a corrupted frame never reaches an MD"
        `Quick (fun () ->
          let sched = Scheduler.create () in
          let fabric =
            Simnet.Fabric.create sched ~profile:Simnet.Profile.myrinet_kernel
              ~nodes:2
          in
          Simnet.Fabric.set_integrity fabric true;
          Simnet.Fabric.set_fault_model fabric
            (Some (Simnet.Fault.corrupt ~seed:11 ~p:0.3 ()));
          let tp, images =
            recording (Rtscts.transport (Rtscts.create fabric))
          in
          let ranks = [| proc 0 0; proc 1 0 |] in
          let eps =
            Array.init 2 (fun rank -> Mpi.create_portals tp ~ranks ~rank ())
          in
          let n = 24 in
          let size i = if i mod 4 = 3 then 20_000 else 1024 in
          let sent = List.init n (fun i -> pattern ~size:(size i) ~seed:i) in
          let got = List.init n (fun i -> Bytes.make (size i) '\000') in
          List.iteri
            (fun tag buf ->
              Scheduler.spawn sched (fun () ->
                  ignore (Mpi.isend eps.(0) ~dst:1 ~tag buf)))
            sent;
          List.iteri
            (fun tag buf ->
              Scheduler.spawn sched (fun () ->
                  ignore (Mpi.recv eps.(1) ~source:0 ~tag buf)))
            got;
          Scheduler.run ~allow_blocked:true sched;
          let intact = ref 0 in
          List.iter2
            (fun s g ->
              if Bytes.equal s g then incr intact
              else if not (Bytes.equal g (Bytes.make (Bytes.length g) '\000'))
              then Alcotest.fail "damaged bytes reached a receive buffer")
            sent got;
          let ni = Mpi.Mpi_portals.ni eps.(1) in
          Alcotest.(check bool) "some messages arrived" true (!intact > 0);
          Alcotest.(check bool) "some damaged images were dropped" true
            (Portals.Ni.dropped ni Portals.Ni.Checksum_failed > 0);
          check_images "rtscts, corrupt" !images);
    ]

let () =
  Alcotest.run "mpi"
    [
      ("basic", basic_tests);
      ("matching", matching_tests);
      ("collective", collective_tests);
      ("progress", progress_tests);
      ("differential", differential_tests);
      ("faults", fault_tests);
      ("crash", crash_tests);
      ("nx", nx_tests);
      ("contexts", context_tests);
      ("alloc_budget", alloc_budget_tests);
      ("buffer_reuse", buffer_reuse_tests);
    ]
