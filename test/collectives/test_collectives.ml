open Sim_engine

(* Build an [n]-rank collectives world (one Portals NI + Coll endpoint per
   rank) and run [f coll rank] in a fiber per rank. *)
let with_group ?(n = 4) f =
  let world = Runtime.create_world ~nodes:n () in
  let colls =
    Array.mapi
      (fun rank pid ->
        let ni =
          Portals.Ni.create (Runtime.transport_of_rank world rank) ~id:pid ()
        in
        Collectives.create ni ~ranks:world.Runtime.ranks ~rank ())
      world.Runtime.ranks
  in
  Array.iteri
    (fun rank coll ->
      Scheduler.spawn (Runtime.sched_of_rank world rank)
        ~name:(Printf.sprintf "coll%d" rank) (fun () -> f coll rank))
    colls;
  Runtime.run world

let barrier_tests =
  [
    Alcotest.test_case "barrier releases nobody early" `Quick (fun () ->
        let n = 5 in
        let world = Runtime.create_world ~nodes:n () in
        let colls =
          Array.mapi
            (fun rank pid ->
              let ni =
                Portals.Ni.create (Runtime.transport_of_rank world rank) ~id:pid
                  ()
              in
              Collectives.create ni ~ranks:world.Runtime.ranks ~rank ())
            world.Runtime.ranks
        in
        let leave = Array.make n 0 in
        Array.iteri
          (fun rank coll ->
            let sched = Runtime.sched_of_rank world rank in
            Scheduler.spawn sched (fun () ->
                Scheduler.delay sched (Time_ns.ms (float_of_int rank));
                Collectives.barrier coll;
                leave.(rank) <- Scheduler.now sched))
          colls;
        Runtime.run world;
        let slowest = Time_ns.ms (float_of_int (n - 1)) in
        Array.iteri
          (fun rank t ->
            Alcotest.(check bool)
              (Printf.sprintf "rank %d after slowest" rank)
              true (t >= slowest))
          leave);
    Alcotest.test_case "barriers are reusable" `Quick (fun () ->
        let rounds = ref 0 in
        with_group ~n:3 (fun coll rank ->
            for _ = 1 to 5 do
              Collectives.barrier coll
            done;
            if rank = 0 then rounds := 5);
        Alcotest.(check int) "finished" 5 !rounds);
  ]

let data_tests =
  [
    Alcotest.test_case "bcast from every root" `Quick (fun () ->
        let n = 6 in
        for root = 0 to n - 1 do
          let results = Array.make n "" in
          with_group ~n (fun coll rank ->
              let payload =
                if rank = root then Bytes.of_string (Printf.sprintf "root=%d" root)
                else Bytes.empty
              in
              let out = Collectives.bcast coll ~root payload in
              results.(rank) <- Bytes.to_string out);
          Array.iteri
            (fun rank got ->
              Alcotest.(check string)
                (Printf.sprintf "root %d rank %d" root rank)
                (Printf.sprintf "root=%d" root)
                got)
            results
        done);
    Alcotest.test_case "reduce sums floats at the root" `Quick (fun () ->
        let n = 5 in
        let result = ref [||] in
        with_group ~n (fun coll rank ->
            let mine = [| float_of_int rank; 1.0; float_of_int (rank * rank) |] in
            match
              Collectives.reduce coll ~root:2 ~op:Collectives.sum_floats
                (Collectives.bytes_of_floats mine)
            with
            | Some acc ->
              Alcotest.(check int) "only root gets it" 2 rank;
              result := Collectives.floats_of_bytes acc
            | None -> Alcotest.(check bool) "non-root" true (rank <> 2));
        Alcotest.(check (array (float 1e-9)))
          "sums" [| 10.0; 5.0; 30.0 |] !result);
    Alcotest.test_case "allreduce agrees on every rank" `Quick (fun () ->
        let n = 7 in
        let results = Array.make n [||] in
        with_group ~n (fun coll rank ->
            results.(rank) <-
              Collectives.allreduce_float_sum coll [| float_of_int (rank + 1) |]);
        let expect = float_of_int (n * (n + 1) / 2) in
        Array.iteri
          (fun rank got ->
            Alcotest.(check (array (float 1e-9)))
              (Printf.sprintf "rank %d" rank)
              [| expect |] got)
          results);
    Alcotest.test_case "allreduce max" `Quick (fun () ->
        let n = 4 in
        let results = Array.make n [||] in
        with_group ~n (fun coll rank ->
            let acc =
              Collectives.allreduce coll ~op:Collectives.max_floats
                (Collectives.bytes_of_floats [| float_of_int (10 - rank) |])
            in
            results.(rank) <- Collectives.floats_of_bytes acc);
        Array.iter
          (fun got -> Alcotest.(check (array (float 1e-9))) "max" [| 10.0 |] got)
          results);
    Alcotest.test_case "gather collects rank-indexed pieces" `Quick (fun () ->
        let n = 5 in
        let collected = ref [||] in
        with_group ~n (fun coll rank ->
            match
              Collectives.gather coll ~root:0
                (Bytes.of_string (Printf.sprintf "piece-%d" rank))
            with
            | Some pieces -> collected := Array.map Bytes.to_string pieces
            | None -> ());
        Alcotest.(check (array string))
          "indexed by rank"
          (Array.init n (Printf.sprintf "piece-%d"))
          !collected);
    Alcotest.test_case "scatter hands out the right pieces" `Quick (fun () ->
        let n = 4 in
        let got = Array.make n "" in
        with_group ~n (fun coll rank ->
            let pieces =
              if rank = 1 then
                Some (Array.init n (fun i -> Bytes.of_string (Printf.sprintf "p%d" i)))
              else None
            in
            got.(rank) <- Bytes.to_string (Collectives.scatter coll ~root:1 pieces));
        Alcotest.(check (array string))
          "pieces" (Array.init n (Printf.sprintf "p%d")) got);
    Alcotest.test_case "allgather via ring" `Quick (fun () ->
        let n = 6 in
        let results = Array.make n [||] in
        with_group ~n (fun coll rank ->
            let out =
              Collectives.allgather coll
                (Bytes.of_string (Printf.sprintf "<%d>" rank))
            in
            results.(rank) <- Array.map Bytes.to_string out);
        Array.iteri
          (fun rank got ->
            Alcotest.(check (array string))
              (Printf.sprintf "rank %d" rank)
              (Array.init n (Printf.sprintf "<%d>"))
              got)
          results);
    Alcotest.test_case "alltoall personalised exchange" `Quick (fun () ->
        let n = 4 in
        let results = Array.make n [||] in
        with_group ~n (fun coll rank ->
            let input =
              Array.init n (fun dst ->
                  Bytes.of_string (Printf.sprintf "%d->%d" rank dst))
            in
            results.(rank) <- Array.map Bytes.to_string (Collectives.alltoall coll input));
        Array.iteri
          (fun rank got ->
            Alcotest.(check (array string))
              (Printf.sprintf "rank %d" rank)
              (Array.init n (fun src -> Printf.sprintf "%d->%d" src rank))
              got)
          results);
    Alcotest.test_case "collectives back to back do not interfere" `Quick
      (fun () ->
        let n = 4 in
        let ok = ref true in
        with_group ~n (fun coll rank ->
            for round = 1 to 10 do
              let v =
                Collectives.allreduce_float_sum coll [| float_of_int round |]
              in
              if v.(0) <> float_of_int (round * n) then ok := false;
              Collectives.barrier coll;
              let b =
                Collectives.bcast coll ~root:(round mod n)
                  (if rank = round mod n then Bytes.of_string (string_of_int round)
                   else Bytes.empty)
              in
              if Bytes.to_string b <> string_of_int round then ok := false
            done);
        Alcotest.(check bool) "all rounds consistent" true !ok);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"allreduce sum matches sequential fold" ~count:25
         QCheck.(pair (int_range 2 9) (list_of_size Gen.(int_range 1 8) (float_range (-100.) 100.)))
         (fun (n, base) ->
           let base = Array.of_list base in
           let results = Array.make n [||] in
           with_group ~n (fun coll rank ->
               let mine = Array.map (fun x -> x +. float_of_int rank) base in
               results.(rank) <- Collectives.allreduce_float_sum coll mine);
           let expect =
             Array.map
               (fun x ->
                 (x *. float_of_int n) +. float_of_int (n * (n - 1) / 2))
               base
           in
           Array.for_all
             (fun got ->
               Array.for_all2 (fun a b -> Float.abs (a -. b) < 1e-6) got expect)
             results));
  ]

let float_helpers_tests =
  [
    Alcotest.test_case "float serialisation round trip" `Quick (fun () ->
        let a = [| 1.5; -2.25; 0.0; 1e300; Float.min_float |] in
        Alcotest.(check (array (float 0.)))
          "round trip" a
          (Collectives.floats_of_bytes (Collectives.bytes_of_floats a)));
    Alcotest.test_case "sum_floats in place" `Quick (fun () ->
        let acc = Collectives.bytes_of_floats [| 1.0; 2.0 |] in
        Collectives.sum_floats acc (Collectives.bytes_of_floats [| 10.0; 20.0 |]);
        Alcotest.(check (array (float 1e-12)))
          "summed" [| 11.0; 22.0 |]
          (Collectives.floats_of_bytes acc));
  ]

(* Words this domain allocates in [f]; emptying the minor heap on both
   sides makes the count exact. *)
let words_during f =
  Gc.minor ();
  let minor0, promoted0, major0 = Gc.counters () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor ();
  let minor1, promoted1, major1 = Gc.counters () in
  int_of_float (minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0))

(* A two-rank world with one pool per rank: rank 1 runs [sender], rank 0
   runs [receiver]. *)
let with_pools ?slab_size ?slab_count ~sender ~receiver () =
  let world = Runtime.create_world ~nodes:2 () in
  let pools =
    Array.mapi
      (fun rank pid ->
        Collectives.Pool.create
          (Portals.Ni.create (Runtime.transport_of_rank world rank) ~id:pid ())
          ~portal_index:6 ?slab_size ?slab_count ())
      world.Runtime.ranks
  in
  let sender_sched = Runtime.sched_of_rank world 1 in
  Scheduler.spawn sender_sched (fun () ->
      sender sender_sched (fun bits payload ->
          Collectives.Pool.send pools.(1) ~dst:world.Runtime.ranks.(0)
            ~bits:(Portals.Match_bits.of_int bits) payload));
  let receiver_sched = Runtime.sched_of_rank world 0 in
  Scheduler.spawn receiver_sched (fun () ->
      receiver receiver_sched (fun bits ->
          Collectives.Pool.recv pools.(0) ~bits:(Portals.Match_bits.of_int bits)));
  Runtime.run world

(* A payload that differs from every other one of the same length. *)
let pattern i len = Bytes.init len (fun j -> Char.chr (((i * 37) + j) land 255))

let pool_tests =
  [
    Alcotest.test_case "recv claims by bits; FIFO within a key" `Quick
      (fun () ->
        (* Two senders address rank 0 under distinct match bits; the root
           claims them out of global arrival order. Claims by one key must
           not disturb the other key's queue, and within a key messages
           come out in arrival order — the contract the keyed pending
           table in Pool.take provides. *)
        let world = Runtime.create_world ~nodes:3 () in
        let pools =
          Array.mapi
            (fun rank pid ->
              Collectives.Pool.create
                (Portals.Ni.create (Runtime.transport_of_rank world rank)
                   ~id:pid ())
                ~portal_index:6 ())
            world.Runtime.ranks
        in
        let root = world.Runtime.ranks.(0) in
        let send_all rank msgs =
          Scheduler.spawn (Runtime.sched_of_rank world rank) (fun () ->
              List.iter
                (fun m ->
                  Collectives.Pool.send pools.(rank) ~dst:root
                    ~bits:(Portals.Match_bits.of_int rank)
                    (Bytes.of_string m))
                msgs)
        in
        send_all 1 [ "a1"; "a2"; "a3" ];
        send_all 2 [ "b1"; "b2" ];
        let got = ref [] in
        let root_sched = Runtime.sched_of_rank world 0 in
        Scheduler.spawn root_sched (fun () ->
            (* Let every message land unclaimed before the first recv, so
               claims really do run against a populated pool. *)
            Scheduler.delay root_sched (Time_ns.ms 10.);
            let take key =
              got :=
                Bytes.to_string
                  (Collectives.Pool.recv pools.(0)
                     ~bits:(Portals.Match_bits.of_int key))
                :: !got
            in
            List.iter take [ 2; 1; 2; 1; 1 ]);
        Runtime.run world;
        Alcotest.(check (list string))
          "per-key order" [ "b1"; "a1"; "b2"; "a2"; "a3" ] (List.rev !got);
        Alcotest.(check int) "pool drained" 0
          (Collectives.Pool.pending pools.(0)));
    Alcotest.test_case "an overflowed pool EQ raises, not Deadlock" `Quick
      (fun () ->
        (* Three arrivals into a two-entry EQ while the root sleeps: the
           third is dropped, so its message can never be claimed. *)
        let world = Runtime.create_world ~nodes:4 () in
        let pools =
          Array.mapi
            (fun rank pid ->
              Collectives.Pool.create
                (Portals.Ni.create (Runtime.transport_of_rank world rank)
                   ~id:pid ())
                ~portal_index:6 ~eq_capacity:2 ())
            world.Runtime.ranks
        in
        for rank = 1 to 3 do
          Scheduler.spawn (Runtime.sched_of_rank world rank) (fun () ->
              Collectives.Pool.send pools.(rank) ~dst:world.Runtime.ranks.(0)
                ~bits:(Portals.Match_bits.of_int rank) (Bytes.of_string "m"))
        done;
        let outcome = ref None in
        let root_sched = Runtime.sched_of_rank world 0 in
        Scheduler.spawn root_sched (fun () ->
            Scheduler.delay root_sched (Time_ns.ms 10.);
            outcome :=
              Some
                (try
                   List.iter
                     (fun k ->
                       ignore
                         (Collectives.Pool.recv pools.(0)
                            ~bits:(Portals.Match_bits.of_int k)))
                     [ 1; 2; 3 ];
                   Ok ()
                 with Collectives.Pool.Eq_overflow { capacity; dropped } ->
                   Error (capacity, dropped)));
        Runtime.run world;
        Alcotest.(check (option (result unit (pair int int))))
          "capacity 2, one dropped" (Some (Error (2, 1))) !outcome);
    Alcotest.test_case "endpoint words per rank at 1024 nodes" `Quick
      (fun () ->
        let n = 1024 in
        let world = Runtime.create_world ~nodes:n () in
        let ranks = world.Runtime.ranks in
        (* Tiny slabs, so the count is the endpoints' own cost: NI tables
           and probes, two pools with their default EQ depths (1024 and
           4096), match entries, descriptors and fault listeners. Measured
           2455 words per rank (OCaml 5.1.1, x86-64); the budget leaves
           60% headroom. Rings allocated at full capacity and probes
           registered in the instrument table cost 11116. *)
        let budget = 4000 in
        let build () =
          Array.mapi
            (fun rank pid ->
              let ni =
                Portals.Ni.create (Runtime.transport_of_rank world rank) ~id:pid
                  ()
              in
              ( Collectives.create ni ~ranks ~rank ~slab_size:64 (),
                Collectives.Pool.create ni ~portal_index:7 ~slab_size:64 () ))
            ranks
        in
        let per_rank = words_during build / n in
        if per_rank > budget then
          Alcotest.failf "%d words per rank, budget %d" per_rank budget);
    Alcotest.test_case "create backs slab 0 only" `Quick (fun () ->
        (* Default sizes: four 128 KiB slabs. Slab 0 and a scratch of at
           most 1 KiB are created; the overflow slabs are reservations. *)
        let world = Runtime.create_world ~nodes:1 () in
        let ni =
          Portals.Ni.create (Runtime.transport_of_rank world 0)
            ~id:world.Runtime.ranks.(0) ()
        in
        let words =
          words_during (fun () -> Collectives.Pool.create ni ~portal_index:6 ())
        in
        let slab_words = 131_072 / (Sys.word_size / 8) in
        if words >= 2 * slab_words then
          Alcotest.failf "create allocated %d words, two slabs are %d" words
            (2 * slab_words));
    Alcotest.test_case "overflow slabs read back byte-exact after slab 0 re-arms"
      `Quick (fun () ->
        (* 256-byte slabs, 100-byte messages. Messages 0 and 1 fill slab 0
           past half; claiming both re-arms it behind slabs 1 and 2. Then
           messages 2-3 land in slab 1, 4-5 in slab 2 and 6 in slab 0
           again, at offset 0. *)
        let len = 100 in
        let got = ref [] in
        let claim recv from upto =
          for i = from to upto do
            got := (i, recv i) :: !got
          done
        in
        with_pools ~slab_size:256 ~slab_count:3
          ~sender:(fun sched send ->
            List.iter (fun i -> send i (pattern i len)) [ 0; 1 ];
            Scheduler.delay sched (Time_ns.ms 20.);
            List.iter (fun i -> send i (pattern i len)) [ 2; 3; 4; 5; 6 ])
          ~receiver:(fun sched recv ->
            Scheduler.delay sched (Time_ns.ms 10.);
            claim recv 0 1;
            Scheduler.delay sched (Time_ns.ms 20.);
            claim recv 2 6)
          ();
        Alcotest.(check int) "all claimed" 7 (List.length !got);
        List.iter
          (fun (i, b) ->
            Alcotest.(check bool)
              (Printf.sprintf "message %d byte-exact" i)
              true
              (Bytes.equal (pattern i len) b))
          !got);
    Alcotest.test_case "sends grow the scratch up to the slab size" `Quick
      (fun () ->
        (* Default 128 KiB slabs. The scratch starts at 1 KiB, so the
           first send grows it; the last is exactly one slab. One byte
           more is refused. *)
        let sizes = [ 3000; 100; 70_000; 131_072 ] in
        let got = Array.make (List.length sizes) Bytes.empty in
        let refused = ref false in
        with_pools
          ~sender:(fun _ send ->
            List.iteri (fun i len -> send i (pattern i len)) sizes;
            match send 99 (Bytes.create 131_073) with
            | () -> ()
            | exception Invalid_argument msg ->
              refused := String.starts_with ~prefix:"Pool.send" msg)
          ~receiver:(fun _ recv ->
            List.iteri (fun i _ -> got.(i) <- recv i) sizes)
          ();
        List.iteri
          (fun i len ->
            Alcotest.(check bool)
              (Printf.sprintf "%d-byte message byte-exact" len)
              true
              (Bytes.equal (pattern i len) got.(i)))
          sizes;
        Alcotest.(check bool) "a send over the slab size raises" true !refused);
  ]

(* Words allocated per call of [f], over [n] calls: minor words plus
   words allocated straight in the major heap, read after a minor
   collection on both sides so the counts are complete. *)
let words_per ~n f =
  Gc.minor ();
  let minor0, promoted0, major0 = Gc.counters () in
  for _ = 1 to n do
    f ()
  done;
  Gc.minor ();
  let minor1, promoted1, major1 = Gc.counters () in
  (minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0))
  /. float_of_int n

let words_tests =
  [
    Alcotest.test_case
      "a pooled 16-byte put costs at most 120 words end to end" `Quick
      (fun () ->
        (* Pool.send, the run that delivers it, and Pool.recv, on a warmed
           2-node world. Measured on OCaml 5.1.1: 256 words when the
           handles, the header record, the match result and the claim
           were boxed; 107 when the EQ ring and the put-region length
           still boxed theirs; 103.2 since: the wire image, the Event.t,
           the engine's closures and events, the op, the claim's cell
           and the returned copy. The budget fails the 107 and leaves
           room for other compiler versions (5.2 and 5.3 unmeasured). *)
        let world = Runtime.create_world ~nodes:2 () in
        let ranks = world.Runtime.ranks in
        let pools =
          Array.mapi
            (fun rank pid ->
              Collectives.Pool.create
                (Portals.Ni.create (Runtime.transport_of_rank world rank)
                   ~id:pid ())
                ~portal_index:6 ~slab_size:16_384 ~slab_count:2
                ~eq_capacity:1024 ())
            ranks
        in
        (* One shard: its scheduler runs the whole world, without the
           closure [Runtime.run] makes per call. *)
        let sched = Runtime.sched_of_nid world 0 in
        let payload = Bytes.make 16 'x' in
        let bits = Portals.Match_bits.of_int 42 in
        let one () =
          Collectives.Pool.send pools.(0) ~dst:ranks.(1) ~bits payload;
          Scheduler.run sched;
          let got = Collectives.Pool.recv pools.(1) ~bits in
          if not (Bytes.equal got payload) then Alcotest.fail "payload"
        in
        for _ = 1 to 2000 do
          one ()
        done;
        let words = words_per ~n:1000 one in
        if words > 106. then
          Alcotest.failf "a pooled put allocates %.1f words, over 106" words);
  ]

let () =
  Alcotest.run "collectives"
    [
      ("barrier", barrier_tests);
      ("data", data_tests);
      ("helpers", float_helpers_tests);
      ("pool", pool_tests);
      ("words", words_tests);
    ]
