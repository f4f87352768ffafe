open Sim_engine

let time_tests =
  let open Time_ns in
  [
    Alcotest.test_case "unit constructors" `Quick (fun () ->
        Alcotest.(check int) "ns" 5 (ns 5);
        Alcotest.(check int) "us" 5_000 (us 5.0);
        Alcotest.(check int) "ms" 5_000_000 (ms 5.0);
        Alcotest.(check int) "s" 5_000_000_000 (s 5.0));
    Alcotest.test_case "round trips" `Quick (fun () ->
        Alcotest.(check (float 1e-9)) "us" 2.5 (to_us (us 2.5));
        Alcotest.(check (float 1e-9)) "ms" 0.25 (to_ms (ms 0.25));
        Alcotest.(check (float 1e-9)) "s" 1.5 (to_s (s 1.5)));
    Alcotest.test_case "of_rate" `Quick (fun () ->
        (* 1000 bytes at 1 GB/s = 1 microsecond *)
        Alcotest.(check int) "1us" 1_000 (of_rate ~bytes_per_s:1e9 1000);
        Alcotest.(check int) "zero bytes" 0 (of_rate ~bytes_per_s:1e9 0));
    Alcotest.test_case "pretty printing picks units" `Quick (fun () ->
        Alcotest.(check string) "ns" "17ns" (to_string (ns 17));
        Alcotest.(check string) "us" "2.000us" (to_string (us 2.0));
        Alcotest.(check string) "ms" "3.500ms" (to_string (ms 3.5));
        Alcotest.(check string) "s" "1.000s" (to_string (s 1.0)));
    Alcotest.test_case "arithmetic" `Quick (fun () ->
        Alcotest.(check int) "add" 30 (add (ns 10) (ns 20));
        Alcotest.(check int) "sub" 5 (sub (ns 15) (ns 10));
        Alcotest.(check bool) "compare" true (compare (ns 1) (ns 2) < 0));
  ]

let prng_tests =
  [
    Alcotest.test_case "determinism" `Quick (fun () ->
        let a = Prng.create ~seed:42 and b = Prng.create ~seed:42 in
        for _ = 1 to 100 do
          Alcotest.(check int64) "same stream" (Prng.bits64 a) (Prng.bits64 b)
        done);
    Alcotest.test_case "different seeds differ" `Quick (fun () ->
        let a = Prng.create ~seed:1 and b = Prng.create ~seed:2 in
        Alcotest.(check bool) "diverge" true (Prng.bits64 a <> Prng.bits64 b));
    Alcotest.test_case "split streams are independent" `Quick (fun () ->
        let root = Prng.create ~seed:7 in
        let a = Prng.split root in
        let b = Prng.split root in
        Alcotest.(check bool) "children diverge" true
          (Prng.bits64 a <> Prng.bits64 b));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"int within bound" ~count:500
         QCheck.(pair small_int (int_range 1 1_000_000))
         (fun (seed, bound) ->
           let p = Prng.create ~seed in
           let v = Prng.int p bound in
           v >= 0 && v < bound));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"float within bound" ~count:500
         QCheck.(pair small_int (float_range 0.001 1000.))
         (fun (seed, bound) ->
           let p = Prng.create ~seed in
           let v = Prng.float p bound in
           v >= 0. && v < bound));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"shuffle is a permutation" ~count:200
         QCheck.(pair small_int (list small_int))
         (fun (seed, l) ->
           let p = Prng.create ~seed in
           let a = Array.of_list l in
           Prng.shuffle_in_place p a;
           List.sort compare (Array.to_list a) = List.sort compare l));
    Alcotest.test_case "exponential is positive with sane mean" `Quick (fun () ->
        let p = Prng.create ~seed:3 in
        let n = 20_000 in
        let total = ref 0. in
        for _ = 1 to n do
          let x = Prng.exponential p ~mean:5.0 in
          assert (x >= 0.);
          total := !total +. x
        done;
        let mean = !total /. float_of_int n in
        Alcotest.(check bool) "mean near 5" true (mean > 4.5 && mean < 5.5));
  ]

(* Pops every event in order, as [(time, value)] pairs. *)
let drain_heap h =
  let rec go acc =
    if Event_heap.is_empty h then List.rev acc
    else
      let time = Event_heap.min_time h in
      go ((time, Event_heap.pop_min h) :: acc)
  in
  go []

(* The reference the index heap is checked against: a set of
   [(time, insertion index)] pairs, popped from its least element. *)
module Model = Set.Make (struct
  type t = int * int

  let compare = compare
end)

type heap_op = Add of int | Pop | Pop_and_readd | Drain_to of int

(* Applies [ops] to a heap of insertion indices and to the model, then
   drains both. [Pop_and_readd] pops and then adds at the popped time, as
   an event handler's [after 0] does: the run it lands in may still be
   pending or may just have drained. Returns whether every pop agreed
   with the model on time and value and every inserted index came out
   exactly once, the heap's peak length, and whether some time ever had
   several runs pending at once. *)
let heap_agrees_with_model ops =
  let h = Event_heap.create () in
  let model = ref Model.empty and next = ref 0 and popped = ref [] in
  let ok = ref true and shared = ref false in
  (* Pending events per time: more runs than distinct pending times
     means some time has several. *)
  let pending = Hashtbl.create 64 in
  let count time d =
    let n = Option.value (Hashtbl.find_opt pending time) ~default:0 + d in
    if n = 0 then Hashtbl.remove pending time
    else Hashtbl.replace pending time n
  in
  let add time =
    Event_heap.add h ~time !next;
    model := Model.add (time, !next) !model;
    incr next;
    count time 1;
    if Event_heap.For_testing.runs h > Hashtbl.length pending then
      shared := true
  in
  let pop () =
    if Model.is_empty !model then None
    else begin
      let expected = Model.min_elt !model in
      model := Model.remove expected !model;
      let t = Event_heap.min_time h in
      let v = Event_heap.pop_min h in
      if (t, v) <> expected then ok := false;
      count (fst expected) (-1);
      popped := v :: !popped;
      Some t
    end
  in
  List.iter
    (function
      | Add time -> add time
      | Pop -> ignore (pop ())
      | Pop_and_readd -> Option.iter add (pop ())
      | Drain_to k ->
        while Model.cardinal !model > k do
          ignore (pop ())
        done)
    ops;
  while not (Model.is_empty !model) do
    ignore (pop ())
  done;
  ( !ok
    && Event_heap.is_empty h
    && List.sort compare !popped = List.init !next Fun.id,
    Event_heap.peak_size h,
    !shared )

let heap_tests =
  [
    Alcotest.test_case "pop order" `Quick (fun () ->
        let h = Event_heap.create () in
        Event_heap.add h ~time:30 "c";
        Event_heap.add h ~time:10 "a";
        Event_heap.add h ~time:20 "b";
        Alcotest.(check (list string)) "sorted" [ "a"; "b"; "c" ]
          (List.map snd (drain_heap h)));
    Alcotest.test_case "FIFO tie-break at equal times" `Quick (fun () ->
        let h = Event_heap.create () in
        List.iter (fun v -> Event_heap.add h ~time:5 v) [ "1"; "2"; "3"; "4" ];
        Alcotest.(check (list string)) "insertion order" [ "1"; "2"; "3"; "4" ]
          (List.map snd (drain_heap h)));
    Alcotest.test_case "peek does not remove" `Quick (fun () ->
        let h = Event_heap.create () in
        Event_heap.add h ~time:9 ();
        Alcotest.(check int) "min_time" 9 (Event_heap.min_time h);
        Alcotest.(check int) "length" 1 (Event_heap.length h));
    Alcotest.test_case "empty heap" `Quick (fun () ->
        let h : unit Event_heap.t = Event_heap.create () in
        Alcotest.(check bool) "is_empty" true (Event_heap.is_empty h);
        Alcotest.check_raises "pop_min" Event_heap.Empty (fun () ->
            Event_heap.pop_min h);
        Alcotest.check_raises "min_time" Event_heap.Empty (fun () ->
            ignore (Event_heap.min_time h)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"heap sorts like List.sort" ~count:300
         QCheck.(list (int_range 0 1000))
         (fun times ->
           let h = Event_heap.create () in
           List.iter (fun time -> Event_heap.add h ~time time) times;
           List.map snd (drain_heap h) = List.sort compare times));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"stable for equal keys" ~count:100
         QCheck.(list_of_size (Gen.int_range 0 50) (int_range 0 5))
         (fun times ->
           (* Tag each event with its insertion index; at equal times the
              indices must come out ascending. *)
           let h = Event_heap.create () in
           List.iteri (fun i time -> Event_heap.add h ~time (time, i)) times;
           let rec check = function
             | (t1, i1) :: ((t2, i2) :: _ as rest) ->
               (t1 < t2 || (t1 = t2 && i1 < i2)) && check rest
             | [ _ ] | [] -> true
           in
           check (List.map snd (drain_heap h))));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"pop order under interleaved add/pop" ~count:300
         (* Negative = pop, otherwise add at that time. Interleaving
            exercises the sift paths against a part-drained heap, which
            add-all-then-drain never does. *)
         QCheck.(list (int_range (-3) 40))
         (fun ops ->
           let agrees, _, _ =
             heap_agrees_with_model
               (List.map (fun op -> if op < 0 then Pop else Add op) ops)
           in
           agrees));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"model: long runs across four doublings"
         ~count:40
         (* Adds outnumber pops two to one, so 1000+ operations pass 128
            pending — capacity 16 doubled four times — all but certainly;
            a case that does not is discarded, not failed. Times 0..7 make
            ties common. *)
         QCheck.(
           make
             ~print:(fun ops -> string_of_int (List.length ops) ^ " ops")
             Gen.(
               list_size (int_range 1000 3000)
                 (frequency
                    [ (2, map (fun t -> Add t) (int_range 0 7)); (1, return Pop) ])))
         (fun ops ->
           let agrees, peak, _ = heap_agrees_with_model ops in
           QCheck.assume (peak > 128);
           agrees));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"model: regrowth after draining to a few"
         ~count:60
         (* Fill past 128, drain to [k], then refill past the capacity
            reached: the growth then repacks keys whose slot ids were
            recycled out of order, from seqs of both fills. *)
         QCheck.(
           triple (int_range 129 250) (int_range 0 4)
             (list_of_size (Gen.int_range 400 700) (int_range 0 7)))
         (fun (fill, k, refill) ->
           let agrees, peak, _ =
             heap_agrees_with_model
               (List.init fill (fun i -> Add (i mod 8))
               @ [ Drain_to k ]
               @ List.concat_map
                   (fun t -> if t = 0 then [ Add t; Pop ] else [ Add t ])
                   refill)
           in
           QCheck.assume (peak > 256);
           agrees));
    Alcotest.test_case "overflow guard raises before misordering" `Quick
      (fun () ->
        let limit shift = max_int lsr shift in
        (* Seqs number runs, not events. Capacity 16 keeps 4 slot bits:
           "a" opens a run with the second-to-last seq that fits, "b"
           appends to it and takes none, "c" opens the run with the last
           seq. A new run at time 3 is refused; an append at time 5 is
           not. *)
        let h = Event_heap.For_testing.create_at_seq (limit 4 - 1) in
        Event_heap.add h ~time:5 "a";
        Event_heap.add h ~time:5 "b";
        Event_heap.add h ~time:1 "c";
        Alcotest.check_raises "fourth add opens a run"
          (Invalid_argument "Event_heap.add: sequence numbers exhausted")
          (fun () -> Event_heap.add h ~time:3 "d");
        Event_heap.add h ~time:5 "e";
        Alcotest.(check (list (pair int string))) "FIFO at the limit"
          [ (1, "c"); (5, "a"); (5, "b"); (5, "e") ] (drain_heap h);
        (* Sixteen events in three runs fill capacity 16. Growing to 32
           costs a slot bit, and the three seqs still fit under it: the
           heap grows, the repacked keys keep their order, and only the
           run after the last seq that fits is refused. *)
        let h = Event_heap.For_testing.create_at_seq (limit 5 - 7) in
        for i = 0 to 16 do
          Event_heap.add h ~time:(i mod 3) i
        done;
        for i = 17 to 21 do
          Event_heap.add h ~time:(i - 7) i
        done;
        Alcotest.check_raises "run past the limit"
          (Invalid_argument "Event_heap.add: sequence numbers exhausted")
          (fun () -> Event_heap.add h ~time:15 22);
        Event_heap.add h ~time:0 23;
        let expected =
          List.init 17 (fun i -> (i mod 3, i))
          @ List.init 5 (fun i -> (i + 10, i + 17))
          @ [ (0, 23) ]
          |> List.sort compare
        in
        Alcotest.(check (list (pair int int))) "order kept" expected
          (drain_heap h);
        (* Sixteen events at sixteen times open sixteen runs, and the
           upper half of their seqs no longer fits a fifth slot bit: the
           growth is refused before it repacks, even for an add that
           would append, and the sixteen still come out in order. *)
        let h = Event_heap.For_testing.create_at_seq (limit 5 - 7) in
        for i = 0 to 15 do
          Event_heap.add h ~time:(15 - i) i
        done;
        Alcotest.check_raises "growth"
          (Invalid_argument "Event_heap.add: sequence numbers exhausted")
          (fun () -> Event_heap.add h ~time:0 16);
        Alcotest.(check int) "length" 16 (Event_heap.length h);
        Alcotest.(check (list (pair int int))) "order kept after refusal"
          (List.init 16 (fun i -> (i, 15 - i)))
          (drain_heap h);
        (* One run fewer past the limit, the same growth fits: keys
           repacked at the very top of the int range keep their order. *)
        let h = Event_heap.For_testing.create_at_seq (limit 5 - 16) in
        for i = 0 to 16 do
          Event_heap.add h ~time:(16 - i) i
        done;
        Alcotest.check_raises "18th run"
          (Invalid_argument "Event_heap.add: sequence numbers exhausted")
          (fun () -> Event_heap.add h ~time:17 17);
        Event_heap.add h ~time:3 18;
        Alcotest.(check (list (pair int int))) "repacked order"
          (List.sort compare
             ((3, 18) :: List.init 17 (fun i -> (16 - i, i))))
          (drain_heap h));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"model: several runs per time, drained and reopened"
         ~count:100
         (* Three times as many distinct times as cache entries, so
            entries are evicted while their runs are pending and a later
            add at the same time opens a second run; [Pop_and_readd]
            lands in the run being popped or reopens one that just
            drained. A case where no time ever had two runs at once is
            discarded, not failed. *)
         QCheck.(
           make
             ~print:(fun ops -> string_of_int (List.length ops) ^ " ops")
             Gen.(
               list_size (int_range 300 1500)
                 (frequency
                    [
                      ( 4,
                        map
                          (fun t -> Add t)
                          (int_range 0
                             ((3 * Event_heap.For_testing.cache_entries) - 1))
                      );
                      (1, return Pop);
                      (2, return Pop_and_readd);
                    ])))
         (fun ops ->
           let agrees, _, shared = heap_agrees_with_model ops in
           QCheck.assume shared;
           agrees));
    Alcotest.test_case "a time evicted from the cache gets a second run"
      `Quick (fun () ->
        (* Time 0's entry is evicted by one of the next 4 x cache times,
           so the second add at 0 opens a new run behind the first; the
           add at 0 after the first pop must land in that newest run. *)
        let h = Event_heap.create () in
        let n = 4 * Event_heap.For_testing.cache_entries in
        Event_heap.add h ~time:0 (0, 0);
        for t = 1 to n do
          Event_heap.add h ~time:t (t, 0)
        done;
        Event_heap.add h ~time:0 (0, 1);
        Alcotest.(check bool) "two runs at time 0" true
          (Event_heap.For_testing.runs h = n + 2);
        Alcotest.(check (pair int int)) "first run first" (0, 0)
          (Event_heap.pop_min h);
        Event_heap.add h ~time:0 (0, 2);
        let popped = List.map snd (drain_heap h) in
        Alcotest.(check (list (pair int int))) "newest run appended"
          ([ (0, 1); (0, 2) ] @ List.init n (fun t -> (t + 1, 0)))
          popped);
  ]

(* The blocked set against a plain model. Every fiber loops forever
   suspending on its own waker, named "w<n>" for its n-th suspension, so
   after each step every live fiber is blocked; a step runs at its own
   time, so a fiber's blocked-since time is the step that last woke it.
   After each step the scheduler must agree with the model on
   [blocked_report], [live_fibers], every [kill_domain] count and the
   order fibers die in, and at the end on the [Deadlock] report. *)
type blocked_op = Spawn of int option | Wake of int | Kill of int

let pp_blocked_op = function
  | Spawn None -> "spawn"
  | Spawn (Some d) -> Printf.sprintf "spawn@%d" d
  | Wake i -> Printf.sprintf "wake %d" i
  | Kill d -> Printf.sprintf "kill %d" d

let blocked_op_gen =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun d -> Spawn d) (opt ~ratio:0.8 (int_range 0 2)));
        (4, map (fun i -> Wake i) (int_range 0 20));
        (1, map (fun d -> Kill d) (int_range 0 2));
      ])

(* A model fiber: id, spawn name, domain, suspensions so far, and the
   time it last blocked. *)
type model_fiber = {
  m_id : int;
  m_domain : int option;
  mutable m_waits : int;
  mutable m_since : int;
}

let blocked_set_agrees_with_model ops =
  let sched = Scheduler.create () in
  let wakers = Hashtbl.create 16 and died = ref [] in
  let body id () =
    let n = ref 0 in
    try
      while true do
        Scheduler.suspend sched
          ~name:(Printf.sprintf "w%d" !n)
          (fun w -> Hashtbl.replace wakers id w);
        incr n
      done
    with Scheduler.Killed as e ->
      died := id :: !died;
      raise e
  in
  let live = ref [] and next = ref 0 and model_died = ref [] in
  let report now =
    List.map
      (fun f ->
        Format.asprintf "at t=%a fiber#%d (f%d) blocked since t=%a on w%d"
          Time_ns.pp now f.m_id f.m_id Time_ns.pp f.m_since f.m_waits)
      !live
    |> List.sort compare
  in
  let ok = ref true in
  let agree b = if not b then ok := false in
  List.iteri
    (fun step op ->
      let now = (step + 1) * 10 in
      Scheduler.at sched now (fun () ->
          match op with
          | Spawn domain ->
            let id = !next in
            incr next;
            Scheduler.spawn sched ~name:(Printf.sprintf "f%d" id) ?domain
              (body id);
            live :=
              !live @ [ { m_id = id; m_domain = domain; m_waits = 0; m_since = now } ]
          | Wake i -> (
            match !live with
            | [] -> ()
            | fs ->
              let f = List.nth fs (i mod List.length fs) in
              (Hashtbl.find wakers f.m_id) ();
              f.m_waits <- f.m_waits + 1;
              f.m_since <- now)
          | Kill d ->
            let victims, rest =
              List.partition (fun f -> f.m_domain = Some d) !live
            in
            live := rest;
            model_died := List.rev_map (fun f -> f.m_id) victims @ !model_died;
            agree (Scheduler.kill_domain sched d = List.length victims));
      Scheduler.run ~allow_blocked:true sched;
      agree (Scheduler.blocked_report sched = report now);
      agree (Scheduler.live_fibers sched = List.length !live);
      agree (!died = !model_died))
    ops;
  (match Scheduler.run sched with
  | () -> agree (!live = [])
  | exception Scheduler.Deadlock names ->
    agree (names = report (Scheduler.now sched)));
  !ok

let scheduler_tests =
  [
    Alcotest.test_case "callbacks run in time order" `Quick (fun () ->
        let sched = Scheduler.create () in
        let order = ref [] in
        Scheduler.at sched 30 (fun () -> order := 30 :: !order);
        Scheduler.at sched 10 (fun () -> order := 10 :: !order);
        Scheduler.at sched 20 (fun () -> order := 20 :: !order);
        Scheduler.run sched;
        Alcotest.(check (list int)) "order" [ 10; 20; 30 ] (List.rev !order));
    Alcotest.test_case "now advances to event times" `Quick (fun () ->
        let sched = Scheduler.create () in
        Scheduler.at sched 500 (fun () ->
            Alcotest.(check int) "now" 500 (Scheduler.now sched));
        Scheduler.run sched;
        Alcotest.(check int) "final" 500 (Scheduler.now sched));
    Alcotest.test_case "scheduling in the past is rejected" `Quick (fun () ->
        let sched = Scheduler.create () in
        Scheduler.at sched 100 (fun () ->
            Alcotest.check_raises "past"
              (Invalid_argument "Scheduler.at: time 50ns is before now 100ns")
              (fun () -> Scheduler.at sched 50 ignore));
        Scheduler.run sched);
    Alcotest.test_case "fiber delay accumulates" `Quick (fun () ->
        let sched = Scheduler.create () in
        let trace = ref [] in
        Scheduler.spawn sched (fun () ->
            Scheduler.delay sched 10;
            trace := Scheduler.now sched :: !trace;
            Scheduler.delay sched 15;
            trace := Scheduler.now sched :: !trace);
        Scheduler.run sched;
        Alcotest.(check (list int)) "times" [ 10; 25 ] (List.rev !trace));
    Alcotest.test_case "two fibers interleave by time" `Quick (fun () ->
        let sched = Scheduler.create () in
        let trace = ref [] in
        let fiber tag dt =
          Scheduler.spawn sched (fun () ->
              for _ = 1 to 3 do
                Scheduler.delay sched dt;
                trace := (tag, Scheduler.now sched) :: !trace
              done)
        in
        fiber "a" 10;
        fiber "b" 15;
        Scheduler.run sched;
        Alcotest.(check (list (pair string int)))
          "interleaving"
          (* At t=30 both wake; b's timer was armed earlier (t=15 vs t=20),
             so FIFO tie-break runs b first. *)
          [ ("a", 10); ("b", 15); ("a", 20); ("b", 30); ("a", 30); ("b", 45) ]
          (List.rev !trace));
    Alcotest.test_case "deadlock is detected and named" `Quick (fun () ->
        let sched = Scheduler.create () in
        Scheduler.spawn sched (fun () ->
            Scheduler.suspend sched ~name:"never" (fun _waker -> ()));
        (match Scheduler.run sched with
        | () -> Alcotest.fail "expected Deadlock"
        | exception Scheduler.Deadlock names ->
          Alcotest.(check int) "one blocked" 1 (List.length names);
          Alcotest.(check bool) "mentions reason" true
            (String.length (List.hd names) > 0
            && String.ends_with ~suffix:"never" (List.hd names))));
    Alcotest.test_case "allow_blocked suppresses deadlock" `Quick (fun () ->
        let sched = Scheduler.create () in
        Scheduler.spawn sched (fun () ->
            Scheduler.suspend sched ~name:"forever" (fun _ -> ()));
        Scheduler.run ~allow_blocked:true sched;
        Alcotest.(check int) "still live" 1 (Scheduler.live_fibers sched));
    Alcotest.test_case "run ~until leaves later events queued" `Quick (fun () ->
        let sched = Scheduler.create () in
        let fired = ref [] in
        Scheduler.at sched 10 (fun () -> fired := 10 :: !fired);
        Scheduler.at sched 100 (fun () -> fired := 100 :: !fired);
        Scheduler.run ~until:50 sched;
        Alcotest.(check (list int)) "only first" [ 10 ] (List.rev !fired);
        Scheduler.run sched;
        Alcotest.(check (list int)) "rest later" [ 10; 100 ] (List.rev !fired));
    Alcotest.test_case "stop aborts processing" `Quick (fun () ->
        let sched = Scheduler.create () in
        let fired = ref 0 in
        Scheduler.at sched 10 (fun () ->
            incr fired;
            Scheduler.stop sched);
        Scheduler.at sched 20 (fun () -> incr fired);
        Scheduler.run sched;
        Alcotest.(check int) "one event" 1 !fired);
    Alcotest.test_case "yield lets same-instant events run first" `Quick (fun () ->
        let sched = Scheduler.create () in
        let trace = ref [] in
        Scheduler.spawn sched (fun () ->
            trace := "f1-a" :: !trace;
            Scheduler.yield sched;
            trace := "f1-b" :: !trace);
        Scheduler.spawn sched (fun () -> trace := "f2" :: !trace);
        Scheduler.run sched;
        Alcotest.(check (list string)) "order" [ "f1-a"; "f2"; "f1-b" ]
          (List.rev !trace));
    Alcotest.test_case "fiber exception propagates out of run" `Quick (fun () ->
        let sched = Scheduler.create () in
        Scheduler.spawn sched (fun () -> failwith "boom");
        Alcotest.check_raises "escapes" (Failure "boom") (fun () ->
            Scheduler.run sched));
    Alcotest.test_case "deadlock report carries sim time and blocked-since"
      `Quick (fun () ->
        let sched = Scheduler.create () in
        Scheduler.spawn sched ~name:"stuck-rank" (fun () ->
            Scheduler.delay sched 4;
            Scheduler.suspend sched ~name:"mpi.recv" (fun _waker -> ()));
        Scheduler.at sched 10 (fun () -> ());
        (match Scheduler.run sched with
        | () -> Alcotest.fail "expected Deadlock"
        | exception Scheduler.Deadlock [ entry ] ->
          let has needle =
            Alcotest.(check bool)
              (Printf.sprintf "report %S mentions %s" entry needle)
              true
              (let nl = String.length needle and el = String.length entry in
               let rec scan i =
                 i + nl <= el && (String.sub entry i nl = needle || scan (i + 1))
               in
               scan 0)
          in
          (* Deadlock time, fiber name, block time, and — last — the wait
             reason. *)
          has "t=10";
          has "stuck-rank";
          has "t=4";
          Alcotest.(check bool) "reason is the suffix" true
            (String.ends_with ~suffix:"mpi.recv" entry)
        | exception Scheduler.Deadlock names ->
          Alcotest.fail
            (Printf.sprintf "expected one entry, got %d" (List.length names))));
    Alcotest.test_case "kill_domain discontinues blocked fibers" `Quick
      (fun () ->
        let sched = Scheduler.create () in
        let cleanup = ref false in
        let finished = ref false in
        Scheduler.spawn sched ~name:"resident" ~domain:3 (fun () ->
            (try Scheduler.delay sched 1000
             with Scheduler.Killed as e ->
               cleanup := true;
               raise e);
            finished := true);
        Scheduler.at sched 10 (fun () ->
            Alcotest.(check int) "one fiber killed" 1
              (Scheduler.kill_domain sched 3));
        Scheduler.run sched;
        Alcotest.(check bool) "Killed reached the fiber" true !cleanup;
        Alcotest.(check bool) "body after the block never ran" false !finished;
        Alcotest.(check int) "no fibers left" 0 (Scheduler.live_fibers sched));
    Alcotest.test_case "counters track processed events and spawns" `Quick
      (fun () ->
        let before = Scheduler.global_totals () in
        let sched = Scheduler.create () in
        for i = 1 to 5 do
          Scheduler.at sched (i * 10) ignore
        done;
        Scheduler.spawn sched (fun () -> Scheduler.delay sched 7);
        Scheduler.run sched;
        let local = Scheduler.events_processed sched in
        Alcotest.(check bool) "at least the five timers" true (local >= 5);
        let after = Scheduler.global_totals () in
        Alcotest.(check int) "global event delta matches the run" local
          (after.Scheduler.t_events - before.Scheduler.t_events);
        Alcotest.(check int) "global fiber delta" 1
          (after.Scheduler.t_fibers - before.Scheduler.t_fibers);
        Alcotest.(check bool) "sim time advanced" true
          (after.Scheduler.t_sim_time - before.Scheduler.t_sim_time >= 50));
    Alcotest.test_case "batched run keeps same-instant FIFO" `Quick (fun () ->
        (* The run loop drains same-timestamp events in one batch; an event
           scheduled for the current instant from inside the batch must
           still run after the already-queued ones (seq order). *)
        let sched = Scheduler.create () in
        let order = ref [] in
        let record tag () = order := tag :: !order in
        Scheduler.at sched 10 (fun () ->
            record "a" ();
            Scheduler.at sched 10 (record "d"));
        Scheduler.at sched 10 (record "b");
        Scheduler.at sched 10 (record "c");
        Scheduler.run sched;
        Alcotest.(check (list string)) "order" [ "a"; "b"; "c"; "d" ]
          (List.rev !order));
    Alcotest.test_case "kill_domain spares the next incarnation" `Quick
      (fun () ->
        let sched = Scheduler.create () in
        let first_done = ref false in
        let second_done = ref false in
        Scheduler.spawn sched ~name:"life1" ~domain:1 (fun () ->
            Scheduler.delay sched 1000;
            first_done := true);
        Scheduler.at sched 10 (fun () ->
            ignore (Scheduler.kill_domain sched 1);
            (* The node "reboots": a fresh fiber in the same domain must
               not be touched by the kill that just happened. *)
            Scheduler.spawn sched ~name:"life2" ~domain:1 (fun () ->
                Scheduler.delay sched 50;
                second_done := true));
        Scheduler.run sched;
        Alcotest.(check bool) "first life killed" false !first_done;
        Alcotest.(check bool) "second life survives" true !second_done);
    Alcotest.test_case "double wake is rejected" `Quick (fun () ->
        let sched = Scheduler.create () in
        let stash = ref None in
        Scheduler.spawn sched (fun () ->
            Scheduler.suspend sched ~name:"w" (fun waker -> stash := Some waker));
        Scheduler.spawn sched (fun () ->
            Scheduler.delay sched 5;
            match !stash with
            | None -> Alcotest.fail "no waker"
            | Some waker ->
              waker ();
              Alcotest.check_raises "second wake"
                (Invalid_argument "Scheduler: waker invoked more than once")
                waker);
        Scheduler.run sched);
    Alcotest.test_case "at, after 0, yield and spawn share one instant FIFO"
      `Quick (fun () ->
        let sched = Scheduler.create () in
        let t0 = 1000 in
        let log = ref [] in
        let note s = log := (s, Scheduler.now sched) :: !log in
        Scheduler.at sched t0 (fun () ->
            note "a";
            Scheduler.after sched 0 (fun () -> note "d");
            Scheduler.spawn sched (fun () ->
                note "e";
                Scheduler.yield sched;
                note "h");
            Scheduler.at sched t0 (fun () ->
                note "f";
                Scheduler.after sched 0 (fun () -> note "i")));
        (* Pending events at many later times evict t0 from the heap's
           run cache, so "b" opens a second run at t0 behind "a". *)
        for k = 1 to 4 * Event_heap.For_testing.cache_entries do
          Scheduler.at sched (t0 + k) ignore
        done;
        Scheduler.at sched t0 (fun () -> note "b");
        (* Runs at time 0 and parks its waker at t0, after "b"; the
           waker queues the fiber's resumption behind what is pending. *)
        Scheduler.spawn sched (fun () ->
            Scheduler.delay_until sched t0;
            note "g";
            Scheduler.yield sched;
            note "j");
        Scheduler.at sched 10 (fun () ->
            Scheduler.at sched t0 (fun () -> note "c"));
        Scheduler.run sched;
        (* Insertion order at t0: a, b, the parked waker, c; then a's
           successors d, the spawned fiber (e) and f; the waker's
           resumption (g); e's yield (h); f's [after 0] (i); g's yield
           (j). *)
        Alcotest.(check (list (pair string int)))
          "insertion order"
          (List.map
             (fun s -> (s, t0))
             [ "a"; "b"; "c"; "d"; "e"; "f"; "g"; "h"; "i"; "j" ])
          (List.rev !log));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"blocked set agrees with a list model" ~count:300
         (QCheck.make
            ~print:(fun ops -> String.concat "; " (List.map pp_blocked_op ops))
            ~shrink:QCheck.Shrink.list
            QCheck.Gen.(list_size (int_range 1 60) blocked_op_gen))
         blocked_set_agrees_with_model);
    (* Set X, A, K: killing K, then waking A, removes the last entry each
       time. The why string is made inside the fiber, so only the
       fiber's blocked entry refers to it once the fiber is gone. *)
    Alcotest.test_case "a woken or killed fiber's entry is collectable" `Quick
      (fun () ->
        let sched = Scheduler.create () in
        let whys = Weak.create 2 in
        let waker_a = ref None and waker_k = ref None in
        let park ?slot ?domain stash =
          Scheduler.spawn sched ?domain (fun () ->
              let why = String.make 16 'w' in
              Option.iter (fun i -> Weak.set whys i (Some why)) slot;
              Scheduler.suspend sched ~name:why (fun w -> stash := Some w))
        in
        park (ref None);
        park ~slot:0 waker_a;
        park ~slot:1 ~domain:1 waker_k;
        Scheduler.run ~allow_blocked:true sched;
        Alcotest.(check int) "K killed" 1 (Scheduler.kill_domain sched 1);
        Option.iter (fun w -> w ()) !waker_a;
        waker_a := None;
        waker_k := None;
        Scheduler.run ~allow_blocked:true sched;
        Gc.full_major ();
        Alcotest.(check bool) "woken fiber's why is collected" false
          (Weak.check whys 0);
        Alcotest.(check bool) "killed fiber's why is collected" false
          (Weak.check whys 1);
        Alcotest.(check int) "X still blocked" 1 (Scheduler.live_fibers sched));
  ]

let sync_tests =
  let open Sync in
  [
    Alcotest.test_case "ivar read blocks until fill" `Quick (fun () ->
        let sched = Scheduler.create () in
        let iv = Ivar.create sched in
        let got = ref None in
        Scheduler.spawn sched (fun () -> got := Some (Ivar.read iv));
        Scheduler.spawn sched (fun () ->
            Scheduler.delay sched 100;
            Ivar.fill iv 42);
        Scheduler.run sched;
        Alcotest.(check (option int)) "value" (Some 42) !got);
    Alcotest.test_case "ivar read after fill is immediate" `Quick (fun () ->
        let sched = Scheduler.create () in
        let iv = Ivar.create sched in
        Ivar.fill iv "x";
        Alcotest.(check bool) "filled" true (Ivar.is_filled iv);
        Alcotest.(check (option string)) "peek" (Some "x") (Ivar.peek iv);
        Scheduler.spawn sched (fun () ->
            Alcotest.(check string) "read" "x" (Ivar.read iv));
        Scheduler.run sched);
    Alcotest.test_case "ivar double fill rejected" `Quick (fun () ->
        let sched = Scheduler.create () in
        let iv = Ivar.create sched in
        Ivar.fill iv 1;
        Alcotest.check_raises "refilled"
          (Invalid_argument "Ivar.fill: already filled") (fun () -> Ivar.fill iv 2));
    Alcotest.test_case "ivar wakes every reader at the fill, in order" `Quick
      (fun () ->
        let sched = Scheduler.create () in
        let iv = Ivar.create sched in
        let got = ref [] in
        for i = 1 to 3 do
          Scheduler.spawn sched (fun () ->
              Scheduler.delay sched i;
              let v = Ivar.read iv in
              got := (i, v, Scheduler.now sched) :: !got)
        done;
        Scheduler.spawn sched (fun () ->
            Scheduler.delay sched 50;
            Ivar.fill iv 7);
        Scheduler.run sched;
        Alcotest.(check (list (triple int int int)))
          "readers in arrival order, at the fill time"
          [ (1, 7, 50); (2, 7, 50); (3, 7, 50) ]
          (List.rev !got));
    Alcotest.test_case "semaphore serialises critical sections" `Quick (fun () ->
        let sched = Scheduler.create () in
        let sem = Semaphore.create sched 1 in
        let inside = ref 0 and max_inside = ref 0 in
        for _ = 1 to 5 do
          Scheduler.spawn sched (fun () ->
              Semaphore.acquire sem;
              incr inside;
              if !inside > !max_inside then max_inside := !inside;
              Scheduler.delay sched 10;
              decr inside;
              Semaphore.release sem)
        done;
        Scheduler.run sched;
        Alcotest.(check int) "mutual exclusion" 1 !max_inside);
    Alcotest.test_case "semaphore counts available units" `Quick (fun () ->
        let sched = Scheduler.create () in
        let sem = Semaphore.create sched 3 in
        Scheduler.spawn sched (fun () ->
            Semaphore.acquire sem;
            Semaphore.acquire sem;
            Alcotest.(check int) "left" 1 (Semaphore.available sem);
            Semaphore.release sem;
            Semaphore.release sem;
            Alcotest.(check int) "restored" 3 (Semaphore.available sem));
        Scheduler.run sched);
    Alcotest.test_case "semaphore grants waiters in arrival order" `Quick
      (fun () ->
        let sched = Scheduler.create () in
        let sem = Semaphore.create sched 1 in
        let order = ref [] in
        Scheduler.spawn sched (fun () ->
            Semaphore.acquire sem;
            Scheduler.delay sched 10;
            Semaphore.release sem);
        List.iter
          (fun (id, arrive) ->
            Scheduler.spawn sched (fun () ->
                Scheduler.delay sched arrive;
                Semaphore.acquire sem;
                order := (id, Scheduler.now sched) :: !order;
                Scheduler.delay sched 5;
                Semaphore.release sem))
          [ ("c", 3); ("a", 1); ("b", 2) ];
        Scheduler.run sched;
        Alcotest.(check (list (pair string int)))
          "FIFO, each after the previous holder"
          [ ("a", 10); ("b", 15); ("c", 20) ]
          (List.rev !order);
        Alcotest.(check int) "all units back" 1 (Semaphore.available sem));
    Alcotest.test_case "semaphore rejects a negative count" `Quick (fun () ->
        let sched = Scheduler.create () in
        Alcotest.check_raises "negative"
          (Invalid_argument "Semaphore.create: negative") (fun () ->
            ignore (Semaphore.create sched (-1))));
    Alcotest.test_case "waitq broadcast wakes current waiters only" `Quick
      (fun () ->
        let sched = Scheduler.create () in
        let wq = Waitq.create sched in
        let woken = ref 0 in
        for _ = 1 to 3 do
          Scheduler.spawn sched (fun () ->
              Waitq.wait wq;
              incr woken)
        done;
        Scheduler.spawn sched (fun () ->
            Scheduler.delay sched 10;
            Alcotest.(check int) "three waiting" 3 (Waitq.waiters wq);
            Waitq.broadcast wq);
        Scheduler.run sched;
        Alcotest.(check int) "all woken" 3 !woken);
    Alcotest.test_case "waitq broadcast skips fibers that wait again" `Quick
      (fun () ->
        let sched = Scheduler.create () in
        let wq = Waitq.create sched in
        let wakes = ref [] in
        for i = 1 to 2 do
          Scheduler.spawn sched (fun () ->
              Waitq.wait wq;
              wakes := (i, Scheduler.now sched) :: !wakes;
              Waitq.wait wq;
              wakes := (i, Scheduler.now sched) :: !wakes)
        done;
        Scheduler.spawn sched (fun () ->
            Scheduler.delay sched 10;
            Waitq.broadcast wq;
            Scheduler.delay sched 10;
            Alcotest.(check int) "both waiting again" 2 (Waitq.waiters wq);
            Waitq.broadcast wq);
        Scheduler.run sched;
        Alcotest.(check (list (pair int int)))
          "each broadcast wakes each fiber once"
          [ (1, 10); (2, 10); (1, 20); (2, 20) ]
          (List.rev !wakes));
  ]

let cpu_tests =
  [
    Alcotest.test_case "compute occupies simulated time" `Quick (fun () ->
        let sched = Scheduler.create () in
        let cpu = Cpu.create sched in
        Scheduler.spawn sched (fun () ->
            Cpu.compute cpu 1_000;
            Alcotest.(check int) "elapsed" 1_000 (Scheduler.now sched));
        Scheduler.run sched);
    Alcotest.test_case "steal extends in-flight compute" `Quick (fun () ->
        let sched = Scheduler.create () in
        let cpu = Cpu.create sched in
        Scheduler.spawn sched (fun () ->
            Cpu.compute cpu 1_000;
            Alcotest.(check int) "extended by interrupt" 1_200
              (Scheduler.now sched));
        (* An "interrupt" 300ns in, stealing 200ns of host CPU. *)
        Scheduler.at sched 300 (fun () -> Cpu.steal cpu 200);
        Scheduler.run sched;
        Alcotest.(check int) "stolen accounted" 200 (Cpu.stolen_total cpu);
        Alcotest.(check int) "compute accounted" 1_000 (Cpu.compute_total cpu));
    Alcotest.test_case "steal while idle only accumulates" `Quick (fun () ->
        let sched = Scheduler.create () in
        let cpu = Cpu.create sched in
        Scheduler.at sched 10 (fun () -> Cpu.steal cpu 500);
        Scheduler.run sched;
        Alcotest.(check int) "stolen" 500 (Cpu.stolen_total cpu);
        Alcotest.(check bool) "idle" false (Cpu.busy cpu));
    Alcotest.test_case "computes on one cpu serialise" `Quick (fun () ->
        let sched = Scheduler.create () in
        let cpu = Cpu.create sched in
        let finish = ref [] in
        for _ = 1 to 3 do
          Scheduler.spawn sched (fun () ->
              Cpu.compute cpu 100;
              finish := Scheduler.now sched :: !finish)
        done;
        Scheduler.run sched;
        Alcotest.(check (list int)) "back-to-back" [ 100; 200; 300 ]
          (List.rev !finish));
    Alcotest.test_case "multiple steals accumulate into one compute" `Quick
      (fun () ->
        let sched = Scheduler.create () in
        let cpu = Cpu.create sched in
        Scheduler.spawn sched (fun () ->
            Cpu.compute cpu 1_000;
            Alcotest.(check int) "sum of extensions" 1_300 (Scheduler.now sched));
        Scheduler.at sched 100 (fun () -> Cpu.steal cpu 100);
        Scheduler.at sched 500 (fun () -> Cpu.steal cpu 200);
        Scheduler.run sched);
  ]

let trace_tests =
  [
    Alcotest.test_case "disabled trace records nothing" `Quick (fun () ->
        let sched = Scheduler.create () in
        let trace = Scheduler.trace sched in
        Trace.instant trace "ignored";
        Trace.complete trace ~start:Time_ns.zero ~finish:(Time_ns.ns 5) "ignored";
        Alcotest.(check int) "empty" 0 (List.length (Trace.spans trace)));
    Alcotest.test_case "records time-stamped events" `Quick (fun () ->
        let sched = Scheduler.create () in
        let trace = Scheduler.trace sched in
        Trace.enable trace;
        Scheduler.at sched 100 (fun () -> Trace.instant trace ~subsys:"nic" "rx");
        Scheduler.at sched 200 (fun () ->
            Trace.instant trace (Printf.sprintf "count=%d" 3));
        Scheduler.run sched;
        match
          List.map (fun s -> (s.Trace.time, s.Trace.subsys, s.Trace.name))
            (Trace.spans trace)
        with
        | [ (100, "nic", "rx"); (200, "", "count=3") ] -> ()
        | events -> Alcotest.failf "unexpected events: %d" (List.length events));
    Alcotest.test_case "ring keeps most recent events" `Quick (fun () ->
        let sched = Scheduler.create () in
        let trace = Trace.create ~capacity:4 ~now:(fun () -> Scheduler.now sched) () in
        Trace.enable trace;
        for i = 1 to 10 do
          Trace.instant trace (Printf.sprintf "e%d" i)
        done;
        let messages = List.map (fun s -> s.Trace.name) (Trace.spans trace) in
        Alcotest.(check (list string)) "last four" [ "e7"; "e8"; "e9"; "e10" ]
          messages);
    Alcotest.test_case "span phases and wraparound" `Quick (fun () ->
        let sched = Scheduler.create () in
        let trace = Trace.create ~capacity:3 ~now:(fun () -> Scheduler.now sched) () in
        Trace.enable trace;
        Trace.instant trace ~subsys:"x" "evicted";
        Trace.instant trace ~subsys:"cpu" ~proc:"cpu0" "mark";
        Trace.complete trace ~subsys:"cpu" ~proc:"cpu0" ~start:Time_ns.zero
          ~finish:Time_ns.zero "work";
        Trace.complete trace ~subsys:"ni" ~proc:"nic0" ~msg_id:7
          ~start:(Time_ns.ns 10) ~finish:(Time_ns.ns 25) "match";
        (match Trace.spans trace with
        | [ i; w; c ] ->
          Alcotest.(check bool) "instant" true (i.Trace.phase = Trace.Instant);
          Alcotest.(check bool) "zero-length complete" true
            (w.Trace.phase = Trace.Complete Time_ns.zero);
          Alcotest.(check bool) "complete duration" true
            (c.Trace.phase = Trace.Complete (Time_ns.ns 15));
          Alcotest.(check (option int)) "msg id" (Some 7) c.Trace.msg_id;
          Alcotest.(check (option string)) "proc" (Some "nic0") c.Trace.proc
        | spans -> Alcotest.failf "expected 3 spans, got %d" (List.length spans));
        Alcotest.(check int) "first span evicted by wraparound" 3
          (List.length (Trace.spans trace)));
    Alcotest.test_case "nested spans survive in order" `Quick (fun () ->
        let sched = Scheduler.create () in
        let trace = Scheduler.trace sched in
        Trace.enable trace;
        (* An inner span is recorded when its cost is charged, before the
           outer one that encloses it. *)
        Trace.complete trace ~proc:"cpu0" ~start:(Time_ns.ns 2)
          ~finish:(Time_ns.ns 5) "inner";
        Trace.complete trace ~proc:"cpu0" ~start:Time_ns.zero
          ~finish:(Time_ns.ns 10) "outer";
        let spans = Trace.spans trace in
        Alcotest.(check (list string)) "recording order" [ "inner"; "outer" ]
          (List.map (fun s -> s.Trace.name) spans);
        match spans with
        | [ { Trace.time = t_in; phase = Trace.Complete d_in; _ };
            { Trace.time = t_out; phase = Trace.Complete d_out; _ } ] ->
          Alcotest.(check bool) "inner inside outer" true
            (t_out <= t_in && t_in + d_in <= t_out + d_out)
        | _ -> Alcotest.fail "expected two complete spans");
    Alcotest.test_case "chrome export is structurally sound" `Quick (fun () ->
        let sched = Scheduler.create () in
        let trace = Scheduler.trace sched in
        Trace.enable trace;
        Trace.complete trace ~subsys:"ni" ~proc:"nic0" ~start:Time_ns.zero
          ~finish:(Time_ns.us 2.) "match";
        Trace.instant trace ~subsys:"eq" ~proc:"cpu0" "post";
        let json = Trace.Chrome.to_string [ ("test", Trace.spans trace) ] in
        let has needle =
          let rec go i =
            i + String.length needle <= String.length json
            && (String.sub json i (String.length needle) = needle || go (i + 1))
          in
          go 0
        in
        Alcotest.(check bool) "traceEvents" true (has "\"traceEvents\"");
        Alcotest.(check bool) "complete phase" true (has "\"ph\":\"X\"");
        Alcotest.(check bool) "instant phase" true (has "\"ph\":\"i\"");
        Alcotest.(check bool) "thread name metadata" true (has "\"thread_name\"");
        Alcotest.(check bool) "process name metadata" true (has "\"test\"");
        Alcotest.(check bool) "balanced braces" true
          (String.fold_left (fun n c ->
               if c = '{' then n + 1 else if c = '}' then n - 1 else n)
             0 json
          = 0));
    Alcotest.test_case "one json escaper" `Quick (fun () ->
        let raw = "q\"b\\n\nt\tr\r\001" in
        let escaped = {|"q\"b\\n\nt\tr\r\u0001"|} in
        let contains hay =
          let n = String.length escaped in
          let rec go i =
            i + n <= String.length hay && (String.sub hay i n = escaped || go (i + 1))
          in
          go 0
        in
        let m = Metrics.create () in
        Metrics.incr (Metrics.counter m ~labels:[ ("k", raw) ] "c");
        Alcotest.(check bool) "report label" true
          (contains (Report.to_json (Metrics.snapshot m)));
        let sched = Scheduler.create () in
        let trace = Scheduler.trace sched in
        Trace.enable trace;
        Trace.instant trace raw;
        Alcotest.(check bool) "chrome span name" true
          (contains (Trace.Chrome.to_string [ ("p", Trace.spans trace) ])));
  ]

let metrics_tests =
  [
    Alcotest.test_case "registration is idempotent" `Quick (fun () ->
        let m = Metrics.create () in
        let c1 = Metrics.counter m "requests" in
        let c2 = Metrics.counter m "requests" in
        Metrics.incr c1;
        Metrics.incr c2;
        Alcotest.(check int) "same instrument" 2 (Metrics.counter_value c1);
        let c3 = Metrics.counter m ~labels:[ ("proc", "0:0") ] "requests" in
        Metrics.incr c3;
        Alcotest.(check int) "labels distinguish" 1 (Metrics.counter_value c3));
    Alcotest.test_case "labels are sorted and duplicate keys collapse" `Quick
      (fun () ->
        let m = Metrics.create () in
        let c1 = Metrics.counter m ~labels:[ ("b", "1"); ("a", "2") ] "x" in
        let c2 =
          Metrics.counter m ~labels:[ ("a", "2"); ("b", "1"); ("a", "2") ] "x"
        in
        Metrics.incr c1;
        Metrics.incr c2;
        Alcotest.(check int) "one instrument" 2 (Metrics.counter_value c1);
        match Metrics.snapshot m with
        | [ e ] ->
          Alcotest.(check (list (pair string string)))
            "normalised labels" [ ("a", "2"); ("b", "1") ] e.Metrics.Snapshot.labels
        | _ -> Alcotest.fail "expected one entry");
    Alcotest.test_case "a key keeps its instrument kind" `Quick (fun () ->
        let m = Metrics.create () in
        ignore (Metrics.counter m "c");
        ignore (Metrics.gauge m "g");
        ignore (Metrics.summary m "s");
        let rejects what f =
          Alcotest.check_raises what
            (Invalid_argument ("Metrics: " ^ what))
            (fun () -> ignore (f ()))
        in
        rejects "\"c\" already registered as a counter, wanted a gauge"
          (fun () -> Metrics.gauge m "c");
        rejects "\"g\" already registered as a gauge, wanted a summary"
          (fun () -> Metrics.summary m "g");
        rejects "\"s\" already registered as a summary, wanted a counter"
          (fun () -> Metrics.counter m "s"));
    Alcotest.test_case "snapshot reads counters, gauges, probes" `Quick (fun () ->
        let m = Metrics.create () in
        let c = Metrics.counter m ~labels:[ ("proc", "0:0") ] "ni.puts" in
        Metrics.add c 3;
        Metrics.set (Metrics.gauge m "depth") 4.5;
        Metrics.probe m "cpu.occupancy" (fun () -> 0.25);
        let snap = Metrics.snapshot m in
        (match Metrics.Snapshot.find snap ~labels:[ ("proc", "0:0") ] "ni.puts" with
        | Some (Metrics.Snapshot.Counter n) -> Alcotest.(check int) "counter" 3 n
        | _ -> Alcotest.fail "counter missing");
        (match Metrics.Snapshot.find snap "depth" with
        | Some (Metrics.Snapshot.Gauge g) ->
          Alcotest.(check (float 1e-9)) "gauge" 4.5 g
        | _ -> Alcotest.fail "gauge missing");
        match Metrics.Snapshot.find snap "cpu.occupancy" with
        | Some (Metrics.Snapshot.Gauge g) ->
          Alcotest.(check (float 1e-9)) "probe" 0.25 g
        | _ -> Alcotest.fail "probe missing");
    Alcotest.test_case "probe family expands to one gauge per member"
      `Quick (fun () ->
        let m = Metrics.create () in
        let names = [| "b"; "c"; "a" |] in
        Metrics.probe_family m ~label:"link" ~size:3 ~member:(Array.get names)
          "link.busy_us"
          (fun i -> float_of_int (10 * i));
        Metrics.probe m ~labels:[ ("link", "z") ] "link.busy_us" (fun () -> 7.);
        Metrics.add (Metrics.counter m "a.count") 2;
        let keys =
          List.map
            (fun (e : Metrics.Snapshot.entry) ->
              (e.Metrics.Snapshot.name, e.Metrics.Snapshot.labels,
               e.Metrics.Snapshot.value))
            (Metrics.snapshot m)
        in
        let g v = Metrics.Snapshot.Gauge v in
        Alcotest.(check bool) "sorted, one entry per member" true
          (keys
          = [
              ("a.count", [], Metrics.Snapshot.Counter 2);
              ("link.busy_us", [ ("link", "a") ], g 20.);
              ("link.busy_us", [ ("link", "b") ], g 0.);
              ("link.busy_us", [ ("link", "c") ], g 10.);
              ("link.busy_us", [ ("link", "z") ], g 7.);
            ]));
    Alcotest.test_case "last registration of a family key wins" `Quick
      (fun () ->
        let m = Metrics.create () in
        let member i = "cpu" ^ string_of_int i in
        let family size v =
          Metrics.probe_family m ~label:"cpu" ~size ~member "cpu.occupancy"
            (fun _ -> v)
        in
        (* A probe shadowed by a later family, a family partly shadowed
           by a later, smaller one, and a probe registered last. *)
        Metrics.probe m ~labels:[ ("cpu", "cpu2") ] "cpu.occupancy" (fun () -> 9.);
        family 3 1.;
        family 2 2.;
        Metrics.probe m ~labels:[ ("cpu", "cpu0") ] "cpu.occupancy" (fun () -> 3.);
        let got =
          List.map
            (fun (e : Metrics.Snapshot.entry) ->
              match e.Metrics.Snapshot.value with
              | Metrics.Snapshot.Gauge v ->
                (List.assoc "cpu" e.Metrics.Snapshot.labels, v)
              | _ -> Alcotest.fail "not a gauge")
            (Metrics.snapshot m)
        in
        Alcotest.(check (list (pair string (float 0.))))
          "one entry per key, latest value"
          [ ("cpu0", 3.); ("cpu1", 2.); ("cpu2", 1.) ]
          got);
    Alcotest.test_case "a probe and a counter may not share a key" `Quick
      (fun () ->
        (* Probes are resolved at snapshot time, so the collision may
           surface there; the probe's labels are given unsorted to check
           they key like the counter's. *)
        let collide ~probe_first =
          let m = Metrics.create () in
          let probe () =
            Metrics.probe m ~labels:[ ("b", "1"); ("a", "2") ] "x" (fun () -> 1.)
          in
          let counter () = ignore (Metrics.counter m ~labels:[ ("a", "2"); ("b", "1") ] "x") in
          if probe_first then (probe (); counter ()) else (counter (); probe ());
          ignore (Metrics.snapshot m)
        in
        Alcotest.check_raises "counter, then probe"
          (Invalid_argument
             "Metrics: \"x\" already registered as a counter, wanted a probe")
          (fun () -> collide ~probe_first:false);
        Alcotest.check_raises "probe, then counter"
          (Invalid_argument
             "Metrics: \"x\" already registered as a probe, wanted a counter")
          (fun () -> collide ~probe_first:true));
    Alcotest.test_case "summary moments" `Quick (fun () ->
        let m = Metrics.create () in
        let s = Metrics.summary m "rtt" in
        List.iter (Metrics.observe s) [ 1.0; 2.0; 3.0; 4.0 ];
        match Metrics.Snapshot.find (Metrics.snapshot m) "rtt" with
        | Some (Metrics.Snapshot.Summary { count; mean; min; max; total; _ }) ->
          Alcotest.(check int) "count" 4 count;
          Alcotest.(check (float 1e-9)) "mean" 2.5 mean;
          Alcotest.(check (float 1e-9)) "min" 1.0 min;
          Alcotest.(check (float 1e-9)) "max" 4.0 max;
          Alcotest.(check (float 1e-9)) "total" 10.0 total
        | _ -> Alcotest.fail "summary missing");
    Alcotest.test_case "series keeps ordered points" `Quick (fun () ->
        let m = Metrics.create ~detail:true () in
        let s = Metrics.series m ~labels:[ ("eq", "0:0#0") ] "eq.depth" in
        Metrics.push s ~x:1.0 ~y:1.0;
        Metrics.push s ~x:2.0 ~y:2.0;
        Metrics.push s ~x:3.0 ~y:1.0;
        Alcotest.(check int) "length" 3 (List.length (Metrics.series_points s));
        match
          Metrics.Snapshot.find (Metrics.snapshot m)
            ~labels:[ ("eq", "0:0#0") ]
            "eq.depth"
        with
        | Some (Metrics.Snapshot.Series pts) ->
          Alcotest.(check (list (pair (float 0.) (float 0.))))
            "points"
            [ (1.0, 1.0); (2.0, 2.0); (3.0, 1.0) ]
            pts
        | _ -> Alcotest.fail "series missing");
    Alcotest.test_case "series push is a no-op without detail" `Quick
      (fun () ->
        let m = Metrics.create () in
        let s = Metrics.series m "pts" in
        Metrics.push s ~x:1.0 ~y:1.0;
        Alcotest.(check int) "off by default" 0
          (List.length (Metrics.series_points s));
        Metrics.set_detail m true;
        Metrics.push s ~x:2.0 ~y:4.0;
        Alcotest.(check (list (pair (float 0.) (float 0.))))
          "only the detailed push" [ (2.0, 4.0) ] (Metrics.series_points s));
    Alcotest.test_case "absorb merges with label prefix" `Quick (fun () ->
        let world = Metrics.create () in
        Metrics.add (Metrics.counter world "ni.puts") 2;
        Metrics.observe (Metrics.summary world "rtt") 10.0;
        Metrics.set (Metrics.gauge world "link.utilization") 1.5;
        let agg = Metrics.create () in
        Metrics.absorb agg ~labels:[ ("config", "portals") ] (Metrics.snapshot world);
        Metrics.absorb agg ~labels:[ ("config", "portals") ] (Metrics.snapshot world);
        let snap = Metrics.snapshot agg in
        (match
           Metrics.Snapshot.find snap ~labels:[ ("config", "portals") ] "ni.puts"
         with
        | Some (Metrics.Snapshot.Counter n) ->
          Alcotest.(check int) "counters add" 4 n
        | _ -> Alcotest.fail "absorbed counter missing");
        (match
           Metrics.Snapshot.find snap ~labels:[ ("config", "portals") ]
             "link.utilization"
         with
        | Some (Metrics.Snapshot.Gauge v) ->
          Alcotest.(check (float 1e-9)) "gauges add" 3.0 v
        | _ -> Alcotest.fail "absorbed gauge missing");
        match
          Metrics.Snapshot.find snap ~labels:[ ("config", "portals") ] "rtt"
        with
        | Some (Metrics.Snapshot.Summary { count; mean; _ }) ->
          Alcotest.(check int) "summary counts add" 2 count;
          Alcotest.(check (float 1e-9)) "summary mean" 10.0 mean
        | _ -> Alcotest.fail "absorbed summary missing");
    Alcotest.test_case "absorb appends series points" `Quick (fun () ->
        let world = Metrics.create ~detail:true () in
        let s = Metrics.series world "eq.depth" in
        Metrics.push s ~x:1.0 ~y:3.0;
        Metrics.push s ~x:2.0 ~y:4.0;
        (* The aggregate keeps absorbed points without a detail level. *)
        let agg = Metrics.create () in
        Metrics.absorb agg ~labels:[ ("config", "a") ] (Metrics.snapshot world);
        Metrics.push s ~x:3.0 ~y:5.0;
        Metrics.absorb agg ~labels:[ ("config", "a") ] (Metrics.snapshot world);
        match
          Metrics.Snapshot.find (Metrics.snapshot agg) ~labels:[ ("config", "a") ]
            "eq.depth"
        with
        | Some (Metrics.Snapshot.Series pts) ->
          Alcotest.(check (list (pair (float 0.) (float 0.))))
            "both snapshots, in absorb order"
            [ (1.0, 3.0); (2.0, 4.0); (1.0, 3.0); (2.0, 4.0); (3.0, 5.0) ]
            pts
        | _ -> Alcotest.fail "absorbed series missing");
    Alcotest.test_case "report renders table and json" `Quick (fun () ->
        let contains hay needle =
          let rec go i =
            i + String.length needle <= String.length hay
            && (String.sub hay i (String.length needle) = needle || go (i + 1))
          in
          go 0
        in
        let m = Metrics.create () in
        Metrics.add (Metrics.counter m ~labels:[ ("proc", "0:0") ] "ni.puts") 5;
        Metrics.set (Metrics.gauge m "link.utilization") 0.5;
        let snap = Metrics.snapshot m in
        let table = Format.asprintf "%a" Report.pp_table snap in
        Alcotest.(check bool) "table mentions metric" true
          (contains table "ni.puts");
        let json = Report.to_json snap in
        Alcotest.(check bool) "json mentions metric" true
          (contains json "\"ni.puts\"");
        Alcotest.(check bool) "json balanced" true
          (String.fold_left (fun n c ->
               if c = '{' then n + 1 else if c = '}' then n - 1 else n)
             0 json
          = 0));
  ]

(* --- parallel shard runtime ------------------------------------------- *)

let shard_tests =
  let lookahead = Time_ns.ns 1000 in
  let make_pair () =
    [| Scheduler.create (); Scheduler.create () |]
  in
  [
    Alcotest.test_case "two shards ping-pong across window boundaries" `Quick
      (fun () ->
        let scheds = make_pair () in
        let t = Shard.create ~scheds ~lookahead:(Some lookahead) () in
        let hops = ref [] in
        (* Each delivery re-posts to the peer one lookahead later, so
           the message must cross a window boundary every time. *)
        let bounce shard v =
          hops := (shard, Scheduler.now scheds.(shard), v) :: !hops;
          if v < 20 then
            Shard.post t ~src:shard ~dst:(1 - shard)
              ~time:(Time_ns.add (Scheduler.now scheds.(shard)) lookahead)
              (v + 1)
        in
        Scheduler.at scheds.(0) Time_ns.zero (fun () -> bounce 0 0);
        Shard.run t ~deliver:(fun ~shard ~time v ->
            Scheduler.at scheds.(shard) time (fun () -> bounce shard v));
        let hops = List.rev !hops in
        Alcotest.(check int) "hop count" 21 (List.length hops);
        List.iteri
          (fun v (shard, time, v') ->
            Alcotest.(check int) "value in order" v v';
            Alcotest.(check int) "alternating shard" (v mod 2) shard;
            Alcotest.(check int) "arithmetic arrival" (v * 1000) time)
          hops;
        Alcotest.(check bool) "needed at least one round per hop" true
          (Shard.rounds t >= 20));
    Alcotest.test_case "posts inside the current window are rejected" `Quick
      (fun () ->
        let scheds = make_pair () in
        let t = Shard.create ~scheds ~lookahead:(Some lookahead) () in
        Scheduler.at scheds.(0) Time_ns.zero (fun () ->
            (* time = now violates the lookahead bound. *)
            Shard.post t ~src:0 ~dst:1 ~time:Time_ns.zero 0);
        Alcotest.(check bool) "raises" true
          (match Shard.run t ~deliver:(fun ~shard:_ ~time:_ _ -> ()) with
          | () -> false
          | exception Invalid_argument _ -> true));
    Alcotest.test_case "a shard failure aborts the whole run" `Quick (fun () ->
        let scheds = make_pair () in
        let t = Shard.create ~scheds ~lookahead:(Some lookahead) () in
        Scheduler.at scheds.(1) (Time_ns.ns 5) (fun () -> failwith "boom");
        (* Keep shard 0 busy far past the failure point. *)
        for k = 0 to 99 do
          Scheduler.at scheds.(0) (Time_ns.ns (10 * k)) ignore
        done;
        Alcotest.(check bool) "re-raised" true
          (match Shard.run t ~deliver:(fun ~shard:_ ~time:_ _ -> ()) with
          | () -> false
          | exception Failure msg -> msg = "boom"));
    Alcotest.test_case "deadlock detection aggregates across shards" `Quick
      (fun () ->
        let scheds = make_pair () in
        let t = Shard.create ~scheds ~lookahead:(Some lookahead) () in
        Scheduler.spawn scheds.(1) ~name:"stuck" (fun () ->
            ignore (Sync.Ivar.read (Sync.Ivar.create scheds.(1))));
        Alcotest.(check bool) "deadlock" true
          (match Shard.run t ~deliver:(fun ~shard:_ ~time:_ _ -> ()) with
          | () -> false
          | exception Scheduler.Deadlock _ -> true);
        (* allow_blocked downgrades it, as in the sequential runner. *)
        let scheds = make_pair () in
        let t = Shard.create ~scheds ~lookahead:(Some lookahead) () in
        Scheduler.spawn scheds.(1) ~name:"stuck" (fun () ->
            ignore (Sync.Ivar.read (Sync.Ivar.create scheds.(1))));
        Shard.run ~allow_blocked:true t ~deliver:(fun ~shard:_ ~time:_ _ -> ()));
    Alcotest.test_case "parallel_init places, orders and re-raises" `Quick
      (fun () ->
        let caller = Domain.self () in
        let placed =
          Shard.parallel_init 3 (fun k -> (k, Domain.self () = caller))
        in
        Alcotest.(check (array (pair int bool))) "in index order, 0 on the caller"
          [| (0, true); (1, false); (2, false) |]
          placed;
        let finished = Atomic.make 0 in
        let raised =
          match
            Shard.parallel_init 3 (fun k ->
                Atomic.incr finished;
                if k >= 1 then failwith (string_of_int k))
          with
          | _ -> "none"
          | exception Failure k -> k
        in
        Alcotest.(check string) "the lowest index's failure" "1" raised;
        Alcotest.(check int) "every call ran to its end" 3 (Atomic.get finished));
    Alcotest.test_case "window width validation" `Quick (fun () ->
        Alcotest.(check bool) "zero lookahead rejected" true
          (match Shard.create ~scheds:(make_pair ()) ~lookahead:(Some 0) () with
          | _ -> false
          | exception Invalid_argument _ -> true));
    Alcotest.test_case "no lookahead leaves the window unbounded" `Quick
      (fun () ->
        (* Shards that share no link cannot affect each other: one
           window runs every event on both, whatever the times. *)
        let scheds = make_pair () in
        let t = Shard.create ~scheds ~lookahead:None () in
        let seen = Array.make 2 0 in
        Array.iteri
          (fun k s ->
            for i = 0 to 9 do
              Scheduler.at s (Time_ns.ns (i * 1_000_000)) (fun () ->
                  seen.(k) <- seen.(k) + 1)
            done)
          scheds;
        Shard.run t ~deliver:(fun ~shard:_ ~time:_ _ -> ());
        Alcotest.(check (array int)) "every event ran" [| 10; 10 |] seen;
        Alcotest.(check int) "one window" 1 (Shard.rounds t);
        Alcotest.(check bool) "no width" true (Shard.lookahead t = None));
    Alcotest.test_case "derive matches derived_seed" `Quick (fun () ->
        let a = Prng.derive ~seed:42 ~index:3 in
        let b = Prng.create ~seed:(Prng.derived_seed ~seed:42 ~index:3) in
        for _ = 1 to 50 do
          Alcotest.(check int64) "same stream" (Prng.bits64 a) (Prng.bits64 b)
        done);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"derived shard streams never correlate with the root" ~count:100
         QCheck.(pair small_int (int_range 1 8))
         (fun (seed, shards) ->
           (* Collect a prefix of the sequential stream and of every
              derived per-shard stream; any shared value would betray a
              coincident or shifted stream (64-bit collisions between
              genuinely distinct splitmix streams are negligible). *)
           let prefix p = List.init 32 (fun _ -> Prng.bits64 p) in
           let root = prefix (Prng.create ~seed) in
           let streams =
             List.init shards (fun k -> prefix (Prng.derive ~seed ~index:(k + 1)))
           in
           List.for_all
             (fun s -> List.for_all (fun v -> not (List.mem v root)) s)
             streams
           && (* …and the derived streams are pairwise disjoint too. *)
           List.for_all
             (fun (a, b) -> List.for_all (fun v -> not (List.mem v b)) a)
             (List.concat_map
                (fun (i, a) ->
                  List.filter_map
                    (fun (j, b) -> if i < j then Some (a, b) else None)
                    (List.mapi (fun j b -> (j, b)) streams))
                (List.mapi (fun i a -> (i, a)) streams))));
  ]

let () =
  Alcotest.run "sim_engine"
    [
      ("time", time_tests);
      ("prng", prng_tests);
      ("event_heap", heap_tests);
      ("scheduler", scheduler_tests);
      ("sync", sync_tests);
      ("cpu", cpu_tests);
      ("trace", trace_tests);
      ("metrics", metrics_tests);
      ("shard", shard_tests);
    ]
