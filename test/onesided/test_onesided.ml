open Sim_engine

(* [n] PEs, each with regions of the given sizes allocated up front (the
   symmetric-heap discipline); [f os syms rank] runs per PE. Returns the
   per-PE endpoints for post-run inspection. *)
let with_pes ?scenario ?(n = 2) ~regions f =
  let world = Runtime.create_world ?scenario ~nodes:n () in
  let pes =
    Array.mapi
      (fun rank pid ->
        let ni =
          Portals.Ni.create (Runtime.transport_of_rank world rank) ~id:pid ()
        in
        let os = Onesided.create_exn ni ~ranks:world.Runtime.ranks ~rank () in
        let syms = List.map (fun size -> Onesided.alloc os size) regions in
        (os, syms))
      world.Runtime.ranks
  in
  Array.iteri
    (fun rank (os, syms) ->
      Scheduler.spawn (Runtime.sched_of_rank world rank)
        ~name:(Printf.sprintf "pe%d" rank) (fun () -> f os syms rank))
    pes;
  Runtime.run world;
  pes

let sym1 = function [ s ] -> s | _ -> Alcotest.fail "expected one region"

let put_get_tests =
  [
    Alcotest.test_case "put lands in the remote region" `Quick (fun () ->
        let pes =
          with_pes ~regions:[ 64 ] (fun os syms rank ->
              if rank = 0 then begin
                Onesided.put os (sym1 syms) ~pe:1 ~offset:8
                  (Bytes.of_string "one-sided");
                Onesided.quiet os
              end)
        in
        let os1, syms = pes.(1) in
        Alcotest.(check string) "remote bytes" "one-sided"
          (Bytes.sub_string (Onesided.region_bytes os1 (sym1 syms)) 8 9));
    Alcotest.test_case "get reads remote memory" `Quick (fun () ->
        let fetched = ref "" in
        let world = Runtime.create_world ~nodes:2 () in
        let mk rank =
          let ni =
            Portals.Ni.create (Runtime.transport_of_rank world rank)
              ~id:world.Runtime.ranks.(rank) ()
          in
          Onesided.create_exn ni ~ranks:world.Runtime.ranks ~rank ()
        in
        let os0 = mk 0 and os1 = mk 1 in
        let _s0 = Onesided.alloc os0 32 in
        let s1 = Onesided.alloc os1 32 in
        Bytes.blit_string "remote-payload!" 0 (Onesided.region_bytes os1 s1) 0 15;
        Scheduler.spawn (Runtime.sched_of_rank world 0) (fun () ->
            fetched :=
              Bytes.to_string (Onesided.get os0 s1 ~pe:1 ~offset:7 ~len:8));
        Runtime.run world;
        Alcotest.(check string) "read across" "payload!" !fetched);
    Alcotest.test_case "quiet waits for every acknowledgment" `Quick (fun () ->
        let outstanding_before = ref (-1) in
        let outstanding_after = ref (-1) in
        ignore
          (with_pes ~regions:[ 4096 ] (fun os syms rank ->
               if rank = 0 then begin
                 for i = 0 to 9 do
                   Onesided.put os (sym1 syms) ~pe:1 ~offset:(i * 16)
                     (Bytes.make 16 (Char.chr (48 + i)))
                 done;
                 outstanding_before := Onesided.outstanding_puts os;
                 Onesided.quiet os;
                 outstanding_after := Onesided.outstanding_puts os
               end));
        Alcotest.(check bool) "some were in flight" true (!outstanding_before > 0);
        Alcotest.(check int) "none after quiet" 0 !outstanding_after);
    Alcotest.test_case "wait_until observes a remote flag write" `Quick
      (fun () ->
        (* The shmem producer/consumer idiom: PE0 puts data then sets
           PE1's flag; PE1 blocks on the flag, then reads the data. *)
        let seen = ref "" in
        ignore
          (with_pes ~regions:[ 1; 64 ] (fun os syms rank ->
               match syms with
               | [ flag; data ] ->
                 if rank = 0 then begin
                   Onesided.put os data ~pe:1 ~offset:0
                     (Bytes.of_string "flag-protected");
                   Onesided.quiet os;
                   Onesided.put os flag ~pe:1 ~offset:0
                     (Bytes.make 1 Onesided.barrier_value);
                   Onesided.quiet os
                 end
                 else begin
                   Onesided.wait_until os flag ~offset:0
                     ~value:Onesided.barrier_value;
                   seen := Bytes.sub_string (Onesided.region_bytes os data) 0 14
                 end
               | _ -> Alcotest.fail "two regions expected"));
        Alcotest.(check string) "consumer saw producer's data" "flag-protected"
          !seen);
    Alcotest.test_case "puts to distinct offsets do not clobber" `Quick
      (fun () ->
        let pes =
          with_pes ~n:3 ~regions:[ 300 ] (fun os syms rank ->
              if rank > 0 then begin
                Onesided.put os (sym1 syms) ~pe:0 ~offset:(rank * 100)
                  (Bytes.make 100 (Char.chr (48 + rank)));
                Onesided.quiet os
              end)
        in
        let os0, syms = pes.(0) in
        let region = Onesided.region_bytes os0 (sym1 syms) in
        Alcotest.(check char) "pe1's bytes" '1' (Bytes.get region 150);
        Alcotest.(check char) "pe2's bytes" '2' (Bytes.get region 250));
    Alcotest.test_case "bounds are enforced locally" `Quick (fun () ->
        ignore
          (with_pes ~regions:[ 8 ] (fun os syms rank ->
               if rank = 0 then begin
                 Alcotest.check_raises "put overrun"
                   (Invalid_argument "Onesided.put: outside the region")
                   (fun () ->
                     Onesided.put os (sym1 syms) ~pe:1 ~offset:4 (Bytes.create 8));
                 Alcotest.check_raises "get overrun"
                   (Invalid_argument "Onesided.get: outside the region")
                   (fun () ->
                     ignore (Onesided.get os (sym1 syms) ~pe:1 ~offset:0 ~len:9))
               end)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"random puts then region matches mirror" ~count:25
         QCheck.(
           list_of_size
             Gen.(int_range 1 10)
             (pair (int_range 0 15) (int_range 1 16)))
         (fun writes ->
           let region_size = 256 in
           let mirror = Bytes.make region_size '\x00' in
           let pes =
             with_pes ~regions:[ region_size ] (fun os syms rank ->
                 if rank = 0 then begin
                   List.iteri
                     (fun i (slot, len) ->
                       let offset = slot * 16 in
                       let payload = Bytes.make len (Char.chr (33 + (i mod 90))) in
                       Bytes.blit payload 0 mirror offset len;
                       Onesided.put os (sym1 syms) ~pe:1 ~offset payload)
                     writes;
                   Onesided.quiet os
                 end)
           in
           let os1, syms = pes.(1) in
           Bytes.equal mirror (Onesided.region_bytes os1 (sym1 syms))));
  ]

(* Like [with_pes], but every PE gets an MPI-3-style window of [size]
   data bytes instead of raw regions. *)
let with_wins ?(n = 2) ~size f =
  let world = Runtime.create_world ~nodes:n () in
  let pes =
    Array.mapi
      (fun rank pid ->
        let ni =
          Portals.Ni.create (Runtime.transport_of_rank world rank) ~id:pid ()
        in
        let os = Onesided.create_exn ni ~ranks:world.Runtime.ranks ~rank () in
        (os, Onesided.win_create os ~size))
      world.Runtime.ranks
  in
  Array.iteri
    (fun rank (_, w) ->
      Scheduler.spawn (Runtime.sched_of_rank world rank)
        ~name:(Printf.sprintf "pe%d" rank) (fun () -> f w rank))
    pes;
  Runtime.run world;
  pes

let word_of b = Bytes.get_int64_le b 0

let put_word w ~rank ~offset v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 v;
  Onesided.Win.put w ~rank ~offset b

let get_word w ~rank ~offset =
  word_of (Onesided.Win.get w ~rank ~offset ~len:8)

let i64 = Alcotest.int64

let win_tests =
  [
    Alcotest.test_case "put/flush/get round-trip through a window" `Quick
      (fun () ->
        let seen = ref "" in
        let pes =
          with_wins ~size:64 (fun w rank ->
              if rank = 0 then begin
                Onesided.Win.put w ~rank:1 ~offset:8
                  (Bytes.of_string "windowed");
                Onesided.Win.flush w ~rank:1;
                (* flush means remotely complete: a get issued after it
                   must observe the put's bytes. *)
                seen :=
                  Bytes.to_string (Onesided.Win.get w ~rank:1 ~offset:8 ~len:8)
              end)
        in
        Alcotest.(check string) "get after flush sees the put" "windowed" !seen;
        let _, w1 = pes.(1) in
        Alcotest.(check string) "target data area" "windowed"
          (Bytes.sub_string (Onesided.Win.local_data w1) 8 8));
    Alcotest.test_case "exclusive lock serializes read-modify-write" `Quick
      (fun () ->
        (* Two ranks each do k unlocked-unsafe increments (get, then
           put) on rank 0's word, guarded by MPI_Win_lock(EXCLUSIVE).
           The network round-trip between the get and the put is a wide
           race window; only mutual exclusion preserves every update. *)
        let k = 5 in
        let pes =
          with_wins ~n:3 ~size:8 (fun w rank ->
              if rank > 0 then
                for _ = 1 to k do
                  Onesided.Win.lock w ~rank:0 Onesided.Exclusive;
                  let v = get_word w ~rank:0 ~offset:0 in
                  put_word w ~rank:0 ~offset:0 (Int64.add v 1L);
                  Onesided.Win.flush w ~rank:0;
                  Onesided.Win.unlock w ~rank:0
                done)
        in
        let _, w0 = pes.(0) in
        Alcotest.check i64 "no update lost"
          (Int64.of_int (2 * k))
          (word_of (Onesided.Win.local_data w0)));
    Alcotest.test_case "shared locks admit concurrent holders" `Quick
      (fun () ->
        (* Each contender raises a flag in rank 0's window while holding
           the shared lock, and only releases once it has seen the other
           contender's flag. This can only terminate if both hold the
           lock at the same time — exclusive semantics would deadlock. *)
        ignore
          (with_wins ~n:3 ~size:8 (fun w rank ->
               if rank > 0 then begin
                 let mine = rank - 1 and theirs = 2 - rank in
                 Onesided.Win.lock w ~rank:0 Onesided.Shared;
                 Onesided.Win.put w ~rank:0 ~offset:mine (Bytes.make 1 '\x01');
                 Onesided.Win.flush w ~rank:0;
                 let rec poll () =
                   let b =
                     Onesided.Win.get w ~rank:0 ~offset:theirs ~len:1
                   in
                   if Bytes.get b 0 <> '\x01' then poll ()
                 in
                 poll ();
                 Onesided.Win.unlock w ~rank:0
               end)));
    Alcotest.test_case "accumulate, fetch_and_add and cas on a window word"
      `Quick (fun () ->
        let old_fa = ref (-1L) in
        let cas_hit = ref (-1L) in
        let cas_miss = ref (-1L) in
        let final = ref (-1L) in
        ignore
          (with_wins ~size:16 (fun w rank ->
               if rank = 0 then begin
                 Onesided.Win.accumulate w ~rank:1 ~offset:8 5L;
                 Onesided.Win.accumulate w ~rank:1 ~offset:8 7L;
                 Onesided.Win.flush w ~rank:1;
                 old_fa := Onesided.Win.fetch_and_add w ~rank:1 ~offset:8 0L;
                 cas_hit :=
                   Onesided.Win.compare_and_swap w ~rank:1 ~offset:8
                     ~expected:12L ~desired:100L;
                 cas_miss :=
                   Onesided.Win.compare_and_swap w ~rank:1 ~offset:8
                     ~expected:12L ~desired:200L;
                 final := get_word w ~rank:1 ~offset:8
               end));
        Alcotest.check i64 "accumulates summed" 12L !old_fa;
        Alcotest.check i64 "cas hit fetched the expected value" 12L !cas_hit;
        Alcotest.check i64 "cas miss fetched the current value" 100L !cas_miss;
        Alcotest.check i64 "miss left the word alone" 100L !final);
    Alcotest.test_case "window bounds and alignment are enforced" `Quick
      (fun () ->
        ignore
          (with_wins ~size:16 (fun w rank ->
               if rank = 0 then begin
                 Alcotest.check_raises "put overrun"
                   (Invalid_argument "Onesided.Win.put: outside the window")
                   (fun () ->
                     Onesided.Win.put w ~rank:1 ~offset:12 (Bytes.create 8));
                 Alcotest.check_raises "get overrun"
                   (Invalid_argument "Onesided.Win.get: outside the window")
                   (fun () ->
                     ignore (Onesided.Win.get w ~rank:1 ~offset:0 ~len:17));
                 Alcotest.check_raises "misaligned accumulate"
                   (Invalid_argument
                      "Onesided.Win.accumulate: offset not 8-byte aligned")
                   (fun () -> Onesided.Win.accumulate w ~rank:1 ~offset:4 1L);
                 Alcotest.check_raises "fetch_and_add overrun"
                   (Invalid_argument
                      "Onesided.Win.fetch_and_add: outside the window")
                   (fun () ->
                     ignore (Onesided.Win.fetch_and_add w ~rank:1 ~offset:16 1L))
               end));
        (* Region-level atomics share the §4.8 bounds discipline. *)
        ignore
          (with_pes ~regions:[ 8 ] (fun os syms rank ->
               if rank = 0 then
                 Alcotest.check_raises "atomic straddling the region end"
                   (Invalid_argument "Onesided.atomic: outside the region")
                   (fun () ->
                     ignore
                       (Onesided.fetch_and_add os (sym1 syms) ~pe:1 ~offset:4
                          1L)))));
  ]

let contains s sub =
  let n = String.length sub in
  let rec go i =
    if i + n > String.length s then false
    else String.sub s i n = sub || go (i + 1)
  in
  go 0

(* Three PEs with an 8-byte window each, in a world whose scenario
   crash-stops node 1 at 100 us. Rank 1 takes the exclusive lock on rank
   2's window and dies holding it; at 300 us rank 0 asks for that lock in
   [mode], runs [use] under it and unlocks. Returns whether rank 0 got
   through and the word in rank 2's window. Time-bounded: a broken fence
   spins forever on the dead holder's tag, and the bound turns that into
   a check failure rather than a hung test. *)
let crashed_holder ~domains mode use =
  let scenario = Runtime.Scenario.make ~crashes:"1@100" ~domains () in
  let world = Runtime.create_world ~scenario ~nodes:3 () in
  let wins =
    Array.mapi
      (fun rank pid ->
        let ni =
          Portals.Ni.create (Runtime.transport_of_rank world rank) ~id:pid ()
        in
        let os = Onesided.create_exn ni ~ranks:world.Runtime.ranks ~rank () in
        Onesided.win_create os ~size:8)
      world.Runtime.ranks
  in
  let recovered = ref false in
  Runtime.spawn_ranks world (fun ~rank ->
      let w = wins.(rank) in
      if rank = 1 then Onesided.Win.lock w ~rank:2 Onesided.Exclusive
      else if rank = 0 then begin
        Scheduler.delay (Runtime.sched_of_rank world rank) (Time_ns.us 300.);
        Onesided.Win.lock w ~rank:2 mode;
        use w;
        Onesided.Win.unlock w ~rank:2;
        recovered := true
      end);
  Runtime.run ~until:(Time_ns.s 1.) world;
  (!recovered, word_of (Onesided.Win.local_data wins.(2)))

(* Runs [outcome] at 1 and 2 domains and expects [expect] from both: the
   crash comes from the scenario, so every shard's replica takes it. *)
let at_one_and_two_domains ~expect outcome =
  List.iter
    (fun domains ->
      Alcotest.(check (pair bool int64))
        (Printf.sprintf "(survivor got the lock, rank 2's word) at %d domains"
           domains)
        expect (outcome domains))
    [ 1; 2 ]

let failure_tests =
  [
    Alcotest.test_case "eq allocation failure is a typed error" `Quick
      (fun () ->
        let world = Runtime.create_world ~nodes:2 () in
        let ni =
          Portals.Ni.create (Runtime.transport_of_rank world 0)
            ~id:world.Runtime.ranks.(0) ()
        in
        (match
           Onesided.create ni ~ranks:world.Runtime.ranks ~rank:0
             ~eq_capacity:0 ()
         with
        | Ok _ -> Alcotest.fail "zero-capacity queue accepted"
        | Error (Onesided.Eq_alloc_failed { capacity; cause; _ } as e) ->
          Alcotest.(check int) "capacity reported" 0 capacity;
          Alcotest.(check string) "cause" "PTL_INV_ARG"
            (Portals.Errors.to_string cause);
          Alcotest.(check bool) "pp_error says why" true
            (contains (Format.asprintf "%a" Onesided.pp_error e) "event queue")
        | Error e ->
          Alcotest.failf "wrong error: %a" Onesided.pp_error e);
        (* The _exn variant wraps the same error. *)
        match
          Onesided.create_exn ni ~ranks:world.Runtime.ranks ~rank:0
            ~eq_capacity:0 ()
        with
        | _ -> Alcotest.fail "create_exn did not raise"
        | exception Onesided.Error (Onesided.Eq_alloc_failed _) -> ());
    Alcotest.test_case "a crashed exclusive holder is fenced and recovered"
      `Quick (fun () ->
        (* A survivor's exclusive lock attempt finds the stale holder
           tag, fences it (the dead set / incarnation check) and wins the
           lock instead of spinning forever — the §3 argument that
           incarnations make crashed processes recoverable without
           connection state. *)
        at_one_and_two_domains ~expect:(true, 77L) (fun domains ->
            crashed_holder ~domains Onesided.Exclusive (fun w ->
                put_word w ~rank:2 ~offset:0 77L;
                Onesided.Win.flush w ~rank:2)));
    Alcotest.test_case "a shared waiter fences a crashed exclusive holder"
      `Quick (fun () ->
        (* Same crash, but the survivor asks for the lock in Shared mode.
           After the waiter withdraws its optimistic +1 the word's shared
           count is back to the pre-increment fetch, so that is what the
           fence CAS must expect — getting it wrong by one leaves a lone
           shared waiter spinning on the dead holder's tag forever. *)
        at_one_and_two_domains ~expect:(true, 0L) (fun domains ->
            crashed_holder ~domains Onesided.Shared (fun w ->
                ignore (Onesided.Win.get w ~rank:2 ~offset:0 ~len:8))));
    Alcotest.test_case "exclusive unlock survives a shared waiter's probe"
      `Quick (fun () ->
        (* A shared waiter's optimistic +1 is in flight across a full
           RTT, so an exclusive unlock that CASes against (tag,
           shared=0) can land on (tag, 1), fail silently and leave the
           word tagged by a live process forever. Hammering the two
           paths against each other makes that interleaving all but
           certain; the time-bounded run turns the resulting livelock
           into a clean assertion failure. *)
        let k = 8 in
        let done_ex = ref false and done_sh = ref false in
        let world = Runtime.create_world ~nodes:3 () in
        let pes =
          Array.mapi
            (fun rank pid ->
              let ni =
                Portals.Ni.create (Runtime.transport_of_rank world rank) ~id:pid
                  ()
              in
              let os =
                Onesided.create_exn ni ~ranks:world.Runtime.ranks ~rank ()
              in
              (os, Onesided.win_create os ~size:8))
            world.Runtime.ranks
        in
        Array.iteri
          (fun rank (_, w) ->
            Scheduler.spawn (Runtime.sched_of_rank world rank)
              ~name:(Printf.sprintf "pe%d" rank)
              (fun () ->
                if rank = 1 then begin
                  for _ = 1 to k do
                    Onesided.Win.lock w ~rank:0 Onesided.Exclusive;
                    Onesided.Win.unlock w ~rank:0
                  done;
                  done_ex := true
                end
                else if rank = 2 then begin
                  for _ = 1 to k do
                    Onesided.Win.lock w ~rank:0 Onesided.Shared;
                    Onesided.Win.unlock w ~rank:0
                  done;
                  done_sh := true
                end))
          pes;
        Runtime.run ~until:(Time_ns.s 5.) world;
        ignore pes;
        Alcotest.(check bool) "exclusive locker finished" true !done_ex;
        Alcotest.(check bool) "shared locker finished" true !done_sh);
    Alcotest.test_case "a wait_until nobody satisfies names its fiber" `Quick
      (fun () ->
        (* The raw-Portals wait path must surface as a deadlock report
           carrying the blocked fiber, not as a hang. *)
        match
          with_pes ~regions:[ 1 ] (fun os syms rank ->
              if rank = 0 then
                Onesided.wait_until os (sym1 syms) ~offset:0
                  ~value:Onesided.barrier_value)
        with
        | _ -> Alcotest.fail "expected a deadlock"
        | exception Scheduler.Deadlock entries ->
          Alcotest.(check bool) "report names pe0" true
            (List.exists (fun e -> contains e "pe0") entries));
  ]

(* Linearizability of the target-side atomics under Bernoulli wire loss:
   with the reliability shim attached, every fetch-add executes exactly
   once, so n ranks doing k increments of 1 must observe a permutation
   of 0..n*k-1 as fetched values, the counter must end at n*k, and n
   contenders CAS-claiming 8 slots must win each slot exactly once.
   The same seed must reproduce the same history bit-for-bit. *)
let lossy_atomics_run ~seed ~n ~k =
  let scenario = Runtime.Scenario.make ~loss:0.08 ~seed () in
  let traces = Array.make n [] in
  let wins = Array.make n 0 in
  let pes =
    with_pes ~scenario ~n ~regions:[ 8; 64 ] (fun os syms rank ->
        match syms with
        | [ counter; slots ] ->
          for _ = 1 to k do
            let old = Onesided.fetch_and_add os counter ~pe:0 ~offset:0 1L in
            traces.(rank) <- old :: traces.(rank)
          done;
          for s = 0 to 7 do
            let old =
              Onesided.compare_and_swap os slots ~pe:0 ~offset:(s * 8)
                ~expected:0L
                ~desired:(Int64.of_int (rank + 1))
            in
            if Int64.equal old 0L then wins.(rank) <- wins.(rank) + 1
          done
        | _ -> Alcotest.fail "two regions expected")
  in
  let os0, syms = pes.(0) in
  let counter, slots =
    match syms with [ c; s ] -> (c, s) | _ -> Alcotest.fail "two regions"
  in
  let final = word_of (Onesided.region_bytes os0 counter) in
  let slot_bytes = Onesided.region_bytes os0 slots in
  let owners = List.init 8 (fun s -> Bytes.get_int64_le slot_bytes (s * 8)) in
  (final, Array.to_list (Array.map List.rev traces), Array.to_list wins, owners)

let lossy_linearizability =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"atomics linearize under loss, deterministically"
       ~count:4
       QCheck.(int_range 0 999)
       (fun seed ->
         let n = 3 and k = 6 in
         let final, traces, wins, owners = lossy_atomics_run ~seed ~n ~k in
         let fetched = List.sort compare (List.concat traces) in
         let expect = List.init (n * k) Int64.of_int in
         if final <> Int64.of_int (n * k) then
           QCheck.Test.fail_reportf "counter %Ld, expected %d" final (n * k);
         if fetched <> expect then
           QCheck.Test.fail_reportf
             "fetched values are not a permutation of 0..%d" ((n * k) - 1);
         if List.fold_left ( + ) 0 wins <> 8 then
           QCheck.Test.fail_reportf "claimed %d slots, expected 8"
             (List.fold_left ( + ) 0 wins);
         List.iter
           (fun o ->
             if o < 1L || o > Int64.of_int n then
               QCheck.Test.fail_reportf "slot owner %Ld out of range" o)
           owners;
         (* Same seed, same machine: the whole history replays. *)
         let final', traces', wins', owners' =
           lossy_atomics_run ~seed ~n ~k
         in
         (final, traces, wins, owners) = (final', traces', wins', owners')))

let () =
  Alcotest.run "onesided"
    [
      ("put_get", put_get_tests);
      ("windows", win_tests);
      ("failures", failure_tests);
      ("linearizability", [ lossy_linearizability ]);
    ]
