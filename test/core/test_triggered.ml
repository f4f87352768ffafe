(* Counting events and triggered-operation chains (the Portals-4-style
   extension backing the NIC-offloaded collectives): match-time counter
   bumps, arm-time firing, chain actions (put / combine / counter
   cascade), the TRIGGERED event's wire provenance, re-arming in place
   (match-entry re-targeting and counter reset), and the three §4.8
   drop reasons for mis-armed chains. *)

open Portals
open Sim_engine

let proc nid pid = Simnet.Proc_id.make ~nid ~pid

type env = {
  sched : Scheduler.t;
  ni0 : Ni.t;
  ni1 : Ni.t;
  ni2 : Ni.t;
}

let setup () =
  let sched = Scheduler.create () in
  let fabric = Simnet.Fabric.create sched ~profile:Simnet.Profile.myrinet_mcp ~nodes:4 in
  let tp = Simnet.Transport.offload fabric in
  {
    sched;
    ni0 = Ni.create tp ~id:(proc 0 0) ();
    ni1 = Ni.create tp ~id:(proc 1 0) ();
    ni2 = Ni.create tp ~id:(proc 2 0) ();
  }

let ok ~what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s failed: %s" what (Errors.to_string e)

(* Catch-all counted target on portal 0: ME + put-enabled MD + attached
   counter; returns (eq, me, md, ct). *)
let counted_target ?(eq_capacity = 32) ni buffer =
  let eqh = ok ~what:"eq_alloc" (Ni.eq_alloc ni ~capacity:eq_capacity) in
  let meh =
    ok ~what:"me_attach"
      (Ni.me_attach ni ~portal_index:0 ~match_id:Match_id.any
         ~match_bits:Match_bits.zero ~ignore_bits:Match_bits.all_ones
         ~unlink:Md.Retain ())
  in
  let mdh =
    ok ~what:"md_attach"
      (Ni.md_attach ni ~me:meh
         (Ni.md_spec ~threshold:Md.Infinite ~unlink:Md.Retain ~eq:eqh buffer))
  in
  let ct = ok ~what:"ct_alloc" (Ni.ct_alloc ni) in
  ok ~what:"me_set_ct" (Ni.me_set_ct ni ~me:meh ~ct);
  (eqh, meh, mdh, ct)

let sender_md ni buffer =
  ok ~what:"md_bind"
    (Ni.md_bind ni
       (Ni.md_spec
          ~options:{ Md.default_options with Md.ack_disable = true }
          ~threshold:Md.Infinite ~unlink:Md.Retain buffer))

let put_to ni md ~target =
  ok ~what:"put"
    (Ni.put ni ~md ~ack:false (Ni.op ~target ~portal_index:0 ()))

let drain ni eqh =
  let q = ok ~what:"eq" (Ni.eq ni eqh) in
  let rec go acc =
    match Event.Queue.get q with None -> List.rev acc | Some e -> go (e :: acc)
  in
  go []

let kinds evs = List.map (fun e -> Event.kind_to_string e.Event.kind) evs
let ct_val ni ct = ok ~what:"ct_get" (Ni.ct_get ni ct)

let counter_tests =
  [
    Alcotest.test_case "alloc, inc, get, wait, free" `Quick (fun () ->
        let env = setup () in
        let ct = ok ~what:"alloc" (Ni.ct_alloc env.ni0) in
        Alcotest.(check int) "starts at zero" 0 (ct_val env.ni0 ct);
        ok ~what:"inc" (Ni.ct_inc env.ni0 ct 3);
        Alcotest.(check int) "incremented" 3 (ct_val env.ni0 ct);
        (* Threshold already met: wait returns without blocking. *)
        Alcotest.(check int) "wait returns value" 3
          (ok ~what:"wait" (Ni.ct_wait env.ni0 ct ~threshold:2));
        ok ~what:"free" (Ni.ct_free env.ni0 ct);
        (match Ni.ct_get env.ni0 ct with
        | Error Errors.Invalid_ct -> ()
        | Ok _ | Error _ -> Alcotest.fail "freed counter still resolves"));
    Alcotest.test_case "freeing a counter wakes its waiters" `Quick (fun () ->
        (* A fiber blocked on a counter that is freed must fail with
           Invalid_ct at the free, not sleep until the run deadlocks. *)
        let env = setup () in
        let ct = ok ~what:"alloc" (Ni.ct_alloc env.ni0) in
        let outcome = ref None in
        Scheduler.spawn env.sched (fun () ->
            let r = Ni.ct_wait env.ni0 ct ~threshold:1 in
            outcome := Some (r, Scheduler.now env.sched));
        Scheduler.spawn env.sched (fun () ->
            Scheduler.delay env.sched (Time_ns.us 1.);
            ok ~what:"free" (Ni.ct_free env.ni0 ct));
        Scheduler.run env.sched;
        match !outcome with
        | Some (Error Errors.Invalid_ct, at) ->
          Alcotest.(check int) "woken at the free" (Time_ns.us 1.) at
        | Some (Ok v, _) -> Alcotest.failf "wait returned %d" v
        | Some (Error e, _) -> Alcotest.failf "wrong error %s" (Errors.to_string e)
        | None -> Alcotest.fail "waiter never finished");
    Alcotest.test_case "non-positive inc and negative threshold rejected"
      `Quick (fun () ->
        let env = setup () in
        let ct = ok ~what:"alloc" (Ni.ct_alloc env.ni0) in
        (match Ni.ct_inc env.ni0 ct 0 with
        | Error Errors.Invalid_arg -> ()
        | Ok _ | Error _ -> Alcotest.fail "inc 0 accepted");
        match
          Ni.ct_arm env.ni0 ~ct ~threshold:(-1)
            [ Ni.Triggered_ct_inc { ct; amount = 1 } ]
        with
        | Error Errors.Invalid_arg -> ()
        | Ok _ | Error _ -> Alcotest.fail "negative threshold accepted");
    Alcotest.test_case "deposit bumps the entry's counter after events"
      `Quick (fun () ->
        let env = setup () in
        let tbuf = Bytes.make 64 '\000' in
        let teq, _, _, ct = counted_target env.ni1 tbuf in
        let payload = Bytes.of_string "counted" in
        let md = sender_md env.ni0 payload in
        put_to env.ni0 md ~target:(proc 1 0);
        put_to env.ni0 md ~target:(proc 1 0);
        Scheduler.run env.sched;
        Alcotest.(check int) "two deposits, two bumps" 2 (ct_val env.ni1 ct);
        Alcotest.(check (list string)) "ordinary PUT events" [ "PUT"; "PUT" ]
          (kinds (drain env.ni1 teq)));
  ]

let chain_tests =
  [
    Alcotest.test_case "arming at or below the current value fires now"
      `Quick (fun () ->
        let env = setup () in
        let ct = ok ~what:"alloc" (Ni.ct_alloc env.ni0) in
        let flag = ok ~what:"alloc" (Ni.ct_alloc env.ni0) in
        ok ~what:"inc" (Ni.ct_inc env.ni0 ct 2);
        ok ~what:"arm"
          (Ni.ct_arm env.ni0 ~ct ~threshold:2
             [ Ni.Triggered_ct_inc { ct = flag; amount = 5 } ]);
        Alcotest.(check int) "fired synchronously at arm" 5
          (ct_val env.ni0 flag));
    Alcotest.test_case "triggered put carries wire provenance" `Quick
      (fun () ->
        (* ni0 deposits on ni1; ni1's chain forwards to ni2. The first
           hop logs PUT, the chain-fired hop logs TRIGGERED — same data
           landing, distinguishable provenance (the wire flag bit). *)
        let env = setup () in
        let relay_buf = Bytes.make 64 '\000' in
        let r_eq, _, relay_md, relay_ct = counted_target env.ni1 relay_buf in
        let sink_buf = Bytes.make 64 '\000' in
        let s_eq, _, _, _ = counted_target env.ni2 sink_buf in
        ok ~what:"arm"
          (Ni.ct_arm env.ni1 ~ct:relay_ct ~threshold:1
             [
               Ni.Triggered_put
                 {
                   md = relay_md;
                   ack = false;
                   length = Some 5;
                   op = Ni.op ~target:(proc 2 0) ~portal_index:0 ();
                 };
             ]);
        let md = sender_md env.ni0 (Bytes.of_string "relay") in
        put_to env.ni0 md ~target:(proc 1 0);
        Scheduler.run env.sched;
        (* The relay's slab MD has an EQ, so the chain-fired put also
           logs its local SENT there, after the PUT that triggered it. *)
        Alcotest.(check (list string)) "relay saw PUT then its chain's SENT"
          [ "PUT"; "SENT" ]
          (kinds (drain env.ni1 r_eq));
        let sink = drain env.ni2 s_eq in
        Alcotest.(check (list string)) "sink saw TRIGGERED" [ "TRIGGERED" ]
          (kinds sink);
        Alcotest.(check string) "forwarded bytes" "relay"
          (Bytes.sub_string sink_buf 0 5);
        (match sink with
        | [ ev ] ->
          Alcotest.(check string) "initiator is the relay" "1:0"
            (Simnet.Proc_id.to_string ev.Event.initiator)
        | _ -> Alcotest.fail "one sink event");
        Alcotest.(check int) "relay counted one fired chain" 1
          (Ni.counters env.ni1).Ni.triggered_fired);
    Alcotest.test_case "combine folds locally; cascade bumps fire chains"
      `Quick (fun () ->
        let env = setup () in
        let acc = Bytes.of_string "\x01\x02\x03\x04" in
        let src = Bytes.of_string "\x10\x20\x30\x40" in
        let acc_md = sender_md env.ni0 acc in
        let src_md = sender_md env.ni0 src in
        let gate = ok ~what:"alloc" (Ni.ct_alloc env.ni0) in
        let done_ct = ok ~what:"alloc" (Ni.ct_alloc env.ni0) in
        let flag = ok ~what:"alloc" (Ni.ct_alloc env.ni0) in
        (* Second-stage chain armed on done_ct: the first chain's
           Triggered_ct_inc must cascade into it. *)
        ok ~what:"arm2"
          (Ni.ct_arm env.ni0 ~ct:done_ct ~threshold:1
             [ Ni.Triggered_ct_inc { ct = flag; amount = 1 } ]);
        ok ~what:"arm1"
          (Ni.ct_arm env.ni0 ~ct:gate ~threshold:1
             [
               Ni.Triggered_combine
                 {
                   dst = acc_md;
                   src = src_md;
                   f =
                     (fun d s ->
                       Bytes.iteri
                         (fun i c ->
                           Bytes.set_uint8 d i
                             (Bytes.get_uint8 d i + Char.code c))
                         s);
                 };
               Ni.Triggered_ct_inc { ct = done_ct; amount = 1 };
             ]);
        ok ~what:"inc" (Ni.ct_inc env.ni0 gate 1);
        Alcotest.(check string) "combined in place" "\x11\x22\x33\x44"
          (Bytes.to_string acc);
        Alcotest.(check int) "cascaded chain fired" 1 (ct_val env.ni0 flag));
    Alcotest.test_case "chain completion event posts to the armed eq"
      `Quick (fun () ->
        let env = setup () in
        let eqh = ok ~what:"eq_alloc" (Ni.eq_alloc env.ni0 ~capacity:4) in
        let ct = ok ~what:"alloc" (Ni.ct_alloc env.ni0) in
        let other = ok ~what:"alloc" (Ni.ct_alloc env.ni0) in
        ok ~what:"arm"
          (Ni.ct_arm env.ni0 ~ct ~eq:eqh ~user_ptr:77 ~threshold:2
             [
               Ni.Triggered_ct_inc { ct = other; amount = 1 };
               Ni.Triggered_ct_inc { ct = other; amount = 1 };
             ]);
        ok ~what:"inc" (Ni.ct_inc env.ni0 ct 2);
        match drain env.ni0 eqh with
        | [ ev ] ->
          Alcotest.(check string) "kind" "TRIGGERED"
            (Event.kind_to_string ev.Event.kind);
          Alcotest.(check int) "user_ptr tags the chain" 77 ev.Event.md_user_ptr;
          Alcotest.(check int) "offset carries threshold" 2 ev.Event.offset;
          Alcotest.(check int) "rlength carries action count" 2
            ev.Event.rlength
        | evs -> Alcotest.failf "expected one event, got %d" (List.length evs));
  ]

(* Three exact-bits entries (bits 1, 2, 3) on portal 0, each over its own
   buffer with the given descriptor options; returns [(me, md, buffer)]
   in list order. *)
let exact_entries ?(options = Md.default_options) ni =
  List.map
    (fun bits ->
      let me =
        ok ~what:"me_attach"
          (Ni.me_attach ni ~portal_index:0 ~match_id:Match_id.any
             ~match_bits:(Match_bits.of_int bits)
             ~ignore_bits:Match_bits.zero ())
      in
      let buf = Bytes.make 16 '.' in
      let md = ok ~what:"md_attach" (Ni.md_attach ni ~me (Ni.md_spec ~options buf)) in
      (me, md, buf))
    [ 1; 2; 3 ]

(* Put [payload] from ni0 to [target] with [bits], run to quiescence, and
   return how many match entries the target examined for it. *)
let walk_of env ~target ~bits payload =
  let ni = if target = 1 then env.ni1 else env.ni2 in
  let before = (Ni.counters ni).Ni.entries_walked in
  let md = sender_md env.ni0 (Bytes.of_string payload) in
  ok ~what:"put"
    (Ni.put env.ni0 ~md ~ack:false
       (Ni.op ~target:(proc target 0) ~portal_index:0
          ~match_bits:(Match_bits.of_int bits) ()));
  Scheduler.run env.sched;
  (Ni.counters ni).Ni.entries_walked - before

let rearm_tests =
  [
    Alcotest.test_case "retarget orders and walks like unlink + attach"
      `Quick (fun () ->
        let env = setup () in
        (* ni1 re-targets its bits-2 entry to bits 4; ni2 unlinks it and
           attaches a fresh bits-4 entry. *)
        let retargeted =
          match exact_entries env.ni1 with
          | [ _; (me, _, buf); _ ] ->
            ok ~what:"retarget"
              (Ni.me_retarget env.ni1 me ~match_bits:(Match_bits.of_int 4));
            buf
          | _ -> assert false
        in
        (match exact_entries env.ni2 with
        | [ _; (me, _, _); _ ] ->
          ok ~what:"unlink" (Ni.me_unlink env.ni2 me);
          let me =
            ok ~what:"me_attach"
              (Ni.me_attach env.ni2 ~portal_index:0 ~match_id:Match_id.any
                 ~match_bits:(Match_bits.of_int 4)
                 ~ignore_bits:Match_bits.zero ())
          in
          ignore
            (ok ~what:"md_attach"
               (Ni.md_attach env.ni2 ~me (Ni.md_spec (Bytes.make 16 '.'))))
        | _ -> assert false);
        (* Bits 4 now sit at the tail, 3 second, 1 first; bits 2 match
           nothing and walk the whole list. *)
        List.iter
          (fun (bits, walked) ->
            List.iter
              (fun target ->
                Alcotest.(check int)
                  (Printf.sprintf "bits %d on ni%d" bits target)
                  walked
                  (walk_of env ~target ~bits "x"))
              [ 1; 2 ])
          [ (4, 3); (3, 2); (1, 1); (2, 3) ];
        let c1 = Ni.counters env.ni1 and c2 = Ni.counters env.ni2 in
        Alcotest.(check (pair int int)) "same counters"
          (c2.Ni.translations, c2.Ni.entries_walked)
          (c1.Ni.translations, c1.Ni.entries_walked);
        Alcotest.(check char) "bits 4 landed in the re-targeted buffer" 'x'
          (Bytes.get retargeted 0);
        Alcotest.(check int) "bits 2 dropped as no match" 1
          (Ni.dropped env.ni1 Ni.No_match);
        Alcotest.(check int) "handles held unchanged" 3
          (Ni.resources env.ni1).Ni.live_mes);
    Alcotest.test_case "retarget refuses a busy descriptor" `Quick (fun () ->
        let env = setup () in
        match exact_entries env.ni1 with
        | [ (me, md, buf); _; _ ] ->
          (* A get from the entry's own descriptor keeps it busy until
             the reply, which never comes: ni2 has no entries. *)
          ok ~what:"get"
            (Ni.get env.ni1 ~md (Ni.op ~target:(proc 2 0) ~portal_index:0 ()));
          (match Ni.me_retarget env.ni1 me ~match_bits:(Match_bits.of_int 9) with
          | Error Errors.Md_in_use -> ()
          | Ok () -> Alcotest.fail "retargeted a busy entry"
          | Error e -> Alcotest.failf "wrong error %s" (Errors.to_string e));
          Alcotest.(check int) "old bits still match first" 1
            (walk_of env ~target:1 ~bits:1 "y");
          Alcotest.(check char) "deposit landed" 'y' (Bytes.get buf 0)
        | _ -> assert false);
    Alcotest.test_case "retargeted descriptor takes its next deposit at 0"
      `Quick (fun () ->
        let env = setup () in
        let options = { Md.default_options with Md.manage_remote = false } in
        match exact_entries ~options env.ni1 with
        | [ (me, md, buf); _; _ ] ->
          ignore (walk_of env ~target:1 ~bits:1 "abcd");
          Alcotest.(check int) "offset advanced" 4
            (ok ~what:"offset" (Ni.md_local_offset env.ni1 md));
          ok ~what:"retarget"
            (Ni.me_retarget env.ni1 me ~match_bits:(Match_bits.of_int 7));
          Alcotest.(check int) "offset rewound" 0
            (ok ~what:"offset" (Ni.md_local_offset env.ni1 md));
          ignore (walk_of env ~target:1 ~bits:7 "wxyz");
          Alcotest.(check string) "second deposit at the start" "wxyz"
            (Bytes.sub_string buf 0 4);
          Alcotest.(check string) "nothing written past it" "...."
            (Bytes.sub_string buf 4 4);
          ignore (walk_of env ~target:1 ~bits:1 "late");
          Alcotest.(check int) "old bits match nothing" 1
            (Ni.dropped env.ni1 Ni.No_match)
        | _ -> assert false);
    Alcotest.test_case "reset zeroes the value and drops unfired chains"
      `Quick (fun () ->
        let env = setup () in
        let ct = ok ~what:"alloc" (Ni.ct_alloc env.ni0) in
        let flag = ok ~what:"alloc" (Ni.ct_alloc env.ni0) in
        ok ~what:"arm"
          (Ni.ct_arm env.ni0 ~ct ~threshold:2
             [ Ni.Triggered_ct_inc { ct = flag; amount = 1 } ]);
        ok ~what:"inc" (Ni.ct_inc env.ni0 ct 1);
        ok ~what:"reset" (Ni.ct_reset env.ni0 ct);
        Alcotest.(check int) "value back to zero" 0 (ct_val env.ni0 ct);
        ok ~what:"inc" (Ni.ct_inc env.ni0 ct 2);
        Alcotest.(check int) "cancelled chain never fires" 0 (ct_val env.ni0 flag);
        ok ~what:"arm"
          (Ni.ct_arm env.ni0 ~ct ~threshold:2
             [ Ni.Triggered_ct_inc { ct = flag; amount = 1 } ]);
        Alcotest.(check int) "a chain armed after the reset fires" 1
          (ct_val env.ni0 flag);
        Alcotest.(check int) "one chain fired in all" 1
          (Ni.counters env.ni0).Ni.triggered_fired);
    Alcotest.test_case "reset leaves waiters waiting from zero" `Quick
      (fun () ->
        let env = setup () in
        let ct = ok ~what:"alloc" (Ni.ct_alloc env.ni0) in
        let woke = ref None in
        Scheduler.spawn env.sched (fun () ->
            let v = ok ~what:"wait" (Ni.ct_wait env.ni0 ct ~threshold:2) in
            woke := Some (v, Scheduler.now env.sched));
        Scheduler.spawn env.sched (fun () ->
            let step f =
              Scheduler.delay env.sched (Time_ns.us 1.);
              ok ~what:"step" (f ())
            in
            step (fun () -> Ni.ct_inc env.ni0 ct 1);
            step (fun () -> Ni.ct_reset env.ni0 ct);
            step (fun () -> Ni.ct_inc env.ni0 ct 1);
            step (fun () -> Ni.ct_inc env.ni0 ct 1));
        Scheduler.run env.sched;
        Alcotest.(check (option (pair int int))) "woke at 4 us with 2"
          (Some (2, Time_ns.us 4.))
          !woke);
    Alcotest.test_case "chains one bump makes eligible fire in arming order"
      `Quick (fun () ->
        (* The documented contract: arming order, not threshold order.
           The higher-threshold chain was armed first, so it runs first. *)
        let env = setup () in
        let eqh = ok ~what:"eq_alloc" (Ni.eq_alloc env.ni0 ~capacity:4) in
        let ct = ok ~what:"alloc" (Ni.ct_alloc env.ni0) in
        let other = ok ~what:"alloc" (Ni.ct_alloc env.ni0) in
        let inc = [ Ni.Triggered_ct_inc { ct = other; amount = 1 } ] in
        ok ~what:"arm2" (Ni.ct_arm env.ni0 ~ct ~eq:eqh ~user_ptr:2 ~threshold:2 inc);
        ok ~what:"arm1" (Ni.ct_arm env.ni0 ~ct ~eq:eqh ~user_ptr:1 ~threshold:1 inc);
        ok ~what:"inc" (Ni.ct_inc env.ni0 ct 2);
        Alcotest.(check (list int)) "fired in arming order" [ 2; 1 ]
          (List.map (fun e -> e.Event.md_user_ptr) (drain env.ni0 eqh)));
  ]

let drop_tests =
  [
    Alcotest.test_case "vanished handles drop as triggered_target_gone"
      `Quick (fun () ->
        let env = setup () in
        let ct = ok ~what:"alloc" (Ni.ct_alloc env.ni0) in
        let victim = ok ~what:"alloc" (Ni.ct_alloc env.ni0) in
        ok ~what:"arm"
          (Ni.ct_arm env.ni0 ~ct ~threshold:1
             [ Ni.Triggered_ct_inc { ct = victim; amount = 1 } ]);
        ok ~what:"free victim" (Ni.ct_free env.ni0 victim);
        ok ~what:"inc" (Ni.ct_inc env.ni0 ct 1);
        Alcotest.(check int) "dropped" 1
          (Ni.dropped env.ni0 Ni.Triggered_target_gone));
    Alcotest.test_case "freed match counter drops the bump, keeps the data"
      `Quick (fun () ->
        let env = setup () in
        let tbuf = Bytes.make 64 '\000' in
        let _, _, _, ct = counted_target env.ni1 tbuf in
        ok ~what:"free" (Ni.ct_free env.ni1 ct);
        let md = sender_md env.ni0 (Bytes.of_string "still lands") in
        put_to env.ni0 md ~target:(proc 1 0);
        Scheduler.run env.sched;
        Alcotest.(check string) "deposit committed" "still lands"
          (Bytes.sub_string tbuf 0 11);
        Alcotest.(check int) "stale counter drop" 1
          (Ni.dropped env.ni1 Ni.Triggered_target_gone));
    Alcotest.test_case "inactive descriptor drops as triggered_md_inactive"
      `Quick (fun () ->
        let env = setup () in
        (* Threshold 0 exhausts immediately: active=false at fire time. *)
        let dead_md =
          ok ~what:"md_bind"
            (Ni.md_bind env.ni0
               (Ni.md_spec ~threshold:(Md.Count 0) ~unlink:Md.Retain
                  (Bytes.make 8 '\000')))
        in
        let ct = ok ~what:"alloc" (Ni.ct_alloc env.ni0) in
        ok ~what:"arm"
          (Ni.ct_arm env.ni0 ~ct ~threshold:1
             [
               Ni.Triggered_put
                 {
                   md = dead_md;
                   ack = false;
                   length = None;
                   op = Ni.op ~target:(proc 1 0) ~portal_index:0 ();
                 };
             ]);
        ok ~what:"inc" (Ni.ct_inc env.ni0 ct 1);
        Alcotest.(check int) "dropped" 1
          (Ni.dropped env.ni0 Ni.Triggered_md_inactive));
    Alcotest.test_case "full completion queue drops as triggered_eq_full"
      `Quick (fun () ->
        let env = setup () in
        let eqh = ok ~what:"eq_alloc" (Ni.eq_alloc env.ni0 ~capacity:1) in
        let ct = ok ~what:"alloc" (Ni.ct_alloc env.ni0) in
        let other = ok ~what:"alloc" (Ni.ct_alloc env.ni0) in
        let inc = [ Ni.Triggered_ct_inc { ct = other; amount = 1 } ] in
        ok ~what:"arm1" (Ni.ct_arm env.ni0 ~ct ~eq:eqh ~threshold:1 inc);
        ok ~what:"arm2" (Ni.ct_arm env.ni0 ~ct ~eq:eqh ~threshold:1 inc);
        (* Both chains fire on one bump; the second completion event finds
           the 1-deep queue already full. *)
        ok ~what:"inc" (Ni.ct_inc env.ni0 ct 1);
        Alcotest.(check int) "both chains ran" 2 (ct_val env.ni0 other);
        Alcotest.(check int) "dropped" 1
          (Ni.dropped env.ni0 Ni.Triggered_eq_full));
  ]

let () =
  Alcotest.run "portals-triggered"
    [
      ("counters", counter_tests);
      ("chains", chain_tests);
      ("rearm", rearm_tests);
      ("drops", drop_tests);
    ]
