(* The reliability subsystem: seq/ACK/retransmit over a faulty fabric.
   The properties under test are the ones Portals assumes of its network
   (section 2): reliable, in-order, exactly-once delivery — here
   manufactured above a wire that drops and duplicates. *)

open Sim_engine

let proc nid pid = Simnet.Proc_id.make ~nid ~pid

let mk ?config ?fault ?(integrity = false) ?(nodes = 2) ?(seed = 0) () =
  let sched = Scheduler.create ~seed () in
  let fabric =
    Simnet.Fabric.create sched ~profile:Simnet.Profile.myrinet_mcp ~nodes
  in
  Simnet.Fabric.set_fault_model fabric fault;
  Simnet.Fabric.set_integrity fabric integrity;
  let rel = Reliability.attach ?config fabric in
  (sched, fabric, rel)

let frame_tests =
  [
    Alcotest.test_case "data frame round trip" `Quick (fun () ->
        let f =
          Reliability.Frame.Data { seq = 123; payload = Bytes.of_string "abc" }
        in
        (match
           Reliability.Frame.decode ~integrity:false
             (Reliability.Frame.encode ~integrity:false f)
         with
        | Ok (Reliability.Frame.Data { seq; payload }) ->
          Alcotest.(check int) "seq" 123 seq;
          Alcotest.(check string) "payload" "abc" (Bytes.to_string payload)
        | _ -> Alcotest.fail "bad decode"));
    Alcotest.test_case "ack frame round trip" `Quick (fun () ->
        let f = Reliability.Frame.Ack { cum_ack = -1; sack = 0b1010L } in
        (match
           Reliability.Frame.decode ~integrity:false
             (Reliability.Frame.encode ~integrity:false f)
         with
        | Ok (Reliability.Frame.Ack { cum_ack; sack }) ->
          Alcotest.(check int) "cum" (-1) cum_ack;
          Alcotest.(check bool) "bit for seq 1" true
            (Reliability.Frame.sack_mem ~sack ~cum_ack 1);
          Alcotest.(check bool) "no bit for seq 0" false
            (Reliability.Frame.sack_mem ~sack ~cum_ack 0)
        | _ -> Alcotest.fail "bad decode"));
    Alcotest.test_case "decode rejects garbage" `Quick (fun () ->
        Alcotest.(check bool) "short" true
          (Result.is_error
             (Reliability.Frame.decode ~integrity:false (Bytes.create 3)));
        Alcotest.(check bool) "bad magic" true
          (Result.is_error
             (Reliability.Frame.decode ~integrity:false (Bytes.make 20 'x'))));
    Alcotest.test_case "sack_of_seqs respects the 64-entry window" `Quick
      (fun () ->
        let sack = Reliability.Frame.sack_of_seqs ~cum_ack:10 [ 11; 74; 75; 200 ] in
        Alcotest.(check bool) "11 in" true
          (Reliability.Frame.sack_mem ~sack ~cum_ack:10 11);
        Alcotest.(check bool) "74 in (last bit)" true
          (Reliability.Frame.sack_mem ~sack ~cum_ack:10 74);
        Alcotest.(check bool) "75 out" false
          (Reliability.Frame.sack_mem ~sack ~cum_ack:10 75));
  ]

(* Send [n] distinct payloads rank0 -> rank1 through the plain fabric
   API; return them as received. *)
let exchange ?config ?fault ?integrity ?seed ~n ~len () =
  let sched, fabric, rel = mk ?config ?fault ?integrity ?seed () in
  let got = ref [] in
  Simnet.Fabric.register fabric (proc 1 0) (fun ~src:_ payload ->
      got := Bytes.to_string payload :: !got);
  Simnet.Fabric.register fabric (proc 0 0) (fun ~src:_ _ -> ());
  for i = 0 to n - 1 do
    let payload = Bytes.make len (Char.chr (33 + (i mod 90))) in
    Bytes.set payload 0 (Char.chr (i mod 256));
    Simnet.Fabric.send fabric ~src:(proc 0 0) ~dst:(proc 1 0) payload
  done;
  Scheduler.run sched;
  (List.rev !got, rel, fabric)

let expected_payloads ~n ~len =
  List.init n (fun i ->
      let payload = Bytes.make len (Char.chr (33 + (i mod 90))) in
      Bytes.set payload 0 (Char.chr (i mod 256));
      Bytes.to_string payload)

let perfect_wire_tests =
  [
    Alcotest.test_case "transparent on a perfect wire" `Quick (fun () ->
        let got, rel, _ = exchange ~n:20 ~len:64 () in
        Alcotest.(check (list string)) "all in order"
          (expected_payloads ~n:20 ~len:64)
          got;
        let st = Reliability.stats rel in
        Alcotest.(check int) "no retransmits" 0 st.Reliability.retransmits;
        Alcotest.(check int) "delivered" 20 st.Reliability.delivered;
        Alcotest.(check int) "acks flowed" 20 st.Reliability.acks_sent);
    Alcotest.test_case "window limits in-flight frames" `Quick (fun () ->
        let config = { Reliability.default_config with Reliability.window = 4 } in
        let sched, fabric, rel = mk ~config () in
        Simnet.Fabric.register fabric (proc 1 0) (fun ~src:_ _ -> ());
        Simnet.Fabric.register fabric (proc 0 0) (fun ~src:_ _ -> ());
        let max_seen = ref 0 in
        for _ = 1 to 50 do
          Simnet.Fabric.send fabric ~src:(proc 0 0) ~dst:(proc 1 0)
            (Bytes.create 512);
          max_seen := max !max_seen (Reliability.inflight rel)
        done;
        Scheduler.run sched;
        Alcotest.(check bool)
          (Printf.sprintf "inflight peak %d <= 4" !max_seen)
          true (!max_seen <= 4);
        Alcotest.(check int) "all delivered"
          50 (Reliability.stats rel).Reliability.delivered);
    Alcotest.test_case "ack rtt summary is populated" `Quick (fun () ->
        let sched, fabric, _rel = mk () in
        Simnet.Fabric.register fabric (proc 1 0) (fun ~src:_ _ -> ());
        Simnet.Fabric.register fabric (proc 0 0) (fun ~src:_ _ -> ());
        Simnet.Fabric.send fabric ~src:(proc 0 0) ~dst:(proc 1 0)
          (Bytes.create 100);
        Scheduler.run sched;
        let snap = Metrics.snapshot (Scheduler.metrics sched) in
        match
          Metrics.Snapshot.find
            ~labels:[ ("protocol", "reliability") ]
            snap "rel.ack_rtt_us"
        with
        | Some (Metrics.Snapshot.Summary { count; mean; _ }) ->
          Alcotest.(check int) "one sample" 1 count;
          Alcotest.(check bool) "positive rtt" true (mean > 0.)
        | _ -> Alcotest.fail "rtt summary missing");
  ]

(* A stream of [n] payloads rank0 -> rank1 whose first payload has a
   length no other frame of the run has, so a fault model can pick out
   seq 0's transmissions by length. *)
let stream_payloads ~n =
  List.init n (fun i -> if i = 0 then "first" else Printf.sprintf "payload-%06d" i)

let run_stream sched fabric ~n =
  let got = ref [] in
  Simnet.Fabric.register fabric (proc 1 0) (fun ~src:_ payload ->
      got := Bytes.to_string payload :: !got);
  Simnet.Fabric.register fabric (proc 0 0) (fun ~src:_ _ -> ());
  List.iter
    (fun p ->
      Simnet.Fabric.send fabric ~src:(proc 0 0) ~dst:(proc 1 0)
        (Bytes.of_string p))
    (stream_payloads ~n);
  (* A bounded run: a window that never drains fails the caller's
     inflight check instead of re-arming its timer forever. *)
  Scheduler.run ~until:(Time_ns.ms 1000.) sched;
  List.rev !got

(* Drops the first [transmissions] wire frames that carry seq 0 of
   {!stream_payloads} (integrity off: header plus 5 payload bytes) and
   calls [!passed] when one first gets through. *)
let stuck_first ~transmissions =
  let seen = ref 0 and passed = ref (fun () -> ()) in
  let first_len = Reliability.Frame.header_size + 5 in
  ( Simnet.Fault.custom (fun ~now:_ ~src ~dst:_ ~len ->
        if src.Simnet.Proc_id.nid <> 0 || len <> first_len then
          Simnet.Fault.Deliver
        else begin
          incr seen;
          if !seen <= transmissions then Simnet.Fault.Drop
          else begin
            if !seen = transmissions + 1 then !passed ();
            Simnet.Fault.Deliver
          end
        end),
    passed )

let lossy_wire_tests =
  [
    Alcotest.test_case "bernoulli loss: recovered, in order, exactly once"
      `Quick (fun () ->
        let fault = Simnet.Fault.bernoulli ~seed:11 ~p:0.1 () in
        let got, rel, fabric = exchange ~fault ~n:100 ~len:256 () in
        Alcotest.(check (list string)) "all recovered in order"
          (expected_payloads ~n:100 ~len:256)
          got;
        let st = Reliability.stats rel in
        Alcotest.(check bool)
          (Printf.sprintf "retransmits %d > 0" st.Reliability.retransmits)
          true
          (st.Reliability.retransmits > 0);
        Alcotest.(check bool) "fabric counted injected drops" true
          ((Simnet.Fabric.stats fabric).Simnet.Fabric.drops_injected > 0));
    Alcotest.test_case "burst loss: recovered, in order, exactly once" `Quick
      (fun () ->
        let fault =
          Simnet.Fault.gilbert ~seed:5 ~p_enter:0.05 ~p_exit:0.3 ()
        in
        let got, _, _ = exchange ~fault ~n:100 ~len:256 () in
        Alcotest.(check (list string)) "all recovered in order"
          (expected_payloads ~n:100 ~len:256)
          got);
    Alcotest.test_case "duplication: suppressed, delivered exactly once" `Quick
      (fun () ->
        let fault = Simnet.Fault.duplicator ~seed:3 ~p:0.3 () in
        let got, rel, fabric = exchange ~fault ~n:60 ~len:128 () in
        Alcotest.(check (list string)) "exactly once, in order"
          (expected_payloads ~n:60 ~len:128)
          got;
        Alcotest.(check bool) "wire duplicated something" true
          ((Simnet.Fabric.stats fabric).Simnet.Fabric.dups_injected > 0);
        Alcotest.(check bool) "duplicates suppressed" true
          ((Reliability.stats rel).Reliability.duplicate_drops > 0));
    Alcotest.test_case "link flap: outage repaired by retransmission" `Quick
      (fun () ->
        let fault =
          Simnet.Fault.link_flap ~period:(Time_ns.us 20.)
            ~downtime:(Time_ns.us 10.) ()
        in
        let got, rel, _ = exchange ~fault ~n:80 ~len:512 () in
        Alcotest.(check (list string)) "all recovered in order"
          (expected_payloads ~n:80 ~len:512)
          got;
        Alcotest.(check bool) "retransmits happened" true
          ((Reliability.stats rel).Reliability.retransmits > 0));
    Alcotest.test_case "same (loss, seed) replays bit-exactly" `Quick
      (fun () ->
        let run () =
          let fault = Simnet.Fault.bernoulli ~seed:9 ~p:0.1 () in
          let _, rel, _ = exchange ~fault ~seed:9 ~n:30 ~len:128 () in
          (Reliability.stats rel).Reliability.retransmits
        in
        Alcotest.(check int) "deterministic" (run ()) (run ()));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"any seed, any loss rate <= 20%: in-order exactly-once"
         ~count:25
         QCheck.(pair small_nat (int_range 0 20))
         (fun (seed, loss_pct) ->
           let fault =
             Simnet.Fault.bernoulli ~seed ~p:(float_of_int loss_pct /. 100.) ()
           in
           let got, _, _ = exchange ~fault ~seed ~n:40 ~len:64 () in
           got = expected_payloads ~n:40 ~len:64));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"loss, duplication, reorder and a stuck oldest frame: in order, once"
         ~count:40
         QCheck.(
           quad small_nat (int_range 0 15) (int_range 0 30)
             (pair (int_range 1 128) (int_range 0 4)))
         (fun (seed, loss_pct, dup_pct, (window, stuck)) ->
           let n = 160 in
           let config = { Reliability.default_config with Reliability.window } in
           let sched, fabric, rel = mk ~config ~seed () in
           let stuck_fault, _ = stuck_first ~transmissions:stuck in
           Simnet.Fabric.set_fault_model fabric
             (Some
                (Simnet.Fault.compose
                   [
                     stuck_fault;
                     Simnet.Fault.bernoulli ~seed
                       ~p:(float_of_int loss_pct /. 100.) ();
                     Simnet.Fault.duplicator ~seed:(seed + 1)
                       ~p:(float_of_int dup_pct /. 100.) ();
                     Simnet.Fault.delay ~seed:(seed + 2) ~mean:(Time_ns.us 10.)
                       ~jitter:(Time_ns.us 10.) ~reorder:true ();
                   ]));
           let got = run_stream sched fabric ~n in
           got = stream_payloads ~n
           && (Reliability.stats rel).Reliability.delivered = n
           && Reliability.inflight rel = 0));
    Alcotest.test_case "a stuck oldest frame while more than 64 pass it" `Quick
      (fun () ->
        (* Seq 0 loses its first three transmissions. The window is wide
           enough that more than 64 later frames are sent, and the first
           63 of them SACKed, before seq 0 gets through: both rings must
           grow past the SACK span, and delivery stays in order, once. *)
        let n = 160 in
        let config =
          { Reliability.default_config with Reliability.window = 128 }
        in
        let sched, fabric, rel = mk ~config () in
        let fault, passed = stuck_first ~transmissions:3 in
        Simnet.Fabric.set_fault_model fabric (Some fault);
        let sent_before_unstuck = ref 0 in
        passed := (fun () ->
          sent_before_unstuck := (Reliability.stats rel).Reliability.data_sent);
        let got = run_stream sched fabric ~n in
        Alcotest.(check (list string)) "in order, exactly once"
          (stream_payloads ~n) got;
        Alcotest.(check bool)
          (Printf.sprintf "%d first transmissions before seq 0 passed"
             !sent_before_unstuck)
          true
          (!sent_before_unstuck > 65);
        (* Three timeouts pass before seq 0 gets through; resending the
           whole 128-frame window at each would be 384 frames. *)
        let resent = (Reliability.stats rel).Reliability.retransmits in
        Alcotest.(check bool)
          (Printf.sprintf "SACKed frames not resent (%d retransmits)" resent)
          true (resent < 3 * 128);
        Alcotest.(check int) "nothing left in flight" 0 (Reliability.inflight rel));
  ]

let budget_tests =
  [
    Alcotest.test_case "retry budget exhausts against a dead link" `Quick
      (fun () ->
        (* 100% loss: every frame burns its budget and is abandoned;
           the sender must not retransmit forever. *)
        let config =
          {
            Reliability.default_config with
            Reliability.max_retries = 3;
            window = 8;
          }
        in
        let fault = Simnet.Fault.bernoulli ~seed:0 ~p:1.0 () in
        let gave_up = ref [] in
        let sched, fabric, rel = mk ~config ~fault () in
        Reliability.on_give_up rel (fun ~src:_ ~dst:_ ~seq ->
            gave_up := seq :: !gave_up);
        Simnet.Fabric.register fabric (proc 1 0) (fun ~src:_ _ ->
            Alcotest.fail "nothing can arrive");
        for _ = 1 to 5 do
          Simnet.Fabric.send fabric ~src:(proc 0 0) ~dst:(proc 1 0)
            (Bytes.create 64)
        done;
        Scheduler.run sched;
        let st = Reliability.stats rel in
        Alcotest.(check int) "all five abandoned" 5
          st.Reliability.retries_exhausted;
        Alcotest.(check int) "give-up callback saw each" 5
          (List.length !gave_up);
        Alcotest.(check int) "3 retries each" 15 st.Reliability.retransmits;
        Alcotest.(check int) "nothing delivered" 0 st.Reliability.delivered;
        Alcotest.(check int) "sender drained" 0 (Reliability.inflight rel));
    Alcotest.test_case "below the budget there is zero visible loss" `Quick
      (fun () ->
        (* Heavy (30%) loss but a deep budget: the application still sees
           every message, in order. *)
        let fault = Simnet.Fault.bernoulli ~seed:42 ~p:0.3 () in
        let got, rel, _ = exchange ~fault ~n:50 ~len:64 () in
        Alcotest.(check (list string)) "no visible loss"
          (expected_payloads ~n:50 ~len:64)
          got;
        Alcotest.(check int) "no exhaustion" 0
          (Reliability.stats rel).Reliability.retries_exhausted);
  ]

let shim_tests =
  [
    Alcotest.test_case "second shim is rejected" `Quick (fun () ->
        let _, fabric, _ = mk () in
        Alcotest.check_raises "double install"
          (Invalid_argument "Fabric.install_shim: a shim is already installed")
          (fun () -> ignore (Reliability.attach fabric)));
    Alcotest.test_case "acks keep flowing after upper unregistration" `Quick
      (fun () ->
        (* The shim lives below registration: a retransmitted frame whose
           destination has unregistered is still acked (stopping the
           retransmit storm) and counted as an unregistered drop above. *)
        let sched, fabric, rel = mk () in
        Simnet.Fabric.register fabric (proc 0 0) (fun ~src:_ _ -> ());
        Simnet.Fabric.send fabric ~src:(proc 0 0) ~dst:(proc 1 0)
          (Bytes.create 32);
        Scheduler.run sched;
        Alcotest.(check int) "acked: nothing in flight" 0
          (Reliability.inflight rel);
        Alcotest.(check int) "no exhaustion" 0
          (Reliability.stats rel).Reliability.retries_exhausted;
        Alcotest.(check int) "unregistered drop counted" 1
          (Simnet.Fabric.stats fabric).Simnet.Fabric.drops_unregistered);
  ]

let corruption_tests =
  [
    Alcotest.test_case "corruption degrades to loss: recovered byte-clean"
      `Quick (fun () ->
        (* Integrity on: every shim frame carries a CRC, damage is
           detected and retransmitted — never surfaced to the payload. *)
        let fault = Simnet.Fault.corrupt ~seed:13 ~p:0.08 () in
        let got, rel, fabric =
          exchange ~fault ~integrity:true ~n:100 ~len:256 ()
        in
        Alcotest.(check (list string)) "all recovered byte-identical"
          (expected_payloads ~n:100 ~len:256)
          got;
        let st = Reliability.stats rel in
        Alcotest.(check bool) "wire damaged something" true
          ((Simnet.Fabric.stats fabric).Simnet.Fabric.corrupts_injected > 0);
        Alcotest.(check bool)
          (Printf.sprintf "corrupt drops %d > 0" st.Reliability.corrupt_drops)
          true
          (st.Reliability.corrupt_drops > 0);
        Alcotest.(check bool) "recovered by retransmission" true
          (st.Reliability.retransmits > 0));
    Alcotest.test_case "delayed wire: still in order through the shim" `Quick
      (fun () ->
        let fault =
          Simnet.Fault.delay ~seed:5 ~mean:(Time_ns.us 25.)
            ~jitter:(Time_ns.us 25.) ~reorder:true ()
        in
        let got, _, _ = exchange ~fault ~n:60 ~len:64 () in
        Alcotest.(check (list string)) "in order despite reordering"
          (expected_payloads ~n:60 ~len:64)
          got);
    Alcotest.test_case "partition: cut traffic recovered after the heal"
      `Quick (fun () ->
        let sched, fabric, rel = mk () in
        Simnet.Fabric.apply_partition_schedule fabric
          (Simnet.Fault.partition_schedule
             [
               {
                 Simnet.Fault.group_a = [ 0 ];
                 group_b = [ 1 ];
                 one_way = false;
                 cut_at = Time_ns.us 50.;
                 heal_at = Some (Time_ns.us 400.);
               };
             ]);
        let got = ref [] in
        Simnet.Fabric.register fabric (proc 1 0) (fun ~src:_ payload ->
            got := Bytes.to_string payload :: !got);
        Simnet.Fabric.register fabric (proc 0 0) (fun ~src:_ _ -> ());
        for i = 0 to 9 do
          Scheduler.at sched
            (Time_ns.us (float_of_int (i * 30)))
            (fun () ->
              Simnet.Fabric.send fabric ~src:(proc 0 0) ~dst:(proc 1 0)
                (Bytes.make 8 (Char.chr (65 + i))))
        done;
        Scheduler.run sched;
        Alcotest.(check (list string)) "all ten, in order, exactly once"
          (List.init 10 (fun i -> String.make 8 (Char.chr (65 + i))))
          (List.rev !got);
        Alcotest.(check bool) "cut actually severed frames" true
          ((Simnet.Fabric.stats fabric).Simnet.Fabric.drops_partitioned > 0);
        Alcotest.(check int) "nothing abandoned" 0
          (Reliability.stats rel).Reliability.retries_exhausted);
  ]

(* One data frame gets its magic byte flipped and another is cut to
   0 bytes on the wire. Neither looks like a reliability frame any more,
   but both are still shim frames: each must be a counted corrupt drop,
   recovered by retransmission, never a payload handed up. *)
let frame_class_tests =
  [
    Alcotest.test_case "flipped magic and 0-byte frames are corrupt drops"
      `Quick (fun () ->
        List.iter
          (fun integrity ->
            let data_frames = ref 0 in
            let fault =
              Simnet.Fault.custom (fun ~now:_ ~src ~dst:_ ~len:_ ->
                  if src.Simnet.Proc_id.nid <> 0 then
                    Simnet.Fault.Deliver
                  else begin
                    incr data_frames;
                    match !data_frames with
                    | 2 -> Simnet.Fault.Corrupt (Simnet.Fault.Flip { bit = 0 })
                    | 4 -> Simnet.Fault.Corrupt (Simnet.Fault.Truncate { keep = 0 })
                    | _ -> Simnet.Fault.Deliver
                  end)
            in
            let got, rel, fabric =
              exchange ~fault ~integrity ~n:6 ~len:32 ()
            in
            let label = Printf.sprintf "integrity %b: " integrity in
            Alcotest.(check (list string)) (label ^ "delivered intact, once")
              (expected_payloads ~n:6 ~len:32)
              got;
            let st = Reliability.stats rel in
            Alcotest.(check int) (label ^ "two corrupt drops") 2
              st.Reliability.corrupt_drops;
            Alcotest.(check bool) (label ^ "recovered by retransmission") true
              (st.Reliability.retransmits > 0);
            Alcotest.(check int) (label ^ "two frames damaged") 2
              (Simnet.Fabric.stats fabric).Simnet.Fabric.corrupts_injected)
          [ true; false ]);
    Alcotest.test_case "raw datagrams bypass the shim" `Quick (fun () ->
        (* Liveness beats travel with send_raw: no sequence number, no
           acknowledgment, handed straight to the handler, and a damaged
           one is not the shim's to judge. *)
        let sched, fabric, rel = mk ~integrity:true () in
        let got = ref [] in
        Simnet.Fabric.register fabric (proc 1 0) (fun ~src:_ payload ->
            got := Bytes.to_string payload :: !got);
        Simnet.Fabric.send_raw fabric ~src:(proc 0 0) ~dst:(proc 1 0)
          (Bytes.of_string "\xA7");
        Simnet.Fabric.send_raw fabric ~src:(proc 0 0) ~dst:(proc 1 0)
          Bytes.empty;
        Scheduler.run sched;
        Alcotest.(check (list string)) "both handed up" [ "\xA7"; "" ]
          (List.rev !got);
        let st = Reliability.stats rel in
        Alcotest.(check int) "not counted as shim traffic" 0
          (st.Reliability.delivered + st.Reliability.acks_sent
         + st.Reliability.corrupt_drops));
    Alcotest.test_case "a damaged seq in an unchecked frame is not buffered"
      `Quick (fun () ->
        (* Integrity off: a bit flip in the high bytes of the third data
           frame's seq makes it look 2^54 frames ahead. The receiver must
           not size its reorder ring for that; the real frame is resent
           and the stream still arrives in order, once. *)
        let data_frames = ref 0 in
        let fault =
          Simnet.Fault.custom (fun ~now:_ ~src ~dst:_ ~len:_ ->
              if src.Simnet.Proc_id.nid <> 0 then Simnet.Fault.Deliver
              else begin
                incr data_frames;
                if !data_frames = 3 then
                  Simnet.Fault.Corrupt (Simnet.Fault.Flip { bit = (8 * 8) + 6 })
                else Simnet.Fault.Deliver
              end)
        in
        let got, rel, _ = exchange ~fault ~n:6 ~len:32 () in
        Alcotest.(check (list string)) "in order, once"
          (expected_payloads ~n:6 ~len:32)
          got;
        Alcotest.(check bool) "the real frame was resent" true
          ((Reliability.stats rel).Reliability.retransmits > 0));
  ]

let chaos_grid_tests =
  [
    Alcotest.test_case "cell validation" `Quick (fun () ->
        let bad name f =
          Alcotest.(check bool) name true
            (match f () with
            | _ -> false
            | exception Invalid_argument _ -> true)
        in
        bad "corrupt > 1" (fun () ->
            Reliability.Chaos.cell ~corrupt:1.5 ~seed:0 ());
        bad "negative loss" (fun () ->
            Reliability.Chaos.cell ~loss:(-0.1) ~seed:0 ());
        bad "negative delay" (fun () ->
            Reliability.Chaos.cell ~delay:(-3) ~seed:0 ());
        bad "negative crashes" (fun () ->
            Reliability.Chaos.cell ~crashes:(-1) ~seed:0 ()));
    Alcotest.test_case "grid is the full cartesian product" `Quick (fun () ->
        let cells =
          Reliability.Chaos.grid ~corrupts:[ 0.; 0.02 ]
            ~partitions:[ false; true ] ~seeds:[ 1; 2 ] ()
        in
        Alcotest.(check int) "2 x 2 x 2 cells" 8 (List.length cells);
        Alcotest.(check int) "clean control present" 1
          (List.length
             (List.filter
                (fun c -> not (Reliability.Chaos.faulty c))
                (List.filter (fun c -> c.Reliability.Chaos.seed = 1) cells))));
    Alcotest.test_case "fault_of_cell composes the requested axes" `Quick
      (fun () ->
        Alcotest.(check bool) "clean cell has no model" true
          (Reliability.Chaos.fault_of_cell
             (Reliability.Chaos.cell ~seed:3 ())
          = None);
        match
          Reliability.Chaos.fault_of_cell
            (Reliability.Chaos.cell ~corrupt:0.5 ~loss:0.1 ~seed:3 ())
        with
        | None -> Alcotest.fail "faulty cell without a model"
        | Some fault ->
          Alcotest.(check bool) "composition can corrupt" true
            (Simnet.Fault.can_corrupt fault));
    Alcotest.test_case "partition_of_cell halves the nids, heals" `Quick
      (fun () ->
        match
          Reliability.Chaos.partition_of_cell
            (Reliability.Chaos.cell ~partition:true ~seed:0 ())
            ~nids:[ 0; 1; 2; 3 ] ~horizon:(Time_ns.ms 4.)
        with
        | [ e ] ->
          Alcotest.(check (list int)) "first half" [ 0; 1 ] e.Simnet.Fault.group_a;
          Alcotest.(check (list int)) "second half" [ 2; 3 ] e.Simnet.Fault.group_b;
          Alcotest.(check bool) "cut before heal" true
            (match e.Simnet.Fault.heal_at with
            | Some h -> e.Simnet.Fault.cut_at < h
            | None -> false)
        | cuts -> Alcotest.failf "expected one cut, got %d" (List.length cuts));
    Alcotest.test_case "crash_schedule_of: one pair per crash, replays"
      `Quick (fun () ->
        let sched ~crashes ~seed =
          Reliability.Chaos.crash_schedule_of
            (Reliability.Chaos.cell ~crashes ~seed ())
            ~nids:[ 0; 1; 2 ] ~horizon:(Time_ns.ms 1.)
        in
        let s = sched ~crashes:3 ~seed:5 in
        Alcotest.(check int) "three events" 3 (List.length s);
        List.iter
          (fun e ->
            Alcotest.(check bool) "victim in range" true
              (List.mem e.Simnet.Fault.victim [ 0; 1; 2 ]);
            Alcotest.(check bool) "inside the horizon" true
              (e.Simnet.Fault.down_at >= 0
              && e.Simnet.Fault.down_at < Time_ns.ms 1.))
          s;
        Alcotest.(check bool) "same cell replays" true
          (s = sched ~crashes:3 ~seed:5);
        Alcotest.(check int) "zero crashes is an empty schedule" 0
          (List.length (sched ~crashes:0 ~seed:1)));
  ]

let crash_tests =
  [
    Alcotest.test_case "give-ups emit a rel.give_up trace instant" `Quick
      (fun () ->
        let config =
          { Reliability.default_config with Reliability.max_retries = 1 }
        in
        let fault = Simnet.Fault.bernoulli ~seed:0 ~p:1.0 () in
        let sched, fabric, _rel = mk ~config ~fault () in
        Trace.enable (Scheduler.trace sched);
        Simnet.Fabric.register fabric (proc 1 0) (fun ~src:_ _ -> ());
        Simnet.Fabric.send fabric ~src:(proc 0 0) ~dst:(proc 1 0)
          (Bytes.create 64);
        Scheduler.run sched;
        let spans = Trace.spans (Scheduler.trace sched) in
        Alcotest.(check bool) "an instant named rel.give_up exists" true
          (List.exists
             (fun s ->
               s.Trace.subsys = "rel"
               && String.length s.Trace.name >= 11
               && String.sub s.Trace.name 0 11 = "rel.give_up")
             spans));
    Alcotest.test_case "node crash resets the pair and counts the loss"
      `Quick (fun () ->
        (* 100% loss toward the victim keeps frames unacked; the crash
           then wipes the pair state and counts what was pending. *)
        let fault = Simnet.Fault.bernoulli ~seed:0 ~p:1.0 () in
        let sched, fabric, rel = mk ~fault () in
        Simnet.Fabric.register fabric (proc 1 0) (fun ~src:_ _ -> ());
        Simnet.Fabric.register fabric (proc 0 0) (fun ~src:_ _ -> ());
        for _ = 1 to 4 do
          Simnet.Fabric.send fabric ~src:(proc 0 0) ~dst:(proc 1 0)
            (Bytes.create 64)
        done;
        Scheduler.at sched (Time_ns.us 5.) (fun () ->
            Simnet.Fabric.crash fabric 1);
        (* No deadlock, no endless retransmit: the reset cancels the
           victim pair's timers. *)
        Scheduler.run sched;
        let st = Reliability.stats rel in
        Alcotest.(check int) "one peer reset" 1 st.Reliability.peer_resets;
        Alcotest.(check bool) "pending frames counted lost" true
          (st.Reliability.peer_reset_lost > 0);
        Alcotest.(check int) "sender drained" 0 (Reliability.inflight rel));
    Alcotest.test_case "sequence space restarts cleanly after the reset"
      `Quick (fun () ->
        let sched, fabric, rel = mk () in
        let got = ref 0 in
        Simnet.Fabric.register fabric (proc 0 0) (fun ~src:_ _ -> ());
        Simnet.Fabric.register fabric (proc 1 0) (fun ~src:_ _ -> incr got);
        (* A healthy exchange first, so both halves hold nonzero seqs. *)
        for _ = 1 to 3 do
          Simnet.Fabric.send fabric ~src:(proc 0 0) ~dst:(proc 1 0)
            (Bytes.create 32)
        done;
        Simnet.Fabric.apply_crash_schedule fabric
          (Simnet.Fault.crash_schedule
             [ (1, Time_ns.us 50., Some (Time_ns.us 60.)) ]);
        Scheduler.at sched (Time_ns.us 70.) (fun () ->
            Simnet.Fabric.register fabric (proc 1 0) (fun ~src:_ _ ->
                incr got);
            Simnet.Fabric.send fabric ~src:(proc 0 0) ~dst:(proc 1 0)
              (Bytes.create 32));
        Scheduler.run sched;
        (* The restarted node's empty tables accept the fresh seq-0
           stream: delivery works, nothing stalls. *)
        Alcotest.(check int) "all four delivered" 4 !got;
        Alcotest.(check int) "one peer reset" 1
          (Reliability.stats rel).Reliability.peer_resets);
  ]

(* A two-node cut from [cut_at] until [heal_at]. *)
let cut fabric ~cut_at ~heal_at =
  Simnet.Fabric.apply_partition_schedule fabric
    (Simnet.Fault.partition_schedule
       [
         {
           Simnet.Fault.group_a = [ 0 ];
           group_b = [ 1 ];
           one_way = false;
           cut_at;
           heal_at = Some heal_at;
         };
       ])

(* Sends each [(time, payload)] rank0 -> rank1 at its time and returns
   the payloads rank1 received, in order. Bounded, so a pair that never
   recovers fails the caller's checks instead of hanging. *)
let run_timed sched fabric sends =
  let got = ref [] in
  Simnet.Fabric.register fabric (proc 1 0) (fun ~src:_ payload ->
      got := Bytes.to_string payload :: !got);
  Simnet.Fabric.register fabric (proc 0 0) (fun ~src:_ _ -> ());
  List.iter
    (fun (at, p) ->
      Scheduler.at sched at (fun () ->
          Simnet.Fabric.send fabric ~src:(proc 0 0) ~dst:(proc 1 0)
            (Bytes.of_string p)))
    sends;
  Scheduler.run ~until:(Time_ns.ms 2000.) sched;
  List.rev !got

(* The wedge probe: one frame sent into a cut, then 200 more 1 ms after
   the cut heals. The first frame's budget (20 retries, RTO 150 us
   doubling to 5 ms) runs out about 80 ms after it is sent. *)
let wedge_probe ~heal_ms =
  let sched, fabric, rel = mk () in
  cut fabric ~cut_at:Time_ns.zero ~heal_at:(Time_ns.ms heal_ms);
  let after = List.init 200 (fun i -> Printf.sprintf "after-%03d" i) in
  let got =
    run_timed sched fabric
      ((Time_ns.zero, "into-the-cut")
      :: List.map (fun p -> (Time_ns.ms (heal_ms +. 1.), p)) after)
  in
  (got, after, rel)

let skip_forward_tests =
  [
    Alcotest.test_case "a give-up in a long cut does not wedge the pair"
      `Quick (fun () ->
        List.iter
          (fun heal_ms ->
            let got, after, rel = wedge_probe ~heal_ms in
            let st = Reliability.stats rel in
            let label what = Printf.sprintf "heal at %g ms: %s" heal_ms what in
            if heal_ms < 79. then
              Alcotest.(check (list string)) (label "all 201")
                ("into-the-cut" :: after) got
            else begin
              Alcotest.(check (list string))
                (label "the 200 sent after the heal, in order, once")
                after got;
              Alcotest.(check int) (label "one give-up") 1
                st.Reliability.retries_exhausted
            end;
            Alcotest.(check int) (label "skipped = abandoned")
              st.Reliability.retries_exhausted st.Reliability.skipped;
            Alcotest.(check int) (label "nothing in flight") 0
              (Reliability.inflight rel))
          [ 4.; 50.; 80.; 90.; 200. ]);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"wherever the give-up falls, the rest arrive in order, once"
         ~count:60
         QCheck.(
           quad (int_range 0 59) (int_range 1 40) small_nat (int_range 0 30))
         (fun (victim, window, seed, dup_pct) ->
           (* Every transmission of frame [victim] is dropped (it alone
              is 16 bytes on the wire), under duplication and
              reordering, so exactly it is abandoned and skipped. *)
           let n = 60 in
           let config =
             {
               Reliability.default_config with
               Reliability.window;
               max_retries = 3;
             }
           in
           let sched, fabric, rel = mk ~config ~seed () in
           let payload i =
             if i = victim then "victim" else Printf.sprintf "payload-%06d" i
           in
           let victim_len = Reliability.Frame.header_size + 6 in
           Simnet.Fabric.set_fault_model fabric
             (Some
                (Simnet.Fault.compose
                   [
                     Simnet.Fault.custom (fun ~now:_ ~src ~dst:_ ~len ->
                         if src.Simnet.Proc_id.nid = 0 && len = victim_len
                         then Simnet.Fault.Drop
                         else Simnet.Fault.Deliver);
                     Simnet.Fault.duplicator ~seed:(seed + 1)
                       ~p:(float_of_int dup_pct /. 100.) ();
                     Simnet.Fault.delay ~seed:(seed + 2)
                       ~mean:(Time_ns.us 10.) ~jitter:(Time_ns.us 10.)
                       ~reorder:true ();
                   ]));
           let got =
             run_timed sched fabric
               (List.init n (fun i -> (Time_ns.zero, payload i)))
           in
           let st = Reliability.stats rel in
           got = List.filter (( <> ) "victim") (List.init n payload)
           && st.Reliability.retries_exhausted = 1
           && st.Reliability.skipped = 1
           && Reliability.inflight rel = 0));
    Alcotest.test_case "a stream across a cut longer than the retry budget"
      `Quick (fun () ->
        (* One frame every 2 ms from 0 to 400 ms, with the pair cut from
           100 to 300 ms: frames sent early in the cut run out of budget,
           frames sent late in it may still get through after the heal,
           and every frame sent after the heal must arrive. What arrives
           is in send order, exactly once, and every frame is either
           delivered or skipped. *)
        let sched, fabric, rel = mk () in
        cut fabric ~cut_at:(Time_ns.ms 100.) ~heal_at:(Time_ns.ms 300.);
        let sends =
          List.init 201 (fun i ->
              (Time_ns.ms (float_of_int (2 * i)), Printf.sprintf "f%03d" i))
        in
        let got = run_timed sched fabric sends in
        let st = Reliability.stats rel in
        let rec subsequence xs ys =
          match (xs, ys) with
          | [], _ -> true
          | _, [] -> false
          | x :: xs', y :: ys' ->
            if x = y then subsequence xs' ys' else subsequence xs ys'
        in
        Alcotest.(check bool) "in send order, no duplicates" true
          (subsequence got (List.map snd sends));
        let after_heal =
          List.filter_map
            (fun (at, p) -> if at >= Time_ns.ms 300. then Some p else None)
            sends
        in
        Alcotest.(check bool) "everything sent after the heal arrives" true
          (List.for_all (fun p -> List.mem p got) after_heal);
        Alcotest.(check bool) "some frames were abandoned in the cut" true
          (st.Reliability.retries_exhausted > 0);
        Alcotest.(check int) "every frame delivered or skipped"
          (List.length sends)
          (List.length got + st.Reliability.skipped);
        Alcotest.(check int) "nothing in flight" 0 (Reliability.inflight rel));
    Alcotest.test_case "a Forward spent inside the cut restarts on an ack"
      `Quick (fun () ->
        (* Frame "zero" is abandoned about 85 ms into a 200 ms cut, and
           its Forward spends its budget by about 190 ms. Frame "one",
           sent at 150 ms, still has budget at the heal: it reaches the
           receiver, which buffers and SACKs it. That ack shows the
           receiver still waiting for "zero", so the sender restarts the
           Forward and "one" is handed up. *)
        let sched, fabric, rel = mk () in
        cut fabric ~cut_at:Time_ns.zero ~heal_at:(Time_ns.ms 200.);
        let got =
          run_timed sched fabric
            [ (Time_ns.zero, "zero"); (Time_ns.ms 150., "one") ]
        in
        let st = Reliability.stats rel in
        Alcotest.(check (list string)) "the frame sent in the cut" [ "one" ]
          got;
        Alcotest.(check int) "one give-up" 1 st.Reliability.retries_exhausted;
        Alcotest.(check int) "one skipped" 1 st.Reliability.skipped;
        Alcotest.(check int) "nothing in flight" 0 (Reliability.inflight rel));
    Alcotest.test_case "forward frame round trip and integrity" `Quick
      (fun () ->
        let f = Reliability.Frame.Forward { upto = 77 } in
        List.iter
          (fun integrity ->
            match
              Reliability.Frame.decode ~integrity
                (Reliability.Frame.encode ~integrity f)
            with
            | Ok (Reliability.Frame.Forward { upto }) ->
              Alcotest.(check int) "upto" 77 upto
            | _ -> Alcotest.fail "bad decode")
          [ false; true ];
        Alcotest.(check bool) "unprotected rejected under integrity" true
          (Result.is_error
             (Reliability.Frame.decode ~integrity:true
                (Reliability.Frame.encode ~integrity:false f))));
  ]

let () =
  Alcotest.run "reliability"
    [
      ("frames", frame_tests);
      ("perfect wire", perfect_wire_tests);
      ("lossy wire", lossy_wire_tests);
      ("retry budget", budget_tests);
      ("shim", shim_tests);
      ("corruption", corruption_tests);
      ("chaos grid", chaos_grid_tests);
      ("crash", crash_tests);
      ("frame class", frame_class_tests);
      ("skip forward", skip_forward_tests);
    ]
