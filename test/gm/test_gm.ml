open Sim_engine

let proc nid pid = Simnet.Proc_id.make ~nid ~pid

let setup () =
  let sched = Scheduler.create () in
  let fabric =
    Simnet.Fabric.create sched ~profile:Simnet.Profile.myrinet_mcp ~nodes:3
  in
  let tp = Simnet.Transport.offload fabric in
  (sched, tp)

let tests =
  [
    Alcotest.test_case "message lands in a token without polling" `Quick
      (fun () ->
        (* OS bypass: the data is in the token buffer after the run even
           though the receiver never polled. *)
        let sched, tp = setup () in
        let rx = Gm.open_port tp ~id:(proc 1 0) in
        let token = Bytes.create 64 in
        Gm.provide_receive_token rx token;
        let txp = Gm.open_port tp ~id:(proc 0 0) in
        Gm.send txp ~dst:(proc 1 0) (Bytes.of_string "dma-deposit");
        Scheduler.run sched;
        Alcotest.(check string) "in token buffer" "dma-deposit"
          (Bytes.sub_string token 0 11);
        Alcotest.(check int) "event pending, unobserved" 1 (Gm.pending_events rx));
    Alcotest.test_case "poll drains completions in order" `Quick (fun () ->
        let sched, tp = setup () in
        let rx = Gm.open_port tp ~id:(proc 1 0) in
        for _ = 1 to 3 do
          Gm.provide_receive_token rx (Bytes.create 16)
        done;
        let txp = Gm.open_port tp ~id:(proc 0 0) in
        List.iter
          (fun s -> Gm.send txp ~dst:(proc 1 0) (Bytes.of_string s))
          [ "one"; "two"; "three" ];
        Scheduler.run sched;
        let next () =
          match Gm.poll rx with
          | Some (Gm.Recv_complete { buffer; length; _ }) ->
            Bytes.sub_string buffer 0 length
          | Some (Gm.Send_complete _) -> "send?"
          | None -> "none"
        in
        Alcotest.(check string) "1st" "one" (next ());
        Alcotest.(check string) "2nd" "two" (next ());
        Alcotest.(check string) "3rd" "three" (next ());
        Alcotest.(check bool) "drained" true (Gm.poll rx = None));
    Alcotest.test_case "no token means a counted drop" `Quick (fun () ->
        let sched, tp = setup () in
        let rx = Gm.open_port tp ~id:(proc 1 0) in
        let txp = Gm.open_port tp ~id:(proc 0 0) in
        Gm.send txp ~dst:(proc 1 0) (Bytes.of_string "lost");
        Scheduler.run sched;
        Alcotest.(check int) "dropped" 1 (Gm.stats rx).Gm.drops_no_token;
        Alcotest.(check int) "no event" 0 (Gm.pending_events rx));
    Alcotest.test_case "token too small is skipped for a bigger one" `Quick
      (fun () ->
        let sched, tp = setup () in
        let rx = Gm.open_port tp ~id:(proc 1 0) in
        let small = Bytes.create 4 and big = Bytes.create 64 in
        Gm.provide_receive_token rx small;
        Gm.provide_receive_token rx big;
        let txp = Gm.open_port tp ~id:(proc 0 0) in
        Gm.send txp ~dst:(proc 1 0) (Bytes.of_string "needs-the-big-one");
        Scheduler.run sched;
        Alcotest.(check string) "landed in big" "needs-the-big-one"
          (Bytes.sub_string big 0 17);
        (* The small token survives for later. *)
        Alcotest.(check int) "small still pooled" 1 (Gm.stats rx).Gm.tokens_available);
    Alcotest.test_case "send completion event fires" `Quick (fun () ->
        let sched, tp = setup () in
        let txp = Gm.open_port tp ~id:(proc 0 0) in
        let rx = Gm.open_port tp ~id:(proc 1 0) in
        Gm.provide_receive_token rx (Bytes.create 16);
        Gm.send txp ~dst:(proc 1 0) (Bytes.of_string "bye");
        Scheduler.run sched;
        (match Gm.poll txp with
        | Some (Gm.Send_complete { length; _ }) ->
          Alcotest.(check int) "length" 3 length
        | Some (Gm.Recv_complete _) | None -> Alcotest.fail "expected send event"));
    Alcotest.test_case "wait_event blocks until something arrives" `Quick
      (fun () ->
        let sched, tp = setup () in
        let rx = Gm.open_port tp ~id:(proc 1 0) in
        Gm.provide_receive_token rx (Bytes.create 16);
        let txp = Gm.open_port tp ~id:(proc 0 0) in
        let woke = ref 0 in
        Scheduler.spawn sched (fun () ->
            Gm.wait_event rx;
            woke := Scheduler.now sched);
        Scheduler.at sched (Time_ns.ms 2.0) (fun () ->
            Gm.send txp ~dst:(proc 1 0) (Bytes.of_string "x"));
        Scheduler.run sched;
        Alcotest.(check bool) "woke after the send" true (!woke > Time_ns.ms 2.0));
    Alcotest.test_case "closed port stops accepting" `Quick (fun () ->
        let sched, tp = setup () in
        let rx = Gm.open_port tp ~id:(proc 1 0) in
        Gm.provide_receive_token rx (Bytes.create 16);
        Gm.close rx;
        let txp = Gm.open_port tp ~id:(proc 0 0) in
        Gm.send txp ~dst:(proc 1 0) (Bytes.of_string "x");
        Scheduler.run sched;
        Alcotest.(check int) "nothing received" 0 (Gm.stats rx).Gm.receives);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"tokens never double-fill" ~count:100
         QCheck.(list_of_size Gen.(int_range 1 10) (int_range 1 32))
         (fun sizes ->
           let sched, tp = setup () in
           let rx = Gm.open_port tp ~id:(proc 1 0) in
           List.iter (fun _ -> Gm.provide_receive_token rx (Bytes.create 32)) sizes;
           let txp = Gm.open_port tp ~id:(proc 0 0) in
           List.iteri
             (fun i len ->
               Gm.send txp ~dst:(proc 1 0) (Bytes.make len (Char.chr (65 + (i mod 26)))))
             sizes;
           Scheduler.run sched;
           (* Every message got its own token, in order, undamaged. *)
           let rec collect acc =
             match Gm.poll rx with
             | Some (Gm.Recv_complete { buffer; length; _ }) ->
               collect (Bytes.sub_string buffer 0 length :: acc)
             | Some (Gm.Send_complete _) -> collect acc
             | None -> List.rev acc
           in
           let got = collect [] in
           List.length got = List.length sizes
           && List.for_all2
                (fun s (i, len) -> s = String.make len (Char.chr (65 + (i mod 26))))
                got
                (List.mapi (fun i l -> (i, l)) sizes)));
    Alcotest.test_case "unbacked tokens: backed first, best fit, counted" `Quick
      (fun () ->
        let sched, tp = setup () in
        let rx = Gm.open_port tp ~id:(proc 1 0) in
        let backed = Bytes.create 32 and big = Bytes.create 64 in
        Gm.provide_receive_tokens rx ~size:32 2;
        Gm.provide_receive_token rx backed;
        Gm.provide_receive_token rx big;
        Alcotest.(check int) "all four count" 4 (Gm.stats rx).Gm.tokens_available;
        let txp = Gm.open_port tp ~id:(proc 0 0) in
        List.iter
          (fun len -> Gm.send txp ~dst:(proc 1 0) (Bytes.make len 'm'))
          [ 16; 16; 16; 40; 16 ];
        Scheduler.run sched;
        let rec landed acc =
          match Gm.poll rx with
          | Some (Gm.Recv_complete { buffer; length; _ }) ->
            landed ((buffer, length) :: acc)
          | Some (Gm.Send_complete _) -> landed acc
          | None -> List.rev acc
        in
        match landed [] with
        | [ (b1, 16); (b2, 16); (b3, 16); (b4, 40) ] ->
          Alcotest.(check bool) "the backed token is taken first" true (b1 == backed);
          Alcotest.(check bool) "then two fresh 32-byte buffers" true
            (b2 != backed && b3 != backed && b2 != b3 && Bytes.length b2 = 32
           && Bytes.length b3 = 32);
          Alcotest.(check bool) "the 64-byte token is kept for the 40-byte message"
            true (b4 == big);
          Alcotest.(check string) "bytes land in a fresh buffer" (String.make 16 'm')
            (Bytes.sub_string b3 0 16);
          let s = Gm.stats rx in
          Alcotest.(check int) "none left" 0 s.Gm.tokens_available;
          Alcotest.(check int) "the fifth message is dropped" 1 s.Gm.drops_no_token
        | got -> Alcotest.failf "%d messages landed, want 4" (List.length got));
  ]

let () = Alcotest.run "gm" [ ("port", tests) ]
