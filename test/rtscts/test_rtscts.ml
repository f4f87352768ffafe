open Sim_engine

let proc nid pid = Simnet.Proc_id.make ~nid ~pid

let setup ?config ?(profile = Simnet.Profile.myrinet_kernel) () =
  let sched = Scheduler.create () in
  let fabric = Simnet.Fabric.create sched ~profile ~nodes:4 in
  let m = Rtscts.create ?config fabric in
  (sched, fabric, m, Rtscts.transport m)

(* The payload of a decoded frame is a view into the sender's buffer. *)
let frame_payload f =
  Bytes.sub_string f.Rtscts.Frame.payload f.Rtscts.Frame.pay_off
    f.Rtscts.Frame.pay_len

let frame_tests =
  [
    Alcotest.test_case "frame round trip" `Quick (fun () ->
        (* The sender frames a slice of a larger buffer, as
           [stream_packets] does. *)
        let f =
          {
            Rtscts.Frame.kind = Rtscts.Frame.Data;
            msg_id = 42;
            total_len = 100_000;
            offset = 8192;
            payload = Bytes.of_string "<<chunk-bytes>>";
            pay_off = 2;
            pay_len = 11;
          }
        in
        let wire = Rtscts.Frame.encode f in
        Alcotest.(check int) "header only" Rtscts.Frame.header_size
          (Bytes.length wire.Simnet.Frame.hdr);
        (match Rtscts.Frame.decode wire with
        | Ok d ->
          Alcotest.(check string) "kind" "DATA" (Rtscts.Frame.kind_to_string d.Rtscts.Frame.kind);
          Alcotest.(check int) "msg_id" 42 d.Rtscts.Frame.msg_id;
          Alcotest.(check int) "total" 100_000 d.Rtscts.Frame.total_len;
          Alcotest.(check int) "offset" 8192 d.Rtscts.Frame.offset;
          Alcotest.(check bool) "the payload is the sender's buffer" true
            (d.Rtscts.Frame.payload == f.Rtscts.Frame.payload);
          Alcotest.(check int) "view starts at the sender's slice" 2
            d.Rtscts.Frame.pay_off;
          Alcotest.(check string) "payload" "chunk-bytes" (frame_payload d)
        | Error e -> Alcotest.fail e);
        (* The same bytes as one flat buffer decode to the same fields. *)
        match
          Rtscts.Frame.decode
            (Simnet.Frame.of_bytes (Simnet.Frame.to_bytes wire))
        with
        | Ok d ->
          Alcotest.(check int) "flat msg_id" 42 d.Rtscts.Frame.msg_id;
          Alcotest.(check int) "flat total" 100_000 d.Rtscts.Frame.total_len;
          Alcotest.(check int) "flat offset" 8192 d.Rtscts.Frame.offset;
          Alcotest.(check string) "flat payload" "chunk-bytes" (frame_payload d)
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "decode rejects garbage" `Quick (fun () ->
        Alcotest.(check bool) "short" true
          (Result.is_error
             (Rtscts.Frame.decode (Simnet.Frame.of_bytes (Bytes.create 3))));
        let b = Simnet.Frame.of_bytes (Bytes.make 40 '\x00') in
        Alcotest.(check bool) "bad magic" true (Result.is_error (Rtscts.Frame.decode b)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"frame encode/decode identity" ~count:300
         QCheck.(quad (int_range 0 3) (int_range 0 10_000)
                   (int_range 0 (1 lsl 20))
                   (pair (string_of_size Gen.(int_range 0 200))
                      (string_of_size Gen.(int_range 0 8))))
         (fun (k, id, off, (s, pad)) ->
           let kind =
             match k with 0 -> Rtscts.Frame.Eager | 1 -> Rtscts.Frame.Rts | 2 -> Rtscts.Frame.Cts | _ -> Rtscts.Frame.Data
           in
           let f =
             { Rtscts.Frame.kind; msg_id = id; total_len = off + String.length s;
               offset = off; payload = Bytes.of_string (pad ^ s ^ pad);
               pay_off = String.length pad; pay_len = String.length s }
           in
           (* Decoded as sent (header plus view) and as one flat buffer,
              every field comes back from the header's bytes. *)
           let wire = Rtscts.Frame.encode f in
           List.for_all
             (fun frame ->
               match Rtscts.Frame.decode frame with
               | Ok d ->
                 d.Rtscts.Frame.kind = kind
                 && d.Rtscts.Frame.msg_id = id
                 && d.Rtscts.Frame.total_len = f.Rtscts.Frame.total_len
                 && d.Rtscts.Frame.offset = off
                 && frame_payload d = s
               | Error _ -> false)
             [ wire; Simnet.Frame.of_bytes (Simnet.Frame.to_bytes wire) ]));
    Alcotest.test_case "flipped magic and 0-byte frames are rejected" `Quick
      (fun () ->
        (* The codec has no checksum of its own (on a faulty fabric its
           frames ride inside CRC-checked shim frames), so it must still
           refuse the two damages that pass for foreign traffic. *)
        let f =
          {
            Rtscts.Frame.kind = Rtscts.Frame.Eager;
            msg_id = 7;
            total_len = 5;
            offset = 0;
            payload = Bytes.of_string "hello";
            pay_off = 0;
            pay_len = 5;
          }
        in
        let frame =
          Simnet.Fault.mutate (Simnet.Fault.Flip { bit = 0 })
            (Rtscts.Frame.encode f)
        in
        Alcotest.(check (result reject string)) "flipped magic"
          (Error "rtscts frame: bad magic") (Rtscts.Frame.decode frame);
        Alcotest.(check (result reject string)) "empty frame"
          (Error "rtscts frame: truncated header")
          (Rtscts.Frame.decode (Simnet.Frame.of_bytes Bytes.empty)));
  ]

(* The GM framing of the MPI layer decodes receive tokens in place; a
   token is usually larger than the message it holds. *)
let gm_message_gen =
  let open QCheck.Gen in
  let env =
    map3
      (fun protocol (context, src_rank) tag ->
        {
          Mpi.Envelope.protocol =
            (if protocol then Mpi.Envelope.Eager else Mpi.Envelope.Rendezvous);
          context;
          src_rank;
          tag;
        })
      bool
      (pair (int_range 0 Mpi.Envelope.max_context)
         (int_range 0 Mpi.Envelope.max_rank))
      (int_range 0 Mpi.Envelope.max_tag)
  in
  (* Payload lengths straddle the GM eager threshold (16 KiB). *)
  let payload =
    map3
      (fun len pad seed ->
        let buf = Bytes.init (pad + len + pad) (fun i -> Char.chr (((i * 131) + seed) land 255)) in
        (buf, pad, len))
      (int_range 0 70_000) (int_range 0 16) (int_range 0 255)
  in
  let cookie = int_range 0 (1 lsl 40) in
  int_range 0 3 >>= function
  | 0 ->
    map2
      (fun env (payload, pay_off, pay_len) ->
        Mpi.Envelope.Gm_eager { env; payload; pay_off; pay_len })
      env payload
  | 1 ->
    map3
      (fun env cookie total_len -> Mpi.Envelope.Gm_rts { env; cookie; total_len })
      env cookie (int_range 0 70_000)
  | 2 -> map (fun cookie -> Mpi.Envelope.Gm_cts { cookie }) cookie
  | _ ->
    map2
      (fun cookie (payload, pay_off, pay_len) ->
        Mpi.Envelope.Gm_data { cookie; payload; pay_off; pay_len })
      cookie payload

let gm_kind = function
  | Mpi.Envelope.Gm_eager _ -> "eager"
  | Gm_rts _ -> "rts"
  | Gm_cts _ -> "cts"
  | Gm_data _ -> "data"

let gm_framing_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"gm in-place decode round trip, all four kinds"
         ~count:200
         (QCheck.make ~print:gm_kind gm_message_gen)
         (fun msg ->
           let image = Mpi.Envelope.encode_gm msg in
           let len = Bytes.length image in
           let token = Bytes.make (len + 64) '\xAA' in
           Bytes.blit image 0 token 0 len;
           let slice payload off n = Bytes.sub_string payload off n in
           match (msg, Mpi.Envelope.decode_gm token ~len) with
           | ( Mpi.Envelope.Gm_eager { env; payload; pay_off; pay_len },
               Ok (Mpi.Envelope.Gm_eager d) ) ->
             d.env = env && d.payload == token
             && d.pay_off = Mpi.Envelope.gm_header_size
             && slice d.payload d.pay_off d.pay_len = slice payload pay_off pay_len
           | Gm_rts { env; cookie; total_len }, Ok (Gm_rts d) ->
             d.env = env && d.cookie = cookie && d.total_len = total_len
           | Gm_cts { cookie }, Ok (Gm_cts d) -> d.cookie = cookie
           | Gm_data { cookie; payload; pay_off; pay_len }, Ok (Gm_data d) ->
             d.cookie = cookie && d.payload == token
             && d.pay_off = Mpi.Envelope.gm_header_size
             && slice d.payload d.pay_off d.pay_len = slice payload pay_off pay_len
           | _, (Ok _ | Error _) -> false));
  ]

let delivery_tests =
  [
    Alcotest.test_case "small message goes eager" `Quick (fun () ->
        let sched, _, m, tp = setup () in
        let got = ref None in
        tp.Simnet.Transport.register (proc 1 0) (fun ~src payload ->
            got := Some (src, Bytes.to_string payload));
        tp.Simnet.Transport.send ~src:(proc 0 0) ~dst:(proc 1 0)
          (Bytes.of_string "tiny");
        Scheduler.run sched;
        Alcotest.(check (option (pair string string))) "delivered"
          (Some ("0:0", "tiny"))
          (Option.map (fun (s, p) -> (Simnet.Proc_id.to_string s, p)) !got);
        let st = Rtscts.stats m in
        Alcotest.(check int) "eager" 1 st.Rtscts.eager_messages;
        Alcotest.(check int) "no handshake" 0 st.Rtscts.rts_sent);
    Alcotest.test_case "large message uses RTS/CTS and reassembles" `Quick
      (fun () ->
        let sched, _, m, tp = setup () in
        let payload = Bytes.init 50_000 (fun i -> Char.chr (i mod 251)) in
        let got = ref None in
        tp.Simnet.Transport.register (proc 0 0) (fun ~src:_ _ -> ());
        tp.Simnet.Transport.register (proc 1 0) (fun ~src:_ p -> got := Some p);
        tp.Simnet.Transport.send ~src:(proc 0 0) ~dst:(proc 1 0) payload;
        Scheduler.run sched;
        (match !got with
        | Some p -> Alcotest.(check bool) "bytes identical" true (Bytes.equal p payload)
        | None -> Alcotest.fail "not delivered");
        let st = Rtscts.stats m in
        Alcotest.(check int) "one rendezvous" 1 st.Rtscts.rendezvous_messages;
        Alcotest.(check int) "one rts" 1 st.Rtscts.rts_sent;
        Alcotest.(check int) "one cts" 1 st.Rtscts.cts_sent;
        let expected_packets =
          (50_000 + Rtscts.chunk_payload m - 1) / Rtscts.chunk_payload m
        in
        Alcotest.(check int) "packet count" expected_packets st.Rtscts.data_packets);
    Alcotest.test_case "duplicated packets are reassembled once" `Quick
      (fun () ->
        (* No reliability shim: the fabric hands every duplicate to the
           transport. Each RTS, CTS and Data packet is doubled with
           probability 0.3; every message must still arrive exactly once,
           byte for byte. *)
        let sched, fabric, m, tp = setup () in
        Simnet.Fabric.set_fault_model fabric
          (Some (Simnet.Fault.duplicator ~seed:1 ~p:0.3 ()));
        let sent =
          List.init 5 (fun k -> Bytes.init 20_000 (fun i -> Char.chr ((i + (k * 37)) mod 251)))
        in
        let got = ref [] in
        tp.Simnet.Transport.register (proc 0 0) (fun ~src:_ _ -> ());
        tp.Simnet.Transport.register (proc 1 0) (fun ~src:_ p -> got := p :: !got);
        List.iter (tp.Simnet.Transport.send ~src:(proc 0 0) ~dst:(proc 1 0)) sent;
        Scheduler.run sched;
        Alcotest.(check int) "five deliveries" 5 (List.length !got);
        List.iteri
          (fun k (want, have) ->
            Alcotest.(check bool) (Printf.sprintf "message %d intact" k) true
              (Bytes.equal want have))
          (List.combine sent (List.rev !got));
        Alcotest.(check bool) "fabric duplicated packets" true
          ((Simnet.Fabric.stats fabric).Simnet.Fabric.dups_injected > 0);
        Alcotest.(check bool) "duplicate data packets dropped" true
          ((Rtscts.stats m).Rtscts.data_drops > 0));
    Alcotest.test_case "duplicated eager frames are delivered once" `Quick
      (fun () ->
        (* The same raw fabric, now with 20 eager sends: the second copy
           of a doubled frame must be dropped, not handed up again. *)
        let sched, fabric, m, tp = setup () in
        Simnet.Fabric.set_fault_model fabric
          (Some (Simnet.Fault.duplicator ~seed:1 ~p:0.3 ()));
        let got = ref [] in
        tp.Simnet.Transport.register (proc 1 0) (fun ~src:_ p ->
            got := Bytes.to_string p :: !got);
        let sent = List.init 20 (fun k -> Printf.sprintf "%-100d" k) in
        List.iter
          (fun p ->
            tp.Simnet.Transport.send ~src:(proc 0 0) ~dst:(proc 1 0)
              (Bytes.of_string p))
          sent;
        Scheduler.run sched;
        let dups = (Simnet.Fabric.stats fabric).Simnet.Fabric.dups_injected in
        Alcotest.(check bool) "fabric duplicated frames" true (dups > 0);
        Alcotest.(check (list string)) "each message once, in order" sent
          (List.rev !got);
        Alcotest.(check int) "one eager drop per duplicate" dups
          (Rtscts.stats m).Rtscts.eager_drops);
    Alcotest.test_case "reordered eager frames are all delivered" `Quick
      (fun () ->
        (* A jittered delay lets a later frame overtake an earlier one:
           the late first copy is new and must still be delivered. *)
        let sched, fabric, m, tp = setup () in
        Simnet.Fabric.set_fault_model fabric
          (Some
             (Simnet.Fault.delay ~seed:1 ~reorder:true ~mean:(Time_ns.us 50.)
                ()));
        let got = ref [] in
        tp.Simnet.Transport.register (proc 1 0) (fun ~src:_ p ->
            got := Bytes.to_string p :: !got);
        let sent = List.init 20 (fun k -> Printf.sprintf "%-100d" k) in
        List.iter
          (fun p ->
            tp.Simnet.Transport.send ~src:(proc 0 0) ~dst:(proc 1 0)
              (Bytes.of_string p))
          sent;
        Scheduler.run sched;
        let got = List.rev !got in
        Alcotest.(check int) "twenty deliveries" 20 (List.length got);
        Alcotest.(check bool) "frames were reordered" true (got <> sent);
        Alcotest.(check (list string)) "each message once"
          (List.sort compare sent) (List.sort compare got);
        Alcotest.(check int) "no eager drops" 0
          (Rtscts.stats m).Rtscts.eager_drops);
    Alcotest.test_case "mixed sizes stay ordered per pair" `Quick (fun () ->
        let sched, _, _, tp = setup () in
        let got = ref [] in
        tp.Simnet.Transport.register (proc 0 0) (fun ~src:_ _ -> ());
        tp.Simnet.Transport.register (proc 1 0) (fun ~src:_ p ->
            got := Bytes.length p :: !got);
        let send len =
          tp.Simnet.Transport.send ~src:(proc 0 0) ~dst:(proc 1 0) (Bytes.create len)
        in
        (* eager, big, eager, big, eager: the handshake of each big one
           must stall the rest. *)
        send 10;
        send 40_000;
        send 20;
        send 60_000;
        send 30;
        Scheduler.run sched;
        Alcotest.(check (list int)) "arrival order"
          [ 10; 40_000; 20; 60_000; 30 ]
          (List.rev !got));
    Alcotest.test_case "concurrent pairs do not interfere" `Quick (fun () ->
        let sched, _, _, tp = setup () in
        let got1 = ref [] and got2 = ref [] in
        tp.Simnet.Transport.register (proc 0 0) (fun ~src:_ _ -> ());
        tp.Simnet.Transport.register (proc 3 0) (fun ~src:_ _ -> ());
        tp.Simnet.Transport.register (proc 1 0) (fun ~src:_ p ->
            got1 := Bytes.length p :: !got1);
        tp.Simnet.Transport.register (proc 2 0) (fun ~src:_ p ->
            got2 := Bytes.length p :: !got2);
        tp.Simnet.Transport.send ~src:(proc 0 0) ~dst:(proc 1 0) (Bytes.create 30_000);
        tp.Simnet.Transport.send ~src:(proc 0 0) ~dst:(proc 2 0) (Bytes.create 100);
        tp.Simnet.Transport.send ~src:(proc 3 0) ~dst:(proc 1 0) (Bytes.create 200);
        Scheduler.run sched;
        Alcotest.(check (list int)) "pair (0,1) and (3,1)" [ 200; 30_000 ]
          (List.sort compare !got1);
        Alcotest.(check (list int)) "pair (0,2)" [ 100 ] !got2);
    Alcotest.test_case "receive path charges the host cpu" `Quick (fun () ->
        let sched, fabric, _, tp = setup () in
        tp.Simnet.Transport.register (proc 0 0) (fun ~src:_ _ -> ());
        tp.Simnet.Transport.register (proc 1 0) (fun ~src:_ _ -> ());
        tp.Simnet.Transport.send ~src:(proc 0 0) ~dst:(proc 1 0)
          (Bytes.create 50_000);
        Scheduler.run sched;
        let cpu = Simnet.Node.host_cpu (Simnet.Fabric.node fabric 1) in
        Alcotest.(check bool) "stolen cycles" true (Cpu.stolen_total cpu > 0));
    Alcotest.test_case "per-packet interrupts are an ablation knob" `Quick
      (fun () ->
        let run per_packet =
          let sched, fabric, _, tp =
            setup
              ~config:{ Rtscts.eager_threshold = 4096; per_packet_interrupt = per_packet }
              ()
          in
          tp.Simnet.Transport.register (proc 0 0) (fun ~src:_ _ -> ());
          tp.Simnet.Transport.register (proc 1 0) (fun ~src:_ _ -> ());
          tp.Simnet.Transport.send ~src:(proc 0 0) ~dst:(proc 1 0)
            (Bytes.create 200_000);
          Scheduler.run sched;
          Cpu.stolen_total (Simnet.Node.host_cpu (Simnet.Fabric.node fabric 1))
        in
        Alcotest.(check bool) "coalescing steals less" true (run false < run true));
    Alcotest.test_case "pipelining beats serial copy+wire" `Quick (fun () ->
        (* Completion must be far closer to len/min(bw) than to
           len/copy_bw + len/wire_bw + len/copy_bw. *)
        let sched, _, _, tp = setup () in
        let len = 1_000_000 in
        let done_at = ref 0 in
        tp.Simnet.Transport.register (proc 0 0) (fun ~src:_ _ -> ());
        tp.Simnet.Transport.register (proc 1 0) (fun ~src:_ _ ->
            done_at := Scheduler.now sched);
        tp.Simnet.Transport.send ~src:(proc 0 0) ~dst:(proc 1 0) (Bytes.create len);
        Scheduler.run sched;
        let profile = Simnet.Profile.myrinet_kernel in
        let wire = Simnet.Profile.tx_time profile len in
        let copy = Simnet.Profile.copy_time profile len in
        let serial = copy + wire + copy in
        let bottleneck = max wire copy in
        Alcotest.(check bool) "finished" true (!done_at > 0);
        Alcotest.(check bool) "overlapped"
          true
          (* generous 1.5x slack over the single bottleneck stage, but
             clearly below the fully serial sum *)
          (!done_at < bottleneck * 3 / 2 && !done_at < serial));
  ]

let void_sender_tests =
  [
    Alcotest.test_case "rendezvous to an unregistered peer fails the sender"
      `Quick (fun () ->
        let sched, _, m, tp = setup () in
        let errors = ref [] in
        Rtscts.on_send_error m (fun ~src ~dst ~len ->
            errors := (src, dst, len) :: !errors);
        tp.Simnet.Transport.register (proc 0 0) (fun ~src:_ _ -> ());
        (* proc 1 0 never registers: its RTS would vanish. *)
        tp.Simnet.Transport.send ~src:(proc 0 0) ~dst:(proc 1 0)
          (Bytes.create 50_000);
        Scheduler.run sched;
        let st = Rtscts.stats m in
        Alcotest.(check int) "counted" 1 st.Rtscts.failed_handshakes;
        Alcotest.(check int) "no rts wasted" 0 st.Rtscts.rts_sent;
        (match !errors with
        | [ (src, dst, len) ] ->
          Alcotest.(check string) "src" "0:0" (Simnet.Proc_id.to_string src);
          Alcotest.(check string) "dst" "1:0" (Simnet.Proc_id.to_string dst);
          Alcotest.(check int) "len" 50_000 len
        | l ->
          Alcotest.fail
            (Printf.sprintf "expected one error callback, got %d"
               (List.length l))));
    Alcotest.test_case "unregistered sender cannot receive the CTS" `Quick
      (fun () ->
        let sched, _, m, tp = setup () in
        (* The destination is live but the sender is not: the CTS would be
           answered into the void, so the send must fail immediately. *)
        tp.Simnet.Transport.register (proc 1 0) (fun ~src:_ _ ->
            Alcotest.fail "nothing can complete");
        tp.Simnet.Transport.send ~src:(proc 0 0) ~dst:(proc 1 0)
          (Bytes.create 50_000);
        Scheduler.run sched;
        Alcotest.(check int) "counted" 1
          (Rtscts.stats m).Rtscts.failed_handshakes);
    Alcotest.test_case "a failed handshake does not stall the pipeline" `Quick
      (fun () ->
        let sched, fabric, m, tp = setup () in
        let got = ref [] in
        tp.Simnet.Transport.register (proc 0 0) (fun ~src:_ _ -> ());
        tp.Simnet.Transport.register (proc 1 0) (fun ~src:_ p ->
            got := Bytes.length p :: !got);
        (* Big transfer to a dead peer, then traffic to a live one on the
           same source: before the fix the first send parked forever in
           awaiting_cts and leaked its payload. *)
        tp.Simnet.Transport.send ~src:(proc 0 0) ~dst:(proc 2 0)
          (Bytes.create 40_000);
        tp.Simnet.Transport.send ~src:(proc 0 0) ~dst:(proc 1 0)
          (Bytes.create 60_000);
        tp.Simnet.Transport.send ~src:(proc 0 0) ~dst:(proc 1 0)
          (Bytes.create 16);
        Scheduler.run sched;
        Alcotest.(check (list int)) "live traffic unaffected" [ 60_000; 16 ]
          (List.rev !got);
        Alcotest.(check int) "one failure" 1
          (Rtscts.stats m).Rtscts.failed_handshakes;
        ignore fabric);
  ]

let portals_over_rtscts_tests =
  [
    Alcotest.test_case "portals put runs unchanged over the kernel path" `Quick
      (fun () ->
        let sched, _, _, tp = setup () in
        let ni0 = Portals.Ni.create tp ~id:(proc 0 0) () in
        let ni1 = Portals.Ni.create tp ~id:(proc 1 0) () in
        let target_buf = Bytes.make 65536 '.' in
        let eqh =
          match Portals.Ni.eq_alloc ni1 ~capacity:8 with
          | Ok h -> h
          | Error _ -> Alcotest.fail "eq"
        in
        let meh =
          match
            Portals.Ni.me_attach ni1 ~portal_index:0 ~match_id:Portals.Match_id.any
              ~match_bits:Portals.Match_bits.zero
              ~ignore_bits:Portals.Match_bits.all_ones ()
          with
          | Ok h -> h
          | Error _ -> Alcotest.fail "me"
        in
        (match
           Portals.Ni.md_attach ni1 ~me:meh
             (Portals.Ni.md_spec ~eq:eqh target_buf)
         with
        | Ok _ -> ()
        | Error _ -> Alcotest.fail "md");
        let payload = Bytes.init 50_000 (fun i -> Char.chr (i mod 253)) in
        let imd =
          match Portals.Ni.md_bind ni0 (Portals.Ni.md_spec payload) with
          | Ok h -> h
          | Error _ -> Alcotest.fail "bind"
        in
        (match
           Portals.Ni.put ni0 ~md:imd ~ack:false
             (Portals.Ni.op ~target:(proc 1 0) ~portal_index:0 ~cookie:1 ())
         with
        | Ok () -> ()
        | Error _ -> Alcotest.fail "put");
        Scheduler.run sched;
        Alcotest.(check bool) "payload landed via kernel path" true
          (Bytes.equal payload (Bytes.sub target_buf 0 50_000));
        match Portals.Ni.eq ni1 eqh with
        | Ok q ->
          (match Portals.Event.Queue.get q with
          | Some ev -> Alcotest.(check int) "mlength" 50_000 ev.Portals.Event.mlength
          | None -> Alcotest.fail "no PUT event")
        | Error _ -> Alcotest.fail "eq resolve");
  ]

(* Portals puts over RTS/CTS on a fabric that corrupts half its frames,
   with the fabric's integrity bit on and no reliability shim: damaged
   RTS/CTS headers (a length, an offset) must not raise, and the Portals
   CRC must keep every damaged byte out of the target's memory. A put
   either lands whole, with its event, or not at all. *)
let corrupt_run seed =
  let sched = Scheduler.create () in
  let fabric =
    Simnet.Fabric.create sched ~profile:Simnet.Profile.myrinet_kernel ~nodes:2
  in
  Simnet.Fabric.set_fault_model fabric (Some (Simnet.Fault.corrupt ~seed ~p:0.5 ()));
  Simnet.Fabric.set_integrity fabric true;
  let m = Rtscts.create fabric in
  let tp = Rtscts.transport m in
  let ok = Portals.Errors.ok_exn in
  let ni0 = Portals.Ni.create tp ~id:(proc 0 0) ()
  and ni1 = Portals.Ni.create tp ~id:(proc 1 0) () in
  let size = 10_240 and count = 20 in
  let memory = Bytes.make (size * count) '\000' in
  let eq = ok ~op:"eq" (Portals.Ni.eq_alloc ni1 ~capacity:64) in
  let me =
    ok ~op:"me"
      (Portals.Ni.me_attach ni1 ~portal_index:0 ~match_id:Portals.Match_id.any
         ~match_bits:Portals.Match_bits.zero ~ignore_bits:Portals.Match_bits.all_ones ())
  in
  ignore (ok ~op:"md" (Portals.Ni.md_attach ni1 ~me (Portals.Ni.md_spec ~eq memory)));
  let pattern i = Bytes.init size (fun j -> Char.chr (1 + ((i * 7 + j) mod 255))) in
  for i = 0 to count - 1 do
    let md = ok ~op:"bind" (Portals.Ni.md_bind ni0 (Portals.Ni.md_spec (pattern i))) in
    ok ~op:"put"
      (Portals.Ni.put ni0 ~md ~ack:false
         (Portals.Ni.op ~target:(proc 1 0) ~portal_index:0 ~offset:(i * size) ()))
  done;
  (match Scheduler.run sched with
  | () -> ()
  | exception e -> Alcotest.failf "seed %d raised %s" seed (Printexc.to_string e));
  let q = ok ~op:"eq" (Portals.Ni.eq ni1 eq) in
  let landed = Array.make count false in
  let rec drain () =
    match Portals.Event.Queue.get q with
    | None -> ()
    | Some ev ->
      landed.(ev.Portals.Event.offset / size) <- true;
      drain ()
  in
  drain ();
  Array.iteri
    (fun i landed ->
      let got = Bytes.sub memory (i * size) size in
      let want = if landed then pattern i else Bytes.make size '\000' in
      if not (Bytes.equal got want) then
        Alcotest.failf "seed %d: put %d (%s) left damaged bytes in memory" seed i
          (if landed then "landed" else "dropped"))
    landed;
  Rtscts.stats m

let corrupt_tests =
  [
    Alcotest.test_case "a corrupted length or offset never raises" `Quick
      (fun () ->
        let malformed = ref 0 in
        for seed = 0 to 199 do
          malformed := !malformed + (corrupt_run seed).Rtscts.malformed_drops
        done;
        Alcotest.(check bool) "some damaged headers were counted" true (!malformed > 0));
  ]

let () =
  Alcotest.run "rtscts"
    [
      ("frame", frame_tests);
      ("gm_framing", gm_framing_tests);
      ("delivery", delivery_tests);
      ("void_sender", void_sender_tests);
      ("portals_over_rtscts", portals_over_rtscts_tests);
      ("corrupt", corrupt_tests);
    ]
