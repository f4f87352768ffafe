(* Frame integrity: CRC-32C trailers (version 0x31) and the decode
   hardening they buy. The fuzz corpus drives random bit-flips and
   truncations through [Wire.decode_view] twice — once checksummed, once in
   the legacy encoding — to pin both that the CRC rejects every damaged
   frame and that the legacy format demonstrably cannot (the gap the
   integrity layer exists to close). *)

open Portals

let pid nid = Simnet.Proc_id.make ~nid ~pid:0

(* The fabric's view of a frame's ends; the decoder reuses them when the
   header names the same processes, and any address is correct. *)
let decode_view ~integrity b =
  Wire.decode_view ~integrity ~src:(pid 0) ~dst:(pid 1) b

let put_frame ~payload_len ~seed =
  let data = Bytes.init payload_len (fun i -> Char.chr ((seed + (i * 7)) land 0xFF)) in
  Wire.put_request ~incarnation:1 ~initiator:(pid 0) ~target:(pid 1)
    ~portal_index:3 ~cookie:seed ~match_bits:(Match_bits.of_int64 42L)
    ~offset:0 ~md_handle:Handle.none ~eq_handle:Handle.none ~data ()

let frame_corpus ~integrity ~seed =
  (* One of each operation, plus puts of several payload sizes. *)
  let put = put_frame ~payload_len:(seed mod 64) ~seed in
  let get =
    Wire.get_request ~incarnation:1 ~initiator:(pid 0) ~target:(pid 1)
      ~portal_index:3 ~cookie:seed ~match_bits:Match_bits.zero ~offset:8
      ~md_handle:Handle.none ~rlength:64 ()
  in
  let atomic =
    Wire.atomic_request ~incarnation:1 ~aop:Wire.Fetch_add
      ~operand:(Int64.of_int seed) ~initiator:(pid 0) ~target:(pid 1)
      ~portal_index:3 ~cookie:seed ~match_bits:Match_bits.zero ~offset:0
      ~md_handle:Handle.none ()
  in
  List.map (Wire.encode ~integrity)
    [
      put;
      Wire.ack_of_put put ~mlength:(seed mod 64);
      get;
      Wire.reply_of_get get ~mlength:16 ~data:(Bytes.make 16 'r');
      atomic;
      Wire.atomic_reply_of_request atomic ~fetched:7L;
    ]

(* [Wire.decode_view] leaves the payload in the wire image: the
   [length] bytes after the header of a put request or a reply. A
   message with its payload read through that view re-encodes and
   compares like the one that was sent. *)
let with_payload (m : Wire.t) =
  match m.Wire.op with
  | Wire.Put_request | Wire.Reply ->
    { m with Wire.data = Bytes.sub m.Wire.data Wire.header_size m.Wire.length }
  | _ -> { m with Wire.data = Bytes.empty }

(* Fault damage as the fabric applies it, to a frame's flat bytes. *)
let damage c frame =
  Simnet.Frame.to_bytes (Simnet.Fault.mutate c (Simnet.Frame.of_bytes frame))

let corruption_of ~frame_len k =
  if k mod 4 = 3 then Simnet.Fault.Truncate { keep = k mod frame_len }
  else Simnet.Fault.Flip { bit = k mod (frame_len * 8) }

let roundtrip_tests =
  [
    Alcotest.test_case "checksummed roundtrip for every operation" `Quick
      (fun () ->
        List.iter
          (fun frame ->
            Alcotest.(check int) "version byte" 0x31 (Bytes.get_uint8 frame 1);
            match decode_view ~integrity:true frame with
            | Ok msg ->
              Alcotest.(check bytes) "re-encode is byte-identical" frame
                (Wire.encode ~integrity:true (with_payload msg))
            | Error e ->
              Alcotest.failf "clean frame rejected: %a" Wire.pp_decode_error e)
          (frame_corpus ~integrity:true ~seed:5));
    Alcotest.test_case "legacy frames rejected while integrity is on" `Quick
      (fun () ->
        let legacy = List.hd (frame_corpus ~integrity:false ~seed:1) in
        match decode_view ~integrity:true legacy with
        | Error (Wire.Bad_version 0x30) -> ()
        | Ok _ -> Alcotest.fail "unprotected frame accepted"
        | Error e -> Alcotest.failf "wrong error: %a" Wire.pp_decode_error e);
    Alcotest.test_case "checksummed frames still decode with integrity off"
      `Quick (fun () ->
        (* Self-describing: a receiver on a fabric with integrity off
           still verifies a protected frame. *)
        let protected_frame = List.hd (frame_corpus ~integrity:true ~seed:2) in
        match decode_view ~integrity:false protected_frame with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "rejected: %a" Wire.pp_decode_error e);
    Alcotest.test_case "flipped magic and 0-byte frames are rejected" `Quick
      (fun () ->
        (* The two damages that made a reliability-shim frame look like
           foreign traffic; the Wire codec must refuse both. *)
        List.iter
          (fun frame ->
            let flipped = Bytes.copy frame in
            Bytes.set_uint8 flipped 0 (Bytes.get_uint8 frame 0 lxor 1);
            (match decode_view ~integrity:true flipped with
            | Error Wire.Bad_magic -> ()
            | Ok _ -> Alcotest.fail "flipped magic accepted"
            | Error e -> Alcotest.failf "wrong error: %a" Wire.pp_decode_error e);
            match decode_view ~integrity:true (Bytes.sub frame 0 0) with
            | Error (Wire.Truncated { got = 0; _ }) -> ()
            | Ok _ -> Alcotest.fail "empty frame accepted"
            | Error e -> Alcotest.failf "wrong error: %a" Wire.pp_decode_error e)
          (frame_corpus ~integrity:true ~seed:3));
  ]

(* The fuzz property: under the checksummed encoding, a damaged frame
   NEVER decodes into a different message — every corruption either
   leaves the bytes identical (e.g. a full-length truncation) or decodes
   to [Error]. *)
let fuzz_checksummed =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:"corrupted checksummed frames never mis-parse" ~count:500
       QCheck.(pair small_nat small_nat)
       (fun (seed, k) ->
         List.for_all
           (fun frame ->
             let damaged =
               damage
                 (corruption_of ~frame_len:(Bytes.length frame) k)
                 frame
             in
             Bytes.equal damaged frame
             ||
             match decode_view ~integrity:true damaged with
             | Error _ -> true
             | Ok _ -> false)
           (frame_corpus ~integrity:true ~seed)))

let legacy_gap_tests =
  [
    Alcotest.test_case "legacy encoding demonstrably mis-parses" `Quick
      (fun () ->
        (* Same corruptions, no CRC: some damaged frame must decode Ok
           with different contents — the silent-damage gap. Fixed seeds,
           so the count is deterministic and must stay non-zero. *)
        let misparses = ref 0 in
        for seed = 0 to 40 do
          List.iter
            (fun frame ->
              match decode_view ~integrity:false frame with
              | Error _ -> ()
              | Ok original ->
                for k = 0 to 63 do
                  let damaged =
                    damage
                      (corruption_of ~frame_len:(Bytes.length frame) k)
                      frame
                  in
                  if not (Bytes.equal damaged frame) then
                    match decode_view ~integrity:false damaged with
                    | Error _ -> ()
                    | Ok seen ->
                      if with_payload seen <> with_payload original then
                        incr misparses
                done)
            (frame_corpus ~integrity:false ~seed)
        done;
        Alcotest.(check bool)
          (Printf.sprintf "saw %d silent mis-parses" !misparses)
          true (!misparses > 0));
  ]

let ni_drop_tests =
  [
    Alcotest.test_case "NI drops a damaged frame as Checksum_failed" `Quick
      (fun () ->
        let sched = Sim_engine.Scheduler.create () in
        let fabric =
          Simnet.Fabric.create sched ~profile:Simnet.Profile.myrinet_mcp
            ~nodes:2
        in
        Simnet.Fabric.set_integrity fabric true;
        let tp = Simnet.Transport.offload fabric in
        let ni = Ni.create tp ~id:(pid 1) () in
        let frame =
          Wire.encode ~integrity:true (put_frame ~payload_len:8 ~seed:3)
        in
        Bytes.set_uint8 frame 30 (Bytes.get_uint8 frame 30 lxor 0x10);
        tp.Simnet.Transport.send ~src:(pid 0) ~dst:(pid 1) frame;
        Sim_engine.Scheduler.run sched;
        Alcotest.(check int) "counted" 1 (Ni.dropped ni Ni.Checksum_failed));
  ]

let () =
  Alcotest.run "wire_integrity"
    [
      ("roundtrip", roundtrip_tests);
      ("fuzz", [ fuzz_checksummed ]);
      ("legacy_gap", legacy_gap_tests);
      ("ni_drop", ni_drop_tests);
    ]
