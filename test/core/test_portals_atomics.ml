(* End-to-end tests of the Portals atomic extension: fetch-add, swap and
   compare-and-swap executed on the target interface at ME-match time
   (the §5.1 bypass path extended to read-modify-write), the ATOMIC and
   REPLY event pair, the wire-format roundtrips for the atomic request
   and fetched-value reply, and the §4.8 drop table as grown for
   atomics (misalignment, no-match, stray-reply, full-queue). *)

open Portals
open Sim_engine

let proc nid pid = Simnet.Proc_id.make ~nid ~pid

(* The fabric's view of a frame's ends; the decoder reuses them when the
   header names the same processes, and any address is correct. *)
let decode_view ~integrity b =
  Wire.decode_view ~integrity ~src:(proc 0 0) ~dst:(proc 1 0) b

type env = {
  sched : Scheduler.t;
  tp : Simnet.Transport.t;
  ni0 : Ni.t;
  ni1 : Ni.t;
}

let setup ?(profile = Simnet.Profile.myrinet_mcp) () =
  let sched = Scheduler.create () in
  let fabric = Simnet.Fabric.create sched ~profile ~nodes:4 in
  let tp = Simnet.Transport.offload fabric in
  let ni0 = Ni.create tp ~id:(proc 0 0) () in
  let ni1 = Ni.create tp ~id:(proc 1 0) () in
  { sched; tp; ni0; ni1 }

let ok ~what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s failed: %s" what (Errors.to_string e)

let expect_err expected ~what = function
  | Ok _ -> Alcotest.failf "%s unexpectedly succeeded" what
  | Error e ->
    Alcotest.(check string) what (Errors.to_string expected) (Errors.to_string e)

(* Target-side helper: one EQ, one catch-all ME on portal 0 with an MD
   over [buffer]. The default descriptor options enable both put and
   get, which is exactly what an atomic target requires. *)
let attach_target ?(options = Md.default_options) ?(eq_capacity = 32) ni buffer
    =
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
         (Ni.md_spec ~options ~threshold:Md.Infinite ~unlink:Md.Retain ~eq:eqh
            buffer))
  in
  (eqh, meh, mdh)

let bind_initiator ?(eq_capacity = 32) ni buffer =
  let eqh = ok ~what:"eq_alloc" (Ni.eq_alloc ni ~capacity:eq_capacity) in
  let mdh =
    ok ~what:"md_bind"
      (Ni.md_bind ni
         (Ni.md_spec ~threshold:Md.Infinite ~unlink:Md.Retain ~eq:eqh buffer))
  in
  (eqh, mdh)

let drain_events ni eqh =
  let q = ok ~what:"eq" (Ni.eq ni eqh) in
  let rec go acc =
    match Event.Queue.get q with None -> List.rev acc | Some e -> go (e :: acc)
  in
  go []

let kinds evs = List.map (fun e -> Event.kind_to_string e.Event.kind) evs
let word buf off = Bytes.get_int64_le buf off
let set_word buf off v = Bytes.set_int64_le buf off v
let i64 = Alcotest.int64

let atomic_op ?(offset = 0) () =
  Ni.op ~target:(proc 1 0) ~portal_index:0 ~cookie:1 ~offset ()

let semantics_tests =
  [
    Alcotest.test_case "fetch_add adds and fetches the old value" `Quick
      (fun () ->
        let env = setup () in
        let tbuf = Bytes.make 64 '\000' in
        set_word tbuf 0 40L;
        let teq, _, _ = attach_target env.ni1 tbuf in
        let ibuf = Bytes.make 16 '\xff' in
        let ieq, imd = bind_initiator env.ni0 ibuf in
        ok ~what:"atomic"
          (Ni.atomic env.ni0 ~md:imd ~aop:Wire.Fetch_add ~operand:2L
             (atomic_op ()));
        Scheduler.run env.sched;
        Alcotest.check i64 "target word incremented" 42L (word tbuf 0);
        Alcotest.check i64 "old value fetched into md" 40L (word ibuf 0);
        (* The execute-at-match-time path posts exactly one ATOMIC event
           on the target and one REPLY on the initiator — no SENT, no
           target host fiber. *)
        let tevs = drain_events env.ni1 teq in
        Alcotest.(check (list string)) "target events" [ "ATOMIC" ] (kinds tevs);
        (match tevs with
        | [ ev ] ->
          Alcotest.(check int) "atomic mlength" Wire.atomic_word_size
            ev.Event.mlength;
          Alcotest.(check string) "initiator id" "0:0"
            (Simnet.Proc_id.to_string ev.Event.initiator)
        | _ -> Alcotest.fail "one event");
        Alcotest.(check (list string)) "initiator events (no SENT)" [ "REPLY" ]
          (kinds (drain_events env.ni0 ieq));
        Alcotest.(check int) "atomics_initiated" 1
          (Ni.counters env.ni0).Ni.atomics_initiated;
        Alcotest.(check int) "atomics_executed" 1
          (Ni.counters env.ni1).Ni.atomics_executed);
    Alcotest.test_case "swap deposits the operand and fetches the old" `Quick
      (fun () ->
        let env = setup () in
        let tbuf = Bytes.make 8 '\000' in
        set_word tbuf 0 7L;
        let _ = attach_target env.ni1 tbuf in
        let ibuf = Bytes.make 8 '\000' in
        let _, imd = bind_initiator env.ni0 ibuf in
        ok ~what:"swap"
          (Ni.atomic env.ni0 ~md:imd ~aop:Wire.Swap ~operand:99L
             (atomic_op ()));
        Scheduler.run env.sched;
        Alcotest.check i64 "word swapped" 99L (word tbuf 0);
        Alcotest.check i64 "old value fetched" 7L (word ibuf 0));
    Alcotest.test_case "cas succeeds on match, fails on mismatch" `Quick
      (fun () ->
        let env = setup () in
        let tbuf = Bytes.make 8 '\000' in
        set_word tbuf 0 5L;
        let _ = attach_target env.ni1 tbuf in
        let buf_hit = Bytes.make 8 '\000' and buf_miss = Bytes.make 8 '\000' in
        let _, md_hit = bind_initiator env.ni0 buf_hit in
        let _, md_miss = bind_initiator env.ni0 buf_miss in
        ok ~what:"cas hit"
          (Ni.atomic env.ni0 ~md:md_hit ~aop:Wire.Cas ~operand:6L ~compare:5L
             (atomic_op ()));
        Scheduler.run env.sched;
        Alcotest.check i64 "cas hit installed" 6L (word tbuf 0);
        Alcotest.check i64 "cas hit fetched compare" 5L (word buf_hit 0);
        ok ~what:"cas miss"
          (Ni.atomic env.ni0 ~md:md_miss ~aop:Wire.Cas ~operand:7L ~compare:5L
             (atomic_op ()));
        Scheduler.run env.sched;
        Alcotest.check i64 "cas miss left word alone" 6L (word tbuf 0);
        (* Failure is observable: fetched <> compare. *)
        Alcotest.check i64 "cas miss fetched current" 6L (word buf_miss 0));
    Alcotest.test_case "back-to-back fetch_adds serialize at the target"
      `Quick (fun () ->
        let env = setup () in
        let tbuf = Bytes.make 8 '\000' in
        let _ = attach_target env.ni1 tbuf in
        let n = 5 and delta = 3L in
        let bufs = Array.init n (fun _ -> Bytes.make 8 '\000') in
        let mds =
          Array.map (fun b -> snd (bind_initiator env.ni0 b)) bufs
        in
        Array.iter
          (fun md ->
            ok ~what:"atomic"
              (Ni.atomic env.ni0 ~md ~aop:Wire.Fetch_add ~operand:delta
                 (atomic_op ())))
          mds;
        Scheduler.run env.sched;
        Alcotest.check i64 "sum of increments"
          (Int64.mul delta (Int64.of_int n))
          (word tbuf 0);
        (* In-order delivery: each op fetched the running total so far. *)
        Array.iteri
          (fun i b ->
            Alcotest.check i64
              (Printf.sprintf "fetched value %d" i)
              (Int64.mul delta (Int64.of_int i))
              (word b 0))
          bufs);
    Alcotest.test_case "offset addresses a word inside the region" `Quick
      (fun () ->
        let env = setup () in
        let tbuf = Bytes.make 24 '\000' in
        set_word tbuf 0 1L;
        set_word tbuf 8 10L;
        set_word tbuf 16 3L;
        let _ = attach_target env.ni1 tbuf in
        let ibuf = Bytes.make 8 '\000' in
        let _, imd = bind_initiator env.ni0 ibuf in
        ok ~what:"atomic"
          (Ni.atomic env.ni0 ~md:imd ~aop:Wire.Fetch_add ~operand:100L
             (atomic_op ~offset:8 ()));
        Scheduler.run env.sched;
        Alcotest.check i64 "neighbour word untouched (left)" 1L (word tbuf 0);
        Alcotest.check i64 "addressed word updated" 110L (word tbuf 8);
        Alcotest.check i64 "neighbour word untouched (right)" 3L (word tbuf 16);
        Alcotest.check i64 "fetched" 10L (word ibuf 0));
  ]

let sample_request ?(aop = Wire.Fetch_add) ?(operand = 11L) ?(compare = 0L) ()
    =
  Wire.atomic_request ~aop ~operand ~compare ~initiator:(proc 0 0)
    ~target:(proc 1 0) ~portal_index:4 ~cookie:2
    ~match_bits:(Match_bits.of_int 0xBEEF)
    ~offset:16 ~md_handle:Handle.none ()

let wire_tests =
  [
    Alcotest.test_case "atomic request roundtrips for every opcode" `Quick
      (fun () ->
        List.iter
          (fun aop ->
            let msg = sample_request ~aop ~operand:11L ~compare:22L () in
            let enc = Wire.encode ~integrity:false msg in
            Alcotest.(check int)
              (Wire.aop_to_string aop ^ " encoded size")
              (Wire.header_size + Wire.atomic_block_size)
              (Bytes.length enc);
            match decode_view ~integrity:false enc with
            | Error e ->
              Alcotest.failf "decode failed: %a" Wire.pp_decode_error e
            | Ok dec -> (
              Alcotest.(check bool) "is atomic request" true
                (dec.Wire.op = Wire.Atomic_request);
              Alcotest.(check int) "length is the word size"
                Wire.atomic_word_size dec.Wire.length;
              match dec.Wire.atomic with
              | None -> Alcotest.fail "missing atomic block"
              | Some a ->
                Alcotest.(check string) "opcode" (Wire.aop_to_string aop)
                  (Wire.aop_to_string a.Wire.aop);
                Alcotest.check i64 "operand" 11L a.Wire.operand;
                Alcotest.check i64 "compare" 22L a.Wire.compare))
          Wire.all_aops);
    Alcotest.test_case "atomic reply echoes the request with the pair swapped"
      `Quick (fun () ->
        let req = sample_request () in
        let reply = Wire.atomic_reply_of_request req ~fetched:41L in
        (match decode_view ~integrity:false (Wire.encode ~integrity:false reply) with
        | Error e -> Alcotest.failf "decode failed: %a" Wire.pp_decode_error e
        | Ok dec ->
          Alcotest.(check bool) "is atomic reply" true
            (dec.Wire.op = Wire.Atomic_reply);
          Alcotest.(check string) "routed back to the initiator" "0:0"
            (Simnet.Proc_id.to_string dec.Wire.target);
          Alcotest.(check (option i64)) "fetched value" (Some 41L)
            (Wire.fetched_value dec));
        (* fetched_value is reply-only; a request has no fetched value. *)
        Alcotest.(check (option i64)) "request has no fetched value" None
          (Wire.fetched_value req));
    Alcotest.test_case "unknown atomic opcode byte is rejected" `Quick
      (fun () ->
        let enc = Wire.encode ~integrity:false (sample_request ()) in
        (* The opcode is the first byte of the extension block. *)
        Bytes.set_uint8 enc Wire.header_size 0xEE;
        match decode_view ~integrity:false enc with
        | Error (Wire.Bad_atomic_op 0xEE) -> ()
        | Error e ->
          Alcotest.failf "wrong error: %a" Wire.pp_decode_error e
        | Ok _ -> Alcotest.fail "decoded a corrupt opcode");
    Alcotest.test_case "truncated extension block is rejected" `Quick
      (fun () ->
        let enc = Wire.encode ~integrity:false (sample_request ()) in
        let cut = Bytes.sub enc 0 (Wire.header_size + 4) in
        match decode_view ~integrity:false cut with
        | Error (Wire.Truncated _) -> ()
        | Error e ->
          Alcotest.failf "wrong error: %a" Wire.pp_decode_error e
        | Ok _ -> Alcotest.fail "decoded a truncated message");
    Alcotest.test_case "encode rejects op/atomic-block mismatches both ways"
      `Quick (fun () ->
        (* An atomic op without its block has nothing to serialize; a
           non-atomic op with a block would write 17 bytes into the
           payload area. Both malformed records must be refused rather
           than silently corrupting the frame. *)
        Alcotest.check_raises "atomic op, missing block"
          (Invalid_argument
             "Wire.encode: atomic operation without an atomic block")
          (fun () ->
            ignore
              (Wire.encode ~integrity:false
                 { (sample_request ()) with Wire.atomic = None }));
        Alcotest.check_raises "non-atomic op, stray block"
          (Invalid_argument
             "Wire.encode: atomic block on a non-atomic operation")
          (fun () ->
            ignore
              (Wire.encode ~integrity:false
                 { (sample_request ()) with Wire.op = Wire.Put_request })));
  ]

let drop_tests =
  [
    Alcotest.test_case "misaligned offset is dropped, word untouched" `Quick
      (fun () ->
        let env = setup () in
        let tbuf = Bytes.make 16 '\000' in
        set_word tbuf 0 123L;
        let teq, _, _ = attach_target env.ni1 tbuf in
        let _, imd = bind_initiator env.ni0 (Bytes.make 8 '\000') in
        ok ~what:"atomic"
          (Ni.atomic env.ni0 ~md:imd ~aop:Wire.Fetch_add ~operand:1L
             (atomic_op ~offset:4 ()));
        Scheduler.run env.sched;
        Alcotest.(check int) "dropped per section 4.8" 1
          (Ni.dropped env.ni1 Ni.Atomic_misaligned);
        Alcotest.check i64 "word untouched" 123L (word tbuf 0);
        Alcotest.(check (list string)) "no target event" []
          (kinds (drain_events env.ni1 teq));
        Alcotest.(check int) "nothing executed" 0
          (Ni.counters env.ni1).Ni.atomics_executed);
    Alcotest.test_case "descriptor without put+get does not match" `Quick
      (fun () ->
        let env = setup () in
        (* An atomic both reads and writes, so a put-only target MD must
           fall through the match list like any op-disabled entry. *)
        let options = { Md.default_options with op_get = false } in
        let _ = attach_target ~options env.ni1 (Bytes.make 8 '\000') in
        let _, imd = bind_initiator env.ni0 (Bytes.make 8 '\000') in
        ok ~what:"atomic"
          (Ni.atomic env.ni0 ~md:imd ~aop:Wire.Swap ~operand:1L
             (atomic_op ()));
        Scheduler.run env.sched;
        Alcotest.(check int) "dropped as no-match" 1
          (Ni.dropped env.ni1 Ni.No_match));
    Alcotest.test_case "stray atomic reply with unknown descriptor" `Quick
      (fun () ->
        let env = setup () in
        let req =
          Wire.atomic_request ~aop:Wire.Fetch_add ~operand:1L
            ~initiator:(proc 0 0) ~target:(proc 1 0) ~portal_index:0 ~cookie:1
            ~match_bits:Match_bits.zero ~offset:0
            ~md_handle:(Handle.of_wire 0x1234) ()
        in
        let stray = Wire.atomic_reply_of_request req ~fetched:0L in
        env.tp.Simnet.Transport.send ~src:(proc 1 0) ~dst:(proc 0 0)
          (Wire.encode ~integrity:false stray);
        Scheduler.run env.sched;
        Alcotest.(check int) "dropped" 1
          (Ni.dropped env.ni0 Ni.Atomic_reply_no_md));
    Alcotest.test_case "atomic reply to a full event queue is dropped" `Quick
      (fun () ->
        let env = setup () in
        let _ = attach_target env.ni1 (Bytes.make 8 '\000') in
        let eqh, imd = bind_initiator ~eq_capacity:1 env.ni0 (Bytes.make 8 '\000') in
        let q = ok ~what:"eq" (Ni.eq env.ni0 eqh) in
        ok ~what:"atomic"
          (Ni.atomic env.ni0 ~md:imd ~aop:Wire.Fetch_add ~operand:1L
             (atomic_op ()));
        ignore
          (Event.Queue.post q
             {
               Event.kind = Event.Put;
               initiator = proc 9 9;
               portal_index = 0;
               match_bits = Match_bits.zero;
               rlength = 0;
               mlength = 0;
               offset = 0;
               md_handle = Handle.none;
               md_user_ptr = 0;
               time = 0;
             });
        Scheduler.run env.sched;
        Alcotest.(check int) "dropped per section 4.8" 1
          (Ni.dropped env.ni0 Ni.Atomic_reply_eq_full);
        (* The loss must also tick the queue's PTL_EQ_DROPPED counter:
           completion waiters poll it to turn the lost reply into a
           typed overflow error instead of a silent hang. *)
        Alcotest.(check int) "queue records the loss" 1
          (Event.Queue.dropped q));
    Alcotest.test_case "local validation: bad handle, short descriptor" `Quick
      (fun () ->
        let env = setup () in
        expect_err Errors.Invalid_md ~what:"stale md"
          (Ni.atomic env.ni0 ~md:(Handle.of_wire 0xDEAD) ~aop:Wire.Fetch_add
             ~operand:1L (atomic_op ()));
        (* The fetched value needs a full word of landing space. *)
        let _, small = bind_initiator env.ni0 (Bytes.make 4 '\000') in
        expect_err Errors.Invalid_arg ~what:"md shorter than the word"
          (Ni.atomic env.ni0 ~md:small ~aop:Wire.Fetch_add ~operand:1L
             (atomic_op ()));
        Alcotest.(check int) "nothing initiated" 0
          (Ni.counters env.ni0).Ni.atomics_initiated);
    Alcotest.test_case "atomic drop reasons are in the stable inventory"
      `Quick (fun () ->
        List.iter
          (fun (r, slug) ->
            Alcotest.(check bool)
              (slug ^ " listed")
              true
              (List.mem r Ni.all_drop_reasons);
            Alcotest.(check string) "slug" slug (Ni.drop_reason_slug r))
          [
            (Ni.Atomic_misaligned, "atomic_misaligned");
            (Ni.Atomic_reply_no_md, "atomic_reply_no_md");
            (Ni.Atomic_reply_eq_full, "atomic_reply_eq_full");
          ]);
  ]

let () =
  Alcotest.run "portals_atomics"
    [
      ("semantics", semantics_tests);
      ("wire", wire_tests);
      ("drops", drop_tests);
    ]
