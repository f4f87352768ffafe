(* Tests for the API extensions: gather/scatter (iovec) memory
   descriptors — the efficiency extension §7 of the paper plans — and
   PtlMDUpdate, the conditional atomic descriptor swap. *)

open Portals
open Sim_engine

let proc nid pid = Simnet.Proc_id.make ~nid ~pid

let ok ~what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s failed: %s" what (Errors.to_string e)

type env = {
  sched : Scheduler.t;
  ni0 : Ni.t;
  ni1 : Ni.t;
}

let setup () =
  let sched = Scheduler.create () in
  let fabric =
    Simnet.Fabric.create sched ~profile:Simnet.Profile.myrinet_mcp ~nodes:2
  in
  let tp = Simnet.Transport.offload fabric in
  let ni0 = Ni.create tp ~id:(proc 0 0) () in
  let ni1 = Ni.create tp ~id:(proc 1 0) () in
  { sched; ni0; ni1 }

let catch_all ?(options = Md.default_options) ?spec env =
  let eqh = ok ~what:"eq" (Ni.eq_alloc env.ni1 ~capacity:32) in
  let meh =
    ok ~what:"me"
      (Ni.me_attach env.ni1 ~portal_index:0 ~match_id:Match_id.any
         ~match_bits:Match_bits.zero ~ignore_bits:Match_bits.all_ones ())
  in
  let spec =
    match spec with
    | Some f -> f eqh
    | None -> Ni.md_spec ~options ~eq:eqh (Bytes.create 256)
  in
  let mdh = ok ~what:"md" (Ni.md_attach env.ni1 ~me:meh spec) in
  (eqh, meh, mdh)

let put env ?(md_payload = Bytes.of_string "payload") ?spec () =
  let spec =
    match spec with
    | Some s -> s
    | None ->
      Ni.md_spec
        ~options:{ Md.default_options with Md.ack_disable = true }
        ~threshold:(Md.Count 1) ~unlink:Md.Unlink md_payload
  in
  let mdh = ok ~what:"bind" (Ni.md_bind env.ni0 spec) in
  ok ~what:"put"
    (Ni.put env.ni0 ~md:mdh ~ack:false
       (Ni.op ~target:(proc 1 0) ~portal_index:0 ~cookie:1 ()))

let md_unit_tests =
  [
    Alcotest.test_case "iovec validation" `Quick (fun () ->
        Alcotest.check_raises "empty" (Invalid_argument "Md.create_iovec: empty vector")
          (fun () -> ignore (Md.create_iovec []));
        Alcotest.check_raises "out of range"
          (Invalid_argument "Md.create_iovec: segment outside its buffer")
          (fun () -> ignore (Md.create_iovec [ (Bytes.create 4, 2, 4) ])));
    Alcotest.test_case "length is the sum of segments" `Quick (fun () ->
        let md =
          Md.create_iovec
            [ (Bytes.create 10, 0, 10); (Bytes.create 20, 5, 7); (Bytes.create 3, 0, 3) ]
        in
        Alcotest.(check int) "total" 20 (Md.length md);
        Alcotest.(check int) "segments" 3 (Md.segment_count md));
    Alcotest.test_case "write scatters across segment boundaries" `Quick
      (fun () ->
        let a = Bytes.make 4 '.' and b = Bytes.make 8 '.' and c = Bytes.make 4 '.' in
        (* Logical region: a[0..4) ++ b[2..6) ++ c[0..4) = 12 bytes. *)
        let md = Md.create_iovec [ (a, 0, 4); (b, 2, 4); (c, 0, 4) ] in
        Md.write md ~offset:2 ~src:(Bytes.of_string "01234567") ~src_off:0 ~len:8;
        Alcotest.(check string) "a" "..01" (Bytes.to_string a);
        Alcotest.(check string) "b" "..2345.." (Bytes.to_string b);
        Alcotest.(check string) "c" "67.." (Bytes.to_string c));
    Alcotest.test_case "read gathers across segment boundaries" `Quick
      (fun () ->
        let md =
          Md.create_iovec
            [
              (Bytes.of_string "AAAA", 0, 4);
              (Bytes.of_string "xxBBBByy", 2, 4);
              (Bytes.of_string "CCCC", 0, 4);
            ]
        in
        Alcotest.(check string) "whole" "AAAABBBBCCCC"
          (Bytes.to_string (Md.read md ~offset:0 ~len:12));
        Alcotest.(check string) "middle" "ABBBBC"
          (Bytes.to_string (Md.read md ~offset:3 ~len:6)));
    Alcotest.test_case "buffer accessor rejects iovec descriptors" `Quick
      (fun () ->
        let md = Md.create_iovec [ (Bytes.create 4, 0, 4); (Bytes.create 4, 0, 4) ] in
        Alcotest.check_raises "buffer"
          (Invalid_argument "Md.buffer: gather/scatter descriptor (use read)")
          (fun () -> ignore (Md.buffer md)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"iovec read/write equals flat equivalent"
         ~count:300
         QCheck.(
           pair
             (list_of_size Gen.(int_range 1 5) (int_range 1 16))
             (pair small_nat small_nat))
         (fun (seg_lens, (off_seed, len_seed)) ->
           let total = List.fold_left ( + ) 0 seg_lens in
           let offset = off_seed mod total in
           let len = len_seed mod (total - offset + 1) in
           let segments = List.map (fun l -> (Bytes.make l '.', 0, l)) seg_lens in
           let iov_md = Md.create_iovec segments in
           let flat = Bytes.make total '.' in
           let flat_md = Md.create flat in
           let payload =
             Bytes.init len (fun i -> Char.chr (33 + ((i * 7) mod 90)))
           in
           Md.write iov_md ~offset ~src:payload ~src_off:0 ~len;
           Md.write flat_md ~offset ~src:payload ~src_off:0 ~len;
           Bytes.equal
             (Md.read iov_md ~offset:0 ~len:total)
             (Md.read flat_md ~offset:0 ~len:total)));
  ]

let iovec_e2e_tests =
  [
    Alcotest.test_case "incoming put scatters into three buffers" `Quick
      (fun () ->
        let env = setup () in
        let head = Bytes.make 4 '.' and body = Bytes.make 8 '.' and tail = Bytes.make 4 '.' in
        let _ =
          catch_all env
            ~spec:(fun eqh ->
              Ni.md_spec_iovec ~eq:eqh
                [ (head, 0, 4); (body, 0, 8); (tail, 0, 4) ])
        in
        put env ~md_payload:(Bytes.of_string "HDRbodybodyTLR!!") ();
        Scheduler.run env.sched;
        Alcotest.(check string) "head" "HDRb" (Bytes.to_string head);
        Alcotest.(check string) "body" "odybodyT" (Bytes.to_string body);
        Alcotest.(check string) "tail" "LR!!" (Bytes.to_string tail));
    Alcotest.test_case "outgoing put gathers from segments" `Quick (fun () ->
        let env = setup () in
        let sink = Bytes.make 32 '.' in
        let teq, _, _ =
          (let eqh = ok ~what:"eq" (Ni.eq_alloc env.ni1 ~capacity:8) in
           let meh =
             ok ~what:"me"
               (Ni.me_attach env.ni1 ~portal_index:0 ~match_id:Match_id.any
                  ~match_bits:Match_bits.zero ~ignore_bits:Match_bits.all_ones ())
           in
           let mdh =
             ok ~what:"md" (Ni.md_attach env.ni1 ~me:meh (Ni.md_spec ~eq:eqh sink))
           in
           (eqh, meh, mdh))
        in
        let spec =
          Ni.md_spec_iovec
            ~options:{ Md.default_options with Md.ack_disable = true }
            ~threshold:(Md.Count 1) ~unlink:Md.Unlink
            [
              (Bytes.of_string "scatter", 0, 7);
              (Bytes.of_string "**gather**", 2, 6);
            ]
        in
        put env ~spec ();
        Scheduler.run env.sched;
        Alcotest.(check string) "concatenated on the wire" "scattergather"
          (Bytes.sub_string sink 0 13);
        let q = ok ~what:"eq" (Ni.eq env.ni1 teq) in
        match Event.Queue.get q with
        | Some ev -> Alcotest.(check int) "mlength" 13 ev.Event.mlength
        | None -> Alcotest.fail "no event");
    Alcotest.test_case "get gathers the reply from segments" `Quick (fun () ->
        let env = setup () in
        (* Target exposes a two-piece region. *)
        let _ =
          catch_all env
            ~spec:(fun eqh ->
              Ni.md_spec_iovec ~eq:eqh
                [ (Bytes.of_string "first|", 0, 6); (Bytes.of_string "second", 0, 6) ])
        in
        let dest = Bytes.make 12 '.' in
        let ieqh = ok ~what:"eq" (Ni.eq_alloc env.ni0 ~capacity:8) in
        let mdh =
          ok ~what:"bind"
            (Ni.md_bind env.ni0
               (Ni.md_spec ~threshold:(Md.Count 1) ~unlink:Md.Unlink ~eq:ieqh dest))
        in
        ok ~what:"get"
          (Ni.get env.ni0 ~md:mdh
             (Ni.op ~target:(proc 1 0) ~portal_index:0 ~cookie:1 ()));
        Scheduler.run env.sched;
        Alcotest.(check string) "gathered" "first|second" (Bytes.to_string dest));
  ]

let md_update_tests =
  [
    Alcotest.test_case "update succeeds while the test queue is empty" `Quick
      (fun () ->
        let env = setup () in
        let old_buf = Bytes.make 16 'o' and new_buf = Bytes.make 16 '.' in
        let eqh, _, mdh =
          catch_all env ~spec:(fun eqh -> Ni.md_spec ~eq:eqh old_buf)
        in
        let swapped =
          ok ~what:"md_update"
            (Ni.md_update env.ni1 mdh (Ni.md_spec ~eq:eqh new_buf) ~test_eq:eqh)
        in
        Alcotest.(check bool) "swapped" true swapped;
        put env ~md_payload:(Bytes.of_string "landed") ();
        Scheduler.run env.sched;
        Alcotest.(check string) "new buffer used" "landed"
          (Bytes.sub_string new_buf 0 6);
        Alcotest.(check string) "old untouched" "oooooo"
          (Bytes.sub_string old_buf 0 6));
    Alcotest.test_case "update refuses when events are pending" `Quick
      (fun () ->
        let env = setup () in
        let old_buf = Bytes.make 16 '.' and new_buf = Bytes.make 16 '.' in
        let eqh, _, mdh =
          catch_all env ~spec:(fun eqh -> Ni.md_spec ~eq:eqh old_buf)
        in
        (* An arrival logs an event; the conditional update must now fail,
           telling the library to look at the queue first. *)
        put env ~md_payload:(Bytes.of_string "first!") ();
        Scheduler.run env.sched;
        let swapped =
          ok ~what:"md_update"
            (Ni.md_update env.ni1 mdh (Ni.md_spec ~eq:eqh new_buf) ~test_eq:eqh)
        in
        Alcotest.(check bool) "not swapped" false swapped;
        (* The old descriptor keeps receiving. *)
        put env ~md_payload:(Bytes.of_string "second") ();
        Scheduler.run env.sched;
        Alcotest.(check string) "old buffer still live" "second"
          (Bytes.sub_string old_buf 0 6));
    Alcotest.test_case "update validates its handles" `Quick (fun () ->
        let env = setup () in
        let eqh, _, mdh = catch_all env in
        (* Only *forged* handles of the right kind can reach the runtime
           checks now. Passing a handle of the wrong kind — what this test
           also used to probe, e.g.

             Ni.md_update env.ni1 mdh spec ~test_eq:mdh   (* MD as EQ *)
             Ni.md_update env.ni1 eqh spec ~test_eq:eqh   (* EQ as MD *)

           — is rejected by the compiler since the phantom-typed handles:
           [Handle.md] does not unify with [Handle.eq]. *)
        (match
           Ni.md_update env.ni1 mdh (Ni.md_spec (Bytes.create 4))
             ~test_eq:(Handle.of_wire 0x999)
         with
        | Error Errors.Invalid_eq -> ()
        | Ok _ | Error _ -> Alcotest.fail "expected Invalid_eq");
        match
          Ni.md_update env.ni1 (Handle.of_wire 0x888)
            (Ni.md_spec (Bytes.create 4)) ~test_eq:eqh
        with
        | Error Errors.Invalid_md -> ()
        | Ok _ | Error _ -> Alcotest.fail "expected Invalid_md");
  ]

let () =
  Alcotest.run "portals_ext"
    [
      ("md_iovec", md_unit_tests);
      ("iovec_e2e", iovec_e2e_tests);
      ("md_update", md_update_tests);
    ]
