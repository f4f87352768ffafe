(* End-to-end tests of the Portals network interface: two (or more)
   processes on a simulated fabric exchanging puts and gets, exercising
   address translation (Fig. 4), the receive-side rules of section 4.8
   (every drop reason), threshold/unlink cascades, and application
   bypass. *)

open Portals
open Sim_engine

let proc nid pid = Simnet.Proc_id.make ~nid ~pid

type env = {
  sched : Scheduler.t;
  fabric : Simnet.Fabric.t;
  tp : Simnet.Transport.t;
  ni0 : Ni.t;
  ni1 : Ni.t;
}

let setup ?(profile = Simnet.Profile.myrinet_mcp) ?(kind = `Offload) () =
  let sched = Scheduler.create () in
  let fabric = Simnet.Fabric.create sched ~profile ~nodes:4 in
  let tp =
    match kind with
    | `Offload -> Simnet.Transport.offload fabric
    | `Kernel -> Simnet.Transport.kernel_interrupt fabric
  in
  let ni0 = Ni.create tp ~id:(proc 0 0) () in
  let ni1 = Ni.create tp ~id:(proc 1 0) () in
  { sched; fabric; tp; ni0; ni1 }

let ok ~what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s failed: %s" what (Errors.to_string e)

let expect_err expected ~what = function
  | Ok _ -> Alcotest.failf "%s unexpectedly succeeded" what
  | Error e ->
    Alcotest.(check string) what (Errors.to_string expected) (Errors.to_string e)

(* Target-side helper: one EQ, one catch-all ME on portal [pt] with an MD
   over [buffer]. Returns (eq_handle, me_handle, md_handle). *)
let attach_target ?(pt = 0) ?(match_bits = Match_bits.zero)
    ?(ignore_bits = Match_bits.all_ones) ?(match_id = Match_id.any)
    ?(options = Md.default_options) ?(threshold = Md.Infinite)
    ?(unlink = Md.Retain) ?(me_unlink = Md.Retain) ?(eq_capacity = 32) ni buffer =
  let eqh = ok ~what:"eq_alloc" (Ni.eq_alloc ni ~capacity:eq_capacity) in
  let meh =
    ok ~what:"me_attach"
      (Ni.me_attach ni ~portal_index:pt ~match_id ~match_bits ~ignore_bits
         ~unlink:me_unlink ())
  in
  let mdh =
    ok ~what:"md_attach"
      (Ni.md_attach ni ~me:meh
         (Ni.md_spec ~options ~threshold ~unlink ~eq:eqh buffer))
  in
  (eqh, meh, mdh)

(* Initiator-side helper: EQ + bound MD over [buffer]. *)
let bind_initiator ?(threshold = Md.Infinite) ?(unlink = Md.Retain)
    ?(eq_capacity = 32) ni buffer =
  let eqh = ok ~what:"eq_alloc" (Ni.eq_alloc ni ~capacity:eq_capacity) in
  let mdh =
    ok ~what:"md_bind" (Ni.md_bind ni (Ni.md_spec ~threshold ~unlink ~eq:eqh buffer))
  in
  (eqh, mdh)

let drain_events ni eqh =
  let q = ok ~what:"eq" (Ni.eq ni eqh) in
  let rec go acc =
    match Event.Queue.get q with None -> List.rev acc | Some e -> go (e :: acc)
  in
  go []

let kinds evs = List.map (fun e -> Event.kind_to_string e.Event.kind) evs

let put_get_tests =
  [
    Alcotest.test_case "put delivers data with SENT/PUT/ACK events" `Quick
      (fun () ->
        let env = setup () in
        let target_buf = Bytes.make 64 '.' in
        let teq, _, _ = attach_target env.ni1 target_buf in
        let payload = Bytes.of_string "hello portals" in
        let ieq, imd = bind_initiator env.ni0 payload in
        ok ~what:"put"
          (Ni.put env.ni0 ~md:imd
             (Ni.op ~target:(proc 1 0) ~portal_index:0 ~cookie:1 ()));
        Scheduler.run env.sched;
        Alcotest.(check string) "data landed" "hello portals"
          (Bytes.sub_string target_buf 0 13);
        let tevs = drain_events env.ni1 teq in
        Alcotest.(check (list string)) "target events" [ "PUT" ] (kinds tevs);
        (match tevs with
        | [ ev ] ->
          Alcotest.(check int) "rlength" 13 ev.Event.rlength;
          Alcotest.(check int) "mlength" 13 ev.Event.mlength;
          Alcotest.(check string) "initiator" "0:0"
            (Simnet.Proc_id.to_string ev.Event.initiator)
        | _ -> Alcotest.fail "one event");
        let ievs = drain_events env.ni0 ieq in
        Alcotest.(check (list string)) "initiator events" [ "SENT"; "ACK" ]
          (kinds ievs);
        (match ievs with
        | [ _; ack ] -> Alcotest.(check int) "ack mlength" 13 ack.Event.mlength
        | _ -> Alcotest.fail "two events"));
    Alcotest.test_case "put without ack yields only SENT" `Quick (fun () ->
        let env = setup () in
        let _ = attach_target env.ni1 (Bytes.create 64) in
        let ieq, imd = bind_initiator env.ni0 (Bytes.of_string "quiet") in
        ok ~what:"put"
          (Ni.put env.ni0 ~md:imd ~ack:false
             (Ni.op ~target:(proc 1 0) ~portal_index:0 ~cookie:1 ()));
        Scheduler.run env.sched;
        Alcotest.(check (list string)) "only SENT" [ "SENT" ]
          (kinds (drain_events env.ni0 ieq)));
    Alcotest.test_case "zero-length put completes" `Quick (fun () ->
        let env = setup () in
        let teq, _, _ = attach_target env.ni1 (Bytes.create 8) in
        let ieq, imd = bind_initiator env.ni0 Bytes.empty in
        ok ~what:"put"
          (Ni.put env.ni0 ~md:imd
             (Ni.op ~target:(proc 1 0) ~portal_index:0 ~cookie:1 ()));
        Scheduler.run env.sched;
        (match drain_events env.ni1 teq with
        | [ ev ] -> Alcotest.(check int) "mlength 0" 0 ev.Event.mlength
        | _ -> Alcotest.fail "one PUT event");
        Alcotest.(check (list string)) "SENT+ACK" [ "SENT"; "ACK" ]
          (kinds (drain_events env.ni0 ieq)));
    Alcotest.test_case "get fetches remote data with REPLY event" `Quick
      (fun () ->
        let env = setup () in
        let remote = Bytes.of_string "0123456789abcdef" in
        let teq, _, _ = attach_target env.ni1 remote in
        let local = Bytes.make 8 '.' in
        let ieq, imd = bind_initiator env.ni0 local in
        ok ~what:"get"
          (Ni.get env.ni0 ~md:imd
             (Ni.op ~target:(proc 1 0) ~portal_index:0 ~cookie:1 ~offset:4 ()));
        Scheduler.run env.sched;
        Alcotest.(check string) "fetched from offset 4" "456789ab"
          (Bytes.to_string local);
        Alcotest.(check (list string)) "target GET" [ "GET" ]
          (kinds (drain_events env.ni1 teq));
        (match drain_events env.ni0 ieq with
        | [ ev ] ->
          Alcotest.(check string) "REPLY" "REPLY" (Event.kind_to_string ev.Event.kind);
          Alcotest.(check int) "mlength" 8 ev.Event.mlength
        | _ -> Alcotest.fail "one REPLY event"));
    Alcotest.test_case "put at an offset lands in the middle" `Quick (fun () ->
        let env = setup () in
        let target_buf = Bytes.make 16 '.' in
        let _ = attach_target env.ni1 target_buf in
        let _, imd = bind_initiator env.ni0 (Bytes.of_string "XY") in
        ok ~what:"put"
          (Ni.put env.ni0 ~md:imd
             (Ni.op ~target:(proc 1 0) ~portal_index:0 ~cookie:1 ~offset:7 ()));
        Scheduler.run env.sched;
        Alcotest.(check string) "middle" ".......XY......."
          (Bytes.to_string target_buf));
    Alcotest.test_case "truncating descriptor reports manipulated length" `Quick
      (fun () ->
        let env = setup () in
        let small = Bytes.make 5 '.' in
        let options = { Md.default_options with Md.truncate = true } in
        let teq, _, _ = attach_target ~options env.ni1 small in
        let ieq, imd = bind_initiator env.ni0 (Bytes.of_string "0123456789") in
        ok ~what:"put"
          (Ni.put env.ni0 ~md:imd
             (Ni.op ~target:(proc 1 0) ~portal_index:0 ~cookie:1 ()));
        Scheduler.run env.sched;
        Alcotest.(check string) "first five bytes" "01234" (Bytes.to_string small);
        (match drain_events env.ni1 teq with
        | [ ev ] ->
          Alcotest.(check int) "rlength" 10 ev.Event.rlength;
          Alcotest.(check int) "mlength" 5 ev.Event.mlength
        | _ -> Alcotest.fail "one event");
        (match drain_events env.ni0 ieq with
        | [ _sent; ack ] -> Alcotest.(check int) "ack mlength" 5 ack.Event.mlength
        | _ -> Alcotest.fail "SENT+ACK"));
  ]

let matching_tests =
  [
    Alcotest.test_case "match bits select among entries" `Quick (fun () ->
        let env = setup () in
        let buf_a = Bytes.make 8 '.' and buf_b = Bytes.make 8 '.' in
        let eq_a, _, _ =
          attach_target ~match_bits:(Match_bits.of_int 10)
            ~ignore_bits:Match_bits.zero env.ni1 buf_a
        in
        let eq_b, _, _ =
          attach_target ~match_bits:(Match_bits.of_int 20)
            ~ignore_bits:Match_bits.zero env.ni1 buf_b
        in
        let _, imd = bind_initiator env.ni0 (Bytes.of_string "to-b") in
        ok ~what:"put"
          (Ni.put env.ni0 ~md:imd
             (Ni.op ~target:(proc 1 0) ~portal_index:0 ~cookie:1
                ~match_bits:(Match_bits.of_int 20) ()));
        Scheduler.run env.sched;
        Alcotest.(check int) "a untouched" 0 (List.length (drain_events env.ni1 eq_a));
        Alcotest.(check int) "b hit" 1 (List.length (drain_events env.ni1 eq_b));
        Alcotest.(check string) "data in b" "to-b" (Bytes.sub_string buf_b 0 4);
        (* The walk examined entry a (mismatch) then accepted entry b. *)
        Alcotest.(check int) "entries walked" 2 (Ni.counters env.ni1).Ni.entries_walked);
    Alcotest.test_case "source restriction falls through to next entry" `Quick
      (fun () ->
        let env = setup () in
        let priv = Bytes.make 8 '.' and open_buf = Bytes.make 8 '.' in
        let eq_priv, _, _ =
          attach_target ~match_id:(Match_id.of_proc (proc 3 0)) env.ni1 priv
        in
        let eq_open, _, _ = attach_target env.ni1 open_buf in
        let _, imd = bind_initiator env.ni0 (Bytes.of_string "data") in
        ok ~what:"put"
          (Ni.put env.ni0 ~md:imd
             (Ni.op ~target:(proc 1 0) ~portal_index:0 ~cookie:1 ()));
        Scheduler.run env.sched;
        Alcotest.(check int) "private skipped" 0
          (List.length (drain_events env.ni1 eq_priv));
        Alcotest.(check int) "open entry took it" 1
          (List.length (drain_events env.ni1 eq_open)));
    Alcotest.test_case "me_insert Before takes priority" `Quick (fun () ->
        let env = setup () in
        let late = Bytes.make 8 '.' in
        let eq_late, me_late, _ = attach_target env.ni1 late in
        (* Insert a second catch-all before the existing one. *)
        let early = Bytes.make 8 '.' in
        let eqh = ok ~what:"eq" (Ni.eq_alloc env.ni1 ~capacity:8) in
        let me_early =
          ok ~what:"insert"
            (Ni.me_insert env.ni1 ~base:me_late ~match_id:Match_id.any
               ~match_bits:Match_bits.zero ~ignore_bits:Match_bits.all_ones
               ~pos:`Before ())
        in
        let _ =
          ok ~what:"md_attach"
            (Ni.md_attach env.ni1 ~me:me_early (Ni.md_spec ~eq:eqh early))
        in
        let _, imd = bind_initiator env.ni0 (Bytes.of_string "first") in
        ok ~what:"put"
          (Ni.put env.ni0 ~md:imd
             (Ni.op ~target:(proc 1 0) ~portal_index:0 ~cookie:1 ()));
        Scheduler.run env.sched;
        Alcotest.(check int) "early entry hit" 1
          (List.length (drain_events env.ni1 eqh));
        Alcotest.(check int) "late entry idle" 0
          (List.length (drain_events env.ni1 eq_late)));
    Alcotest.test_case "rejecting first descriptor moves to next entry" `Quick
      (fun () ->
        (* Entry 1 matches but its MD only allows gets; the put must fall
           through to entry 2 (Fig. 4: md reject -> next match entry). *)
        let env = setup () in
        let get_only = { Md.default_options with Md.op_put = false } in
        let eq1, _, _ = attach_target ~options:get_only env.ni1 (Bytes.create 8) in
        let buf2 = Bytes.make 8 '.' in
        let eq2, _, _ = attach_target env.ni1 buf2 in
        let _, imd = bind_initiator env.ni0 (Bytes.of_string "fall") in
        ok ~what:"put"
          (Ni.put env.ni0 ~md:imd
             (Ni.op ~target:(proc 1 0) ~portal_index:0 ~cookie:1 ()));
        Scheduler.run env.sched;
        Alcotest.(check int) "entry1 skipped" 0 (List.length (drain_events env.ni1 eq1));
        Alcotest.(check int) "entry2 accepted" 1 (List.length (drain_events env.ni1 eq2));
        Alcotest.(check string) "data" "fall" (Bytes.sub_string buf2 0 4));
    Alcotest.test_case "locally managed offsets pack a slab" `Quick (fun () ->
        let env = setup () in
        let slab = Bytes.make 32 '.' in
        let options = { Md.default_options with Md.manage_remote = false } in
        let teq, _, mdh = attach_target ~options env.ni1 slab in
        let send s =
          let _, imd = bind_initiator env.ni0 (Bytes.of_string s) in
          ok ~what:"put"
            (Ni.put env.ni0 ~md:imd
               (Ni.op ~target:(proc 1 0) ~portal_index:0 ~cookie:1 ~offset:999 ()))
          (* remote offset must be ignored *)
        in
        send "aaaa";
        send "bb";
        send "cccccc";
        Scheduler.run env.sched;
        Alcotest.(check string) "packed back-to-back" "aaaabbcccccc"
          (Bytes.sub_string slab 0 12);
        let offsets = List.map (fun e -> e.Event.offset) (drain_events env.ni1 teq) in
        Alcotest.(check (list int)) "event offsets" [ 0; 4; 6 ] offsets;
        Alcotest.(check int) "local offset" 12
          (ok ~what:"local_offset" (Ni.md_local_offset env.ni1 mdh)));
  ]

let unlink_tests =
  [
    Alcotest.test_case "threshold unlink cascades to the match entry" `Quick
      (fun () ->
        let env = setup () in
        let buf = Bytes.make 8 '.' in
        let _, meh, mdh =
          attach_target ~threshold:(Md.Count 1) ~unlink:Md.Unlink
            ~me_unlink:Md.Unlink env.ni1 buf
        in
        let send s =
          let _, imd = bind_initiator env.ni0 (Bytes.of_string s) in
          ok ~what:"put"
            (Ni.put env.ni0 ~md:imd ~ack:false
               (Ni.op ~target:(proc 1 0) ~portal_index:0 ~cookie:1 ()))
        in
        send "one!";
        Scheduler.run env.sched;
        Alcotest.(check string) "first delivered" "one!" (Bytes.sub_string buf 0 4);
        (* MD and ME are gone now. *)
        expect_err Errors.Invalid_md ~what:"md gone" (Ni.md_active env.ni1 mdh);
        expect_err Errors.Invalid_me ~what:"me gone" (Ni.me_md_count env.ni1 meh);
        send "two!";
        Scheduler.run env.sched;
        Alcotest.(check string) "second not delivered" "one!"
          (Bytes.sub_string buf 0 4);
        Alcotest.(check int) "dropped as no-match" 1
          (Ni.dropped env.ni1 Ni.No_match));
    Alcotest.test_case "retained descriptor stays linked but inactive" `Quick
      (fun () ->
        let env = setup () in
        let _, meh, mdh =
          attach_target ~threshold:(Md.Count 1) ~unlink:Md.Retain env.ni1
            (Bytes.create 8)
        in
        let send () =
          let _, imd = bind_initiator env.ni0 (Bytes.of_string "x") in
          ok ~what:"put"
            (Ni.put env.ni0 ~md:imd ~ack:false
               (Ni.op ~target:(proc 1 0) ~portal_index:0 ~cookie:1 ()))
        in
        send ();
        Scheduler.run env.sched;
        Alcotest.(check bool) "inactive" false
          (ok ~what:"active" (Ni.md_active env.ni1 mdh));
        Alcotest.(check int) "still attached" 1
          (ok ~what:"count" (Ni.me_md_count env.ni1 meh));
        send ();
        Scheduler.run env.sched;
        Alcotest.(check int) "second dropped" 1 (Ni.dropped env.ni1 Ni.No_match));
    Alcotest.test_case "md_unlink refuses while a reply is pending" `Quick
      (fun () ->
        let env = setup () in
        let _ = attach_target env.ni1 (Bytes.of_string "remote-data-here") in
        let _, imd = bind_initiator env.ni0 (Bytes.create 4) in
        ok ~what:"get"
          (Ni.get env.ni0 ~md:imd
             (Ni.op ~target:(proc 1 0) ~portal_index:0 ~cookie:1 ()));
        (* Before running the simulation the reply is outstanding. *)
        expect_err Errors.Md_in_use ~what:"unlink pending" (Ni.md_unlink env.ni0 imd);
        Scheduler.run env.sched;
        ok ~what:"unlink after reply" (Ni.md_unlink env.ni0 imd));
    Alcotest.test_case "initiator md with threshold 2 self-cleans after ack"
      `Quick (fun () ->
        let env = setup () in
        let _ = attach_target env.ni1 (Bytes.create 16) in
        let _, imd =
          bind_initiator ~threshold:(Md.Count 2) ~unlink:Md.Unlink env.ni0
            (Bytes.of_string "self-cleaning")
        in
        ok ~what:"put"
          (Ni.put env.ni0 ~md:imd
             (Ni.op ~target:(proc 1 0) ~portal_index:0 ~cookie:1 ()));
        Scheduler.run env.sched;
        (* SENT consumed one unit, ACK the second: the MD is gone. *)
        expect_err Errors.Invalid_md ~what:"auto-unlinked" (Ni.md_active env.ni0 imd));
    Alcotest.test_case "me_unlink frees entry and descriptors" `Quick (fun () ->
        let env = setup () in
        let _, meh, mdh = attach_target env.ni1 (Bytes.create 8) in
        ok ~what:"me_unlink" (Ni.me_unlink env.ni1 meh);
        expect_err Errors.Invalid_me ~what:"me gone" (Ni.me_md_count env.ni1 meh);
        expect_err Errors.Invalid_md ~what:"md gone" (Ni.md_active env.ni1 mdh);
        (* Messages now drop at translation. *)
        let _, imd = bind_initiator env.ni0 (Bytes.of_string "x") in
        ok ~what:"put"
          (Ni.put env.ni0 ~md:imd ~ack:false
             (Ni.op ~target:(proc 1 0) ~portal_index:0 ~cookie:1 ()));
        Scheduler.run env.sched;
        Alcotest.(check int) "no match" 1 (Ni.dropped env.ni1 Ni.No_match));
  ]

(* Match-list model: random attach/insert/unlink sequences on one portal,
   checked against a plain list of entry ids. Each entry matches exactly
   one of four keys, so duplicates exercise first-match-wins; one-shot
   entries (Count 1 + Unlink on both MD and ME) leave the list when a
   probe consumes them. After every step a probe put must land in the
   entry the model predicts, and the walk must examine exactly the
   entries in front of it (or the whole list on a miss). *)
type mop =
  | Attach of [ `Head | `Tail ] * int * bool (* pos, key, one-shot *)
  | Insert of [ `Before | `After ] * int * int * bool (* pos, base, key, one-shot *)
  | Unlink of int (* index into the list *)

let pp_step (mop, probe) =
  let shot o = if o then "!" else "" in
  (match mop with
  | Attach (`Head, k, o) -> Printf.sprintf "head k%d%s" k (shot o)
  | Attach (`Tail, k, o) -> Printf.sprintf "tail k%d%s" k (shot o)
  | Insert (`Before, i, k, o) -> Printf.sprintf "before #%d k%d%s" i k (shot o)
  | Insert (`After, i, k, o) -> Printf.sprintf "after #%d k%d%s" i k (shot o)
  | Unlink i -> Printf.sprintf "unlink #%d" i)
  ^ Printf.sprintf " / put k%d" probe

let gen_steps =
  let open QCheck.Gen in
  let key = int_range 0 3 in
  let mop =
    frequency
      [
        ( 3,
          map3
            (fun head k o -> Attach ((if head then `Head else `Tail), k, o))
            bool key bool );
        ( 3,
          bool >>= fun before ->
          small_nat >>= fun i ->
          map2
            (fun k o -> Insert ((if before then `Before else `After), i, k, o))
            key bool );
        (1, map (fun i -> Unlink i) small_nat);
      ]
  in
  list_size (int_range 1 40) (pair mop key)

let run_match_list_model steps =
  let env = setup () in
  let eqh = ok ~what:"eq_alloc" (Ni.eq_alloc env.ni1 ~capacity:64) in
  let imd =
    ok ~what:"md_bind" (Ni.md_bind env.ni0 (Ni.md_spec (Bytes.of_string "x")))
  in
  let entries = Hashtbl.create 16 in (* id -> (key, one-shot, handle) *)
  let key id = let k, _, _ = Hashtbl.find entries id in k in
  let model = ref [] in
  let next_id = ref 0 in
  let add ~key ~oneshot attach =
    let id = !next_id in
    incr next_id;
    let threshold, unlink =
      if oneshot then (Md.Count 1, Md.Unlink) else (Md.Infinite, Md.Retain)
    in
    let meh =
      ok ~what:"attach"
        (attach ~match_id:Match_id.any ~match_bits:(Match_bits.of_int key)
           ~ignore_bits:Match_bits.zero ~unlink)
    in
    ignore
      (ok ~what:"md_attach"
         (Ni.md_attach env.ni1 ~me:meh
            (Ni.md_spec ~threshold ~unlink ~eq:eqh ~user_ptr:id (Bytes.create 8))));
    Hashtbl.replace entries id (key, oneshot, meh);
    id
  in
  let nth i = List.nth !model (i mod List.length !model) in
  let insert_at ~base ~after id =
    model :=
      List.concat_map
        (fun x ->
          if x <> base then [ x ] else if after then [ x; id ] else [ id; x ])
        !model
  in
  let apply = function
    | Attach (pos, k, oneshot) ->
      let id =
        add ~key:k ~oneshot (fun ~match_id ~match_bits ~ignore_bits ~unlink ->
            Ni.me_attach env.ni1 ~portal_index:0 ~match_id ~match_bits
              ~ignore_bits ~unlink ~pos ())
      in
      model := if pos = `Head then id :: !model else !model @ [ id ]
    | Insert (_, _, _, _) | Unlink _ when !model = [] -> ()
    | Insert (pos, i, k, oneshot) ->
      let base = nth i in
      let _, _, base_h = Hashtbl.find entries base in
      let id =
        add ~key:k ~oneshot (fun ~match_id ~match_bits ~ignore_bits ~unlink ->
            Ni.me_insert env.ni1 ~base:base_h ~match_id ~match_bits
              ~ignore_bits ~unlink ~pos ())
      in
      insert_at ~base ~after:(pos = `After) id
    | Unlink i ->
      let id = nth i in
      let _, _, h = Hashtbl.find entries id in
      ok ~what:"me_unlink" (Ni.me_unlink env.ni1 h);
      model := List.filter (( <> ) id) !model
  in
  let probe k =
    let entries_walked () = (Ni.counters env.ni1).Ni.entries_walked in
    let before = entries_walked () in
    ok ~what:"put"
      (Ni.put env.ni0 ~md:imd ~ack:false
         (Ni.op ~target:(proc 1 0) ~portal_index:0 ~cookie:1
            ~match_bits:(Match_bits.of_int k) ()));
    Scheduler.run env.sched;
    let walked = entries_walked () - before in
    let rec first pos = function
      | [] -> None
      | id :: rest -> if key id = k then Some (pos, id) else first (pos + 1) rest
    in
    match (first 1 !model, drain_events env.ni1 eqh) with
    | None, [] -> walked = List.length !model
    | Some (pos, id), [ ev ] ->
      let _, oneshot, _ = Hashtbl.find entries id in
      if oneshot then model := List.filter (( <> ) id) !model;
      ev.Event.md_user_ptr = id && walked = pos
    | _ -> false
  in
  List.for_all
    (fun (mop, k) ->
      apply mop;
      probe k)
    steps

let model_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"match list agrees with a list model" ~count:150
         (QCheck.make gen_steps
            ~print:(fun steps -> String.concat "; " (List.map pp_step steps)))
         run_match_list_model);
  ]

let drop_tests =
  [
    Alcotest.test_case "invalid portal index" `Quick (fun () ->
        let env = setup () in
        let _, imd = bind_initiator env.ni0 (Bytes.of_string "x") in
        ok ~what:"put"
          (Ni.put env.ni0 ~md:imd ~ack:false
             (Ni.op ~target:(proc 1 0) ~portal_index:4999 ~cookie:1 ()));
        Scheduler.run env.sched;
        Alcotest.(check int) "dropped" 1 (Ni.dropped env.ni1 Ni.Invalid_portal_index));
    Alcotest.test_case "unset access control cookie" `Quick (fun () ->
        let env = setup () in
        let _ = attach_target env.ni1 (Bytes.create 8) in
        let _, imd = bind_initiator env.ni0 (Bytes.of_string "x") in
        ok ~what:"put"
          (Ni.put env.ni0 ~md:imd ~ack:false
             (Ni.op ~target:(proc 1 0) ~portal_index:0 ~cookie:9 ()));
        Scheduler.run env.sched;
        Alcotest.(check int) "dropped" 1 (Ni.dropped env.ni1 Ni.Acl_bad_cookie));
    Alcotest.test_case "access control id mismatch" `Quick (fun () ->
        let env = setup () in
        let _ = attach_target env.ni1 (Bytes.create 8) in
        (match
           Acl.set (Ni.acl env.ni1) 2
             { Acl.allowed_id = Match_id.of_proc (proc 3 3); allowed_portal = None }
         with
        | Ok () -> ()
        | Error _ -> Alcotest.fail "acl set");
        let _, imd = bind_initiator env.ni0 (Bytes.of_string "x") in
        ok ~what:"put"
          (Ni.put env.ni0 ~md:imd ~ack:false
             (Ni.op ~target:(proc 1 0) ~portal_index:0 ~cookie:2 ()));
        Scheduler.run env.sched;
        Alcotest.(check int) "dropped" 1 (Ni.dropped env.ni1 Ni.Acl_id_mismatch));
    Alcotest.test_case "access control portal mismatch" `Quick (fun () ->
        let env = setup () in
        let _ = attach_target env.ni1 (Bytes.create 8) in
        (match
           Acl.set (Ni.acl env.ni1) 3
             { Acl.allowed_id = Match_id.any; allowed_portal = Some 7 }
         with
        | Ok () -> ()
        | Error _ -> Alcotest.fail "acl set");
        let _, imd = bind_initiator env.ni0 (Bytes.of_string "x") in
        ok ~what:"put"
          (Ni.put env.ni0 ~md:imd ~ack:false
             (Ni.op ~target:(proc 1 0) ~portal_index:0 ~cookie:3 ()));
        Scheduler.run env.sched;
        Alcotest.(check int) "dropped" 1 (Ni.dropped env.ni1 Ni.Acl_portal_mismatch));
    Alcotest.test_case "no matching entry" `Quick (fun () ->
        let env = setup () in
        (* An entry that requires different bits. *)
        let _ =
          attach_target ~match_bits:(Match_bits.of_int 5)
            ~ignore_bits:Match_bits.zero env.ni1 (Bytes.create 8)
        in
        let _, imd = bind_initiator env.ni0 (Bytes.of_string "x") in
        ok ~what:"put"
          (Ni.put env.ni0 ~md:imd ~ack:false
             (Ni.op ~target:(proc 1 0) ~portal_index:0 ~cookie:1
                ~match_bits:(Match_bits.of_int 6) ()));
        Scheduler.run env.sched;
        Alcotest.(check int) "dropped" 1 (Ni.dropped env.ni1 Ni.No_match));
    Alcotest.test_case "too-long message without truncate is rejected" `Quick
      (fun () ->
        let env = setup () in
        let _ = attach_target env.ni1 (Bytes.create 4) in
        let _, imd = bind_initiator env.ni0 (Bytes.of_string "way too long") in
        ok ~what:"put"
          (Ni.put env.ni0 ~md:imd ~ack:false
             (Ni.op ~target:(proc 1 0) ~portal_index:0 ~cookie:1 ()));
        Scheduler.run env.sched;
        Alcotest.(check int) "dropped" 1 (Ni.dropped env.ni1 Ni.No_match));
    Alcotest.test_case "stray ack with unknown event queue" `Quick (fun () ->
        let env = setup () in
        let put =
          Wire.put_request ~initiator:(proc 1 0) ~target:(proc 0 0)
            ~portal_index:0 ~cookie:1 ~match_bits:Match_bits.zero ~offset:0
            ~md_handle:Handle.none
            ~eq_handle:(Handle.of_wire 0x7777) ~data:Bytes.empty ()
        in
        let stray = Wire.ack_of_put put ~mlength:0 in
        env.tp.Simnet.Transport.send ~src:(proc 1 0) ~dst:(proc 0 0)
          (Wire.encode ~integrity:false stray);
        Scheduler.run env.sched;
        Alcotest.(check int) "dropped" 1 (Ni.dropped env.ni0 Ni.Ack_no_eq));
    Alcotest.test_case "stray reply with unknown descriptor" `Quick (fun () ->
        let env = setup () in
        let get =
          Wire.get_request ~initiator:(proc 1 0) ~target:(proc 0 0)
            ~portal_index:0 ~cookie:1 ~match_bits:Match_bits.zero ~offset:0
            ~md_handle:(Handle.of_wire 0x1234) ~rlength:3 ()
        in
        let stray = Wire.reply_of_get get ~mlength:3 ~data:(Bytes.of_string "xyz") in
        env.tp.Simnet.Transport.send ~src:(proc 1 0) ~dst:(proc 0 0)
          (Wire.encode ~integrity:false stray);
        Scheduler.run env.sched;
        Alcotest.(check int) "dropped" 1 (Ni.dropped env.ni0 Ni.Reply_no_md));
    Alcotest.test_case "reply to a full event queue is dropped" `Quick (fun () ->
        let env = setup () in
        let _ = attach_target env.ni1 (Bytes.of_string "abcdefgh") in
        (* Initiator MD with a capacity-1 EQ; stuff the EQ before the reply
           arrives so the reply finds it full. *)
        let eqh, imd = bind_initiator ~eq_capacity:1 env.ni0 (Bytes.create 4) in
        let q = ok ~what:"eq" (Ni.eq env.ni0 eqh) in
        ok ~what:"get"
          (Ni.get env.ni0 ~md:imd
             (Ni.op ~target:(proc 1 0) ~portal_index:0 ~cookie:1 ()));
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
          (Ni.dropped env.ni0 Ni.Reply_eq_full));
    Alcotest.test_case "malformed bytes are counted" `Quick (fun () ->
        let env = setup () in
        env.tp.Simnet.Transport.send ~src:(proc 1 0) ~dst:(proc 0 0)
          (Bytes.of_string "garbage!");
        Scheduler.run env.sched;
        Alcotest.(check int) "dropped" 1 (Ni.dropped env.ni0 Ni.Malformed));
    Alcotest.test_case "shutdown unregisters from the fabric" `Quick (fun () ->
        let env = setup () in
        Ni.shutdown env.ni1;
        let _, imd = bind_initiator env.ni0 (Bytes.of_string "x") in
        ok ~what:"put"
          (Ni.put env.ni0 ~md:imd ~ack:false
             (Ni.op ~target:(proc 1 0) ~portal_index:0 ~cookie:1 ()));
        Scheduler.run env.sched;
        Alcotest.(check int) "fabric drop" 1
          (Simnet.Fabric.stats env.fabric).Simnet.Fabric.drops_unregistered;
        Alcotest.(check int) "ni saw nothing" 0 (Ni.dropped_total env.ni1));
    Alcotest.test_case "a negative remote offset is rejected, not raised" `Quick
      (fun () ->
        (* A damaged or hostile request can name an offset before the
           region; the descriptor rejects it like any request that does
           not fit, instead of the deposit raising inside the engine. *)
        let env = setup () in
        let buffer = Bytes.make 8 '.' in
        let eqh, _, _ = attach_target env.ni1 buffer in
        let _, imd = bind_initiator env.ni0 (Bytes.of_string "abcd") in
        ok ~what:"put"
          (Ni.put env.ni0 ~md:imd ~ack:false
             (Ni.op ~target:(proc 1 0) ~portal_index:0 ~cookie:1 ~offset:(-4) ()));
        ok ~what:"get"
          (Ni.get env.ni0 ~md:imd
             (Ni.op ~target:(proc 1 0) ~portal_index:0 ~cookie:1 ~offset:(-4) ()));
        Scheduler.run env.sched;
        Alcotest.(check int) "both dropped" 2 (Ni.dropped env.ni1 Ni.No_match);
        Alcotest.(check int) "no target event" 0 (List.length (drain_events env.ni1 eqh));
        Alcotest.(check string) "memory untouched" "........" (Bytes.to_string buffer));
  ]

let bypass_tests =
  [
    Alcotest.test_case "target application never runs (offload)" `Quick
      (fun () ->
        (* No fiber is ever spawned for the target process; delivery is
           driven entirely by arrival events — application bypass. *)
        let env = setup () in
        let buf = Bytes.make 16 '.' in
        let teq, _, _ = attach_target env.ni1 buf in
        let _, imd = bind_initiator env.ni0 (Bytes.of_string "bypassed") in
        ok ~what:"put"
          (Ni.put env.ni0 ~md:imd
             (Ni.op ~target:(proc 1 0) ~portal_index:0 ~cookie:1 ()));
        Scheduler.run env.sched;
        Alcotest.(check string) "delivered with no target activity" "bypassed"
          (Bytes.sub_string buf 0 8);
        Alcotest.(check int) "event logged" 1 (List.length (drain_events env.ni1 teq));
        let cpu =
          Simnet.Node.host_cpu
            (Simnet.Fabric.node env.tp.Simnet.Transport.fabric 1)
        in
        Alcotest.(check int) "host cpu untouched" 0 (Cpu.stolen_total cpu));
    Alcotest.test_case "kernel transport charges the target host" `Quick
      (fun () ->
        let env = setup ~profile:Simnet.Profile.myrinet_kernel ~kind:`Kernel () in
        let _ = attach_target env.ni1 (Bytes.make 16 '.') in
        let _, imd = bind_initiator env.ni0 (Bytes.of_string "interrupting") in
        ok ~what:"put"
          (Ni.put env.ni0 ~md:imd
             (Ni.op ~target:(proc 1 0) ~portal_index:0 ~cookie:1 ()));
        Scheduler.run env.sched;
        let cpu =
          Simnet.Node.host_cpu
            (Simnet.Fabric.node env.tp.Simnet.Transport.fabric 1)
        in
        Alcotest.(check bool) "host cycles stolen" true (Cpu.stolen_total cpu > 0));
    Alcotest.test_case "events are delayed by processing costs" `Quick (fun () ->
        let env = setup () in
        let teq, _, _ = attach_target env.ni1 (Bytes.make 65536 '.') in
        let _, imd = bind_initiator env.ni0 (Bytes.make 50_000 'x') in
        ok ~what:"put"
          (Ni.put env.ni0 ~md:imd
             (Ni.op ~target:(proc 1 0) ~portal_index:0 ~cookie:1 ()));
        Scheduler.run env.sched;
        match drain_events env.ni1 teq with
        | [ ev ] ->
          let profile = Simnet.Profile.myrinet_mcp in
          let min_time = Simnet.Profile.tx_time profile 50_000 in
          Alcotest.(check bool) "after serialisation at least" true
            (ev.Event.time > min_time)
        | _ -> Alcotest.fail "one event");
  ]

let ordering_tests =
  [
    Alcotest.test_case "many puts preserve order end to end" `Quick (fun () ->
        let env = setup () in
        let slab = Bytes.make 4096 '.' in
        let options = { Md.default_options with Md.manage_remote = false } in
        let teq, _, _ = attach_target ~options ~eq_capacity:256 env.ni1 slab in
        let expect = Buffer.create 256 in
        for i = 0 to 25 do
          let s = Printf.sprintf "<%02d>" i in
          Buffer.add_string expect s;
          let _, imd = bind_initiator env.ni0 (Bytes.of_string s) in
          ok ~what:"put"
            (Ni.put env.ni0 ~md:imd ~ack:false
               (Ni.op ~target:(proc 1 0) ~portal_index:0 ~cookie:1 ()))
        done;
        Scheduler.run env.sched;
        let total = Buffer.length expect in
        Alcotest.(check string) "concatenated in order" (Buffer.contents expect)
          (Bytes.sub_string slab 0 total);
        let evs = drain_events env.ni1 teq in
        Alcotest.(check int) "all events" 26 (List.length evs);
        let offsets = List.map (fun e -> e.Event.offset) evs in
        let sorted = List.sort compare offsets in
        Alcotest.(check (list int)) "monotone offsets" sorted offsets);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"random puts land contiguously" ~count:60
         QCheck.(list_of_size Gen.(int_range 0 20) (int_range 0 200))
         (fun sizes ->
           let env = setup () in
           let slab = Bytes.make 8192 '.' in
           let options =
             { Md.default_options with Md.manage_remote = false; truncate = true }
           in
           let teq, _, _ = attach_target ~options ~eq_capacity:64 env.ni1 slab in
           List.iteri
             (fun i len ->
               let payload = Bytes.make len (Char.chr (65 + (i mod 26))) in
               let _, imd = bind_initiator env.ni0 payload in
               ok ~what:"put"
                 (Ni.put env.ni0 ~md:imd ~ack:false
                    (Ni.op ~target:(proc 1 0) ~portal_index:0 ~cookie:1 ())))
             sizes;
           Scheduler.run env.sched;
           let evs = drain_events env.ni1 teq in
           let total = List.fold_left ( + ) 0 sizes in
           List.length evs = List.length sizes
           && List.fold_left (fun acc e -> acc + e.Event.mlength) 0 evs = total));
  ]

let eq_overflow_tests =
  [
    Alcotest.test_case "event overflow loses events, not data" `Quick (fun () ->
        let env = setup () in
        let slab = Bytes.make 64 '.' in
        let options = { Md.default_options with Md.manage_remote = false } in
        let teq, _, _ = attach_target ~options ~eq_capacity:2 env.ni1 slab in
        for _ = 1 to 4 do
          let _, imd = bind_initiator env.ni0 (Bytes.of_string "zz") in
          ok ~what:"put"
            (Ni.put env.ni0 ~md:imd ~ack:false
               (Ni.op ~target:(proc 1 0) ~portal_index:0 ~cookie:1 ()))
        done;
        Scheduler.run env.sched;
        Alcotest.(check string) "all data landed" "zzzzzzzz"
          (Bytes.sub_string slab 0 8);
        let q = ok ~what:"eq" (Ni.eq env.ni1 teq) in
        Alcotest.(check int) "two events kept" 2 (Event.Queue.count q);
        Alcotest.(check int) "two dropped" 2 (Event.Queue.dropped q);
        Alcotest.(check int) "no message drops" 0 (Ni.dropped_total env.ni1));
    Alcotest.test_case "a freed event queue's handle is invalid" `Quick
      (fun () ->
        (* PtlEQFree: the handle stops resolving, cannot be bound to a new
           descriptor, and cannot be freed twice. *)
        let env = setup () in
        let eqh = ok ~what:"eq_alloc" (Ni.eq_alloc env.ni0 ~capacity:4) in
        ok ~what:"eq_free" (Ni.eq_free env.ni0 eqh);
        expect_err Errors.Invalid_eq ~what:"eq after free" (Ni.eq env.ni0 eqh);
        expect_err Errors.Invalid_eq ~what:"md_bind after free"
          (Ni.md_bind env.ni0 (Ni.md_spec ~eq:eqh (Bytes.create 8)));
        expect_err Errors.Invalid_eq ~what:"second eq_free"
          (Ni.eq_free env.ni0 eqh));
  ]

let counter_tests =
  [
    Alcotest.test_case "interface counters tally activity" `Quick (fun () ->
        let env = setup () in
        let _ = attach_target env.ni1 (Bytes.of_string "0123456789") in
        let _, imd = bind_initiator env.ni0 (Bytes.of_string "abc") in
        ok ~what:"put"
          (Ni.put env.ni0 ~md:imd
             (Ni.op ~target:(proc 1 0) ~portal_index:0 ~cookie:1 ()));
        let _, gmd = bind_initiator env.ni0 (Bytes.create 4) in
        ok ~what:"get"
          (Ni.get env.ni0 ~md:gmd
             (Ni.op ~target:(proc 1 0) ~portal_index:0 ~cookie:1 ()));
        Scheduler.run env.sched;
        let c0 = Ni.counters env.ni0 and c1 = Ni.counters env.ni1 in
        Alcotest.(check int) "puts" 1 c0.Ni.puts_initiated;
        Alcotest.(check int) "gets" 1 c0.Ni.gets_initiated;
        Alcotest.(check int) "acks" 1 c1.Ni.acks_sent;
        Alcotest.(check int) "replies" 1 c1.Ni.replies_sent;
        Alcotest.(check int) "received put+get" 2 c1.Ni.messages_received;
        Alcotest.(check int) "received ack+reply" 2 c0.Ni.messages_received;
        Alcotest.(check int) "translations" 2 c1.Ni.translations;
        Alcotest.(check bool) "entries walked" true (c1.Ni.entries_walked >= 2));
    Alcotest.test_case "a re-created NI publishes only its own counters" `Quick
      (fun () ->
        let env = setup () in
        let put_to_1 () =
          let _, imd = bind_initiator env.ni0 (Bytes.of_string "abc") in
          ok ~what:"put"
            (Ni.put env.ni0 ~md:imd
               (Ni.op ~target:(proc 1 0) ~portal_index:0 ~cookie:1 ()));
          Scheduler.run env.sched
        in
        let _ = attach_target env.ni1 (Bytes.create 16) in
        put_to_1 ();
        put_to_1 ();
        Ni.shutdown env.ni1;
        let ni1 = Ni.create env.tp ~id:(proc 1 0) () in
        let _ = attach_target ni1 (Bytes.create 16) in
        put_to_1 ();
        let snap = Metrics.snapshot (Scheduler.metrics env.sched) in
        let values name labels =
          List.filter_map
            (fun (e : Metrics.Snapshot.entry) ->
              match e.Metrics.Snapshot.value with
              | Metrics.Snapshot.Gauge v when e.Metrics.Snapshot.labels = labels -> Some v
              | _ -> None)
            (Metrics.Snapshot.filter snap name)
        in
        Alcotest.(check (list (float 0.))) "one rx entry, the new NI's" [ 1. ]
          (values "ni.rx_messages" [ ("proc", "1:0") ]);
        Alcotest.(check (list (float 0.))) "one posted entry, the new EQ's" [ 1. ]
          (values "eq.posted" [ ("eq", "1:0#0") ]);
        Alcotest.(check (list (float 0.))) "old NI's sender side untouched" [ 3. ]
          (values "ni.puts" [ ("proc", "0:0") ]));
  ]

(* Reserved regions: descriptors whose memory the NI creates on first
   touch, and the MPI unexpected-message slabs built on them. *)
let reserved_tests =
  let reserved_target ni r =
    let eqh = ok ~what:"eq_alloc" (Ni.eq_alloc ni ~capacity:8) in
    let meh =
      ok ~what:"me_attach"
        (Ni.me_attach ni ~portal_index:0 ~match_id:Match_id.any
           ~match_bits:Match_bits.zero ~ignore_bits:Match_bits.all_ones
           ~unlink:Md.Retain ())
    in
    let mdh =
      ok ~what:"md_attach" (Ni.md_attach ni ~me:meh (Ni.md_spec_reserved ~eq:eqh r))
    in
    (eqh, mdh)
  in
  [
    Alcotest.test_case "a put lands at its offset in a reserved MD" `Quick
      (fun () ->
        let env = setup () in
        let r = Md.reserve 64 in
        let teq, tmd = reserved_target env.ni1 r in
        Alcotest.(check bool) "no memory before the put" false (Md.backed r);
        let _, imd = bind_initiator env.ni0 (Bytes.of_string "landed") in
        ok ~what:"put"
          (Ni.put env.ni0 ~md:imd ~ack:false
             (Ni.op ~target:(proc 1 0) ~portal_index:0 ~cookie:1 ~offset:40 ()));
        Scheduler.run env.sched;
        Alcotest.(check bool) "memory after the put" true (Md.backed r);
        (match drain_events env.ni1 teq with
        | [ ev ] ->
          Alcotest.(check int) "offset" 40 ev.Event.offset;
          Alcotest.(check int) "mlength" 6 ev.Event.mlength
        | evs -> Alcotest.failf "%d target events" (List.length evs));
        let got = Bytes.make 8 '.' in
        ok ~what:"md_read"
          (Ni.md_read env.ni1 tmd ~offset:40 ~len:6 ~dst:got ~dst_off:1);
        Alcotest.(check string) "read back" ".landed." (Bytes.to_string got));
    Alcotest.test_case "reading a never-written reserved MD does not raise"
      `Quick (fun () ->
        let env = setup () in
        let r = Md.reserve 32 in
        let _, tmd = reserved_target env.ni1 r in
        let dst = Bytes.create 32 in
        ok ~what:"md_read" (Ni.md_read env.ni1 tmd ~offset:0 ~len:32 ~dst ~dst_off:0);
        Alcotest.(check bool) "the read created the memory" true (Md.backed r);
        expect_err Errors.Invalid_arg ~what:"read past the end"
          (Ni.md_read env.ni1 tmd ~offset:30 ~len:4 ~dst ~dst_off:0);
        expect_err Errors.Invalid_arg ~what:"read past the destination"
          (Ni.md_read env.ni1 tmd ~offset:0 ~len:4 ~dst ~dst_off:30));
    Alcotest.test_case
      "unexpected eager data and rendezvous headers round-trip through \
       reserved slabs across rearms" `Quick (fun () ->
        let module MP = Mpi.Mpi_portals in
        let env = setup () in
        (* Two 256-byte slabs; a slab re-arms once more than
           256 - (64 + 16) bytes of it are used and all claimed. One
           round is four 60-byte eager messages plus one rendezvous
           header (16 bytes): exactly one slab. Three rounds fit only
           if both slabs re-arm, the third landing in slab 0's second
           descriptor over the same memory. *)
        let config =
          { MP.default_config with MP.eager_threshold = 64; slab_size = 256; slab_count = 2 }
        in
        (* Nodes 0 and 1 already hold [setup]'s interfaces. *)
        let ranks = [| proc 2 0; proc 3 0 |] in
        let eps = Array.init 2 (fun rank -> MP.create env.tp ~ranks ~rank ~config ()) in
        let rounds = 3 in
        let message round i =
          Bytes.init
            (if i = 4 then 200 else 60)
            (fun j -> Char.chr (((round * 50) + (i * 7) + j) land 255))
        in
        let claimed = ref 0 in
        let gap = Time_ns.us 500. in
        Scheduler.spawn env.sched (fun () ->
            for round = 1 to rounds do
              let sends =
                List.init 5 (fun i -> Mpi.isend eps.(0) ~dst:1 ~tag:i (message round i))
              in
              List.iter (fun r -> ignore (Mpi.wait eps.(0) r)) sends;
              Scheduler.delay env.sched gap
            done);
        Scheduler.spawn env.sched (fun () ->
            for round = 1 to rounds do
              (* The sender starts a round [gap] after the last one
                 completed: all of it lands before any receive is
                 posted, so all of it is unexpected. *)
              Scheduler.delay env.sched (Time_ns.add gap (Time_ns.us 200.));
              for i = 0 to 4 do
                let want = message round i in
                let buf = Bytes.create (Bytes.length want) in
                let st = Mpi.wait eps.(1) (Mpi.irecv eps.(1) ~source:0 ~tag:i buf) in
                Alcotest.(check int) "length" (Bytes.length want) st.Mpi.length;
                Alcotest.(check string)
                  (Printf.sprintf "round %d message %d" round i)
                  (Bytes.to_string want) (Bytes.to_string buf);
                incr claimed
              done
            done);
        Scheduler.run env.sched;
        Alcotest.(check int) "every message claimed" (5 * rounds) !claimed;
        Alcotest.(check int) "every eager byte was unexpected" 240
          (MP.unexpected_bytes_highwater eps.(1)));
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

let check_budget what ~budget words =
  if words > budget then
    Alcotest.failf "%s allocates %.1f words, over its budget of %.0f" what words
      budget

(* Allocation budgets of the initiator's and the target's halves of a
   put. The measured values are on OCaml 5.1.1; the budgets leave room
   for other compiler versions. *)
let words_tests =
  [
    Alcotest.test_case "Ni.put of 16 bytes costs at most 30 words" `Quick
      (fun () ->
        (* 75 words before the header was written straight from the op;
           20 since: the wire image and the transport's closure. *)
        let env = setup () in
        let md =
          ok ~what:"md_bind"
            (Ni.md_bind env.ni0
               (Ni.md_spec
                  ~options:{ Md.default_options with Md.ack_disable = true }
                  (Bytes.make 16 'p')))
        in
        let o =
          Ni.op ~target:(proc 1 0) ~portal_index:0
            ~match_bits:(Match_bits.of_int 42) ()
        in
        let put () = ok ~what:"put" (Ni.put env.ni0 ~md ~ack:false o) in
        (* Warm up to the measured depth, so the engine's queue has
           already grown. *)
        for _ = 1 to 1000 do
          put ()
        done;
        Scheduler.run env.sched;
        check_budget "Ni.put" ~budget:30. (words_per ~n:1000 put);
        Scheduler.run env.sched);
    Alcotest.test_case "decode_view of a 16-byte put costs at most 28 words"
      `Quick (fun () ->
        (* 41 words with boxed handles, addresses and local closures; 21
           since (the record, its [Ok] and the match bits). *)
        let src = proc 0 0 and dst = proc 1 0 in
        let image =
          Wire.encode ~integrity:false
            (Wire.put_request ~initiator:src ~target:dst ~portal_index:0
               ~cookie:0 ~match_bits:(Match_bits.of_int 42) ~offset:0
               ~md_handle:Handle.none ~eq_handle:Handle.none
               ~data:(Bytes.make 16 'p') ())
        in
        let decode () =
          match Wire.decode_view ~integrity:false ~src ~dst image with
          | Ok msg -> ignore (Sys.opaque_identity msg)
          | Error _ -> Alcotest.fail "decode"
        in
        check_budget "decode_view" ~budget:28. (words_per ~n:1000 decode));
  ]

let () =
  Alcotest.run "portals_ni"
    [
      ("put_get", put_get_tests);
      ("matching", matching_tests);
      ("unlink", unlink_tests);
      ("model", model_tests);
      ("drops", drop_tests);
      ("bypass", bypass_tests);
      ("ordering", ordering_tests);
      ("eq_overflow", eq_overflow_tests);
      ("counters", counter_tests);
      ("reserved", reserved_tests);
      ("words", words_tests);
    ]
