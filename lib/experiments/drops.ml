open Sim_engine
module P = Portals

type row = { reason : string; count : int }

let pt_bench = 9

let bind_payload ni payload =
  P.Errors.ok_exn ~op:"bind"
    (P.Ni.md_bind ni
       (P.Ni.md_spec
          ~options:{ P.Md.default_options with P.Md.ack_disable = true }
          ~threshold:(P.Md.Count 1) ~unlink:P.Md.Unlink payload))

let put ni ~target ~portal_index ~cookie payload =
  let mdh = bind_payload ni payload in
  P.Errors.ok_exn ~op:"put"
    (P.Ni.put ni ~md:mdh ~ack:false (P.Ni.op ~target ~portal_index ~cookie ()))

let run ?scenario () =
  let world = Runtime.create_world ?scenario ~nodes:2 () in
  (* Each rank's NI, and every hand-built frame it sends, goes through
     its own shard's transport. *)
  let tp0 = Runtime.transport_of_rank world 0 in
  let tp1 = Runtime.transport_of_rank world 1 in
  (* Hand-built frames are encoded the way the world's NIs encode. *)
  let encode msg =
    P.Wire.encode
      ~integrity:(Simnet.Fabric.integrity tp0.Simnet.Transport.fabric)
      msg
  in
  let r0 = world.Runtime.ranks.(0) and r1 = world.Runtime.ranks.(1) in
  let ni0 = P.Ni.create tp0 ~id:r0 () in
  let ni1 = P.Ni.create tp1 ~id:r1 () in
  (* A small target region so over-long sends have somewhere to fail. *)
  let meh =
    P.Errors.ok_exn ~op:"me"
      (P.Ni.me_attach ni1 ~portal_index:pt_bench ~match_id:P.Match_id.any
         ~match_bits:P.Match_bits.zero ~ignore_bits:P.Match_bits.all_ones ())
  in
  let _ =
    P.Errors.ok_exn ~op:"md"
      (P.Ni.md_attach ni1 ~me:meh (P.Ni.md_spec (Bytes.create 16)))
  in
  (* ACL entry 3 on ni1: only process 9:9 may use it; entry 4: portal 5 only. *)
  (match
     P.Acl.set (P.Ni.acl ni1) 3
       {
         P.Acl.allowed_id = P.Match_id.of_proc (Simnet.Proc_id.make ~nid:9 ~pid:9);
         allowed_portal = None;
       }
   with
  | Ok () -> ()
  | Error _ -> failwith "acl set");
  (match
     P.Acl.set (P.Ni.acl ni1) 4
       { P.Acl.allowed_id = P.Match_id.any; allowed_portal = Some 5 }
   with
  | Ok () -> ()
  | Error _ -> failwith "acl set");
  (* 1. malformed *)
  tp0.Simnet.Transport.send ~src:r0 ~dst:r1 (Bytes.of_string "not a portals msg");
  (* 2. invalid portal index *)
  put ni0 ~target:r1 ~portal_index:4999 ~cookie:0 (Bytes.create 1);
  (* 3. bad cookie *)
  put ni0 ~target:r1 ~portal_index:pt_bench ~cookie:14 (Bytes.create 1);
  (* 4. acl id mismatch *)
  put ni0 ~target:r1 ~portal_index:pt_bench ~cookie:3 (Bytes.create 1);
  (* 5. acl portal mismatch *)
  put ni0 ~target:r1 ~portal_index:pt_bench ~cookie:4 (Bytes.create 1);
  (* 6. no match: too long for the 16-byte descriptor, no truncate *)
  put ni0 ~target:r1 ~portal_index:pt_bench ~cookie:0 (Bytes.create 64);
  (* 7. stray ack to a dead event queue *)
  let stray_put =
    P.Wire.put_request ~initiator:r1 ~target:r0 ~portal_index:0 ~cookie:0
      ~match_bits:P.Match_bits.zero ~offset:0 ~md_handle:P.Handle.none
      ~eq_handle:(P.Handle.of_wire 0x4242) ~data:Bytes.empty ()
  in
  tp1.Simnet.Transport.send ~src:r1 ~dst:r0
    (encode (P.Wire.ack_of_put stray_put ~mlength:0));
  (* 8. stray reply to a dead descriptor *)
  let stray_get =
    P.Wire.get_request ~initiator:r1 ~target:r0 ~portal_index:0 ~cookie:0
      ~match_bits:P.Match_bits.zero ~offset:0
      ~md_handle:(P.Handle.of_wire 0x2424) ~rlength:0 ()
  in
  tp1.Simnet.Transport.send ~src:r1 ~dst:r0
    (encode (P.Wire.reply_of_get stray_get ~mlength:0 ~data:Bytes.empty));
  (* 9. reply to a full event queue *)
  let full_eqh = P.Errors.ok_exn ~op:"eq" (P.Ni.eq_alloc ni0 ~capacity:1) in
  let full_eqq = P.Errors.ok_exn ~op:"eq" (P.Ni.eq ni0 full_eqh) in
  let gmd =
    P.Errors.ok_exn ~op:"bind"
      (P.Ni.md_bind ni0 (P.Ni.md_spec ~eq:full_eqh (Bytes.create 8)))
  in
  P.Errors.ok_exn ~op:"get"
    (P.Ni.get ni0 ~md:gmd (P.Ni.op ~target:r1 ~portal_index:pt_bench ()));
  ignore
    (P.Event.Queue.post full_eqq
       {
         P.Event.kind = P.Event.Put;
         initiator = r1;
         portal_index = 0;
         match_bits = P.Match_bits.zero;
         rlength = 0;
         mlength = 0;
         offset = 0;
         md_handle = P.Handle.none;
         md_user_ptr = 0;
         time = Time_ns.zero;
       });
  (* 10. stale incarnation: a put stamped by a previous life of its
     sender — as if node 0 sent it, crashed and restarted while the
     message was queued behind a slow wire. *)
  let stale_put =
    P.Wire.put_request ~incarnation:7 ~initiator:r0 ~target:r1 ~portal_index:pt_bench
      ~cookie:0 ~match_bits:P.Match_bits.zero ~offset:0
      ~md_handle:P.Handle.none ~eq_handle:P.Handle.none ~data:Bytes.empty ()
  in
  tp0.Simnet.Transport.send ~src:r0 ~dst:r1 (encode stale_put);
  (* 11. atomic on a word that isn't word-aligned *)
  let amd =
    P.Errors.ok_exn ~op:"bind"
      (P.Ni.md_bind ni0 (P.Ni.md_spec (Bytes.create 8)))
  in
  P.Errors.ok_exn ~op:"atomic"
    (P.Ni.atomic ni0 ~md:amd ~aop:P.Wire.Fetch_add ~operand:1L
       (P.Ni.op ~target:r1 ~portal_index:pt_bench ~offset:4 ()));
  (* 12. stray fetched-value reply to a dead descriptor *)
  let stray_atomic =
    P.Wire.atomic_request ~aop:P.Wire.Fetch_add ~operand:1L ~initiator:r0
      ~target:r1 ~portal_index:0 ~cookie:0 ~match_bits:P.Match_bits.zero
      ~offset:0
      ~md_handle:(P.Handle.of_wire 0x4224)
      ()
  in
  tp1.Simnet.Transport.send ~src:r1 ~dst:r0
    (encode (P.Wire.atomic_reply_of_request stray_atomic ~fetched:0L));
  (* 13. fetched-value reply to a full event queue *)
  let afull_eqh = P.Errors.ok_exn ~op:"eq" (P.Ni.eq_alloc ni0 ~capacity:1) in
  let afull_eqq = P.Errors.ok_exn ~op:"eq" (P.Ni.eq ni0 afull_eqh) in
  let afmd =
    P.Errors.ok_exn ~op:"bind"
      (P.Ni.md_bind ni0 (P.Ni.md_spec ~eq:afull_eqh (Bytes.create 8)))
  in
  P.Errors.ok_exn ~op:"atomic"
    (P.Ni.atomic ni0 ~md:afmd ~aop:P.Wire.Fetch_add ~operand:1L
       (P.Ni.op ~target:r1 ~portal_index:pt_bench ()));
  ignore
    (P.Event.Queue.post afull_eqq
       {
         P.Event.kind = P.Event.Put;
         initiator = r1;
         portal_index = 0;
         match_bits = P.Match_bits.zero;
         rlength = 0;
         mlength = 0;
         offset = 0;
         md_handle = P.Handle.none;
         md_user_ptr = 0;
         time = Time_ns.zero;
       });
  (* 14. corrupted checksummed frame: encode with integrity, flip a
     payload bit in flight. The 0x31 frame self-describes, so the CRC is
     verified at the receiver even when the world's own fabric has
     integrity off. *)
  let corrupted =
    P.Wire.encode ~integrity:true
      (P.Wire.put_request ~initiator:r0 ~target:r1 ~portal_index:pt_bench
         ~cookie:0 ~match_bits:P.Match_bits.zero ~offset:0
         ~md_handle:P.Handle.none ~eq_handle:P.Handle.none
         ~data:(Bytes.make 4 'x') ())
  in
  Bytes.set_uint8 corrupted P.Wire.header_size
    (Bytes.get_uint8 corrupted P.Wire.header_size lxor 0x01);
  tp0.Simnet.Transport.send ~src:r0 ~dst:r1 corrupted;
  (* 15. triggered chain firing into a vanished handle: the armed
     action's counter is freed before the trigger arrives. *)
  let tct = P.Errors.ok_exn ~op:"ct" (P.Ni.ct_alloc ni0) in
  let victim_ct = P.Errors.ok_exn ~op:"ct" (P.Ni.ct_alloc ni0) in
  P.Errors.ok_exn ~op:"arm"
    (P.Ni.ct_arm ni0 ~ct:tct ~threshold:1
       [ P.Ni.Triggered_ct_inc { ct = victim_ct; amount = 1 } ]);
  P.Errors.ok_exn ~op:"ct_free" (P.Ni.ct_free ni0 victim_ct);
  P.Errors.ok_exn ~op:"ct_inc" (P.Ni.ct_inc ni0 tct 1);
  (* 16. triggered put whose descriptor went inactive before the fire:
     threshold 0 exhausts the MD immediately. *)
  let dead_md =
    P.Errors.ok_exn ~op:"bind"
      (P.Ni.md_bind ni0
         (P.Ni.md_spec ~threshold:(P.Md.Count 0) ~unlink:P.Md.Retain
            (Bytes.create 8)))
  in
  let mct = P.Errors.ok_exn ~op:"ct" (P.Ni.ct_alloc ni0) in
  P.Errors.ok_exn ~op:"arm"
    (P.Ni.ct_arm ni0 ~ct:mct ~threshold:1
       [
         P.Ni.Triggered_put
           {
             md = dead_md;
             ack = false;
             length = None;
             op = P.Ni.op ~target:r1 ~portal_index:pt_bench ();
           };
       ]);
  P.Errors.ok_exn ~op:"ct_inc" (P.Ni.ct_inc ni0 mct 1);
  (* 17. chain completion into a full event queue: two chains on one
     counter share a 1-deep EQ; both fire on the same bump, the second
     completion event finds the queue full. *)
  let ch_eqh = P.Errors.ok_exn ~op:"eq" (P.Ni.eq_alloc ni0 ~capacity:1) in
  let ect = P.Errors.ok_exn ~op:"ct" (P.Ni.ct_alloc ni0) in
  let other_ct = P.Errors.ok_exn ~op:"ct" (P.Ni.ct_alloc ni0) in
  let inc = [ P.Ni.Triggered_ct_inc { ct = other_ct; amount = 1 } ] in
  P.Errors.ok_exn ~op:"arm" (P.Ni.ct_arm ni0 ~ct:ect ~eq:ch_eqh ~threshold:1 inc);
  P.Errors.ok_exn ~op:"arm" (P.Ni.ct_arm ni0 ~ct:ect ~eq:ch_eqh ~threshold:1 inc);
  P.Errors.ok_exn ~op:"ct_inc" (P.Ni.ct_inc ni0 ect 1);
  Runtime.run world;
  (* The table is read back out of the registry: each NI publishes an
     ["ni.drops"] probe per (proc, reason); summing over procs recovers
     the fabric-wide count per reason. *)
  let snap = Runtime.metrics_snapshot world in
  let count_of reason =
    let slug = P.Ni.drop_reason_slug reason in
    List.fold_left
      (fun acc (e : Metrics.Snapshot.entry) ->
        match e.Metrics.Snapshot.value with
        | Metrics.Snapshot.Gauge v
          when List.mem ("reason", slug) e.Metrics.Snapshot.labels ->
          acc + int_of_float v
        | _ -> acc)
      0
      (Metrics.Snapshot.filter snap "ni.drops")
  in
  List.map
    (fun reason ->
      {
        reason = Format.asprintf "%a" P.Ni.pp_drop_reason reason;
        count = count_of reason;
      })
    P.Ni.all_drop_reasons

let pp ppf rows =
  Format.fprintf ppf "Dropped message accounting (section 4.8):@.";
  Format.fprintf ppf "%-44s %s@." "reason" "count";
  List.iter (fun r -> Format.fprintf ppf "%-44s %d@." r.reason r.count) rows
