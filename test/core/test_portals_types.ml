(* Unit and property tests for the Portals data structures: handles,
   match bits, access control, memory descriptors, match entries, event
   queues and the wire format of Tables 1-4. *)

open Portals

let proc nid pid = Simnet.Proc_id.make ~nid ~pid

(* The fabric's view of a frame's ends; the decoder reuses them when the
   header names the same processes, and any address is correct. *)
let decode_view ~integrity b =
  Wire.decode_view ~integrity ~src:(proc 0 0) ~dst:(proc 1 0) b

(* Random alloc/free sequences on one table: every live handle survives
   the wire and finds its value; every freed one stays dead, however
   often its slot is reused. *)
let packed_handles_round_trip ops =
  let table : (Handle.me_kind, int) Handle.Table.t = Handle.Table.create () in
  let live = ref [] and dead = ref [] in
  List.iteri
    (fun v op ->
      match (op, !live) with
      | `Free i, (_ :: _ as l) ->
        let h, _ = List.nth l (i mod List.length l) in
        ignore (Handle.Table.free table h);
        live := List.filter (fun (x, _) -> not (Handle.equal x h)) l;
        dead := h :: !dead
      | `Free _, [] | `Alloc, _ -> live := (Handle.Table.alloc table v, v) :: !live)
    ops;
  Handle.to_wire (Handle.none : Handle.me) = -1
  && List.for_all
       (fun (h, v) ->
         Handle.equal (Handle.of_wire (Handle.to_wire h)) h
         && Handle.Table.find table (Handle.of_wire (Handle.to_wire h)) = Some v)
       !live
  && List.for_all (fun h -> Handle.Table.find table h = None) !dead

let handle_tests =
  [
    Alcotest.test_case "alloc/find/free lifecycle" `Quick (fun () ->
        let table = Handle.Table.create () in
        let h = Handle.Table.alloc table "v" in
        Alcotest.(check (option string)) "find" (Some "v")
          (Handle.Table.find table h);
        Alcotest.(check int) "live" 1 (Handle.Table.live_count table);
        Alcotest.(check bool) "free" true (Handle.Table.free table h);
        Alcotest.(check (option string)) "stale" None (Handle.Table.find table h);
        Alcotest.(check bool) "double free" false (Handle.Table.free table h));
    Alcotest.test_case "generation protects reused slots" `Quick (fun () ->
        let table = Handle.Table.create () in
        let h1 = Handle.Table.alloc table 1 in
        ignore (Handle.Table.free table h1);
        let h2 = Handle.Table.alloc table 2 in
        (* Slot is reused, but the stale handle must not resolve. *)
        Alcotest.(check (option int)) "old handle dead" None
          (Handle.Table.find table h1);
        Alcotest.(check (option int)) "new handle live" (Some 2)
          (Handle.Table.find table h2);
        Alcotest.(check bool) "handles differ" false (Handle.equal h1 h2));
    Alcotest.test_case "none never resolves" `Quick (fun () ->
        let table = Handle.Table.create () in
        ignore (Handle.Table.alloc table ());
        Alcotest.(check bool) "is_none" true (Handle.is_none Handle.none);
        Alcotest.(check (option unit)) "find none" None
          (Handle.Table.find table Handle.none));
    Alcotest.test_case "wire round trip" `Quick (fun () ->
        let table = Handle.Table.create () in
        let h = Handle.Table.alloc table () in
        Alcotest.(check bool) "round trip" true
          (Handle.equal h (Handle.of_wire (Handle.to_wire h)));
        Alcotest.(check bool) "none round trip" true
          (Handle.is_none (Handle.of_wire (Handle.to_wire Handle.none))));
    Alcotest.test_case "iter visits exactly the live entries" `Quick (fun () ->
        let table = Handle.Table.create () in
        let h1 = Handle.Table.alloc table 1 in
        let _h2 = Handle.Table.alloc table 2 in
        let h3 = Handle.Table.alloc table 3 in
        ignore (Handle.Table.free table h1);
        ignore h3;
        let seen = ref [] in
        Handle.Table.iter table (fun _ v -> seen := v :: !seen);
        Alcotest.(check (list int)) "live values" [ 2; 3 ]
          (List.sort compare !seen));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"many alloc/free cycles stay consistent" ~count:100
         QCheck.(list (int_range 0 20))
         (fun sizes ->
           let table = Handle.Table.create () in
           let all = ref [] in
           List.iter
             (fun n ->
               let hs = List.init (max n 0) (fun i -> Handle.Table.alloc table i) in
               all := hs @ !all;
               (* free half *)
               List.iteri
                 (fun i h -> if i mod 2 = 0 then ignore (Handle.Table.free table h))
                 hs)
             sizes;
           let live = ref 0 in
           Handle.Table.iter table (fun _ _ -> incr live);
           !live = Handle.Table.live_count table));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"packed handles round-trip and stay stale"
         ~count:300
         QCheck.(
           list_of_size Gen.(int_range 0 80)
             (map (fun i -> if i < 0 then `Free (-i) else `Alloc) (int_range (-20) 20)))
         packed_handles_round_trip);
  ]

let match_bits_tests =
  [
    Alcotest.test_case "exact match without ignore bits" `Quick (fun () ->
        let bits = Match_bits.of_int 0xCAFE in
        Alcotest.(check bool) "same" true
          (Match_bits.matches ~mbits:bits ~match_bits:bits
             ~ignore_bits:Match_bits.zero);
        Alcotest.(check bool) "different" false
          (Match_bits.matches ~mbits:(Match_bits.of_int 0xBEEF) ~match_bits:bits
             ~ignore_bits:Match_bits.zero));
    Alcotest.test_case "ignore bits are don't-cares" `Quick (fun () ->
        (* Low 16 bits ignored: anything in them matches. *)
        let ignore_bits = Match_bits.mask ~shift:0 ~width:16 in
        Alcotest.(check bool) "low bits ignored" true
          (Match_bits.matches ~mbits:(Match_bits.of_int 0x12340FFF)
             ~match_bits:(Match_bits.of_int 0x12340000) ~ignore_bits);
        Alcotest.(check bool) "high bits still matter" false
          (Match_bits.matches ~mbits:(Match_bits.of_int 0x99990FFF)
             ~match_bits:(Match_bits.of_int 0x12340000) ~ignore_bits));
    Alcotest.test_case "all ones ignores everything" `Quick (fun () ->
        Alcotest.(check bool) "wildcard" true
          (Match_bits.matches ~mbits:(Match_bits.of_int64 0x123456789ABCDEFL)
             ~match_bits:Match_bits.zero ~ignore_bits:Match_bits.all_ones));
    Alcotest.test_case "field packing rejects overflow" `Quick (fun () ->
        Alcotest.(check bool) "fits" true
          (Match_bits.equal
             (Match_bits.field ~shift:8 ~width:8 0xFF)
             (Match_bits.of_int 0xFF00));
        Alcotest.check_raises "overflow"
          (Invalid_argument "Match_bits.field: 256 does not fit in 8 bits")
          (fun () -> ignore (Match_bits.field ~shift:8 ~width:8 256)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"field/extract round trip" ~count:500
         QCheck.(triple (int_range 0 48) (int_range 1 16) (int_range 0 65535))
         (fun (shift, width, v) ->
           QCheck.assume (shift + width <= 64);
           let v = v land ((1 lsl width) - 1) in
           let packed = Match_bits.field ~shift ~width v in
           Match_bits.extract ~shift ~width packed = v));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"matches is reflexive under any mask" ~count:500
         QCheck.(pair int int)
         (fun (bits, mask) ->
           let b = Match_bits.of_int64 (Int64.of_int bits) in
           Match_bits.matches ~mbits:b ~match_bits:b
             ~ignore_bits:(Match_bits.of_int64 (Int64.of_int mask))));
  ]

let match_id_tests =
  [
    Alcotest.test_case "exact id" `Quick (fun () ->
        let mid = Match_id.of_proc (proc 3 1) in
        Alcotest.(check bool) "same" true (Match_id.matches mid (proc 3 1));
        Alcotest.(check bool) "other pid" false (Match_id.matches mid (proc 3 2));
        Alcotest.(check bool) "other nid" false (Match_id.matches mid (proc 4 1)));
    Alcotest.test_case "wildcards" `Quick (fun () ->
        Alcotest.(check bool) "any" true (Match_id.matches Match_id.any (proc 9 9));
        let nid_only = Match_id.make ~nid:(Match_id.Id 5) ~pid:Match_id.Any in
        Alcotest.(check bool) "pid wildcard" true
          (Match_id.matches nid_only (proc 5 77));
        Alcotest.(check bool) "nid fixed" false
          (Match_id.matches nid_only (proc 6 77)));
  ]

let acl_tests =
  [
    Alcotest.test_case "defaults per paper section 4.5" `Quick (fun () ->
        let acl = Acl.create ~size:4 in
        Acl.install_defaults acl ~job_id:(Match_id.make ~nid:Match_id.Any ~pid:(Match_id.Id 7));
        (* Entry 0: the job (here: any process with pid 7). *)
        Alcotest.(check bool) "job member passes" true
          (Result.is_ok (Acl.check acl ~cookie:0 ~src:(proc 1 7) ~portal_index:3));
        Alcotest.(check bool) "outsider rejected" false
          (Result.is_ok (Acl.check acl ~cookie:0 ~src:(proc 1 8) ~portal_index:3));
        (* Entry 1: system processes — any. *)
        Alcotest.(check bool) "system passes" true
          (Result.is_ok (Acl.check acl ~cookie:1 ~src:(proc 1 8) ~portal_index:0));
        (* Remaining entries deny. *)
        Alcotest.(check bool) "unset denies" false
          (Result.is_ok (Acl.check acl ~cookie:2 ~src:(proc 1 7) ~portal_index:0)));
    Alcotest.test_case "portal index restriction" `Quick (fun () ->
        let acl = Acl.create ~size:4 in
        (match
           Acl.set acl 2 { Acl.allowed_id = Match_id.any; allowed_portal = Some 5 }
         with
        | Ok () -> ()
        | Error _ -> Alcotest.fail "set");
        Alcotest.(check bool) "right portal" true
          (Result.is_ok (Acl.check acl ~cookie:2 ~src:(proc 0 0) ~portal_index:5));
        (match Acl.check acl ~cookie:2 ~src:(proc 0 0) ~portal_index:6 with
        | Error Acl.Portal_mismatch -> ()
        | Ok () | Error _ -> Alcotest.fail "expected portal mismatch"));
    Alcotest.test_case "cookie out of range" `Quick (fun () ->
        let acl = Acl.create ~size:2 in
        (match Acl.check acl ~cookie:9 ~src:(proc 0 0) ~portal_index:0 with
        | Error Acl.Bad_cookie -> ()
        | Ok () | Error _ -> Alcotest.fail "expected bad cookie");
        (match Acl.set acl 9 { Acl.allowed_id = Match_id.any; allowed_portal = None } with
        | Error Errors.Invalid_ac_index -> ()
        | Ok () | Error _ -> Alcotest.fail "expected invalid index"));
  ]

(* An accepting verdict's landing offset and manipulated length. *)
let accepted md ~op ~rlength ~roffset =
  let v = Md.accepts md ~op ~rlength ~roffset in
  if v < 0 then Error (Md.reason v) else Ok (Md.landing md ~roffset, v)

let consume_accepted md ~rlength ~roffset =
  match accepted md ~op:Md.Op_put ~rlength ~roffset with
  | Ok (offset, mlength) ->
    Md.consume md ~offset ~mlength;
    (offset, mlength)
  | Error r -> Alcotest.failf "rejected: %s" (Format.asprintf "%a" Md.pp_reject r)

let md_tests =
  [
    Alcotest.test_case "accept within bounds" `Quick (fun () ->
        let md = Md.create (Bytes.create 100) in
        (match accepted md ~op:Md.Op_put ~rlength:60 ~roffset:40 with
        | Ok (offset, mlength) ->
          Alcotest.(check int) "offset" 40 offset;
          Alcotest.(check int) "mlength" 60 mlength
        | Error r -> Alcotest.failf "rejected: %s" (Format.asprintf "%a" Md.pp_reject r)));
    Alcotest.test_case "reject too long without truncate" `Quick (fun () ->
        let md = Md.create (Bytes.create 100) in
        (match accepted md ~op:Md.Op_put ~rlength:61 ~roffset:40 with
        | Error Md.Too_long -> ()
        | Ok _ | Error _ -> Alcotest.fail "expected Too_long"));
    Alcotest.test_case "truncate caps the length" `Quick (fun () ->
        let options = { Md.default_options with Md.truncate = true } in
        let md = Md.create ~options (Bytes.create 100) in
        (match accepted md ~op:Md.Op_put ~rlength:500 ~roffset:40 with
        | Ok (offset, mlength) ->
          Alcotest.(check int) "offset" 40 offset;
          Alcotest.(check int) "manipulated length" 60 mlength
        | Error _ -> Alcotest.fail "expected truncation"));
    Alcotest.test_case "operation enables" `Quick (fun () ->
        let options = { Md.default_options with Md.op_get = false } in
        let md = Md.create ~options (Bytes.create 10) in
        (match accepted md ~op:Md.Op_get ~rlength:1 ~roffset:0 with
        | Error Md.Op_disabled -> ()
        | Ok _ | Error _ -> Alcotest.fail "expected Op_disabled");
        Alcotest.(check bool) "put still allowed" true
          (Result.is_ok (accepted md ~op:Md.Op_put ~rlength:1 ~roffset:0)));
    Alcotest.test_case "threshold exhaustion deactivates" `Quick (fun () ->
        let md = Md.create ~threshold:(Md.Count 2) (Bytes.create 10) in
        let accept () = ignore (consume_accepted md ~rlength:1 ~roffset:0) in
        accept ();
        accept ();
        Alcotest.(check bool) "inactive" false (Md.active md);
        (match accepted md ~op:Md.Op_put ~rlength:1 ~roffset:0 with
        | Error Md.Inactive -> ()
        | Ok _ | Error _ -> Alcotest.fail "expected Inactive"));
    Alcotest.test_case "locally managed offset advances" `Quick (fun () ->
        let options = { Md.default_options with Md.manage_remote = false } in
        let md = Md.create ~options (Bytes.create 100) in
        let push len = fst (consume_accepted md ~rlength:len ~roffset:9999) in
        let a1 = push 30 in
        let a2 = push 30 in
        Alcotest.(check int) "first at 0 (remote offset ignored)" 0 a1;
        Alcotest.(check int) "second right after" 30 a2;
        Alcotest.(check int) "local offset" 60 (Md.local_offset md);
        (match accepted md ~op:Md.Op_put ~rlength:50 ~roffset:0 with
        | Error Md.Too_long -> ()
        | Ok _ | Error _ -> Alcotest.fail "slab exhausted"));
    Alcotest.test_case "consume_threshold leaves local offset alone" `Quick
      (fun () ->
        let options = { Md.default_options with Md.manage_remote = false } in
        let md = Md.create ~options ~threshold:(Md.Count 5) (Bytes.create 10) in
        ignore (consume_accepted md ~rlength:4 ~roffset:0);
        Md.consume_threshold md;
        Alcotest.(check int) "offset preserved" 4 (Md.local_offset md);
        Alcotest.(check bool) "still active" true (Md.active md));
    Alcotest.test_case "write/read round trip" `Quick (fun () ->
        let md = Md.create (Bytes.make 16 '.') in
        Md.write md ~offset:4 ~src:(Bytes.of_string "abcd") ~src_off:0 ~len:4;
        Alcotest.(check string) "read back" "abcd"
          (Bytes.to_string (Md.read md ~offset:4 ~len:4));
        Alcotest.(check string) "rest untouched" "...."
          (Bytes.to_string (Md.read md ~offset:0 ~len:4)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"accepts never exceeds buffer" ~count:500
         QCheck.(triple (int_range 1 200) (int_range 0 400) (int_range 0 400))
         (fun (size, rlength, roffset) ->
           let options = { Md.default_options with Md.truncate = true } in
           let md = Md.create ~options (Bytes.create size) in
           match accepted md ~op:Md.Op_put ~rlength ~roffset with
           | Ok (offset, mlength) ->
             mlength >= 0 && offset + mlength <= size
           | Error _ -> true));
  ]

let me_tests =
  [
    Alcotest.test_case "criteria combine source and bits" `Quick (fun () ->
        let me =
          Me.create
            ~match_id:(Match_id.of_proc (proc 1 0))
            ~match_bits:(Match_bits.of_int 42) ~ignore_bits:Match_bits.zero ()
        in
        Alcotest.(check bool) "both match" true
          (Me.criteria_match me ~src:(proc 1 0) ~mbits:(Match_bits.of_int 42));
        Alcotest.(check bool) "wrong bits" false
          (Me.criteria_match me ~src:(proc 1 0) ~mbits:(Match_bits.of_int 43));
        Alcotest.(check bool) "wrong source" false
          (Me.criteria_match me ~src:(proc 2 0) ~mbits:(Match_bits.of_int 42)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"criteria read back, match like Match_bits, survive new bits"
         ~count:500
         QCheck.(
           tup5 int64 int64 int64
             (pair (option (int_range 0 0x7FFF_FFFE)) (option (int_range 0 0x7FFF_FFFE)))
             bool)
         (fun (bits, ignore, req, (nid, pid), unlink) ->
           let comp = function None -> Match_id.Any | Some id -> Match_id.Id id in
           let mid = Match_id.make ~nid:(comp nid) ~pid:(comp pid) in
           let unlink = if unlink then Md.Unlink else Md.Retain in
           let me =
             Me.create ~unlink ~match_id:mid ~match_bits:bits ~ignore_bits:ignore ()
           in
           let src =
             proc (Option.value nid ~default:7) (Option.value pid ~default:3)
           in
           let same_criteria b =
             Match_id.equal (Me.match_id me) mid
             && Match_bits.equal (Me.match_bits me) b
             && Match_bits.equal (Me.ignore_bits me) ignore
             && Me.unlink_policy me = unlink
             && Me.criteria_match me ~src ~mbits:req
                = Match_bits.matches ~mbits:req ~match_bits:b ~ignore_bits:ignore
           in
           let before = same_criteria bits in
           Me.set_match_bits me req;
           before && same_criteria req
           && Me.criteria_match me ~src ~mbits:req));
    Alcotest.test_case "process ids outside 31 bits are rejected" `Quick
      (fun () ->
        List.iter
          (fun id ->
            match
              Me.create
                ~match_id:(Match_id.make ~nid:(Match_id.Id id) ~pid:Match_id.Any)
                ~match_bits:Match_bits.zero ~ignore_bits:Match_bits.zero ()
            with
            | _ -> Alcotest.failf "id %d accepted" id
            | exception Invalid_argument _ -> ())
          [ -1; 0x7FFF_FFFF ]);
    Alcotest.test_case "md list order and removal" `Quick (fun () ->
        let me =
          Me.create ~match_id:Match_id.any ~match_bits:Match_bits.zero
            ~ignore_bits:Match_bits.all_ones ()
        in
        let table = Handle.Table.create () in
        let h1 = Handle.Table.alloc table 1 in
        let h2 = Handle.Table.alloc table 2 in
        Alcotest.(check bool) "empty" true (Me.is_empty me);
        Me.attach_md me h1;
        Me.attach_md me h2;
        Alcotest.(check int) "count" 2 (Me.md_count me);
        Alcotest.(check (option bool)) "first is h1" (Some true)
          (Option.map (Handle.equal h1) (Me.first_md me));
        Alcotest.(check bool) "remove" true (Me.remove_md me h1);
        Alcotest.(check (option bool)) "now h2 first" (Some true)
          (Option.map (Handle.equal h2) (Me.first_md me));
        Alcotest.(check bool) "remove absent" false (Me.remove_md me h1));
  ]

let sched_eq () = Sim_engine.Scheduler.create ()

let dummy_event kind =
  {
    Event.kind;
    initiator = proc 0 0;
    portal_index = 0;
    match_bits = Match_bits.zero;
    rlength = 0;
    mlength = 0;
    offset = 0;
    md_handle = Handle.none;
    md_user_ptr = 0;
    time = 0;
  }

let event_queue_tests =
  [
    Alcotest.test_case "fifo order" `Quick (fun () ->
        let q = Event.Queue.create (sched_eq ()) ~capacity:4 in
        Alcotest.(check bool) "post put" true (Event.Queue.post q (dummy_event Event.Put));
        Alcotest.(check bool) "post ack" true (Event.Queue.post q (dummy_event Event.Ack));
        (match (Event.Queue.get q, Event.Queue.get q, Event.Queue.get q) with
        | Some e1, Some e2, None ->
          Alcotest.(check string) "first" "PUT" (Event.kind_to_string e1.Event.kind);
          Alcotest.(check string) "second" "ACK" (Event.kind_to_string e2.Event.kind)
        | _ -> Alcotest.fail "expected two events"));
    Alcotest.test_case "overflow drops and counts" `Quick (fun () ->
        let q = Event.Queue.create (sched_eq ()) ~capacity:2 in
        Alcotest.(check bool) "1" true (Event.Queue.post q (dummy_event Event.Put));
        Alcotest.(check bool) "2" true (Event.Queue.post q (dummy_event Event.Put));
        Alcotest.(check bool) "full" false (Event.Queue.post q (dummy_event Event.Put));
        Alcotest.(check int) "dropped" 1 (Event.Queue.dropped q);
        Alcotest.(check int) "posted" 2 (Event.Queue.posted q);
        ignore (Event.Queue.get q);
        Alcotest.(check bool) "space again" true
          (Event.Queue.post q (dummy_event Event.Put)));
    Alcotest.test_case "circular reuse across many wraps" `Quick (fun () ->
        let q = Event.Queue.create (sched_eq ()) ~capacity:3 in
        for _ = 1 to 50 do
          Alcotest.(check bool) "post" true (Event.Queue.post q (dummy_event Event.Put));
          Alcotest.(check bool) "get" true (Event.Queue.get q <> None)
        done;
        Alcotest.(check int) "no drops" 0 (Event.Queue.dropped q));
    Alcotest.test_case "wait blocks a fiber until a post" `Quick (fun () ->
        let sched = sched_eq () in
        let q = Event.Queue.create sched ~capacity:4 in
        let woke_at = ref (-1) in
        Sim_engine.Scheduler.spawn sched (fun () ->
            let _ev = Event.Queue.wait q in
            woke_at := Sim_engine.Scheduler.now sched);
        Sim_engine.Scheduler.at sched 500 (fun () ->
            ignore (Event.Queue.post q (dummy_event Event.Reply)));
        Sim_engine.Scheduler.run sched;
        Alcotest.(check int) "woke when posted" 500 !woke_at);
    Alcotest.test_case "capacity validation" `Quick (fun () ->
        Alcotest.check_raises "zero"
          (Invalid_argument "Event.Queue.create: capacity must be positive")
          (fun () -> ignore (Event.Queue.create (sched_eq ()) ~capacity:0)));
    (* The ring grows on demand: a mix of posts and gets checked against a
       list model exercises every growth with the entries wrapped round
       the ring's end, and the overflow rule at exactly [capacity]. *)
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"fifo across growth and wrap; drop at capacity"
         ~count:300
         QCheck.(pair (int_range 1 40) (list_of_size Gen.(0 -- 400) (int_bound 2)))
         (fun (capacity, ops) ->
           let q = Event.Queue.create (sched_eq ()) ~capacity in
           let model = Queue.create () and next = ref 0 and drops = ref 0 in
           List.iter
             (fun op ->
               if op > 0 then begin
                 let ev = { (dummy_event Event.Put) with Event.offset = !next } in
                 incr next;
                 let accepted = Event.Queue.post q ev in
                 if accepted = (Queue.length model = capacity) then
                   QCheck.Test.fail_reportf "post at depth %d of %d returned %b"
                     (Queue.length model) capacity accepted;
                 if accepted then Queue.add ev.Event.offset model else incr drops
               end
               else
                 match (Event.Queue.get q, Queue.take_opt model) with
                 | None, None -> ()
                 | Some ev, Some want when ev.Event.offset = want -> ()
                 | _ -> QCheck.Test.fail_report "get out of FIFO order")
             ops;
           Event.Queue.count q = Queue.length model
           && Event.Queue.is_full q = (Queue.length model = capacity)
           && Event.Queue.dropped q = !drops
           && Event.Queue.capacity q = capacity));
    Alcotest.test_case "create allocates the same words at any capacity" `Quick
      (fun () ->
        let sched = sched_eq () in
        let words capacity =
          Gc.minor ();
          let minor0, promoted0, major0 = Gc.counters () in
          ignore (Sys.opaque_identity (Event.Queue.create sched ~capacity));
          Gc.minor ();
          let minor1, promoted1, major1 = Gc.counters () in
          int_of_float (minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0))
        in
        Alcotest.(check int) "capacity 1_000_000 vs 16" (words 16) (words 1_000_000));
  ]

let wire_gen =
  let open QCheck.Gen in
  let op =
    oneofl
      [
        Wire.Put_request; Wire.Ack; Wire.Get_request; Wire.Reply;
        Wire.Atomic_request; Wire.Atomic_reply;
      ]
  in
  let pid = map2 (fun nid pid -> proc nid pid) (int_range 0 4095) (int_range 0 255) in
  let data_len = int_range 0 300 in
  map (fun (op, (ini, tgt), (pt, ck), bits, (off, len), ackf) ->
      let data =
        match op with
        | Wire.Put_request | Wire.Reply -> Bytes.make len 'd'
        | Wire.Ack | Wire.Get_request | Wire.Atomic_request
        | Wire.Atomic_reply -> Bytes.empty
      in
      let atomic =
        match op with
        | Wire.Atomic_request | Wire.Atomic_reply ->
          Some
            {
              Wire.aop = List.nth Wire.all_aops (abs bits mod 3);
              operand = Int64.of_int bits;
              compare = Int64.of_int (bits / 3);
            }
        | _ -> None
      in
      {
        Wire.op;
        ack_requested = (op = Wire.Put_request && ackf);
        triggered = (op = Wire.Put_request && not ackf);
        initiator = ini;
        target = tgt;
        portal_index = pt;
        cookie = ck;
        match_bits = Match_bits.of_int64 (Int64.of_int bits);
        offset = off;
        md_handle = Handle.none;
        eq_handle = Handle.none;
        incarnation = abs bits mod 16;
        length = (match op with
                  | Wire.Put_request | Wire.Reply -> Bytes.length data
                  | Wire.Ack | Wire.Get_request -> len
                  | Wire.Atomic_request | Wire.Atomic_reply ->
                    Wire.atomic_word_size);
        data;
        atomic;
      })
    (tup6 op (pair pid pid) (pair (int_range 0 63) (int_range 0 15)) int
       (pair (int_range 0 1_000_000) data_len) bool)

let wire_arb = QCheck.make wire_gen

(* [Wire.decode_view] leaves the payload in the wire image: the
   [length] bytes after the header of a put request or a reply. *)
let view_payload (m : Wire.t) =
  match m.Wire.op with
  | Wire.Put_request | Wire.Reply ->
    Bytes.sub m.Wire.data Wire.header_size m.Wire.length
  | _ -> Bytes.empty

let wire_tests =
  [
    Alcotest.test_case "put request carries table 1 fields" `Quick (fun () ->
        let data = Bytes.of_string "payload" in
        let msg =
          Wire.put_request ~initiator:(proc 0 1) ~target:(proc 2 3)
            ~portal_index:4 ~cookie:0 ~match_bits:(Match_bits.of_int 77)
            ~offset:16 ~md_handle:Handle.none ~eq_handle:Handle.none ~data ()
        in
        (match decode_view ~integrity:false (Wire.encode ~integrity:false msg) with
        | Ok d ->
          Alcotest.(check bool) "op" true (d.Wire.op = Wire.Put_request);
          Alcotest.(check bool) "ack default" true d.Wire.ack_requested;
          Alcotest.(check int) "portal" 4 d.Wire.portal_index;
          Alcotest.(check int) "offset" 16 d.Wire.offset;
          Alcotest.(check int) "length" 7 d.Wire.length;
          Alcotest.(check bytes) "data" data (view_payload d)
        | Error e -> Alcotest.failf "%s" (Format.asprintf "%a" Wire.pp_decode_error e)));
    Alcotest.test_case "ack swaps initiator and target (table 2)" `Quick
      (fun () ->
        let msg =
          Wire.put_request ~initiator:(proc 0 1) ~target:(proc 2 3)
            ~portal_index:4 ~cookie:0 ~match_bits:(Match_bits.of_int 77)
            ~offset:0 ~md_handle:Handle.none ~eq_handle:Handle.none
            ~data:(Bytes.create 100) ()
        in
        let ack = Wire.ack_of_put msg ~mlength:60 in
        Alcotest.(check bool) "op" true (ack.Wire.op = Wire.Ack);
        Alcotest.(check string) "initiator is old target" "2:3"
          (Simnet.Proc_id.to_string ack.Wire.initiator);
        Alcotest.(check string) "target is old initiator" "0:1"
          (Simnet.Proc_id.to_string ack.Wire.target);
        Alcotest.(check int) "manipulated length" 60 ack.Wire.length;
        Alcotest.(check int) "no data" 0 (Bytes.length ack.Wire.data));
    Alcotest.test_case "get request has no event queue handle (table 3)" `Quick
      (fun () ->
        let msg =
          Wire.get_request ~initiator:(proc 0 1) ~target:(proc 2 3)
            ~portal_index:4 ~cookie:1 ~match_bits:Match_bits.zero ~offset:8
            ~md_handle:Handle.none ~rlength:512 ()
        in
        Alcotest.(check bool) "no eq" true (Handle.is_none msg.Wire.eq_handle);
        Alcotest.(check int) "rlength" 512 msg.Wire.length);
    Alcotest.test_case "reply echoes and carries data (table 4)" `Quick (fun () ->
        let get =
          Wire.get_request ~initiator:(proc 0 1) ~target:(proc 2 3)
            ~portal_index:4 ~cookie:1 ~match_bits:Match_bits.zero ~offset:8
            ~md_handle:Handle.none ~rlength:512 ()
        in
        let reply = Wire.reply_of_get get ~mlength:4 ~data:(Bytes.of_string "abcd") in
        Alcotest.(check bool) "op" true (reply.Wire.op = Wire.Reply);
        Alcotest.(check string) "swapped" "2:3"
          (Simnet.Proc_id.to_string reply.Wire.initiator);
        Alcotest.(check int) "mlength" 4 reply.Wire.length;
        Alcotest.check_raises "length mismatch rejected"
          (Invalid_argument "Wire.reply_of_get: data length disagrees with mlength")
          (fun () -> ignore (Wire.reply_of_get get ~mlength:5 ~data:Bytes.empty)));
    Alcotest.test_case "builder type errors" `Quick (fun () ->
        let get =
          Wire.get_request ~initiator:(proc 0 1) ~target:(proc 2 3)
            ~portal_index:4 ~cookie:1 ~match_bits:Match_bits.zero ~offset:8
            ~md_handle:Handle.none ~rlength:0 ()
        in
        Alcotest.check_raises "ack of get"
          (Invalid_argument "Wire.ack_of_put: not a put request") (fun () ->
            ignore (Wire.ack_of_put get ~mlength:0)));
    Alcotest.test_case "decode rejects corruption" `Quick (fun () ->
        (match decode_view ~integrity:false (Bytes.create 4) with
        | Error (Wire.Truncated _) -> ()
        | Ok _ | Error _ -> Alcotest.fail "expected Truncated");
        let msg =
          Wire.get_request ~initiator:(proc 0 1) ~target:(proc 2 3)
            ~portal_index:0 ~cookie:0 ~match_bits:Match_bits.zero ~offset:0
            ~md_handle:Handle.none ~rlength:0 ()
        in
        let buf = Wire.encode ~integrity:false msg in
        let corrupt pos v expect_name check =
          let b = Bytes.copy buf in
          Bytes.set_uint8 b pos v;
          match decode_view ~integrity:false b with
          | Error e when check e -> ()
          | Ok _ | Error _ -> Alcotest.failf "expected %s" expect_name
        in
        corrupt 0 0x00 "Bad_magic" (function Wire.Bad_magic -> true | _ -> false);
        corrupt 1 0x99 "Bad_version" (function Wire.Bad_version 0x99 -> true | _ -> false);
        corrupt 2 9 "Bad_operation" (function Wire.Bad_operation 9 -> true | _ -> false));
    Alcotest.test_case "field inventories match the paper's tables" `Quick
      (fun () ->
        let names op = List.map fst (Wire.field_inventory op) in
        Alcotest.(check bool) "put lists data" true
          (List.mem "data" (names Wire.Put_request));
        Alcotest.(check bool) "put lists md for ack" true
          (List.mem "memory desc" (names Wire.Put_request));
        Alcotest.(check bool) "ack lists manipulated length" true
          (List.mem "manipulated length" (names Wire.Ack));
        Alcotest.(check bool) "get omits event queue" true
          (not (List.mem "event queue" (names Wire.Get_request)));
        Alcotest.(check bool) "reply carries data" true
          (List.mem "data" (names Wire.Reply)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"encode/decode round trip" ~count:500 wire_arb
         (fun msg ->
           match decode_view ~integrity:false (Wire.encode ~integrity:false msg) with
           | Error _ -> false
           | Ok d ->
             d.Wire.op = msg.Wire.op
             && d.Wire.ack_requested = msg.Wire.ack_requested
             && Simnet.Proc_id.equal d.Wire.initiator msg.Wire.initiator
             && Simnet.Proc_id.equal d.Wire.target msg.Wire.target
             && d.Wire.portal_index = msg.Wire.portal_index
             && d.Wire.cookie = msg.Wire.cookie
             && Match_bits.equal d.Wire.match_bits msg.Wire.match_bits
             && d.Wire.offset = msg.Wire.offset
             && d.Wire.incarnation = msg.Wire.incarnation
             && d.Wire.length = msg.Wire.length
             && Bytes.equal (view_payload d) msg.Wire.data));
  ]

let () =
  Alcotest.run "portals_types"
    [
      ("handle", handle_tests);
      ("match_bits", match_bits_tests);
      ("match_id", match_id_tests);
      ("acl", acl_tests);
      ("md", md_tests);
      ("me", me_tests);
      ("event_queue", event_queue_tests);
      ("wire", wire_tests);
    ]
