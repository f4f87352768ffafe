open Sim_engine

type md_entry = {
  mutable md : Md.t;
  mutable owner : Handle.me option; (* attached ME, none for bound MDs *)
}

(* Match entries form an intrusive doubly-linked list per portal, so
   attach, insert and unlink are O(1) and allocate nothing beyond the
   entry. Both ends of every list point at the shared terminator [nil],
   whose own links are never written. *)
type me_entry = {
  me : Me.t;
  pt_index : int;
  mutable me_ct : Handle.ct;
      (* Counting event bumped at match time ({!me_set_ct});
         [Handle.none] when the entry has no counter attached. *)
  mutable prev : me_entry;
  mutable next : me_entry;
}

let rec nil =
  {
    me = Me.create ~match_id:Match_id.any ~match_bits:Match_bits.zero
        ~ignore_bits:Match_bits.zero ();
    pt_index = -1;
    me_ct = Handle.none;
    prev = nil;
    next = nil;
  }

type drop_reason =
  | Malformed
  | Invalid_portal_index
  | Acl_bad_cookie
  | Acl_id_mismatch
  | Acl_portal_mismatch
  | No_match
  | Ack_no_eq
  | Reply_no_md
  | Reply_eq_full
  | Stale_incarnation
  | Atomic_misaligned
  | Atomic_reply_no_md
  | Atomic_reply_eq_full
  | Checksum_failed
  | Triggered_target_gone
  | Triggered_md_inactive
  | Triggered_eq_full

(* Every drop reason once, in counter order: the slug of its
   [ni.drops] label and the text [pp_drop_reason] prints. *)
let drop_table =
  [|
    (Malformed, "malformed", "malformed message");
    (Invalid_portal_index, "invalid_portal_index", "invalid portal index");
    (Acl_bad_cookie, "acl_bad_cookie", "invalid access control entry");
    (Acl_id_mismatch, "acl_id_mismatch", "access control id mismatch");
    (Acl_portal_mismatch, "acl_portal_mismatch", "access control portal mismatch");
    (No_match, "no_match", "no matching entry accepted the request");
    (Ack_no_eq, "ack_no_eq", "acknowledgment event queue gone");
    (Reply_no_md, "reply_no_md", "reply memory descriptor gone");
    (Reply_eq_full, "reply_eq_full", "reply event queue full");
    (Stale_incarnation, "stale_incarnation", "sender incarnation is stale");
    (Atomic_misaligned, "atomic_misaligned", "atomic word misaligned or mis-sized");
    (Atomic_reply_no_md, "atomic_reply_no_md", "atomic reply memory descriptor gone");
    (Atomic_reply_eq_full, "atomic_reply_eq_full", "atomic reply event queue full");
    (Checksum_failed, "checksum_failed", "frame checksum mismatch");
    (Triggered_target_gone, "triggered_target_gone",
     "triggered chain names a vanished handle");
    (Triggered_md_inactive, "triggered_md_inactive",
     "triggered chain memory descriptor inactive");
    (Triggered_eq_full, "triggered_eq_full", "triggered completion event queue full");
  |]

let all_drop_reasons = Array.to_list (Array.map (fun (r, _, _) -> r) drop_table)

let rec drop_reason_from i reason =
  let r, _, _ = drop_table.(i) in
  if r = reason then i else drop_reason_from (i + 1) reason

let drop_reason_index reason = drop_reason_from 0 reason

let drop_reason_slug reason =
  let _, slug, _ = drop_table.(drop_reason_index reason) in
  slug

let pp_drop_reason ppf reason =
  let _, _, text = drop_table.(drop_reason_index reason) in
  Format.pp_print_string ppf text

type counters = {
  puts_initiated : int;
  gets_initiated : int;
  atomics_initiated : int;
  acks_sent : int;
  replies_sent : int;
  atomics_executed : int;
  messages_received : int;
  bytes_received : int;
  translations : int;
  entries_walked : int;
  triggered_fired : int;
}

type mutable_counters = {
  mutable c_puts : int;
  mutable c_gets : int;
  mutable c_atomics : int;
  mutable c_acks : int;
  mutable c_replies : int;
  mutable c_atomics_exec : int;
  mutable c_rx : int;
  mutable c_rx_bytes : int;
  mutable c_translations : int;
  mutable c_entries : int;
  mutable c_triggered : int;
}

type op = {
  target : Simnet.Proc_id.t;
  portal_index : int;
  cookie : int;
  match_bits : Match_bits.t;
  offset : int;
}

(* Triggered operations (the Portals-4-style extension the NIC-resident
   collectives build on): a chain of pre-described actions deposited with
   the NI, fired — without any host fiber — when a counting event crosses
   the chain's threshold. *)
type triggered_action =
  | Triggered_put of { md : Handle.md; ack : bool; length : int option; op : op }
  | Triggered_atomic of {
      md : Handle.md;
      aop : Wire.aop;
      operand : int64;
      compare : int64;
      op : op;
    }
  | Triggered_combine of {
      dst : Handle.md;
      src : Handle.md;
      f : bytes -> bytes -> unit;
    }
  | Triggered_ct_inc of { ct : Handle.ct; amount : int }

type armed = {
  a_threshold : int;
  a_actions : triggered_action list;
  a_eq : Handle.eq; (* completion TRIGGERED event, none to elide *)
  a_user_ptr : int;
}

type ct_entry = {
  mutable ct_value : int;
  mutable ct_armed : armed list; (* pending chains, in arming order *)
  ct_waitq : Sync.Waitq.t;
}

type t = {
  tp : Simnet.Transport.t;
  self : Simnet.Proc_id.t;
  pt_head : me_entry array; (* match lists, head searched first *)
  pt_tail : me_entry array;
  ni_acl : Acl.t;
  mds : (Handle.md_kind, md_entry) Handle.Table.t;
  mes : (Handle.me_kind, me_entry) Handle.Table.t;
  eqs : (Handle.eq_kind, Event.Queue.t) Handle.Table.t;
  cts : (Handle.ct_kind, ct_entry) Handle.Table.t;
  drops : int array;
  c : mutable_counters;
  mutable eq_seq : int;
  mutable live : bool;
  (* The last translation's outcome beside the entry it returns: how
     many entries the walk examined and the manipulated length. *)
  mutable walked : int;
  mutable mlength : int;
}

type md_region =
  | Flat of { buffer : bytes; length : int option }
  | Iovec of (bytes * int * int) list
  | Reserved of Md.reservation

type md_spec = {
  region : md_region;
  options : Md.options;
  threshold : Md.threshold;
  unlink : Md.unlink_policy;
  eq : Handle.eq;
  user_ptr : int;
}

let md_spec ?(options = Md.default_options) ?(threshold = Md.Infinite)
    ?(unlink = Md.Retain) ?(eq = Handle.none) ?(user_ptr = 0) ?length buffer =
  { region = Flat { buffer; length }; options; threshold; unlink; eq; user_ptr }

let md_spec_iovec ?(options = Md.default_options) ?(threshold = Md.Infinite)
    ?(unlink = Md.Retain) ?(eq = Handle.none) ?(user_ptr = 0) segments =
  { region = Iovec segments; options; threshold; unlink; eq; user_ptr }

let md_spec_reserved ?(options = Md.default_options) ?(threshold = Md.Infinite)
    ?(unlink = Md.Retain) ?(eq = Handle.none) ?(user_ptr = 0) reservation =
  { region = Reserved reservation; options; threshold; unlink; eq; user_ptr }

let op ?(cookie = Acl.default_cookie_job) ?(match_bits = Match_bits.zero)
    ?(offset = 0) ~target ~portal_index () =
  { target; portal_index; cookie; match_bits; offset }

let id t = t.self
let sched t = t.tp.Simnet.Transport.sched
let transport t = t.tp
let acl t = t.ni_acl

let self_incarnation t =
  t.tp.Simnet.Transport.node_incarnation t.self.Simnet.Proc_id.nid

(* The transport's fabric decides whether frames carry CRC trailers;
   read at each send and receive, never cached. *)
let integrity t = t.tp.Simnet.Transport.integrity ()

let drop t reason =
  let i = drop_reason_index reason in
  t.drops.(i) <- t.drops.(i) + 1

let dropped t reason = t.drops.(drop_reason_index reason)
let dropped_total t = Array.fold_left ( + ) 0 t.drops

let counters t =
  {
    puts_initiated = t.c.c_puts;
    gets_initiated = t.c.c_gets;
    atomics_initiated = t.c.c_atomics;
    acks_sent = t.c.c_acks;
    replies_sent = t.c.c_replies;
    atomics_executed = t.c.c_atomics_exec;
    messages_received = t.c.c_rx;
    bytes_received = t.c.c_rx_bytes;
    translations = t.c.c_translations;
    entries_walked = t.c.c_entries;
    triggered_fired = t.c.c_triggered;
  }

type resources = { live_mes : int; live_mds : int; live_eqs : int; live_cts : int }

let resources t =
  {
    live_mes = Handle.Table.live_count t.mes;
    live_mds = Handle.Table.live_count t.mds;
    live_eqs = Handle.Table.live_count t.eqs;
    live_cts = Handle.Table.live_count t.cts;
  }

(* ------------------------------------------------------------------ *)
(* Event queues *)

let eq_alloc t ~capacity =
  if capacity <= 0 then Error Errors.Invalid_arg
  else begin
    let name = Simnet.Proc_id.to_string t.self ^ "#" ^ string_of_int t.eq_seq in
    t.eq_seq <- t.eq_seq + 1;
    Ok (Handle.Table.alloc t.eqs (Event.Queue.create ~name (sched t) ~capacity))
  end

let eq t h =
  match Handle.Table.find t.eqs h with
  | Some q -> Ok q
  | None -> Error Errors.Invalid_eq

let eq_free t h =
  if Handle.Table.free t.eqs h then Ok () else Error Errors.Invalid_eq

(* ------------------------------------------------------------------ *)
(* Match entries *)

(* Splice [e] between [prev] and [next] in its portal's list; [nil] on
   either side makes [e] that end of the list. *)
let link t e ~prev ~next =
  e.prev <- prev;
  e.next <- next;
  if prev == nil then t.pt_head.(e.pt_index) <- e else prev.next <- e;
  if next == nil then t.pt_tail.(e.pt_index) <- e else next.prev <- e

let unlink_entry t e =
  if e.prev == nil then t.pt_head.(e.pt_index) <- e.next
  else e.prev.next <- e.next;
  if e.next == nil then t.pt_tail.(e.pt_index) <- e.prev
  else e.next.prev <- e.prev

let new_entry ~pt_index ~match_id ~match_bits ~ignore_bits ~unlink =
  let me = Me.create ~unlink ~match_id ~match_bits ~ignore_bits () in
  { me; pt_index; me_ct = Handle.none; prev = nil; next = nil }

let me_attach t ~portal_index ~match_id ~match_bits ~ignore_bits
    ?(unlink = Md.Retain) ?(pos = `Tail) () =
  if portal_index < 0 || portal_index >= Array.length t.pt_head then
    Error Errors.Invalid_pt_index
  else begin
    let e =
      new_entry ~pt_index:portal_index ~match_id ~match_bits ~ignore_bits
        ~unlink
    in
    let h = Handle.Table.alloc t.mes e in
    (match pos with
    | `Head -> link t e ~prev:nil ~next:t.pt_head.(portal_index)
    | `Tail -> link t e ~prev:t.pt_tail.(portal_index) ~next:nil);
    Ok h
  end

let me_insert t ~base ~match_id ~match_bits ~ignore_bits ?(unlink = Md.Retain)
    ~pos () =
  match Handle.Table.find t.mes base with
  | None -> Error Errors.Invalid_me
  | Some b ->
    let e =
      new_entry ~pt_index:b.pt_index ~match_id ~match_bits ~ignore_bits ~unlink
    in
    let h = Handle.Table.alloc t.mes e in
    (match pos with
    | `Before -> link t e ~prev:b.prev ~next:b
    | `After -> link t e ~prev:b ~next:b.next);
    Ok h

let rec any_md_busy t = function
  | [] -> false
  | mdh :: rest ->
    (match Handle.Table.find t.mds mdh with
    | Some { md; _ } when Md.pending md > 0 -> true
    | Some _ | None -> any_md_busy t rest)

let me_unlink t h =
  match Handle.Table.find t.mes h with
  | None -> Error Errors.Invalid_me
  | Some entry ->
    if any_md_busy t (Me.md_handles entry.me) then Error Errors.Md_in_use
    else begin
      List.iter (fun mdh -> ignore (Handle.Table.free t.mds mdh))
        (Me.md_handles entry.me);
      unlink_entry t entry;
      ignore (Handle.Table.free t.mes h);
      Ok ()
    end

let rec rewind_mds t = function
  | [] -> ()
  | mdh :: rest ->
    (match Handle.Table.find t.mds mdh with
    | Some { md; _ } -> Md.rewind md
    | None -> ());
    rewind_mds t rest

(* Re-arm an entry where it stands: new bits, and the tail of its list,
   which is where unlink + attach would put a fresh entry, so walks count
   the same. The handle, the descriptors and the counter stay; only the
   descriptors' locally managed offsets go back to 0. *)
let me_retarget t h ~match_bits =
  match Handle.Table.find t.mes h with
  | None -> Error Errors.Invalid_me
  | Some entry ->
    let mds = Me.md_handles entry.me in
    if any_md_busy t mds then Error Errors.Md_in_use
    else begin
      rewind_mds t mds;
      Me.set_match_bits entry.me match_bits;
      unlink_entry t entry;
      link t entry ~prev:t.pt_tail.(entry.pt_index) ~next:nil;
      Ok ()
    end

let me_md_count t h =
  match Handle.Table.find t.mes h with
  | None -> Error Errors.Invalid_me
  | Some entry -> Ok (Me.md_count entry.me)

(* ------------------------------------------------------------------ *)
(* Memory descriptors *)

let md_of_spec t (spec : md_spec) =
  let build ?eq ?eq_handle () =
    match spec.region with
    | Flat { buffer; length } ->
      Md.create ~options:spec.options ~threshold:spec.threshold
        ~unlink:spec.unlink ?eq ?eq_handle ~user_ptr:spec.user_ptr ?length
        buffer
    | Iovec segments ->
      Md.create_iovec ~options:spec.options ~threshold:spec.threshold
        ~unlink:spec.unlink ?eq ?eq_handle ~user_ptr:spec.user_ptr segments
    | Reserved reservation ->
      Md.create_reserved ~options:spec.options ~threshold:spec.threshold
        ~unlink:spec.unlink ?eq ?eq_handle ~user_ptr:spec.user_ptr reservation
  in
  if Handle.is_none spec.eq then Ok (build ())
  else begin
    match Handle.Table.find t.eqs spec.eq with
    | None -> Error Errors.Invalid_eq
    | Some q -> Ok (build ~eq:q ~eq_handle:spec.eq ())
  end

let md_attach t ~me spec =
  match Handle.Table.find t.mes me with
  | None -> Error Errors.Invalid_me
  | Some entry ->
    (match md_of_spec t spec with
    | Error _ as e -> e |> Result.map (fun _ -> Handle.none)
    | Ok md ->
      let h = Handle.Table.alloc t.mds { md; owner = Some me } in
      Me.attach_md entry.me h;
      Ok h)

let md_bind t spec =
  match md_of_spec t spec with
  | Error e -> Error e
  | Ok md -> Ok (Handle.Table.alloc t.mds { md; owner = None })

let find_md t h =
  match Handle.Table.find t.mds h with
  | None -> Error Errors.Invalid_md
  | Some entry -> Ok entry

(* Remove an MD whose threshold has been exhausted (Unlink policy),
   cascading to its match entry per Figure 4. *)
let auto_unlink_md t h (entry : md_entry) =
  if (not (Md.active entry.md)) && Md.unlink_policy entry.md = Md.Unlink then begin
    (match entry.owner with
    | None -> ()
    | Some meh ->
      (match Handle.Table.find t.mes meh with
      | None -> ()
      | Some me_entry ->
        ignore (Me.remove_md me_entry.me h);
        if Me.is_empty me_entry.me && Me.unlink_policy me_entry.me = Md.Unlink
        then begin
          unlink_entry t me_entry;
          ignore (Handle.Table.free t.mes meh)
        end));
    ignore (Handle.Table.free t.mds h)
  end

(* Initiator-side completions (SENT/ACK/REPLY) also consume threshold. *)
let consume_initiator t h (entry : md_entry) =
  Md.consume_threshold entry.md;
  auto_unlink_md t h entry

let md_unlink t h =
  match find_md t h with
  | Error _ as e -> e |> Result.map ignore
  | Ok entry ->
    if Md.pending entry.md > 0 then Error Errors.Md_in_use
    else begin
      (match entry.owner with
      | None -> ()
      | Some meh ->
        (match Handle.Table.find t.mes meh with
        | None -> ()
        | Some me_entry -> ignore (Me.remove_md me_entry.me h)));
      ignore (Handle.Table.free t.mds h);
      Ok ()
    end

let md_local_offset t h =
  Result.map (fun e -> Md.local_offset e.md) (find_md t h)

let md_read t h ~offset ~len ~dst ~dst_off =
  match find_md t h with
  | Error e -> Error e
  | Ok { md; _ } ->
    if
      offset < 0 || len < 0 || offset + len > Md.length md || dst_off < 0
      || dst_off + len > Bytes.length dst
    then Error Errors.Invalid_arg
    else Ok (Md.blit_to md ~offset ~len ~dst ~dst_off)

(* PtlMDUpdate: atomically replace a descriptor, but only when [test_eq]
   is empty — the primitive that lets a library check "nothing happened
   yet" and commit a new descriptor in one indivisible step (e.g. MPI
   arming a posted receive against racing unexpected arrivals). In the
   simulation the whole call executes at one instant, which is exactly
   the atomicity the semantics require. *)
let md_update t h spec ~test_eq =
  match find_md t h with
  | Error e -> Error e
  | Ok entry ->
    if Md.pending entry.md > 0 then Error Errors.Md_in_use
    else begin
      match Handle.Table.find t.eqs test_eq with
      | None -> Error Errors.Invalid_eq
      | Some q ->
        if Event.Queue.count q > 0 then Ok false
        else begin
          match md_of_spec t spec with
          | Error e -> Error e
          | Ok md ->
            entry.md <- md;
            Ok true
        end
    end

let md_active t h = Result.map (fun e -> Md.active e.md) (find_md t h)

(* ------------------------------------------------------------------ *)
(* Initiating operations (§4.7) *)

(* A request's operation, the same on both sides of the wire: a put
   writes its payload into the region it matches, a get reads what its
   reply carries, and an atomic reads, modifies and writes back one word
   — the bypass path extended to read-modify-write (§5.1 generalized). *)
type operation = Put | Get | Atomic of Wire.atomic

let wire_op = function
  | Put -> Wire.Put_request
  | Get -> Wire.Get_request
  | Atomic _ -> Wire.Atomic_request

let md_op = function
  | Put -> Md.Op_put
  | Get -> Md.Op_get
  | Atomic _ -> Md.Op_atomic

(* SENT once a put has left the local interface. When the descriptor
   has no event queue and an infinite threshold the completion has no
   observable effect (no event to post, nothing to consume or unlink),
   so it is elided — fire-and-forget senders reusing a persistent
   descriptor pay no extra simulation event. *)
let sent_completion t ~mdh md ~len (o : op) =
  let md_eq = Md.eq md in
  if md_eq <> None || Md.threshold md <> Md.Infinite then
    Scheduler.after (sched t) t.tp.Simnet.Transport.send_overhead (fun () ->
        (match md_eq with
        | None -> ()
        | Some queue ->
          let ev =
            {
              Event.kind = Event.Sent;
              initiator = o.target;
              portal_index = o.portal_index;
              match_bits = o.match_bits;
              rlength = len;
              mlength = len;
              offset = o.offset;
              md_handle = mdh;
              md_user_ptr = Md.user_ptr md;
              time = Scheduler.now (sched t);
            }
          in
          ignore (Event.Queue.post queue ev));
        match Handle.Table.find t.mds mdh with
        | None -> ()
        | Some entry -> consume_initiator t mdh entry)

(* The initiator half of every request (§4.7): look up the descriptor,
   check that it is active and holds the [len] bytes the request names,
   write the wire image straight from the op, the descriptor and the NI
   (a put's payload blitted from MD memory into it, with no intermediate
   copy; an atomic's operands into its block) and send it. A put
   completes locally with SENT; a get or an atomic stays pending on its
   descriptor until the reply. *)
let request t operation ~md:mdh ~ack ~triggered ~length (o : op) =
  match Handle.Table.find t.mds mdh with
  | None -> Error Errors.Invalid_md
  | Some { md; _ } ->
    let is_put = match operation with Put -> true | Get | Atomic _ -> false in
    let len =
      match (operation, length) with
      | Atomic _, _ -> Wire.atomic_word_size
      | (Put | Get), Some l -> l
      | (Put | Get), None -> Md.length md
    in
    if not (Md.active md) then Error Errors.Invalid_md
    else if len < 0 || len > Md.length md then Error Errors.Invalid_arg
    else begin
      let ack_requested = ack && not (Md.options md).Md.ack_disable in
      let integrity = integrity t in
      let buf =
        Wire.image ~integrity (wire_op operation) ~ack_requested ~triggered
          ~initiator:t.self ~target:o.target ~portal_index:o.portal_index
          ~cookie:o.cookie ~match_bits:o.match_bits ~offset:o.offset
          ~md_handle:mdh
          ~eq_handle:(if is_put then Md.eq_handle md else Handle.none)
          ~incarnation:(self_incarnation t) ~length:len
      in
      (match operation with
      | Put ->
        t.c.c_puts <- t.c.c_puts + 1;
        Md.blit_to md ~offset:0 ~len ~dst:buf ~dst_off:Wire.header_size
      | Get -> t.c.c_gets <- t.c.c_gets + 1
      | Atomic a ->
        t.c.c_atomics <- t.c.c_atomics + 1;
        Wire.write_atomic buf a.Wire.aop ~operand:a.Wire.operand
          ~compare:a.Wire.compare);
      Wire.seal ~integrity buf;
      if ack_requested || not is_put then Md.incr_pending md;
      t.tp.Simnet.Transport.send ~src:t.self ~dst:o.target buf;
      if is_put then sent_completion t ~mdh md ~len o;
      Ok ()
    end

let put t ~md ?(ack = true) ?(triggered = false) ?length o =
  request t Put ~md ~ack ~triggered ~length o

let get t ~md o = request t Get ~md ~ack:false ~triggered:false ~length:None o

let atomic t ~md ~aop ~operand ?(compare = 0L) o =
  request t
    (Atomic { Wire.aop; operand; compare })
    ~md ~ack:false ~triggered:false ~length:None o

(* ------------------------------------------------------------------ *)
(* Counting events and triggered chains *)

let find_ct t h =
  match Handle.Table.find t.cts h with
  | Some e -> Ok e
  | None -> Error Errors.Invalid_ct

let ct_alloc t =
  Ok
    (Handle.Table.alloc t.cts
       {
         ct_value = 0;
         ct_armed = [];
         ct_waitq = Sync.Waitq.create ~name:"ct" (sched t);
       })

(* Waiters wake to find the handle gone and fail with [Invalid_ct]. *)
let ct_free t h =
  match Handle.Table.find t.cts h with
  | None -> Error Errors.Invalid_ct
  | Some e ->
    ignore (Handle.Table.free t.cts h);
    Sync.Waitq.broadcast e.ct_waitq;
    Ok ()

(* PtlCTSet to 0 plus PtlCTCancelTriggered. No waiter can be satisfied by
   a value going down, so none is woken. *)
let ct_reset t h =
  match Handle.Table.find t.cts h with
  | None -> Error Errors.Invalid_ct
  | Some e ->
    e.ct_value <- 0;
    e.ct_armed <- [];
    Ok ()

let ct_get t h = Result.map (fun e -> e.ct_value) (find_ct t h)

let me_set_ct t ~me ~ct =
  match Handle.Table.find t.mes me with
  | None -> Error Errors.Invalid_me
  | Some entry ->
    (match Handle.Table.find t.cts ct with
    | None -> Error Errors.Invalid_ct
    | Some _ ->
      entry.me_ct <- ct;
      Ok ())

(* The earliest-armed chain whose threshold [value] meets, or [no_chain].
   Plain recursion, so that a bump allocates no closure and removing the
   chain copies only the cells armed before it (none when it is the
   head). *)
let no_chain = { a_threshold = max_int; a_actions = []; a_eq = Handle.none; a_user_ptr = 0 }

let rec first_due value = function
  | [] -> no_chain
  | a :: rest -> if a.a_threshold <= value then a else first_due value rest

let rec without a = function
  | [] -> []
  | x :: rest -> if x == a then rest else x :: without a rest

(* A chain resolves the descriptor it sends from when it fires: one that
   vanished or went inactive mis-fires into its drop reason. *)
let fireable t md =
  match Handle.Table.find t.mds md with
  | None ->
    drop t Triggered_target_gone;
    false
  | Some entry when not (Md.active entry.md) ->
    drop t Triggered_md_inactive;
    false
  | Some _ -> true

(* Run one armed chain. Every action resolves its handles at fire time —
   the §4.8 discipline extended to the triggered path: a chain whose
   descriptor or counter vanished (or whose descriptor exhausted its
   threshold) mis-fires into a dedicated drop reason instead of raising,
   and the fabric stays consistent. Each fired action is charged like one
   match-list entry: the chain runs on the NI, so its cost lands on the
   receive processor, never on a host fiber. *)
let rec run_chain t (a : armed) =
  t.c.c_triggered <- t.c.c_triggered + 1;
  t.tp.Simnet.Transport.charge_rx t.self.Simnet.Proc_id.nid
    (Time_ns.ns
       (List.length a.a_actions * t.tp.Simnet.Transport.match_entry_cost));
  run_actions t a.a_actions;
  if not (Handle.is_none a.a_eq) then begin
    match Handle.Table.find t.eqs a.a_eq with
    | None -> drop t Triggered_target_gone
    | Some queue ->
      let ev =
        {
          Event.kind = Event.Triggered;
          initiator = t.self;
          portal_index = 0;
          match_bits = Match_bits.zero;
          rlength = List.length a.a_actions;
          mlength = 0;
          offset = a.a_threshold;
          md_handle = Handle.none;
          md_user_ptr = a.a_user_ptr;
          time = Scheduler.now (sched t);
        }
      in
      if not (Event.Queue.post queue ev) then drop t Triggered_eq_full
  end

and run_actions t = function
  | [] -> ()
  | action :: rest ->
    run_action t action;
    run_actions t rest

and run_action t = function
  | Triggered_put { md; ack; length; op } ->
    if fireable t md && Result.is_error (put t ~md ~ack ~triggered:true ?length op)
    then drop t Triggered_md_inactive
  | Triggered_atomic { md; aop; operand; compare; op } ->
    if fireable t md && Result.is_error (atomic t ~md ~aop ~operand ~compare op)
    then drop t Triggered_md_inactive
  | Triggered_combine { dst; src; f } ->
    (match (Handle.Table.find t.mds dst, Handle.Table.find t.mds src) with
    | None, _ | _, None -> drop t Triggered_target_gone
    | Some d, Some s ->
      (* The NIC-resident combine (the programmable-NIC reduction of
         Yu et al.): fold [src] into [dst] in place. Regions that are
         whole, distinct buffers are folded where they lie; any other
         shape goes through copies of both regions. *)
      (match (Md.whole_buffer d.md, Md.whole_buffer s.md) with
      | Some db, Some sb when db != sb -> f db sb
      | _ ->
        let db = Md.read d.md ~offset:0 ~len:(Md.length d.md) in
        let sb = Md.read s.md ~offset:0 ~len:(Md.length s.md) in
        f db sb;
        Md.write d.md ~offset:0 ~src:db ~src_off:0 ~len:(Bytes.length db)))
  | Triggered_ct_inc { ct; amount } ->
    (match Handle.Table.find t.cts ct with
    | None -> drop t Triggered_target_gone
    | Some e -> ct_bump t e amount)

(* Bump a counter and fire every chain whose threshold is now met, in
   arming order. Chains are removed before running, so a chain that bumps
   its own counter (fan-in accumulation) re-enters cleanly. *)
and ct_bump t (e : ct_entry) n =
  e.ct_value <- e.ct_value + n;
  fire_eligible t e;
  Sync.Waitq.broadcast e.ct_waitq

and fire_eligible t (e : ct_entry) =
  let a = first_due e.ct_value e.ct_armed in
  if a != no_chain then begin
    e.ct_armed <- without a e.ct_armed;
    run_chain t a;
    fire_eligible t e
  end

let ct_inc t h n =
  if n <= 0 then Error Errors.Invalid_arg
  else
    Result.map
      (fun e -> ct_bump t e n)
      (find_ct t h)

let ct_arm t ~ct ?(eq = Handle.none) ?(user_ptr = 0) ~threshold actions =
  if threshold < 0 then Error Errors.Invalid_arg
  else begin
    match find_ct t ct with
    | Error e -> Error e
    | Ok entry ->
      let a =
        { a_threshold = threshold; a_actions = actions; a_eq = eq; a_user_ptr = user_ptr }
      in
      entry.ct_armed <- entry.ct_armed @ [ a ];
      (* Fire-immediately semantics: arming below or at the current value
         runs the chain now. Without this, a deposit that lands before the
         host arms the next round would hang the chain forever. *)
      fire_eligible t entry;
      Ok ()
  end

let ct_wait t h ~threshold =
  let rec loop () =
    match Handle.Table.find t.cts h with
    | None -> Error Errors.Invalid_ct
    | Some e ->
      if e.ct_value >= threshold then Ok e.ct_value
      else begin
        Sync.Waitq.wait e.ct_waitq;
        loop ()
      end
  in
  loop ()

(* Match-time counter bump: the hook the receive path calls once a
   deposit (put/get/atomic) has committed through a counted match entry. *)
let bump_match_ct t cth =
  if not (Handle.is_none cth) then begin
    match Handle.Table.find t.cts cth with
    | None -> drop t Triggered_target_gone
    | Some e -> ct_bump t e 1
  end

(* ------------------------------------------------------------------ *)
(* Receive path (§4.8) *)

let post_event t ~kind ~(msg : Wire.t) ~mlength ~offset ~user_ptr queue =
  let ev =
    {
      Event.kind;
      initiator = msg.Wire.initiator;
      portal_index = msg.Wire.portal_index;
      match_bits = msg.Wire.match_bits;
      rlength = msg.Wire.length;
      mlength;
      offset;
      md_handle = msg.Wire.md_handle;
      md_user_ptr = user_ptr;
      time = Scheduler.now (sched t);
    }
  in
  ignore (Event.Queue.post queue ev)

let first_md t e =
  match Me.md_handles e.me with
  | [] -> None
  | mdh :: _ -> Handle.Table.find t.mds mdh

(* Walk a match list from [e] (Figure 4) for a request whose source and
   bits are already split into immediates. A top-level function rather
   than a closure over the request, and it returns the matching entry (or
   [nil]) with the rest of the outcome left in [t.walked] and
   [t.mlength], so a translation allocates nothing. *)
let rec walk t ~nid ~pid ~hi ~lo ~op ~rlength ~roffset e =
  if e == nil then nil
  else begin
    t.walked <- t.walked + 1;
    if not (Me.matches_split e.me ~nid ~pid ~hi ~lo) then
      walk t ~nid ~pid ~hi ~lo ~op ~rlength ~roffset e.next
    else begin
      (* Only the first memory descriptor is considered. *)
      match first_md t e with
      | None -> walk t ~nid ~pid ~hi ~lo ~op ~rlength ~roffset e.next
      | Some md_entry ->
        let verdict = Md.accepts md_entry.md ~op ~rlength ~roffset in
        if verdict < 0 then walk t ~nid ~pid ~hi ~lo ~op ~rlength ~roffset e.next
        else begin
          t.mlength <- verdict;
          e
        end
    end
  end

let translate t ~portal_index ~(src : Simnet.Proc_id.t) ~mbits ~op ~rlength
    ~roffset =
  t.walked <- 0;
  let e =
    walk t ~nid:src.Simnet.Proc_id.nid ~pid:src.Simnet.Proc_id.pid
      ~hi:(Match_bits.hi32 mbits) ~lo:(Match_bits.lo32 mbits)
      ~op ~rlength ~roffset t.pt_head.(portal_index)
  in
  t.c.c_translations <- t.c.c_translations + 1;
  t.c.c_entries <- t.c.c_entries + t.walked;
  e

let match_walk_cost t ~entries =
  Time_ns.ns (entries * t.tp.Simnet.Transport.match_entry_cost)

let acl_drop = function
  | Acl.Bad_cookie -> Acl_bad_cookie
  | Acl.Id_mismatch -> Acl_id_mismatch
  | Acl.Portal_mismatch -> Acl_portal_mismatch

(* Deposit a request in [md] at [offset]; the bytes returned are what
   the response carries: a get's data, an atomic's fetched word. *)
let deposit md operation (msg : Wire.t) ~offset ~mlength =
  match operation with
  | Put ->
    (* [msg] is a [decode_view]: payload bytes sit in the wire image
       after the header. *)
    Md.write md ~offset ~src:msg.Wire.data ~src_off:Wire.header_size
      ~len:mlength;
    Bytes.empty
  | Get -> Md.read md ~offset ~len:mlength
  | Atomic a ->
    let word = Md.read md ~offset ~len:mlength in
    let old = Bytes.get_int64_le word 0 in
    Bytes.set_int64_le word 0
      (match a.Wire.aop with
      | Wire.Fetch_add -> Int64.add old a.Wire.operand
      | Wire.Swap -> a.Wire.operand
      | Wire.Cas -> if Int64.equal old a.Wire.compare then a.Wire.operand else old);
    Md.write md ~offset ~src:word ~src_off:0 ~len:mlength;
    (* The reply fetches the word as it was. *)
    Bytes.set_int64_le word 0 old;
    word

let send_response t (msg : Wire.t) response =
  t.tp.Simnet.Transport.send ~src:t.self ~dst:msg.Wire.initiator
    (Wire.encode ~integrity:(integrity t) response)

(* Answer a committed request: an acknowledgment when the put asked for
   one and its descriptor allows it, a reply carrying a get's data, or
   the atomic reply carrying the fetched word. *)
let respond t (msg : Wire.t) md operation ~mlength data =
  match operation with
  | Put ->
    if
      msg.Wire.ack_requested
      && (not (Md.options md).Md.ack_disable)
      && not (Handle.is_none msg.Wire.eq_handle)
    then begin
      t.c.c_acks <- t.c.c_acks + 1;
      send_response t msg
        (Wire.ack_of_put ~incarnation:(self_incarnation t) msg ~mlength)
    end
  | Get ->
    t.c.c_replies <- t.c.c_replies + 1;
    send_response t msg
      (Wire.reply_of_get ~incarnation:(self_incarnation t) msg ~mlength ~data)
  | Atomic _ ->
    t.c.c_atomics_exec <- t.c.c_atomics_exec + 1;
    send_response t msg
      (Wire.atomic_reply_of_request ~incarnation:(self_incarnation t) msg
         ~fetched:(Bytes.get_int64_le data 0))

let misaligned operation (msg : Wire.t) =
  match operation with
  | Put | Get -> false
  | Atomic _ ->
    msg.Wire.length <> Wire.atomic_word_size
    || msg.Wire.offset < 0
    || msg.Wire.offset mod Wire.atomic_word_size <> 0

(* One request, as §4.8 prescribes for every kind: check the portal
   index and the access control entry, translate through the match list,
   commit to the first descriptor that accepts, deposit, post the event,
   then answer. *)
let handle_request t (msg : Wire.t) operation =
  let src = msg.Wire.initiator and pt = msg.Wire.portal_index in
  if pt < 0 || pt >= Array.length t.pt_head then drop t Invalid_portal_index
  else begin
    match Acl.check t.ni_acl ~cookie:msg.Wire.cookie ~src ~portal_index:pt with
    | Error failure -> drop t (acl_drop failure)
    | Ok () when misaligned operation msg -> drop t Atomic_misaligned
    | Ok () ->
      let me_entry =
        translate t ~portal_index:pt ~src ~mbits:msg.Wire.match_bits
          ~op:(md_op operation) ~rlength:msg.Wire.length ~roffset:msg.Wire.offset
      in
      if me_entry == nil then drop t No_match
      else begin
        let entries = t.walked and mlength = t.mlength in
        let mdh = List.hd (Me.md_handles me_entry.me) in
        let md_entry = Option.get (Handle.Table.find t.mds mdh) in
        let md = md_entry.md in
        (* Capture before unlinking can free the match entry. *)
        let matched_ct = me_entry.me_ct in
        let offset = Md.landing md ~roffset:msg.Wire.offset in
        (* Commit state at arrival so the next message sees consistent
           matching structures; emit observable effects after the cost. *)
        Md.consume md ~offset ~mlength;
        let data = deposit md operation msg ~offset ~mlength in
        auto_unlink_md t mdh md_entry;
        (* The transport already carried the data-landing time; only the
           match-list walk is charged here (it perturbs the host when the
           placement is kernel-space). Events and responses are emitted at
           delivery time so the structures and the event queues always
           agree — the atomicity higher-level libraries rely on. *)
        let walk_cost = match_walk_cost t ~entries in
        t.tp.Simnet.Transport.charge_rx t.self.Simnet.Proc_id.nid walk_cost;
        let tr = Scheduler.trace (sched t) in
        if Trace.enabled tr then begin
          let start = Scheduler.now (sched t) in
          Trace.complete tr ~subsys:"ni"
            ~proc:(t.tp.Simnet.Transport.rx_track t.self.Simnet.Proc_id.nid)
            ~msg_id:t.c.c_rx ~start
            ~finish:(Time_ns.add start walk_cost)
            (match operation with
            | Put | Get -> Printf.sprintf "match pt=%d" pt
            | Atomic a ->
              Printf.sprintf "atomic %s pt=%d" (Wire.aop_to_string a.Wire.aop) pt)
        end;
        (match Md.eq md with
        | None -> ()
        | Some queue ->
          let kind =
            match operation with
            (* A chain-fired put is logged as TRIGGERED: the provenance
               bit on the wire makes NIC-resident forwarding observable
               at the target. *)
            | Put -> if msg.Wire.triggered then Event.Triggered else Event.Put
            | Get -> Event.Get
            | Atomic _ -> Event.Atomic
          in
          post_event t ~kind ~msg ~mlength ~offset ~user_ptr:(Md.user_ptr md)
            queue);
        respond t msg md operation ~mlength data;
        (* Counter bump last: acknowledgments and events for this deposit
           are already issued when a chain it triggers starts sending, so
           a fired chain observes — and extends — a consistent NI. *)
        bump_match_ct t matched_ct
      end
  end

let handle_ack t (msg : Wire.t) =
  (* §4.8: only confirm the event queue still exists; then record the
     event. The MD, if still present, sees its ACK completion. *)
  match Handle.Table.find t.eqs msg.Wire.eq_handle with
  | None -> drop t Ack_no_eq
  | Some queue ->
    let md_entry = Handle.Table.find t.mds msg.Wire.md_handle in
    (match md_entry with
    | None -> ()
    | Some entry -> if Md.pending entry.md > 0 then Md.decr_pending entry.md);
    post_event t ~kind:Event.Ack ~msg ~mlength:msg.Wire.length
      ~offset:msg.Wire.offset
      ~user_ptr:(match md_entry with None -> 0 | Some e -> Md.user_ptr e.md)
      queue;
    (match md_entry with
    | None -> ()
    | Some entry -> consume_initiator t msg.Wire.md_handle entry)

(* A get's reply or an atomic's: it lands through the initiator's MD,
   with no event-queue handle on the wire. Every memory descriptor
   accepts and truncates replies (§4.8); a get's data follows the header
   and an atomic's fetched word sits in the operand slot of its block.
   Each kind keeps its own drop reasons, so the table stays exact. *)
let handle_reply t (msg : Wire.t) =
  let atomic = msg.Wire.op = Wire.Atomic_reply in
  match Handle.Table.find t.mds msg.Wire.md_handle with
  | None -> drop t (if atomic then Atomic_reply_no_md else Reply_no_md)
  | Some entry ->
    let md = entry.md in
    (match Md.eq md with
    | Some queue when Event.Queue.is_full queue ->
      (* §4.8: a reply is dropped if the event queue has no space and is
         not null. The failing post keeps the loss observable through the
         queue's PTL_EQ_DROPPED counter, which completion waiters (e.g.
         Onesided.check_tx_overflow) turn into a typed overflow error
         instead of a silent hang. *)
      post_event t ~kind:Event.Reply ~msg ~mlength:0 ~offset:0
        ~user_ptr:(Md.user_ptr md) queue;
      drop t (if atomic then Atomic_reply_eq_full else Reply_eq_full)
    | md_eq ->
      let mlength =
        min (if atomic then Wire.atomic_word_size else msg.Wire.length) (Md.length md)
      in
      Md.write md ~offset:0 ~src:msg.Wire.data
        ~src_off:(if atomic then Wire.atomic_operand_offset else Wire.header_size)
        ~len:mlength;
      if Md.pending md > 0 then Md.decr_pending md;
      (match md_eq with
      | None -> ()
      | Some queue ->
        post_event t ~kind:Event.Reply ~msg ~mlength ~offset:0
          ~user_ptr:(Md.user_ptr md) queue);
      consume_initiator t msg.Wire.md_handle entry)

let handle_incoming t ~src payload =
  if t.live then begin
    t.c.c_rx <- t.c.c_rx + 1;
    t.c.c_rx_bytes <- t.c.c_rx_bytes + Bytes.length payload;
    match Wire.decode_view ~integrity:(integrity t) ~src ~dst:t.self payload with
    | Error (Wire.Bad_checksum _) -> drop t Checksum_failed
    | Error _ -> drop t Malformed
    | Ok msg ->
      (* Incarnation fence: a message stamped by a previous life of its
         sender node is from a process that no longer exists; accepting it
         would resurrect pre-crash state (§3's connectionless argument —
         the fence replaces a connection teardown). *)
      let sender_nid = msg.Wire.initiator.Simnet.Proc_id.nid in
      if
        msg.Wire.incarnation
        <> t.tp.Simnet.Transport.node_incarnation sender_nid
      then drop t Stale_incarnation
      else (
        match msg.Wire.op with
        | Wire.Put_request -> handle_request t msg Put
        | Wire.Get_request -> handle_request t msg Get
        | Wire.Atomic_request ->
          (match msg.Wire.atomic with
          | None -> drop t Malformed
          | Some a -> handle_request t msg (Atomic a))
        | Wire.Ack -> handle_ack t msg
        | Wire.Reply | Wire.Atomic_reply -> handle_reply t msg)
  end

(* ------------------------------------------------------------------ *)

(* Every interface has 64 portal entries and 16 ACL entries. *)
let portal_table_size = 64
let acl_size = 16

let create tp ~id:self () =
  let t =
    {
      tp;
      self;
      pt_head = Array.make portal_table_size nil;
      pt_tail = Array.make portal_table_size nil;
      ni_acl = Acl.create ~size:acl_size;
      mds = Handle.Table.create ();
      mes = Handle.Table.create ();
      eqs = Handle.Table.create ();
      cts = Handle.Table.create ();
      drops = Array.make (Array.length drop_table) 0;
      c =
        {
          c_puts = 0;
          c_gets = 0;
          c_atomics = 0;
          c_acks = 0;
          c_replies = 0;
          c_atomics_exec = 0;
          c_rx = 0;
          c_rx_bytes = 0;
          c_translations = 0;
          c_entries = 0;
          c_triggered = 0;
        };
      eq_seq = 0;
      live = true;
      walked = 0;
      mlength = 0;
    }
  in
  Acl.install_defaults t.ni_acl ~job_id:Match_id.any;
  tp.Simnet.Transport.register self (fun ~src payload ->
      handle_incoming t ~src payload);
  (* Publish the §4.8 drop counters (by reason) and the interface counters
     as probes: the receive path keeps its plain integer bumps, and the
     registry polls them only at snapshot time. *)
  let m = Scheduler.metrics (sched t) in
  let proc = Simnet.Proc_id.to_string self in
  Array.iteri
    (fun i (_, slug, _) ->
      Metrics.probe m
        ~labels:[ ("proc", proc); ("reason", slug) ]
        "ni.drops"
        (fun () -> float_of_int t.drops.(i)))
    drop_table;
  let labels = [ ("proc", proc) ] in
  List.iter
    (fun (name, read) -> Metrics.probe m ~labels name read)
    [
      ("ni.puts", fun () -> float_of_int t.c.c_puts);
      ("ni.gets", fun () -> float_of_int t.c.c_gets);
      ("ni.atomics", fun () -> float_of_int t.c.c_atomics);
      ("ni.acks", fun () -> float_of_int t.c.c_acks);
      ("ni.replies", fun () -> float_of_int t.c.c_replies);
      ("ni.atomics_executed", fun () -> float_of_int t.c.c_atomics_exec);
      ("ni.rx_messages", fun () -> float_of_int t.c.c_rx);
      ("ni.rx_bytes", fun () -> float_of_int t.c.c_rx_bytes);
      ("ni.translations", fun () -> float_of_int t.c.c_translations);
      ("ni.entries_walked", fun () -> float_of_int t.c.c_entries);
      ("ni.triggered_fired", fun () -> float_of_int t.c.c_triggered);
      ("ni.drops_total", fun () -> float_of_int (dropped_total t));
    ];
  t

let shutdown t =
  if t.live then begin
    t.live <- false;
    t.tp.Simnet.Transport.unregister t.self
  end
