open Sim_engine
module P = Portals

type sym = int

type eq_side = Rx | Tx

let eq_side_to_string = function Rx -> "rx" | Tx -> "tx"

type error =
  | Eq_alloc_failed of { side : eq_side; capacity : int; cause : P.Errors.t }
  | Eq_overflow of { side : eq_side; dropped : int }

exception Error of error

let pp_error ppf = function
  | Eq_alloc_failed { side; capacity; cause } ->
    Format.fprintf ppf
      "Onesided: %s event queue allocation (capacity %d) failed: %a"
      (eq_side_to_string side) capacity P.Errors.pp cause
  | Eq_overflow { side; dropped } ->
    Format.fprintf ppf
      "Onesided: %s event queue overflowed (%d events dropped) — completions \
       were lost"
      (eq_side_to_string side) dropped

let () =
  Printexc.register_printer (function
    | Error e -> Some (Format.asprintf "%a" pp_error e)
    | _ -> None)

type region = { r_id : int; r_buffer : bytes; r_me : P.Handle.me }

(* Counters and latency summaries for the RMA layer, registered once per
   endpoint under the process label (like [Ni]'s "ni.*" probes). *)
type rma_metrics = {
  m_put : Metrics.counter;
  m_get : Metrics.counter;
  m_accumulate : Metrics.counter;
  m_fetch_add : Metrics.counter;
  m_cas : Metrics.counter;
  m_flush : Metrics.counter;
  m_lock_acquired : Metrics.counter;
  m_lock_retries : Metrics.counter;
  m_lock_wait : Metrics.summary;
}

type t = {
  os_ni : P.Ni.t;
  tp : Simnet.Transport.t;
  ranks : Simnet.Proc_id.t array;
  my_rank : int;
  portal_index : int;
  rx_eqh : P.Handle.eq;
  rx_eqq : P.Event.Queue.t; (* incoming one-sided ops on my regions *)
  tx_eqh : P.Handle.eq;
  tx_eqq : P.Event.Queue.t; (* completions of my puts/gets/atomics *)
  m : rma_metrics;
  mutable regions : region list;
  mutable next_region : int;
  mutable outstanding : int; (* puts awaiting acknowledgment *)
  mutable next_op : int;
  completed_gets : (int, int) Hashtbl.t; (* op id -> mlength *)
  op_target : (int, int) Hashtbl.t; (* unacked op id -> target pe *)
  pending_pe : (int, int) Hashtbl.t; (* target pe -> unacked op count *)
  forget : (int, unit) Hashtbl.t; (* op ids whose reply nobody reads *)
}

let ok_exn = P.Errors.ok_exn

let create ni ~ranks ~rank ?(portal_index = 7) ?(eq_capacity = 4096) () =
  if rank < 0 || rank >= Array.length ranks then
    invalid_arg "Onesided.create: rank out of range";
  let alloc_eq side =
    match P.Ni.eq_alloc ni ~capacity:eq_capacity with
    | Ok h -> Ok h
    | Error cause -> Error (Eq_alloc_failed { side; capacity = eq_capacity; cause })
  in
  match alloc_eq Rx with
  | Error _ as e -> e
  | Ok rx_eqh ->
    (match alloc_eq Tx with
    | Error _ as e -> e
    | Ok tx_eqh ->
      let tp = P.Ni.transport ni in
      let reg = Scheduler.metrics (P.Ni.sched ni) in
      let labels =
        [ ("proc", Format.asprintf "%a" Simnet.Proc_id.pp (P.Ni.id ni)) ]
      in
      let c name = Metrics.counter reg ~labels name in
      let m =
        {
          m_put = c "rma.put";
          m_get = c "rma.get";
          m_accumulate = c "rma.accumulate";
          m_fetch_add = c "rma.fetch_add";
          m_cas = c "rma.cas";
          m_flush = c "rma.flush";
          m_lock_acquired = c "rma.lock_acquired";
          m_lock_retries = c "rma.lock_retries";
          m_lock_wait = Metrics.summary reg ~labels "rma.lock_wait_us";
        }
      in
      Ok
        {
          os_ni = ni;
          tp;
          ranks;
          my_rank = rank;
          portal_index;
          rx_eqh;
          rx_eqq = ok_exn ~op:"rx eq" (P.Ni.eq ni rx_eqh);
          tx_eqh;
          tx_eqq = ok_exn ~op:"tx eq" (P.Ni.eq ni tx_eqh);
          m;
          regions = [];
          next_region = 0;
          outstanding = 0;
          next_op = 0;
          completed_gets = Hashtbl.create 16;
          op_target = Hashtbl.create 16;
          pending_pe = Hashtbl.create 8;
          forget = Hashtbl.create 16;
        })

let create_exn ni ~ranks ~rank ?portal_index ?eq_capacity () =
  match create ni ~ranks ~rank ?portal_index ?eq_capacity () with
  | Ok t -> t
  | Error e -> raise (Error e)

let region_options =
  {
    P.Md.op_put = true;
    op_get = true;
    manage_remote = true;
    truncate = false;
    ack_disable = false;
  }

let alloc t len =
  if len <= 0 then invalid_arg "Onesided.alloc: region must be non-empty";
  let r_id = t.next_region in
  t.next_region <- r_id + 1;
  (* Regions start zeroed so flag/counter idioms have a defined initial
     state (unlike Bytes.create, whose contents are arbitrary). *)
  let r_buffer = Bytes.make len '\x00' in
  let meh =
    ok_exn ~op:"region me_attach"
      (P.Ni.me_attach t.os_ni ~portal_index:t.portal_index
         ~match_id:P.Match_id.any
         ~match_bits:(P.Match_bits.of_int r_id)
         ~ignore_bits:P.Match_bits.zero ~unlink:P.Md.Retain ~pos:`Tail ())
  in
  let _mdh =
    ok_exn ~op:"region md_attach"
      (P.Ni.md_attach t.os_ni ~me:meh
         (P.Ni.md_spec ~options:region_options ~threshold:P.Md.Infinite
            ~unlink:P.Md.Retain ~eq:t.rx_eqh ~user_ptr:r_id r_buffer))
  in
  t.regions <- { r_id; r_buffer; r_me = meh } :: t.regions;
  r_id

let find_region t sym =
  match List.find_opt (fun r -> r.r_id = sym) t.regions with
  | Some r -> r
  | None -> invalid_arg "Onesided: unknown region"

let region_bytes t sym = (find_region t sym).r_buffer

let check_pe t pe =
  if pe < 0 || pe >= Array.length t.ranks then
    invalid_arg "Onesided: pe out of range"

let region_len t sym = Bytes.length (find_region t sym).r_buffer

let pending_to t pe =
  match Hashtbl.find_opt t.pending_pe pe with Some n -> n | None -> 0

let bump_pending t pe d = Hashtbl.replace t.pending_pe pe (pending_to t pe + d)

(* Retire an op from per-target accounting once its ack/reply arrived. *)
let note_op_done t op_id =
  match Hashtbl.find_opt t.op_target op_id with
  | None -> ()
  | Some pe ->
    Hashtbl.remove t.op_target op_id;
    bump_pending t pe (-1)

(* Process one local completion event. *)
let handle_tx_event t (ev : P.Event.t) =
  match ev.P.Event.kind with
  | P.Event.Ack ->
    t.outstanding <- t.outstanding - 1;
    note_op_done t ev.P.Event.md_user_ptr
  | P.Event.Reply ->
    note_op_done t ev.P.Event.md_user_ptr;
    if Hashtbl.mem t.forget ev.P.Event.md_user_ptr then
      Hashtbl.remove t.forget ev.P.Event.md_user_ptr
    else
      Hashtbl.replace t.completed_gets ev.P.Event.md_user_ptr ev.P.Event.mlength
  | P.Event.Sent | P.Event.Put | P.Event.Get | P.Event.Atomic
  | P.Event.Triggered -> ()

(* A dropped tx event is an ack/reply this endpoint will never see: the
   outstanding accounting can no longer converge, so every completion-
   dependent call turns the silent hang into a typed error. *)
let check_tx_overflow t =
  let d = P.Event.Queue.dropped t.tx_eqq in
  if d > 0 then raise (Error (Eq_overflow { side = Tx; dropped = d }))

(* [wait] on a non-empty queue returns at once, without boxing the
   event as [get] does. *)
let rec drain_tx t =
  if P.Event.Queue.count t.tx_eqq > 0 then begin
    handle_tx_event t (P.Event.Queue.wait t.tx_eqq);
    drain_tx t
  end

(* Drain, then block on the tx queue until [pred] holds. *)
let wait_tx t pred =
  drain_tx t;
  check_tx_overflow t;
  while not (pred ()) do
    handle_tx_event t (P.Event.Queue.wait t.tx_eqq);
    drain_tx t;
    check_tx_overflow t
  done

let fresh_op t =
  let op_id = t.next_op in
  t.next_op <- op_id + 1;
  op_id

let put t sym ~pe ~offset data =
  check_pe t pe;
  if offset < 0 || offset + Bytes.length data > region_len t sym then
    invalid_arg "Onesided.put: outside the region";
  drain_tx t;
  check_tx_overflow t;
  let op_id = fresh_op t in
  (* Threshold 2: SENT then ACK; the descriptor self-cleans after the
     target confirms the deposit. *)
  let mdh =
    ok_exn ~op:"put md_bind"
      (P.Ni.md_bind t.os_ni
         (P.Ni.md_spec ~threshold:(P.Md.Count 2) ~unlink:P.Md.Unlink
            ~eq:t.tx_eqh ~user_ptr:op_id data))
  in
  t.outstanding <- t.outstanding + 1;
  Hashtbl.replace t.op_target op_id pe;
  bump_pending t pe 1;
  Metrics.incr t.m.m_put;
  ok_exn ~op:"put"
    (P.Ni.put t.os_ni ~md:mdh ~ack:true
       (P.Ni.op ~target:t.ranks.(pe) ~portal_index:t.portal_index
          ~match_bits:(P.Match_bits.of_int sym) ~offset ()))

let quiet t = wait_tx t (fun () -> Hashtbl.length t.op_target = 0)

let flush_to t ~pe =
  Metrics.incr t.m.m_flush;
  wait_tx t (fun () -> pending_to t pe = 0)

let outstanding_puts t =
  drain_tx t;
  t.outstanding

let get t sym ~pe ~offset ~len =
  check_pe t pe;
  if len < 0 || offset < 0 || offset + len > region_len t sym then
    invalid_arg "Onesided.get: outside the region";
  drain_tx t;
  check_tx_overflow t;
  let op_id = fresh_op t in
  let dest = Bytes.create len in
  let mdh =
    ok_exn ~op:"get md_bind"
      (P.Ni.md_bind t.os_ni
         (P.Ni.md_spec ~threshold:(P.Md.Count 1) ~unlink:P.Md.Unlink
            ~eq:t.tx_eqh ~user_ptr:op_id dest))
  in
  Metrics.incr t.m.m_get;
  ok_exn ~op:"get"
    (P.Ni.get t.os_ni ~md:mdh
       (P.Ni.op ~target:t.ranks.(pe) ~portal_index:t.portal_index
          ~match_bits:(P.Match_bits.of_int sym) ~offset ()));
  wait_tx t (fun () -> Hashtbl.mem t.completed_gets op_id);
  Hashtbl.remove t.completed_gets op_id;
  dest

(* Issue an atomic without waiting for its reply. The 8-byte landing
   descriptor self-cleans on the reply (threshold 1, unlink); with
   [forget] the fetched value is discarded on arrival instead of parked
   in [completed_gets]. *)
let atomic_post t sym ~pe ~offset ~aop ~operand ~compare ~forget =
  check_pe t pe;
  if offset < 0 || offset + P.Wire.atomic_word_size > region_len t sym then
    invalid_arg "Onesided.atomic: outside the region";
  drain_tx t;
  check_tx_overflow t;
  let op_id = fresh_op t in
  let dest = Bytes.create P.Wire.atomic_word_size in
  let mdh =
    ok_exn ~op:"atomic md_bind"
      (P.Ni.md_bind t.os_ni
         (P.Ni.md_spec ~threshold:(P.Md.Count 1) ~unlink:P.Md.Unlink
            ~eq:t.tx_eqh ~user_ptr:op_id dest))
  in
  Hashtbl.replace t.op_target op_id pe;
  bump_pending t pe 1;
  if forget then Hashtbl.replace t.forget op_id ();
  ok_exn ~op:"atomic"
    (P.Ni.atomic t.os_ni ~md:mdh ~aop ~operand ~compare
       (P.Ni.op ~target:t.ranks.(pe) ~portal_index:t.portal_index
          ~match_bits:(P.Match_bits.of_int sym) ~offset ()));
  (op_id, dest)

let atomic_fetch t sym ~pe ~offset ~aop ~operand ~compare =
  let op_id, dest =
    atomic_post t sym ~pe ~offset ~aop ~operand ~compare ~forget:false
  in
  wait_tx t (fun () -> Hashtbl.mem t.completed_gets op_id);
  Hashtbl.remove t.completed_gets op_id;
  Bytes.get_int64_le dest 0

let fetch_and_add t sym ~pe ~offset delta =
  Metrics.incr t.m.m_fetch_add;
  atomic_fetch t sym ~pe ~offset ~aop:P.Wire.Fetch_add ~operand:delta
    ~compare:0L

let compare_and_swap t sym ~pe ~offset ~expected ~desired =
  Metrics.incr t.m.m_cas;
  atomic_fetch t sym ~pe ~offset ~aop:P.Wire.Cas ~operand:desired
    ~compare:expected

let wait_until t sym ~offset ~value =
  let buffer = region_bytes t sym in
  if offset < 0 || offset >= Bytes.length buffer then
    invalid_arg "Onesided.wait_until: outside the region";
  (* Only drops that happen while this wait is in progress can cost it a
     wakeup; earlier overflow is survivable because the flag byte itself
     is re-checked first. *)
  let baseline = P.Event.Queue.dropped t.rx_eqq in
  while Bytes.get buffer offset <> value do
    let d = P.Event.Queue.dropped t.rx_eqq in
    if d > baseline then raise (Error (Eq_overflow { side = Rx; dropped = d }));
    (* Any incoming one-sided operation wakes us to re-check. *)
    ignore (P.Event.Queue.wait t.rx_eqq)
  done

let barrier_value = '\x01'

let free_region t sym =
  let r = find_region t sym in
  t.regions <- List.filter (fun r' -> r'.r_id <> sym) t.regions;
  (* Incoming traffic may still hold the MDs briefly; a busy unlink only
     means the match entry dies on the next quiescent point. *)
  ignore (P.Ni.me_unlink t.os_ni r.r_me)

(* ------------------------------------------------------------------ *)
(* foMPI-shaped windows *)

type lock_kind = Shared | Exclusive

type win = {
  w_os : t;
  w_sym : sym;
  w_size : int; (* usable data bytes, excluding the lock word *)
  w_held : (int, lock_kind) Hashtbl.t; (* target rank -> my hold *)
  mutable w_freed : bool;
}

module Win = struct
  (* Window layout on every rank: a 64-bit lock word at offset 0, data
     at [data_base, data_base + size). The lock word packs an exclusive
     holder tag in the high 32 bits — (rank+1) in the upper 16, the
     holder's node incarnation in the lower 16, 0 meaning free — over a
     shared-holder count in the low 32 bits (the foMPI scheme). Lock
     acquisition is pure Portals atomics on the target's word; the
     incarnation in the tag is what lets survivors fence a holder that
     crashed and recover the lock. *)
  let data_base = P.Wire.atomic_word_size
  let lock_pos = 0

  let tag_of word = Int64.to_int (Int64.shift_right_logical word 32)
  let shared_of word = Int64.to_int (Int64.logand word 0xFFFF_FFFFL)

  let pack ~tag ~shared =
    Int64.logor
      (Int64.shift_left (Int64.of_int (tag land 0xFFFF_FFFF)) 32)
      (Int64.of_int (shared land 0xFFFF_FFFF))

  let node_inc os rank =
    Simnet.Fabric.incarnation os.tp.Simnet.Transport.fabric
      os.ranks.(rank).Simnet.Proc_id.nid

  let my_tag os =
    (((os.my_rank + 1) land 0x7FFF) lsl 16)
    lor (node_inc os os.my_rank land 0xFFFF)

  (* A tag is stale when its holder's node is down, or alive in a newer
     incarnation than the one baked into the tag — either way the process
     that took the lock no longer exists. *)
  let holder_stale os tag =
    let r = (tag lsr 16) - 1 in
    if r < 0 || r >= Array.length os.ranks then true
    else
      let nid = os.ranks.(r).Simnet.Proc_id.nid in
      (not (Simnet.Fabric.is_node_up os.tp.Simnet.Transport.fabric nid))
      || node_inc os r land 0xFFFF <> tag land 0xFFFF

  let create os ~size =
    if size <= 0 then invalid_arg "Onesided.Win.create: size must be positive";
    let sym = alloc os (data_base + size) in
    {
      w_os = os;
      w_sym = sym;
      w_size = size;
      w_held = Hashtbl.create 4;
      w_freed = false;
    }

  let check_live w = if w.w_freed then invalid_arg "Onesided.Win: window freed"

  let local_data w =
    check_live w;
    Bytes.sub (region_bytes w.w_os w.w_sym) data_base w.w_size

  let check_range w ~op ~offset ~len =
    if offset < 0 || len < 0 || offset + len > w.w_size then
      invalid_arg (Printf.sprintf "Onesided.Win.%s: outside the window" op)

  let check_word w ~op ~offset =
    check_range w ~op ~offset ~len:P.Wire.atomic_word_size;
    if offset mod P.Wire.atomic_word_size <> 0 then
      invalid_arg
        (Printf.sprintf "Onesided.Win.%s: offset not 8-byte aligned" op)

  let cas_lock os sym ~rank ~expected ~desired =
    atomic_fetch os sym ~pe:rank ~offset:lock_pos ~aop:P.Wire.Cas
      ~operand:desired ~compare:expected

  let add_lock os sym ~rank delta =
    atomic_fetch os sym ~pe:rank ~offset:lock_pos ~aop:P.Wire.Fetch_add
      ~operand:delta ~compare:0L

  let backoff os k =
    let ns = min (200 * (1 lsl min k 8)) 51_200 in
    Scheduler.delay (P.Ni.sched os.os_ni) (Time_ns.ns ns)

  let lock w ~rank kind =
    check_live w;
    let os = w.w_os in
    check_pe os rank;
    if Hashtbl.mem w.w_held rank then
      invalid_arg "Onesided.Win.lock: already holding a lock on this rank";
    let sched = P.Ni.sched os.os_ni in
    let start = Time_ns.to_us (Scheduler.now sched) in
    let retries = ref 0 in
    (match kind with
    | Shared ->
      let rec acquire () =
        let old = add_lock os w.w_sym ~rank 1L in
        if tag_of old = 0 then ()
        else begin
          (* An exclusive holder is in: take our optimistic increment
             back, fence the holder if it is dead, and retry. Once the
             -1 lands the word's shared count is back to [shared_of old]
             (the pre-increment fetch), so that is what the fence must
             expect; other waiters mid-dance make the CAS miss, and the
             retry loop fences again with a fresh read. *)
          ignore (add_lock os w.w_sym ~rank (-1L));
          let tag = tag_of old in
          if holder_stale os tag then
            ignore
              (cas_lock os w.w_sym ~rank
                 ~expected:(pack ~tag ~shared:(shared_of old))
                 ~desired:(pack ~tag:0 ~shared:(shared_of old)));
          incr retries;
          backoff os !retries;
          acquire ()
        end
      in
      acquire ()
    | Exclusive ->
      let desired = pack ~tag:(my_tag os) ~shared:0 in
      let rec acquire () =
        let old = cas_lock os w.w_sym ~rank ~expected:0L ~desired in
        if Int64.equal old 0L then ()
        else begin
          let tag = tag_of old in
          if tag <> 0 && holder_stale os tag then
            (* The exclusive holder died: clear its tag (keeping any
               shared count) so the word can be won on a later round. *)
            ignore
              (cas_lock os w.w_sym ~rank ~expected:old
                 ~desired:(pack ~tag:0 ~shared:(shared_of old)));
          incr retries;
          backoff os !retries;
          acquire ()
        end
      in
      acquire ());
    Hashtbl.replace w.w_held rank kind;
    Metrics.incr os.m.m_lock_acquired;
    Metrics.add os.m.m_lock_retries !retries;
    Metrics.observe os.m.m_lock_wait
      (Time_ns.to_us (Scheduler.now sched) -. start)

  let unlock w ~rank =
    check_live w;
    let os = w.w_os in
    match Hashtbl.find_opt w.w_held rank with
    | None -> invalid_arg "Onesided.Win.unlock: not holding a lock"
    | Some Shared ->
      Hashtbl.remove w.w_held rank;
      ignore (add_lock os w.w_sym ~rank (-1L))
    | Some Exclusive ->
      Hashtbl.remove w.w_held rank;
      (* Subtract the tag instead of CASing against (tag, shared=0): a
         shared waiter's optimistic +1 can be in flight across a full
         RTT, and a CAS landing on (tag, 1) would fail silently, leaving
         the word tagged by a live holder forever. The subtraction
         clears exactly our tag bits, preserves any transient shared
         count, and cannot fail. *)
      ignore
        (add_lock os w.w_sym ~rank
           (Int64.neg (Int64.shift_left (Int64.of_int (my_tag os)) 32)))

  let lock_all w =
    for rank = 0 to Array.length w.w_os.ranks - 1 do
      lock w ~rank Shared
    done

  let unlock_all w =
    for rank = 0 to Array.length w.w_os.ranks - 1 do
      unlock w ~rank
    done

  let put w ~rank ~offset data =
    check_live w;
    check_range w ~op:"put" ~offset ~len:(Bytes.length data);
    put w.w_os w.w_sym ~pe:rank ~offset:(data_base + offset) data

  let get w ~rank ~offset ~len =
    check_live w;
    check_range w ~op:"get" ~offset ~len;
    get w.w_os w.w_sym ~pe:rank ~offset:(data_base + offset) ~len

  let accumulate w ~rank ~offset delta =
    check_live w;
    check_word w ~op:"accumulate" ~offset;
    Metrics.incr w.w_os.m.m_accumulate;
    ignore
      (atomic_post w.w_os w.w_sym ~pe:rank ~offset:(data_base + offset)
         ~aop:P.Wire.Fetch_add ~operand:delta ~compare:0L ~forget:true)

  let fetch_and_add w ~rank ~offset delta =
    check_live w;
    check_word w ~op:"fetch_and_add" ~offset;
    fetch_and_add w.w_os w.w_sym ~pe:rank ~offset:(data_base + offset)
      delta

  let compare_and_swap w ~rank ~offset ~expected ~desired =
    check_live w;
    check_word w ~op:"compare_and_swap" ~offset;
    compare_and_swap w.w_os w.w_sym ~pe:rank ~offset:(data_base + offset) ~expected
      ~desired

  let flush w ~rank =
    check_live w;
    check_pe w.w_os rank;
    flush_to w.w_os ~pe:rank

  let flush_all w =
    check_live w;
    Metrics.incr w.w_os.m.m_flush;
    quiet w.w_os

  let free w =
    check_live w;
    flush_all w;
    w.w_freed <- true;
    free_region w.w_os w.w_sym
end

let win_create = Win.create
let win_free = Win.free
