(* NIC-resident collectives: the trees of {!Collectives} compiled into
   pre-armed triggered-operation chains (Ni.ct_arm), so every interior
   hop — token forwarding, reduction combining, result fan-out — runs
   inside the receive path of the simulated NI. The host appears exactly
   twice per collective: once to arm chains and send the first frame,
   once to wake from a counter wait. Between those two points no host
   fiber is scheduled, which is why a busy host CPU does not stretch the
   tree (the property Experiments.Coll measures).

   Wire protocol. Every sequence number (one per collective call, shared
   numbering with the host engine) owns [rounds] pre-armed slots on
   every rank; slot j of sequence s is a Retain match entry with bits
   (seq=s, round=j, src=ignored) over a fixed-size frame buffer, with a
   counting event attached. Frames are [8-byte LE payload length ·
   payload area]; data transfers always move a whole frame, barrier
   tokens move just the 8-byte prefix. Because slots are armed ahead of
   use (window protocol below), a deposit can never race the receiver's
   call: it lands in the pre-armed buffer, bumps the pre-attached
   counter, and the receiver's chains — armed later, with
   fire-immediately semantics — pick it up.

   Window protocol. Slots exist for sequences [retire_lo, arm_hi]; the
   window advances at an internal chain barrier run every [sync_every]
   sequences, which (a) proves every rank is past the retired
   sequences — a rank's own collective completing implies every deposit
   addressed to it for that sequence has already landed, so retiring is
   drop-free — and (b) re-arms one window ahead. Re-arming re-targets a
   retired slot set in place ([Ni.me_retarget], [Ni.ct_reset]): its
   entries take the new sequence's bits, so a stray late deposit for the
   old sequence matches nothing. The window must cover two full sync
   periods (enforced in [create]): a fast rank may run a whole period
   ahead of a slow rank that has completed only the previous internal
   barrier. *)

module P = Portals

let ok = P.Errors.ok_exn

type slot = {
  sl_me : P.Handle.me;
  sl_md : P.Handle.md;
  sl_ct : P.Handle.ct;
  sl_buf : bytes;
}

(* One sequence's slots and completion counter. A set lives as long as
   the endpoint: retiring a sequence hands its set to a later one. *)
type seq_res = {
  mutable res_seq : int; (* the sequence it is armed for, -1 if none *)
  slots : slot array;
  done_ct : P.Handle.ct;
  done_inc : P.Ni.triggered_action; (* bump [done_ct] by one *)
}

type t = {
  ni : P.Ni.t;
  ranks : Simnet.Proc_id.t array;
  my_rank : int;
  portal_index : int;
  max_payload : int;
  frame : int; (* 8-byte length prefix + max_payload *)
  rounds : int; (* ceil log2 (size); slots per sequence *)
  window : int;
  sync_every : int;
  armed : seq_res array; (* sequence s at s mod window *)
  mutable seq : int; (* next sequence number *)
  mutable arm_hi : int; (* highest armed sequence *)
  mutable retire_lo : int; (* lowest armed sequence *)
  mutable last_sync : int; (* sequence of the last internal barrier *)
  scratch : bytes;
  scratch_md : P.Handle.md;
  (* The reduce accumulator, reused by every reduce: frame, bound
     descriptor, and the counter its children's slots bump. *)
  acc_buf : bytes;
  acc_md : P.Handle.md;
  sum_ct : P.Handle.ct;
  (* Crash-stopped nodes, from the transport's notifications; consulted
     by [barrier ~tolerant]. *)
  down : (Simnet.Proc_id.nid, unit) Hashtbl.t;
}

let rank t = t.my_rank
let size t = Array.length t.ranks

let ceil_log2 n =
  let rec go r = if 1 lsl r >= n then r else go (r + 1) in
  go 0

(* Same naming as Collectives.bits — the two engines share the sequence/
   round/source convention so traces line up; "round" doubles as the
   slot index here. *)
let slot_bits ~seq ~slot ~src =
  let open P.Match_bits in
  logor
    (field ~shift:24 ~width:40 seq)
    (logor (field ~shift:16 ~width:8 slot) (field ~shift:0 ~width:16 src))

let src_ignore = P.Match_bits.field ~shift:0 ~width:16 0xFFFF

let slot_options =
  {
    P.Md.op_put = true;
    op_get = false;
    manage_remote = false;
    truncate = false;
    ack_disable = true;
  }

let vacant =
  {
    res_seq = -1;
    slots = [||];
    done_ct = P.Handle.none;
    done_inc = P.Ni.Triggered_ct_inc { ct = P.Handle.none; amount = 0 };
  }

let new_res t s =
  let slots =
    Array.init t.rounds (fun j ->
        let sl_buf = Bytes.create t.frame in
        let sl_me =
          ok ~op:"nic me_attach"
            (P.Ni.me_attach t.ni ~portal_index:t.portal_index
               ~match_id:P.Match_id.any
               ~match_bits:(slot_bits ~seq:s ~slot:j ~src:0)
               ~ignore_bits:src_ignore ~unlink:P.Md.Retain ~pos:`Tail ())
        in
        let sl_md =
          ok ~op:"nic md_attach"
            (P.Ni.md_attach t.ni ~me:sl_me
               (P.Ni.md_spec ~options:slot_options ~threshold:P.Md.Infinite
                  ~unlink:P.Md.Retain sl_buf))
        in
        let sl_ct = ok ~op:"nic ct_alloc" (P.Ni.ct_alloc t.ni) in
        ok ~op:"nic me_set_ct" (P.Ni.me_set_ct t.ni ~me:sl_me ~ct:sl_ct);
        { sl_me; sl_md; sl_ct; sl_buf })
  in
  let done_ct = ok ~op:"nic ct_alloc" (P.Ni.ct_alloc t.ni) in
  {
    res_seq = s;
    slots;
    done_ct;
    done_inc = P.Ni.Triggered_ct_inc { ct = done_ct; amount = 1 };
  }

(* Point a retired set at sequence [s]. Each entry goes to the tail of
   the match list, slot by slot, exactly where [new_res] would attach a
   fresh one; the old frame bytes stay until the next deposit. *)
let rearm t res s =
  Array.iteri
    (fun j sl ->
      ok ~op:"nic me_retarget"
        (P.Ni.me_retarget t.ni sl.sl_me ~match_bits:(slot_bits ~seq:s ~slot:j ~src:0));
      ok ~op:"nic ct_reset" (P.Ni.ct_reset t.ni sl.sl_ct))
    res.slots;
  ok ~op:"nic ct_reset" (P.Ni.ct_reset t.ni res.done_ct);
  res.res_seq <- s

let install t res = t.armed.(res.res_seq mod t.window) <- res

(* Retirement runs only once every deposit for [s] has landed (window
   protocol above), so the set may be re-armed for a new sequence. *)
let retire_seq t s =
  let i = s mod t.window in
  let res = t.armed.(i) in
  t.armed.(i) <- vacant;
  res.res_seq <- -1;
  res

let free_res t res =
  Array.iter
    (fun sl ->
      ok ~op:"nic me_unlink" (P.Ni.me_unlink t.ni sl.sl_me);
      ok ~op:"nic ct_free" (P.Ni.ct_free t.ni sl.sl_ct))
    res.slots;
  ok ~op:"nic ct_free" (P.Ni.ct_free t.ni res.done_ct)

let create ni ~ranks ~rank ?(portal_index = 8) ?(max_payload = 1024)
    ?(window = 24) ?(sync_every = 8) () =
  let n = Array.length ranks in
  if rank < 0 || rank >= n then
    invalid_arg "Nic_offload.create: rank out of range";
  if sync_every < 1 then invalid_arg "Nic_offload.create: sync_every < 1";
  (* A fast rank can be a full sync period ahead of a slow one that has
     only completed the previous internal barrier; each period consumes
     at most sync_every + 3 sequences (the call crossing the threshold
     may be an allreduce, worth two, plus the barrier itself). *)
  let window = max window ((2 * sync_every) + 7) in
  let frame = 8 + max_payload in
  let scratch = Bytes.create frame in
  let scratch_md =
    ok ~op:"nic scratch md_bind"
      (P.Ni.md_bind ni
         (P.Ni.md_spec
            ~options:{ P.Md.default_options with P.Md.ack_disable = true }
            ~threshold:P.Md.Infinite ~unlink:P.Md.Retain scratch))
  in
  let acc_buf = Bytes.create frame in
  let acc_md =
    ok ~op:"nic acc md_bind"
      (P.Ni.md_bind ni
         (P.Ni.md_spec
            ~options:{ P.Md.default_options with P.Md.ack_disable = true }
            ~threshold:P.Md.Infinite ~unlink:P.Md.Retain acc_buf))
  in
  let sum_ct = ok ~op:"nic ct_alloc" (P.Ni.ct_alloc ni) in
  let down = Hashtbl.create 4 in
  let tp = P.Ni.transport ni in
  tp.Simnet.Transport.on_crash (fun nid -> Hashtbl.replace down nid ());
  tp.Simnet.Transport.on_restart (fun nid -> Hashtbl.remove down nid);
  let t =
    {
      ni;
      ranks;
      my_rank = rank;
      portal_index;
      max_payload;
      frame;
      rounds = ceil_log2 n;
      window;
      sync_every;
      armed = Array.make window vacant;
      seq = 0;
      arm_hi = -1;
      retire_lo = 0;
      last_sync = 0;
      scratch;
      scratch_md;
      acc_buf;
      acc_md;
      sum_ct;
      down;
    }
  in
  if n > 1 then begin
    for s = 0 to window - 1 do
      install t (new_res t s)
    done;
    t.arm_hi <- window - 1
  end;
  t

let ni t = t.ni

let next_seq t =
  let s = t.seq in
  t.seq <- s + 1;
  if s > t.arm_hi then
    failwith "Nic_offload: sequence past the armed window (protocol bug)";
  s

let find_res t s =
  let r = t.armed.(s mod t.window) in
  if r.res_seq <> s then failwith "Nic_offload: sequence not armed (window bug)";
  r

let chain_op t ~dst ~seq ~slot =
  P.Ni.op ~target:t.ranks.(dst) ~portal_index:t.portal_index
    ~match_bits:(slot_bits ~seq ~slot ~src:t.my_rank)
    ()

(* Host-initiated send from the scratch descriptor: the NI copies the
   payload into the wire image synchronously, so the scratch is free
   again on return. *)
let put_scratch t ~dst ~seq ~slot ~length =
  ok ~op:"nic put"
    (P.Ni.put t.ni ~md:t.scratch_md ~ack:false ~length
       (chain_op t ~dst ~seq ~slot))

(* --- barrier ---------------------------------------------------------- *)

(* Dissemination with the forwarding folded into chains: the host sends
   only the round-0 token to rank+1; the arrival of the round-k token
   (from rank - 2^k) fires the round-(k+1) token to rank + 2^(k+1) and
   bumps the completion counter. Waiting for all [rounds] tokens (not
   just the last) guarantees the retirement invariant: completion means
   every deposit addressed here for this sequence has landed. *)
let alive t r = not (Hashtbl.mem t.down t.ranks.(r).Simnet.Proc_id.nid)

let run_barrier ?(tolerant = false) t seq =
  let n = size t in
  let res = find_res t seq in
  for k = 0 to t.rounds - 1 do
    let forward =
      if k + 1 < t.rounds then
        [
          P.Ni.Triggered_put
            {
              md = res.slots.(k).sl_md;
              ack = false;
              length = Some 8;
              op =
                chain_op t
                  ~dst:((t.my_rank + (1 lsl (k + 1))) mod n)
                  ~seq ~slot:(k + 1);
            };
        ]
      else []
    in
    ok ~op:"nic ct_arm"
      (P.Ni.ct_arm t.ni ~ct:res.slots.(k).sl_ct ~threshold:1
         (forward @ [ res.done_inc ]))
  done;
  Bytes.set_int64_le t.scratch 0 0L;
  put_scratch t ~dst:((t.my_rank + 1) mod n) ~seq ~slot:0 ~length:8;
  (* Tolerant mode: a crash-stopped sender's token can never arrive, so
     bump its slot counter from the host — the armed chain fires exactly
     as if the token had landed (forwarding included), and survivors are
     released. Sends towards dead nodes just drop at the fabric. *)
  if tolerant then
    for k = 0 to t.rounds - 1 do
      let sender = (t.my_rank - (1 lsl k) + n) mod n in
      if not (alive t sender) then
        ok ~op:"nic ct_inc" (P.Ni.ct_inc t.ni res.slots.(k).sl_ct 1)
    done;
  ignore (ok ~op:"nic ct_wait" (P.Ni.ct_wait t.ni res.done_ct ~threshold:t.rounds))

(* --- window maintenance ----------------------------------------------- *)

let internal_sync ?tolerant t =
  let b = next_seq t in
  run_barrier ?tolerant t b;
  t.last_sync <- b;
  let spare = ref [] in
  for s = b downto t.retire_lo do
    spare := retire_seq t s :: !spare
  done;
  t.retire_lo <- b + 1;
  let hi = b + t.window - 1 in
  for s = t.arm_hi + 1 to hi do
    match !spare with
    | res :: rest ->
      spare := rest;
      rearm t res s;
      install t res
    | [] -> failwith "Nic_offload: arming more than retired (window bug)"
  done;
  t.arm_hi <- hi;
  (* The first sync retires one sequence more than it arms. *)
  List.iter (free_res t) !spare

let after_call ?tolerant t =
  if size t > 1 && t.seq - t.last_sync >= t.sync_every then
    internal_sync ?tolerant t

(* --- broadcast -------------------------------------------------------- *)

let frame_payload buf =
  let len = Int64.to_int (Bytes.get_int64_le buf 0) in
  Bytes.sub buf 8 len

let load_scratch t payload =
  let len = Bytes.length payload in
  if len > t.max_payload then
    invalid_arg "Nic_offload: payload larger than max_payload";
  Bytes.set_int64_le t.scratch 0 (Int64.of_int len);
  Bytes.blit payload 0 t.scratch 8 len;
  (* Zero the tail so forwarded whole-frame copies are deterministic. *)
  Bytes.fill t.scratch (8 + len) (t.max_payload - len) '\000'

(* Binomial: virtual rank v hears from v - 2^j (j = highest set bit) and
   feeds v + 2^k for k > j. Every receiver's frame lands in its slot 0;
   the arrival fires the puts to all of its children in one chain. *)
let run_bcast t seq ~root payload =
  let n = size t in
  let res = find_res t seq in
  let vr = (t.my_rank - root + n) mod n in
  let real v = (v + root) mod n in
  let children first_k =
    let rec go k acc =
      let mask = 1 lsl k in
      if mask >= n then List.rev acc
      else if vr < mask && vr + mask < n then go (k + 1) (real (vr + mask) :: acc)
      else go (k + 1) acc
    in
    go first_k []
  in
  if vr = 0 then begin
    load_scratch t payload;
    List.iter
      (fun child -> put_scratch t ~dst:child ~seq ~slot:0 ~length:t.frame)
      (children 0);
    payload
  end
  else begin
    let rec log2_floor acc v = if v <= 1 then acc else log2_floor (acc + 1) (v lsr 1) in
    let first_round = log2_floor 0 vr + 1 in
    let forwards =
      List.map
        (fun child ->
          P.Ni.Triggered_put
            {
              md = res.slots.(0).sl_md;
              ack = false;
              length = None;
              op = chain_op t ~dst:child ~seq ~slot:0;
            })
        (children first_round)
    in
    ok ~op:"nic ct_arm"
      (P.Ni.ct_arm t.ni ~ct:res.slots.(0).sl_ct ~threshold:1
         (forwards @ [ res.done_inc ]));
    ignore (ok ~op:"nic ct_wait" (P.Ni.ct_wait t.ni res.done_ct ~threshold:1));
    frame_payload res.slots.(0).sl_buf
  end

(* --- reduce ----------------------------------------------------------- *)

(* Binomial, mirroring Collectives.reduce exactly: child vr sends its
   accumulator to vr - 2^j (j = lowest set bit) into the parent's slot j;
   the parent folds children in ascending mask order — the same order the
   host engine combines in, so floating-point results are byte-identical.
   The whole fold + forward is ONE chain gated on a fan-in counter that
   each child slot bumps; a leaf's chain has threshold 0 and fires at
   arm time. *)
let run_reduce t seq ~root ~op payload =
  let n = size t in
  let res = find_res t seq in
  let vr = (t.my_rank - root + n) mod n in
  let real v = (v + root) mod n in
  (* Children (slot per mask) and parent from the host engine's loop. *)
  let rec classify mask k children =
    if mask >= n then (List.rev children, None)
    else if vr land mask <> 0 then (List.rev children, Some (real (vr - mask), k))
    else
      classify (mask * 2) (k + 1)
        (if vr + mask < n then k :: children else children)
  in
  let children, parent = classify 1 0 [] in
  let len = Bytes.length payload in
  if len > t.max_payload then
    invalid_arg "Nic_offload: payload larger than max_payload";
  let acc_buf = t.acc_buf and acc_md = t.acc_md and sum_ct = t.sum_ct in
  Bytes.set_int64_le acc_buf 0 (Int64.of_int len);
  Bytes.blit payload 0 acc_buf 8 len;
  (* Frame-aware fold: combine the slot's payload region into the
     accumulator's, leaving the accumulator's length untouched (the host
     engine's in-place [op acc contribution] contract). *)
  let combine_frames dst src =
    let la = Int64.to_int (Bytes.get_int64_le dst 0) in
    let ls = Int64.to_int (Bytes.get_int64_le src 0) in
    let a = Bytes.sub dst 8 la and s = Bytes.sub src 8 ls in
    op a s;
    Bytes.blit a 0 dst 8 la
  in
  ok ~op:"nic ct_reset" (P.Ni.ct_reset t.ni sum_ct);
  List.iter
    (fun k ->
      ok ~op:"nic ct_arm"
        (P.Ni.ct_arm t.ni ~ct:res.slots.(k).sl_ct ~threshold:1
           [ P.Ni.Triggered_ct_inc { ct = sum_ct; amount = 1 } ]))
    children;
  let folds =
    List.map
      (fun k ->
        P.Ni.Triggered_combine
          { dst = acc_md; src = res.slots.(k).sl_md; f = combine_frames })
      children
  in
  let forward =
    match parent with
    | None -> []
    | Some (p, k) ->
      [
        P.Ni.Triggered_put
          {
            md = acc_md;
            ack = false;
            length = None;
            op = chain_op t ~dst:p ~seq ~slot:k;
          };
      ]
  in
  ok ~op:"nic ct_arm"
    (P.Ni.ct_arm t.ni ~ct:sum_ct
       ~threshold:(List.length children)
       (folds @ forward @ [ res.done_inc ]));
  ignore (ok ~op:"nic ct_wait" (P.Ni.ct_wait t.ni res.done_ct ~threshold:1));
  if parent = None then Some (frame_payload acc_buf) else None

(* --- public operations ------------------------------------------------ *)

let barrier ?(tolerant = false) t =
  if size t > 1 then begin
    let seq = next_seq t in
    run_barrier ~tolerant t seq;
    after_call ~tolerant t
  end

let bcast t ~root payload =
  let n = size t in
  if root < 0 || root >= n then invalid_arg "Nic_offload.bcast: bad root";
  if n = 1 then payload
  else begin
    let seq = next_seq t in
    let data = run_bcast t seq ~root payload in
    after_call t;
    data
  end

let reduce t ~root ~op payload =
  let n = size t in
  if root < 0 || root >= n then invalid_arg "Nic_offload.reduce: bad root";
  if n = 1 then Some (Bytes.copy payload)
  else begin
    let seq = next_seq t in
    let r = run_reduce t seq ~root ~op payload in
    after_call t;
    r
  end

let allreduce t ~op payload =
  let n = size t in
  if n = 1 then Bytes.copy payload
  else begin
    let seq_r = next_seq t in
    let r = run_reduce t seq_r ~root:0 ~op payload in
    let seq_b = next_seq t in
    let data =
      run_bcast t seq_b ~root:0 (match r with Some a -> a | None -> Bytes.empty)
    in
    after_call t;
    data
  end
