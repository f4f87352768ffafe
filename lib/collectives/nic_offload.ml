(* NIC-resident collectives: the collective plan ({!Plan}) compiled into
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
   periods (see [window] below): a fast rank may run a whole period
   ahead of a slow rank that has completed only the previous internal
   barrier. *)

module P = Portals

(* Every bcast/reduce payload fits in [max_payload] bytes; a frame adds
   the 8-byte length prefix. Each sync period consumes at most
   [sync_every] + 3 sequences (the call crossing the threshold may be an
   allreduce, worth two, plus the barrier itself), so two periods fit in
   2 * [sync_every] + 7 <= [window]. *)
let max_payload = 1024
let frame = 8 + max_payload
let sync_every = 8
let window = 24

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
  rounds : int; (* Plan.rounds size; slots per sequence *)
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
}

let size t = Array.length t.ranks

(* Messages are named by the plan, whose round field carries the slot;
   a slot accepts any source. *)
let src_ignore = Plan.bits ~seq:0 ~round:0 ~src:0xFFFF

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
        let sl_buf = Bytes.create frame in
        let sl_me =
          ok ~op:"nic me_attach"
            (P.Ni.me_attach t.ni ~portal_index:t.portal_index
               ~match_id:P.Match_id.any
               ~match_bits:(Plan.bits ~seq:s ~round:j ~src:0)
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
        (P.Ni.me_retarget t.ni sl.sl_me
           ~match_bits:(Plan.bits ~seq:s ~round:j ~src:0));
      ok ~op:"nic ct_reset" (P.Ni.ct_reset t.ni sl.sl_ct))
    res.slots;
  ok ~op:"nic ct_reset" (P.Ni.ct_reset t.ni res.done_ct);
  res.res_seq <- s

let install t res = t.armed.(res.res_seq mod window) <- res

(* Retirement runs only once every deposit for [s] has landed (window
   protocol above), so the set may be re-armed for a new sequence. *)
let retire_seq t s =
  let i = s mod window in
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

let create ni ~ranks ~rank ?(portal_index = 8) () =
  let n = Array.length ranks in
  if rank < 0 || rank >= n then
    invalid_arg "Nic_offload.create: rank out of range";
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
  let t =
    {
      ni;
      ranks;
      my_rank = rank;
      portal_index;
      rounds = Plan.rounds n;
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
    }
  in
  if n > 1 then begin
    for s = 0 to window - 1 do
      install t (new_res t s)
    done;
    t.arm_hi <- window - 1
  end;
  t

let next_seq t =
  let s = t.seq in
  t.seq <- s + 1;
  if s > t.arm_hi then
    failwith "Nic_offload: sequence past the armed window (protocol bug)";
  s

let find_res t s =
  let r = t.armed.(s mod window) in
  if r.res_seq <> s then failwith "Nic_offload: sequence not armed (window bug)";
  r

let chain_op t ~dst ~seq ~slot =
  P.Ni.op ~target:t.ranks.(dst) ~portal_index:t.portal_index
    ~match_bits:(Plan.bits ~seq ~round:slot ~src:t.my_rank)
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
let alive t r =
  Simnet.Fabric.is_node_up (P.Ni.transport t.ni).Simnet.Transport.fabric
    t.ranks.(r).Simnet.Proc_id.nid

let run_barrier ?(tolerant = false) t seq =
  let n = size t and rank = t.my_rank in
  let res = find_res t seq in
  for k = 0 to t.rounds - 1 do
    let chain =
      if k + 1 < t.rounds then
        [
          P.Ni.Triggered_put
            {
              md = res.slots.(k).sl_md;
              ack = false;
              length = Some 8;
              op =
                chain_op t
                  ~dst:(Plan.dissemination_dst ~n ~rank ~round:(k + 1))
                  ~seq ~slot:(k + 1);
            };
          res.done_inc;
        ]
      else [ res.done_inc ]
    in
    ok ~op:"nic ct_arm"
      (P.Ni.ct_arm t.ni ~ct:res.slots.(k).sl_ct ~threshold:1 chain)
  done;
  Bytes.set_int64_le t.scratch 0 0L;
  put_scratch t ~dst:(Plan.dissemination_dst ~n ~rank ~round:0) ~seq ~slot:0
    ~length:8;
  (* Tolerant mode: a crash-stopped sender's token can never arrive, so
     bump its slot counter from the host — the armed chain fires exactly
     as if the token had landed (forwarding included), and survivors are
     released. Sends towards dead nodes just drop at the fabric. *)
  if tolerant then
    for k = 0 to t.rounds - 1 do
      if not (alive t (Plan.dissemination_src ~n ~rank ~round:k)) then
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
  let hi = b + window - 1 in
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
  if size t > 1 && t.seq - t.last_sync >= sync_every then
    internal_sync ?tolerant t

(* --- broadcast -------------------------------------------------------- *)

let frame_payload buf =
  let len = Int64.to_int (Bytes.get_int64_le buf 0) in
  Bytes.sub buf 8 len

let load_scratch t payload =
  let len = Bytes.length payload in
  if len > max_payload then
    invalid_arg "Nic_offload: payload larger than max_payload";
  Bytes.set_int64_le t.scratch 0 (Int64.of_int len);
  Bytes.blit payload 0 t.scratch 8 len;
  (* Zero the tail so forwarded whole-frame copies are deterministic. *)
  Bytes.fill t.scratch (8 + len) (max_payload - len) '\000'

(* Every receiver's frame lands in its slot 0; the arrival fires the
   puts to all of its children, in round order, in one chain. *)
let run_bcast t seq ~root payload =
  let n = size t and rank = t.my_rank in
  let res = find_res t seq in
  if Plan.bcast_parent ~n ~root ~rank < 0 then begin
    load_scratch t payload;
    for round = 0 to t.rounds - 1 do
      let child = Plan.bcast_child ~n ~root ~rank ~round in
      if child >= 0 then put_scratch t ~dst:child ~seq ~slot:0 ~length:frame
    done;
    payload
  end
  else begin
    let chain = ref [ res.done_inc ] in
    for round = t.rounds - 1 downto 0 do
      let child = Plan.bcast_child ~n ~root ~rank ~round in
      if child >= 0 then
        chain :=
          P.Ni.Triggered_put
            {
              md = res.slots.(0).sl_md;
              ack = false;
              length = None;
              op = chain_op t ~dst:child ~seq ~slot:0;
            }
          :: !chain
    done;
    ok ~op:"nic ct_arm"
      (P.Ni.ct_arm t.ni ~ct:res.slots.(0).sl_ct ~threshold:1 !chain);
    ignore (ok ~op:"nic ct_wait" (P.Ni.ct_wait t.ni res.done_ct ~threshold:1));
    frame_payload res.slots.(0).sl_buf
  end

(* --- reduce ----------------------------------------------------------- *)

(* Child c's accumulator lands in slot k of its parent, k being the
   round the plan sends it in; the parent folds children in ascending
   round order, the order the host engine combines in, so floating-point
   results are byte-identical. The whole fold + forward is ONE chain
   gated on a fan-in counter that each child slot bumps; a leaf's chain
   has threshold 0 and fires at arm time. *)
let run_reduce t seq ~root ~op payload =
  let n = size t and rank = t.my_rank in
  let res = find_res t seq in
  let len = Bytes.length payload in
  if len > max_payload then
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
  let children = ref 0 in
  for round = 0 to t.rounds - 1 do
    if Plan.reduce_child ~n ~root ~rank ~round >= 0 then begin
      incr children;
      ok ~op:"nic ct_arm"
        (P.Ni.ct_arm t.ni ~ct:res.slots.(round).sl_ct ~threshold:1
           [ P.Ni.Triggered_ct_inc { ct = sum_ct; amount = 1 } ])
    end
  done;
  let parent = Plan.reduce_parent ~n ~root ~rank in
  let chain =
    ref
      (if parent < 0 then [ res.done_inc ]
       else
         [
           P.Ni.Triggered_put
             {
               md = acc_md;
               ack = false;
               length = None;
               op =
                 chain_op t ~dst:parent ~seq
                   ~slot:(Plan.reduce_round ~n ~root ~rank);
             };
           res.done_inc;
         ])
  in
  for round = t.rounds - 1 downto 0 do
    if Plan.reduce_child ~n ~root ~rank ~round >= 0 then
      chain :=
        P.Ni.Triggered_combine
          { dst = acc_md; src = res.slots.(round).sl_md; f = combine_frames }
        :: !chain
  done;
  ok ~op:"nic ct_arm" (P.Ni.ct_arm t.ni ~ct:sum_ct ~threshold:!children !chain);
  ignore (ok ~op:"nic ct_wait" (P.Ni.ct_wait t.ni res.done_ct ~threshold:1));
  if parent < 0 then Some (frame_payload acc_buf) else None

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
