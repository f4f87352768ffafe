open Sim_engine

(* An ibverbs-style HCA over the simnet fabric: registered memory
   regions addressed by rkey, one-sided RDMA writes framed as Portals
   put requests (the wire format is placement-agnostic; §4.6), and a
   completion queue the host polls. The remote host CPU is never
   involved in landing a write — the HCA handler only blits into the
   target region — which is exactly the property Liu et al. build
   MVAPICH's fast path on, and the property the paper's Figure 6
   comparison is about. *)

type completion = Write_complete of { wr_id : int }

type stats = {
  writes : int;
  write_bytes : int;
  remote_writes : int;
  dropped_writes : int;
  polls : int;
}

type t = {
  tp : Simnet.Transport.t;
  self : Simnet.Proc_id.t;
  sched : Scheduler.t;
  mrs : (int, bytes) Hashtbl.t; (* rkey -> registered region *)
  mutable next_rkey : int;
  cq : completion Queue.t;
  activity : Sync.Waitq.t;
  mutable s_writes : int;
  mutable s_write_bytes : int;
  mutable s_remote_writes : int;
  mutable s_dropped : int;
  mutable s_polls : int;
  mutable live : bool;
  mutable interrupts : int;
}

(* Dynamically allocated rkeys live far above the well-known ring /
   credit ranges (see [Ring]) so the two can never collide. *)
let first_dynamic_rkey = 0x100000

(* A write to an unregistered or too-small region is silently dropped,
   as a real HCA would drop a write with a bad rkey: the sender finds
   out at the protocol layer, not from the fabric. *)
let on_arrival t ~src payload =
  if t.live then begin
    let integrity = Simnet.Fabric.integrity t.tp.Simnet.Transport.fabric in
    match Portals.Wire.decode_view ~integrity ~src ~dst:t.self payload with
    | Error _ -> t.s_dropped <- t.s_dropped + 1
    | Ok w -> (
      match Hashtbl.find_opt t.mrs w.Portals.Wire.cookie with
      | None -> t.s_dropped <- t.s_dropped + 1
      | Some region ->
        let len = w.Portals.Wire.length in
        if w.Portals.Wire.offset < 0 || w.Portals.Wire.offset + len > Bytes.length region
        then t.s_dropped <- t.s_dropped + 1
        else begin
          (* HCA DMA into the registered region: no host CPU cycles.
             The landing cost itself (nic_rx_cost + dma_time) was
             already charged by the transport's receive engine. *)
          Bytes.blit w.Portals.Wire.data Portals.Wire.header_size region w.Portals.Wire.offset len;
          t.s_remote_writes <- t.s_remote_writes + 1;
          Sync.Waitq.broadcast t.activity
        end)
  end

let create tp ~id:self =
  let sched = Simnet.Fabric.sched tp.Simnet.Transport.fabric in
  let t =
    {
      tp;
      self;
      sched;
      mrs = Hashtbl.create 64;
      next_rkey = first_dynamic_rkey;
      cq = Queue.create ();
      activity = Sync.Waitq.create ~name:"ib-hca" sched;
      s_writes = 0;
      s_write_bytes = 0;
      s_remote_writes = 0;
      s_dropped = 0;
      s_polls = 0;
      live = true;
      interrupts = 0;
    }
  in
  let m = Scheduler.metrics sched in
  let labels = [ ("hca", Format.asprintf "%a" Simnet.Proc_id.pp self) ] in
  let probe name f =
    Metrics.probe m ~labels name (fun () -> float_of_int (f ()))
  in
  probe "ib.writes" (fun () -> t.s_writes);
  probe "ib.remote_writes" (fun () -> t.s_remote_writes);
  probe "ib.dropped_writes" (fun () -> t.s_dropped);
  tp.Simnet.Transport.register self (fun ~src payload -> on_arrival t ~src payload);
  t

let close t =
  if t.live then begin
    t.live <- false;
    t.tp.Simnet.Transport.unregister t.self
  end

let reg_mr t ~rkey region =
  if Hashtbl.mem t.mrs rkey then
    invalid_arg (Printf.sprintf "Ibverbs.reg_mr: rkey %#x already bound" rkey);
  Hashtbl.replace t.mrs rkey region

let dereg_mr t rkey = Hashtbl.remove t.mrs rkey

let alloc_rkey t =
  let k = t.next_rkey in
  t.next_rkey <- k + 1;
  k

(* One-sided write: build the wire image with the payload blitted
   straight out of the source buffer (no intermediate copy), hand it to
   the fabric, and surface the local completion once the doorbell/DMA
   handoff ([send_overhead]) is past — the same local-completion model
   as [Gm.send], but with no receive-side token or event. *)
let rdma_write t ~dst ~rkey ~offset ~src ~src_off ~len ~wr_id =
  let integrity = Simnet.Fabric.integrity t.tp.Simnet.Transport.fabric in
  let img =
    Portals.Wire.image ~integrity Portals.Wire.Put_request
      ~ack_requested:false ~triggered:false ~initiator:t.self ~target:dst
      ~portal_index:0 ~cookie:rkey ~match_bits:Portals.Match_bits.zero ~offset
      ~md_handle:Portals.Handle.none ~eq_handle:Portals.Handle.none
      ~incarnation:
        (Simnet.Fabric.incarnation t.tp.Simnet.Transport.fabric
           t.self.Simnet.Proc_id.nid)
      ~length:len
  in
  Bytes.blit src src_off img Portals.Wire.header_size len;
  Portals.Wire.seal ~integrity img;
  t.s_writes <- t.s_writes + 1;
  t.s_write_bytes <- t.s_write_bytes + len;
  t.tp.Simnet.Transport.send ~src:t.self ~dst img;
  Scheduler.after t.sched t.tp.Simnet.Transport.send_overhead (fun () ->
      if t.live then begin
        Queue.add (Write_complete { wr_id }) t.cq;
        Sync.Waitq.broadcast t.activity
      end)

let poll_cq t =
  t.s_polls <- t.s_polls + 1;
  Queue.take_opt t.cq

let wake t =
  t.interrupts <- t.interrupts + 1;
  Sync.Waitq.broadcast t.activity

(* Block until anything happened since the call: a completion, a remote
   write landing in any registered region, or a [wake]. Rings have no
   per-message event, so "a write landed" is the only receive signal. *)
let wait_activity t =
  let mark = t.interrupts in
  let writes = t.s_remote_writes in
  let rec loop () =
    if Queue.is_empty t.cq && t.s_remote_writes = writes && t.interrupts = mark
    then begin
      Sync.Waitq.wait t.activity;
      loop ()
    end
  in
  loop ()

let stats t =
  {
    writes = t.s_writes;
    write_bytes = t.s_write_bytes;
    remote_writes = t.s_remote_writes;
    dropped_writes = t.s_dropped;
    polls = t.s_polls;
  }

(* Per-peer polled rings with head/tail flow control — the RDMA-write
   fast path of Liu et al. §4: the sender writes message slots into a
   ring it owns at the receiver; the receiver polls slot sequence
   numbers (no HCA event, no interrupt) and returns credit by RDMA-
   writing its consumed count back into a cell at the sender. All
   buffers are registered at init under rank-derived well-known rkeys —
   the static all-to-all exchange a real MVAPICH job performs at
   startup, without simulating the out-of-band bootstrap. *)
module Ring = struct
  let ring_rkey ~src_rank = 0x10000 + src_rank
  let credit_rkey ~peer_rank = 0x20000 + peer_rank

  (* Slot layout: i32 seq+1 (0 = empty), i32 payload length, payload.
     The +1 bias lets a freshly zeroed ring read as all-empty, and the
     full sequence check (not a flag bit) rejects a slot whose header
     landed from a previous incarnation of the peer. *)
  let slot_header = 8
  let slot_size ~payload = slot_header + payload

  type recv = {
    rv_hca : t;
    rv_buf : bytes;
    rv_slots : int;
    rv_slot_size : int;
    rv_peer : Simnet.Proc_id.t; (* the rank that writes this ring *)
    rv_peer_rank : int;
    rv_my_rank : int;
    mutable rv_tail : int; (* messages consumed, absolute *)
    mutable rv_since_credit : int;
    rv_credit_stage : bytes;
  }

  type send = {
    sv_hca : t;
    sv_dst : Simnet.Proc_id.t;
    sv_dst_rank : int;
    sv_rkey : int; (* our ring at the receiver *)
    sv_slots : int;
    sv_slot_size : int;
    mutable sv_head : int; (* messages written, absolute *)
    sv_credit : bytes; (* receiver RDMA-writes its tail here *)
    sv_stage : bytes; (* slot image composed here before the write *)
  }

  let create_recv hca ~peer ~peer_rank ~my_rank ~slots ~slot_payload =
    let ssize = slot_size ~payload:slot_payload in
    let buf = Bytes.make (slots * ssize) '\000' in
    reg_mr hca ~rkey:(ring_rkey ~src_rank:peer_rank) buf;
    {
      rv_hca = hca;
      rv_buf = buf;
      rv_slots = slots;
      rv_slot_size = ssize;
      rv_peer = peer;
      rv_peer_rank = peer_rank;
      rv_my_rank = my_rank;
      rv_tail = 0;
      rv_since_credit = 0;
      rv_credit_stage = Bytes.create 8;
    }

  let create_send hca ~dst ~dst_rank ~my_rank ~slots ~slot_payload =
    let credit = Bytes.make 8 '\000' in
    reg_mr hca ~rkey:(credit_rkey ~peer_rank:dst_rank) credit;
    let ssize = slot_size ~payload:slot_payload in
    {
      sv_hca = hca;
      sv_dst = dst;
      sv_dst_rank = dst_rank;
      sv_rkey = ring_rkey ~src_rank:my_rank;
      sv_slots = slots;
      sv_slot_size = ssize;
      sv_head = 0;
      sv_credit = credit;
      sv_stage = Bytes.create ssize;
    }

  let credits sv =
    let tail = Int64.to_int (Bytes.get_int64_le sv.sv_credit 0) in
    sv.sv_slots - (sv.sv_head - tail)

  let payload_capacity sv = sv.sv_slot_size - slot_header

  (* Write one message into the next slot of our ring at the receiver.
     Returns false (leaving the ring untouched) when the receiver has
     not consumed far enough — the caller queues and retries after a
     credit update lands. *)
  let try_write sv ~wr_id ~fill ~len =
    if len > payload_capacity sv then
      invalid_arg "Ibverbs.Ring.try_write: message exceeds slot";
    if credits sv <= 0 then false
    else begin
      let seq = sv.sv_head in
      Bytes.set_int32_le sv.sv_stage 0 (Int32.of_int (seq + 1));
      Bytes.set_int32_le sv.sv_stage 4 (Int32.of_int len);
      fill sv.sv_stage slot_header;
      rdma_write sv.sv_hca ~dst:sv.sv_dst ~rkey:sv.sv_rkey
        ~offset:(seq mod sv.sv_slots * sv.sv_slot_size)
        ~src:sv.sv_stage ~src_off:0 ~len:(slot_header + len) ~wr_id;
      sv.sv_head <- seq + 1;
      true
    end

  (* Peek the next unconsumed slot: a view into the ring buffer (the
     caller copies or decodes in place, then [consume]s). *)
  let poll rv =
    rv.rv_hca.s_polls <- rv.rv_hca.s_polls + 1;
    let base = rv.rv_tail mod rv.rv_slots * rv.rv_slot_size in
    let seq = Int32.to_int (Bytes.get_int32_le rv.rv_buf base) in
    if seq = rv.rv_tail + 1 then begin
      let len = Int32.to_int (Bytes.get_int32_le rv.rv_buf (base + 4)) in
      Some (rv.rv_buf, base + slot_header, len)
    end
    else None

  (* Internal credit-return writes complete with wr_id 0; protocol
     layers allocate real wr_ids from 1 up and ignore 0. *)
  let credit_wr_id = 0

  let return_credit rv =
    Bytes.set_int64_le rv.rv_credit_stage 0 (Int64.of_int rv.rv_tail);
    rdma_write rv.rv_hca ~dst:rv.rv_peer
      ~rkey:(credit_rkey ~peer_rank:rv.rv_my_rank)
      ~offset:0 ~src:rv.rv_credit_stage ~src_off:0 ~len:8 ~wr_id:credit_wr_id;
    rv.rv_since_credit <- 0

  (* Retire the slot [poll] just returned. Credit returns are batched —
     one 8-byte write per half ring, not per message — so the fast
     path's per-message cost stays one RDMA write. *)
  let consume rv =
    let base = rv.rv_tail mod rv.rv_slots * rv.rv_slot_size in
    Bytes.set_int32_le rv.rv_buf base 0l;
    rv.rv_tail <- rv.rv_tail + 1;
    rv.rv_since_credit <- rv.rv_since_credit + 1;
    if rv.rv_since_credit >= max 1 (rv.rv_slots / 2) then return_credit rv

  (* Connection teardown/re-establishment after a peer crash: both
     sides reset their view of the pair's rings to empty. *)
  let reset_send sv =
    sv.sv_head <- 0;
    Bytes.fill sv.sv_credit 0 8 '\000'

  let reset_recv rv =
    Bytes.fill rv.rv_buf 0 (Bytes.length rv.rv_buf) '\000';
    rv.rv_tail <- 0;
    rv.rv_since_credit <- 0
end
