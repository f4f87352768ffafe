open Sim_engine
module Frame = Rel_frame
module Chaos = Chaos

type config = {
  window : int;
  base_rto : Time_ns.t;
  max_rto : Time_ns.t;
  max_retries : int;
}

let default_config =
  {
    window = 32;
    base_rto = Time_ns.us 150.;
    max_rto = Time_ns.ms 5.;
    max_retries = 20;
  }

type stats = {
  data_sent : int;
  acks_sent : int;
  retransmits : int;
  duplicate_drops : int;
  corrupt_drops : int;
  retries_exhausted : int;
  delivered : int;
  peer_resets : int;
  peer_reset_lost : int;
  skipped : int;
}

type tx_entry = {
  e_seq : int;
  e_payload : bytes;
  mutable e_sends : int;
  e_first_sent : Time_ns.t;
}

(* A window of sequence-numbered slots: [seq] lives at
   [seq land (capacity - 1)] of a power-of-two array, and [empty] marks a
   free slot. Its owner keeps every live seq inside [lo, lo + capacity)
   for its own low mark [lo] and passes that mark to [ring_set], which
   doubles the array when a seq would fall outside it. *)
type 'a ring = { mutable slots : 'a array; empty : 'a; mutable count : int }

let ring_create empty = { slots = Array.make 16 empty; empty; count = 0 }
let ring_capacity r = Array.length r.slots
let ring_get r seq = Array.unsafe_get r.slots (seq land (ring_capacity r - 1))

let ring_set r ~lo seq v =
  while seq - lo >= ring_capacity r do
    let old = r.slots and cap = ring_capacity r in
    r.slots <- Array.make (2 * cap) r.empty;
    for s = lo to lo + cap - 1 do
      r.slots.(s land ((2 * cap) - 1)) <- old.(s land (cap - 1))
    done
  done;
  r.slots.(seq land (ring_capacity r - 1)) <- v;
  r.count <- r.count + 1

let ring_clear r seq =
  r.slots.(seq land (ring_capacity r - 1)) <- r.empty;
  r.count <- r.count - 1

(* Sender half of one (src, dst) direction. Every seq below [base] is
   acknowledged or abandoned; the unacked ones lie in [base, next_seq),
   and [base] itself is unacked unless the window is empty. After a
   give-up, [skip_to] is one past the highest abandoned seq until an ack
   shows the receiver expects it (0: no Forward outstanding), and
   [skip_sends] counts the Forward's transmissions since it was last
   (re)started. *)
type tx = {
  tx_src : Simnet.Proc_id.t;
  tx_dst : Simnet.Proc_id.t;
  mutable next_seq : int;
  mutable base : int;
  unacked : tx_entry ring;
  pending : bytes Queue.t;
  mutable rto : Time_ns.t;
  mutable srtt_us : float;  (* 0 until the first sample *)
  mutable timer_gen : int;
  mutable skip_to : int;
  mutable skip_sends : int;
}

(* Receiver half of one (src, dst) direction: the out-of-order arrivals
   lie in (expected, expected + capacity). *)
type rx = { mutable expected : int; ooo : bytes ring }

type t = {
  fabric : Simnet.Fabric.t;
  cfg : config;
  sched : Scheduler.t;
  txs : tx Simnet.Proc_id.Pair_tbl.tbl;
  rxs : rx Simnet.Proc_id.Pair_tbl.tbl;
  mutable inflight_total : int;
  mutable give_up :
    src:Simnet.Proc_id.t -> dst:Simnet.Proc_id.t -> seq:int -> unit;
  m_data : Metrics.counter;
  m_acks : Metrics.counter;
  m_retransmits : Metrics.counter;
  m_dup_drops : Metrics.counter;
  m_corrupt_drops : Metrics.counter;
  m_exhausted : Metrics.counter;
  m_delivered : Metrics.counter;
  m_peer_resets : Metrics.counter;
  m_peer_reset_lost : Metrics.counter;
  m_skipped : Metrics.counter;
  m_rtt : Metrics.summary;
  m_window : Metrics.series;
}

let config t = t.cfg
let inflight t = t.inflight_total

let stats t =
  {
    data_sent = Metrics.counter_value t.m_data;
    acks_sent = Metrics.counter_value t.m_acks;
    retransmits = Metrics.counter_value t.m_retransmits;
    duplicate_drops = Metrics.counter_value t.m_dup_drops;
    corrupt_drops = Metrics.counter_value t.m_corrupt_drops;
    retries_exhausted = Metrics.counter_value t.m_exhausted;
    delivered = Metrics.counter_value t.m_delivered;
    peer_resets = Metrics.counter_value t.m_peer_resets;
    peer_reset_lost = Metrics.counter_value t.m_peer_reset_lost;
    skipped = Metrics.counter_value t.m_skipped;
  }

let on_give_up t f = t.give_up <- f

let sample_window t =
  if Metrics.series_enabled t.m_window then
    Metrics.push t.m_window
      ~x:(Time_ns.to_us (Scheduler.now t.sched))
      ~y:(float_of_int t.inflight_total)

let tx_of t ~src ~dst =
  match Simnet.Proc_id.Pair_tbl.find t.txs src dst with
  | tx -> tx
  | exception Not_found ->
    let tx =
      {
        tx_src = src;
        tx_dst = dst;
        next_seq = 0;
        base = 0;
        unacked =
          ring_create
            {
              e_seq = -1;
              e_payload = Bytes.empty;
              e_sends = 0;
              e_first_sent = Time_ns.zero;
            };
        pending = Queue.create ();
        rto = t.cfg.base_rto;
        srtt_us = 0.;
        timer_gen = 0;
        skip_to = 0;
        skip_sends = 0;
      }
    in
    Simnet.Proc_id.Pair_tbl.add t.txs src dst tx;
    tx

let rx_of t ~src ~dst =
  match Simnet.Proc_id.Pair_tbl.find t.rxs src dst with
  | rx -> rx
  | exception Not_found ->
    (* A fresh zero-length buffer is physically distinct from every
       payload, so it can mark the free slots. *)
    let rx = { expected = 0; ooo = ring_create (Bytes.create 0) } in
    Simnet.Proc_id.Pair_tbl.add t.rxs src dst rx;
    rx

(* The unacked entry for [seq] if its [e_seq] is [seq]; otherwise [seq]
   is not unacked (the empty entry's seq is -1). *)
let unacked_entry tx seq =
  if seq >= tx.base && seq < tx.next_seq then ring_get tx.unacked seq
  else tx.unacked.empty

(* Take [seq] out of the window and move [base] past every seq that is
   no longer unacked. *)
let release t tx seq =
  ring_clear tx.unacked seq;
  t.inflight_total <- t.inflight_total - 1;
  while tx.base < tx.next_seq && (ring_get tx.unacked tx.base).e_seq <> tx.base do
    tx.base <- tx.base + 1
  done

let send_frame t ~src ~dst frame =
  Simnet.Fabric.send_framed t.fabric ~src ~dst
    (Frame.encode ~integrity:(Simnet.Fabric.integrity t.fabric) frame)

let send_data_frame t tx entry =
  send_frame t ~src:tx.tx_src ~dst:tx.tx_dst
    (Frame.Data { seq = entry.e_seq; payload = entry.e_payload })

(* A Forward is live while it has retry budget left. Once spent (the
   path is still cut) it waits dormant, still outstanding, until an ack
   shows the path works and the receiver still behind it. *)
let forward_live t tx = tx.skip_to > 0 && tx.skip_sends <= t.cfg.max_retries

let send_forward t tx =
  tx.skip_sends <- tx.skip_sends + 1;
  send_frame t ~src:tx.tx_src ~dst:tx.tx_dst (Frame.Forward { upto = tx.skip_to })

(* --- retransmission timer --------------------------------------------- *)

(* Timers cannot be cancelled in the event queue, so each (re)arm bumps a
   generation; stale firings see a newer generation and do nothing. The
   timer runs while frames are unacked or a Forward is live. *)
let needs_timer t tx = tx.unacked.count > 0 || forward_live t tx

let rec arm_timer t tx =
  tx.timer_gen <- tx.timer_gen + 1;
  let gen = tx.timer_gen in
  Scheduler.after t.sched tx.rto (fun () ->
      if gen = tx.timer_gen && needs_timer t tx then on_timeout t tx)

and cancel_timer tx = tx.timer_gen <- tx.timer_gen + 1

and on_timeout t tx =
  (* Retransmit every unacked frame in sequence order; frames past their
     retry budget are abandoned, and a Forward past the last of them
     (re)starts. Frames a give-up callback sends lie past [last] and wait
     for the next round. *)
  let last = tx.next_seq - 1 in
  for seq = tx.base to last do
    let e = unacked_entry tx seq in
    if e.e_seq = seq then
      if e.e_sends > t.cfg.max_retries then begin
        release t tx seq;
        tx.skip_to <- max tx.skip_to (seq + 1);
        tx.skip_sends <- 0;
        Metrics.incr t.m_exhausted;
        (* Exhausted retry budgets must be visible in Chrome traces, not
           only counters, whatever the give_up callback does. *)
        let tr = Scheduler.trace t.sched in
        if Trace.enabled tr then
          Trace.instant tr ~subsys:"rel"
            ~proc:(Printf.sprintf "cpu%d" tx.tx_src.Simnet.Proc_id.nid)
            ~msg_id:e.e_seq
            (Format.asprintf "rel.give_up seq=%d %a->%a" e.e_seq
               Simnet.Proc_id.pp tx.tx_src Simnet.Proc_id.pp tx.tx_dst);
        t.give_up ~src:tx.tx_src ~dst:tx.tx_dst ~seq:e.e_seq
      end
      else begin
        e.e_sends <- e.e_sends + 1;
        Metrics.incr t.m_retransmits;
        send_data_frame t tx e
      end
  done;
  if forward_live t tx then send_forward t tx;
  (* Exponential backoff, capped. *)
  tx.rto <- Time_ns.min (Time_ns.add tx.rto tx.rto) t.cfg.max_rto;
  sample_window t;
  pump t tx;
  if needs_timer t tx then arm_timer t tx else cancel_timer tx

(* --- sender ------------------------------------------------------------ *)

and transmit t tx payload =
  let entry =
    {
      e_seq = tx.next_seq;
      e_payload = payload;
      e_sends = 1;
      e_first_sent = Scheduler.now t.sched;
    }
  in
  ring_set tx.unacked ~lo:tx.base entry.e_seq entry;
  tx.next_seq <- tx.next_seq + 1;
  t.inflight_total <- t.inflight_total + 1;
  Metrics.incr t.m_data;
  sample_window t;
  send_data_frame t tx entry;
  if tx.unacked.count = 1 then arm_timer t tx

and pump t tx =
  while tx.unacked.count < t.cfg.window && not (Queue.is_empty tx.pending) do
    transmit t tx (Queue.pop tx.pending)
  done

let on_send t ~src ~dst payload =
  let tx = tx_of t ~src ~dst in
  if tx.unacked.count < t.cfg.window && Queue.is_empty tx.pending then
    transmit t tx payload
  else Queue.add payload tx.pending

(* --- acknowledgment handling ------------------------------------------ *)

let update_rtt t tx entry =
  (* Karn's rule: only first-transmission acks give an unambiguous RTT. *)
  if entry.e_sends = 1 then begin
    let rtt_us =
      Time_ns.to_us (Time_ns.sub (Scheduler.now t.sched) entry.e_first_sent)
    in
    Metrics.observe t.m_rtt rtt_us;
    tx.srtt_us <-
      (if tx.srtt_us = 0. then rtt_us
       else (0.875 *. tx.srtt_us) +. (0.125 *. rtt_us));
    tx.rto <-
      Time_ns.max t.cfg.base_rto
        (Time_ns.min t.cfg.max_rto (Time_ns.us (2. *. tx.srtt_us)))
  end

let ack_seq t tx seq =
  let e = unacked_entry tx seq in
  if e.e_seq = seq then begin
    update_rtt t tx e;
    release t tx seq
  end

let on_ack t ~src ~dst ~cum_ack ~sack =
  (* The ack travels receiver -> sender, so the data direction it acks is
     (dst, src). Frames are taken in ascending sequence order, the order
     their RTT samples feed the smoothed RTT. *)
  let tx = tx_of t ~src:dst ~dst:src in
  if tx.skip_to > 0 then
    if cum_ack >= tx.skip_to - 1 then tx.skip_to <- 0
    else if not (forward_live t tx) then begin
      (* The path works again and the receiver is still short of the
         abandoned frames: restart the Forward with a fresh budget. *)
      tx.skip_sends <- 0;
      send_forward t tx;
      arm_timer t tx
    end;
  let before = tx.unacked.count in
  for seq = tx.base to min cum_ack (tx.next_seq - 1) do
    ack_seq t tx seq
  done;
  if sack <> 0L then
    for seq = cum_ack + 1 to cum_ack + 64 do
      if Frame.sack_mem ~sack ~cum_ack seq then ack_seq t tx seq
    done;
  if tx.unacked.count < before then begin
    sample_window t;
    if needs_timer t tx then arm_timer t tx (* restart: progress was made *)
    else cancel_timer tx
  end;
  pump t tx

(* --- receiver ---------------------------------------------------------- *)

let send_ack t ~me ~peer rx =
  Metrics.incr t.m_acks;
  let cum_ack = rx.expected - 1 in
  let sack =
    if rx.ooo.count = 0 then 0L
    else begin
      let seqs = ref [] in
      for seq = rx.expected + min 63 (ring_capacity rx.ooo - 1)
          downto rx.expected + 1 do
        if ring_get rx.ooo seq != rx.ooo.empty then seqs := seq :: !seqs
      done;
      Frame.sack_of_seqs ~cum_ack !seqs
    end
  in
  send_frame t ~src:me ~dst:peer (Frame.Ack { cum_ack; sack })

let deliver_up t ~src ~dst payload =
  Metrics.incr t.m_delivered;
  Simnet.Fabric.deliver t.fabric ~src ~dst payload

(* Hands up the buffered frames that are now in order. *)
let drain_in_order t ~src ~dst rx =
  while rx.ooo.count > 0 && ring_get rx.ooo rx.expected != rx.ooo.empty do
    let p = ring_get rx.ooo rx.expected in
    ring_clear rx.ooo rx.expected;
    deliver_up t ~src ~dst p;
    rx.expected <- rx.expected + 1
  done

let on_data t ~src ~dst ~seq payload =
  let rx = rx_of t ~src ~dst in
  let ahead = seq - rx.expected in
  if
    ahead < 0
    || (ahead < ring_capacity rx.ooo && ring_get rx.ooo seq != rx.ooo.empty)
  then begin
    (* Duplicate (a retransmission that crossed our ack): suppress, but
       re-ack so the sender stops resending. *)
    Metrics.incr t.m_dup_drops;
    send_ack t ~me:dst ~peer:src rx
  end
  else if ahead = 0 then begin
    deliver_up t ~src ~dst payload;
    rx.expected <- rx.expected + 1;
    drain_in_order t ~src ~dst rx;
    send_ack t ~me:dst ~peer:src rx
  end
  else begin
    (* A working sender never gets [window + 64] seqs ahead: frames past
       the 64 a SACK covers stay unacked and fill its window. Only a
       sender that abandoned a frame (this receiver then waits for its
       Forward) or a damaged seq in an unchecked frame gets here. Such a
       frame is acked but not kept, so the ring stays within reach of
       [expected]; a sender retransmits it, as no SACK reaches it. *)
    if ahead < t.cfg.window + 64 then
      ring_set rx.ooo ~lo:rx.expected seq payload;
    send_ack t ~me:dst ~peer:src rx
  end

(* The sender gave up every seq below [upto] it had not seen acked:
   deliver what is buffered of them, count the rest as skipped, and ack
   the new position so the sender stops sending the Forward. *)
let on_forward t ~src ~dst ~upto =
  let rx = rx_of t ~src ~dst in
  while rx.expected < upto do
    let p = ring_get rx.ooo rx.expected in
    if p != rx.ooo.empty then begin
      ring_clear rx.ooo rx.expected;
      deliver_up t ~src ~dst p
    end
    else Metrics.incr t.m_skipped;
    rx.expected <- rx.expected + 1
  done;
  drain_in_order t ~src ~dst rx;
  send_ack t ~me:dst ~peer:src rx

let on_wire t ~src ~dst payload =
  match Frame.decode ~integrity:(Simnet.Fabric.integrity t.fabric) payload with
  | Ok (Frame.Data { seq; payload }) -> on_data t ~src ~dst ~seq payload
  | Ok (Frame.Ack { cum_ack; sack }) -> on_ack t ~src ~dst ~cum_ack ~sack
  | Ok (Frame.Forward { upto }) -> on_forward t ~src ~dst ~upto
  | Error _ ->
    (* Only the shim's own frames arrive here, so one that does not
       decode was damaged in flight. Treat exactly like loss: no
       delivery, no acknowledgment — the sender's timer retransmits
       (data) or the next data frame re-elicits the ack (acks), so
       corruption degrades to loss and recovery is transparent. *)
    Metrics.incr t.m_corrupt_drops;
    let tr = Scheduler.trace t.sched in
    if Trace.enabled tr then
      Trace.instant tr ~subsys:"rel"
        ~proc:(Printf.sprintf "cpu%d" dst.Simnet.Proc_id.nid)
        (Format.asprintf "rel.corrupt_drop %a->%a len=%d" Simnet.Proc_id.pp src
           Simnet.Proc_id.pp dst (Bytes.length payload))

(* --- peer reset -------------------------------------------------------- *)

(* Crash-stop of node [nid] invalidates every per-pair state touching it:
   the node's own halves died with it, and surviving peers must restart
   the pair's sequence space from 0 — the restarted node comes back with
   empty tables, so retransmitting into the old numbering would deadlock
   both directions. Unsent/unacked frames toward the dead node are
   counted lost; redelivery is the caller's business (MPI surfaces it as
   [Peer_failed]). State is recreated lazily at seq 0 on next use. *)
let forget_node t nid =
  let involved a b =
    a.Simnet.Proc_id.nid = nid || b.Simnet.Proc_id.nid = nid
  in
  let reset = ref false in
  Simnet.Proc_id.Pair_tbl.filter_inplace
    (fun src dst tx ->
      if not (involved src dst) then true
      else begin
        cancel_timer tx;
        let lost = tx.unacked.count + Queue.length tx.pending in
        t.inflight_total <- t.inflight_total - tx.unacked.count;
        if lost > 0 then Metrics.add t.m_peer_reset_lost lost;
        reset := true;
        false
      end)
    t.txs;
  Simnet.Proc_id.Pair_tbl.filter_inplace
    (fun src dst _ ->
      if involved src dst then begin
        reset := true;
        false
      end
      else true)
    t.rxs;
  if !reset then begin
    Metrics.incr t.m_peer_resets;
    sample_window t
  end

(* --- construction ------------------------------------------------------ *)

let attach ?(config = default_config) fabric =
  if config.window <= 0 then
    invalid_arg "Reliability.attach: window must be positive";
  if config.max_retries < 0 then
    invalid_arg "Reliability.attach: max_retries must be non-negative";
  let sched = Simnet.Fabric.sched fabric in
  let m = Scheduler.metrics sched in
  let labels = [ ("protocol", "reliability") ] in
  let t =
    {
      fabric;
      cfg = config;
      sched;
      txs = Simnet.Proc_id.Pair_tbl.create 64;
      rxs = Simnet.Proc_id.Pair_tbl.create 64;
      inflight_total = 0;
      give_up = (fun ~src:_ ~dst:_ ~seq:_ -> ());
      m_data = Metrics.counter m ~labels "rel.data_sent";
      m_acks = Metrics.counter m ~labels "rel.acks_sent";
      m_retransmits = Metrics.counter m ~labels "rel.retransmits";
      m_dup_drops = Metrics.counter m ~labels "rel.duplicate_drops";
      m_corrupt_drops = Metrics.counter m ~labels "rel.corrupt_drops";
      m_exhausted = Metrics.counter m ~labels "rel.retries_exhausted";
      m_delivered = Metrics.counter m ~labels "rel.delivered";
      m_peer_resets = Metrics.counter m ~labels "rel.peer_resets";
      m_peer_reset_lost = Metrics.counter m ~labels "rel.peer_reset_lost";
      m_skipped = Metrics.counter m ~labels "rel.skipped";
      m_rtt = Metrics.summary m ~labels "rel.ack_rtt_us";
      m_window = Metrics.series m ~labels "rel.window_inflight";
    }
  in
  Simnet.Fabric.install_shim fabric
    {
      Simnet.Fabric.shim_tx = (fun ~src ~dst payload -> on_send t ~src ~dst payload);
      shim_rx = (fun ~src ~dst payload -> on_wire t ~src ~dst payload);
    };
  Simnet.Fabric.on_crash fabric (fun nid -> forget_node t nid);
  t
