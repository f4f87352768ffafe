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
}

type tx_entry = {
  e_seq : int;
  e_payload : bytes;
  mutable e_sends : int;
  e_first_sent : Time_ns.t;
}

(* Sender half of one (src, dst) direction. *)
type tx = {
  tx_src : Simnet.Proc_id.t;
  tx_dst : Simnet.Proc_id.t;
  mutable next_seq : int;
  unacked : (int, tx_entry) Hashtbl.t;
  pending : bytes Queue.t;
  mutable rto : Time_ns.t;
  mutable srtt_us : float;  (* 0 until the first sample *)
  mutable timer_gen : int;
}

(* Receiver half of one (src, dst) direction. *)
type rx = { mutable expected : int; ooo : (int, bytes) Hashtbl.t }

type t = {
  fabric : Simnet.Fabric.t;
  cfg : config;
  sched : Scheduler.t;
  txs : (Simnet.Proc_id.t * Simnet.Proc_id.t, tx) Hashtbl.t;
  rxs : (Simnet.Proc_id.t * Simnet.Proc_id.t, rx) Hashtbl.t;
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
  }

let on_give_up t f = t.give_up <- f

let sample_window t =
  Metrics.push t.m_window
    ~x:(Time_ns.to_us (Scheduler.now t.sched))
    ~y:(float_of_int t.inflight_total)

let tx_of t ~src ~dst =
  match Hashtbl.find_opt t.txs (src, dst) with
  | Some tx -> tx
  | None ->
    let tx =
      {
        tx_src = src;
        tx_dst = dst;
        next_seq = 0;
        unacked = Hashtbl.create 64;
        pending = Queue.create ();
        rto = t.cfg.base_rto;
        srtt_us = 0.;
        timer_gen = 0;
      }
    in
    Hashtbl.replace t.txs (src, dst) tx;
    tx

let rx_of t ~src ~dst =
  match Hashtbl.find_opt t.rxs (src, dst) with
  | Some rx -> rx
  | None ->
    let rx = { expected = 0; ooo = Hashtbl.create 64 } in
    Hashtbl.replace t.rxs (src, dst) rx;
    rx

let send_data_frame t tx entry =
  Simnet.Fabric.send_raw t.fabric ~src:tx.tx_src ~dst:tx.tx_dst
    (Frame.encode
       ~integrity:(Simnet.Fabric.integrity t.fabric)
       (Frame.Data { seq = entry.e_seq; payload = entry.e_payload }))

(* --- retransmission timer --------------------------------------------- *)

(* Timers cannot be cancelled in the event queue, so each (re)arm bumps a
   generation; stale firings see a newer generation and do nothing. *)
let rec arm_timer t tx =
  tx.timer_gen <- tx.timer_gen + 1;
  let gen = tx.timer_gen in
  Scheduler.after t.sched tx.rto (fun () ->
      if gen = tx.timer_gen && Hashtbl.length tx.unacked > 0 then
        on_timeout t tx)

and cancel_timer tx = tx.timer_gen <- tx.timer_gen + 1

and on_timeout t tx =
  (* Retransmit every unacked frame in sequence order; frames past their
     retry budget are abandoned. *)
  let entries =
    List.sort
      (fun a b -> compare a.e_seq b.e_seq)
      (Hashtbl.fold (fun _ e acc -> e :: acc) tx.unacked [])
  in
  List.iter
    (fun e ->
      if e.e_sends > t.cfg.max_retries then begin
        Hashtbl.remove tx.unacked e.e_seq;
        t.inflight_total <- t.inflight_total - 1;
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
      end)
    entries;
  (* Exponential backoff, capped. *)
  tx.rto <- Time_ns.min (Time_ns.add tx.rto tx.rto) t.cfg.max_rto;
  sample_window t;
  pump t tx;
  if Hashtbl.length tx.unacked > 0 then arm_timer t tx else cancel_timer tx

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
  tx.next_seq <- tx.next_seq + 1;
  Hashtbl.replace tx.unacked entry.e_seq entry;
  t.inflight_total <- t.inflight_total + 1;
  Metrics.incr t.m_data;
  sample_window t;
  send_data_frame t tx entry;
  if Hashtbl.length tx.unacked = 1 then arm_timer t tx

and pump t tx =
  while
    Hashtbl.length tx.unacked < t.cfg.window
    && not (Queue.is_empty tx.pending)
  do
    transmit t tx (Queue.pop tx.pending)
  done

let on_send t ~src ~dst payload =
  let tx = tx_of t ~src ~dst in
  if
    Hashtbl.length tx.unacked < t.cfg.window && Queue.is_empty tx.pending
  then transmit t tx payload
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

let on_ack t ~src ~dst ~cum_ack ~sack =
  (* The ack travels receiver -> sender, so the data direction it acks is
     (dst, src). *)
  let tx = tx_of t ~src:dst ~dst:src in
  let acked =
    Hashtbl.fold
      (fun seq e acc ->
        if seq <= cum_ack || Frame.sack_mem ~sack ~cum_ack seq then e :: acc
        else acc)
      tx.unacked []
  in
  List.iter
    (fun e ->
      update_rtt t tx e;
      Hashtbl.remove tx.unacked e.e_seq;
      t.inflight_total <- t.inflight_total - 1)
    acked;
  if acked <> [] then begin
    sample_window t;
    if Hashtbl.length tx.unacked = 0 then cancel_timer tx
    else arm_timer t tx (* restart: progress was made *)
  end;
  pump t tx

(* --- receiver ---------------------------------------------------------- *)

let send_ack t ~me ~peer rx =
  Metrics.incr t.m_acks;
  let cum_ack = rx.expected - 1 in
  let seqs = Hashtbl.fold (fun seq _ acc -> seq :: acc) rx.ooo [] in
  let sack = Frame.sack_of_seqs ~cum_ack seqs in
  Simnet.Fabric.send_raw t.fabric ~src:me ~dst:peer
    (Frame.encode
       ~integrity:(Simnet.Fabric.integrity t.fabric)
       (Frame.Ack { cum_ack; sack }))

let deliver_up t ~src ~dst payload =
  Metrics.incr t.m_delivered;
  Simnet.Fabric.deliver t.fabric ~src ~dst payload

let on_data t ~src ~dst ~seq payload =
  let rx = rx_of t ~src ~dst in
  if seq < rx.expected || Hashtbl.mem rx.ooo seq then
    (* Duplicate (a retransmission that crossed our ack): suppress, but
       re-ack so the sender stops resending. *)
    Metrics.incr t.m_dup_drops
  else if seq = rx.expected then begin
    deliver_up t ~src ~dst payload;
    rx.expected <- rx.expected + 1;
    (* Drain any buffered successors that are now in order. *)
    let rec drain () =
      match Hashtbl.find_opt rx.ooo rx.expected with
      | None -> ()
      | Some p ->
        Hashtbl.remove rx.ooo rx.expected;
        deliver_up t ~src ~dst p;
        rx.expected <- rx.expected + 1;
        drain ()
    in
    drain ()
  end
  else Hashtbl.replace rx.ooo seq payload;
  send_ack t ~me:dst ~peer:src rx

let on_wire t ~src ~dst payload =
  match Frame.decode ~integrity:(Simnet.Fabric.integrity t.fabric) payload with
  | Ok (Frame.Data { seq; payload }) -> on_data t ~src ~dst ~seq payload
  | Ok (Frame.Ack { cum_ack; sack }) -> on_ack t ~src ~dst ~cum_ack ~sack
  | Error Frame.Not_ours ->
    (* Not ours — a message injected below the shim (e.g. directly via
       send_raw in a test). Pass it through untouched. *)
    Simnet.Fabric.deliver t.fabric ~src ~dst payload
  | Error (Frame.Corrupt _) ->
    (* A reliability frame damaged in flight. Treat exactly like loss:
       no delivery, no acknowledgment — the sender's timer retransmits
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
  let involved (a, b) =
    a.Simnet.Proc_id.nid = nid || b.Simnet.Proc_id.nid = nid
  in
  let tx_victims =
    Hashtbl.fold
      (fun k tx acc -> if involved k then (k, tx) :: acc else acc)
      t.txs []
  in
  let rx_victims =
    Hashtbl.fold (fun k _ acc -> if involved k then k :: acc else acc) t.rxs []
  in
  List.iter
    (fun (k, tx) ->
      cancel_timer tx;
      let lost = Hashtbl.length tx.unacked + Queue.length tx.pending in
      t.inflight_total <- t.inflight_total - Hashtbl.length tx.unacked;
      if lost > 0 then Metrics.add t.m_peer_reset_lost lost;
      Hashtbl.remove t.txs k)
    tx_victims;
  List.iter (Hashtbl.remove t.rxs) rx_victims;
  if tx_victims <> [] || rx_victims <> [] then begin
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
      txs = Hashtbl.create 64;
      rxs = Hashtbl.create 64;
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
