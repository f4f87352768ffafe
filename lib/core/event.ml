type kind = Sent | Ack | Put | Get | Atomic | Reply | Triggered

let kind_to_string = function
  | Sent -> "SENT"
  | Ack -> "ACK"
  | Put -> "PUT"
  | Get -> "GET"
  | Atomic -> "ATOMIC"
  | Reply -> "REPLY"
  | Triggered -> "TRIGGERED"

let pp_kind ppf k = Format.pp_print_string ppf (kind_to_string k)

type t = {
  kind : kind;
  initiator : Simnet.Proc_id.t;
  portal_index : int;
  match_bits : Match_bits.t;
  rlength : int;
  mlength : int;
  offset : int;
  md_handle : Handle.md;
  md_user_ptr : int;
  time : Sim_engine.Time_ns.t;
}

let pp ppf t =
  Format.fprintf ppf "%a from %a pt=%d bits=%a rlen=%d mlen=%d off=%d at %a"
    pp_kind t.kind Simnet.Proc_id.pp t.initiator t.portal_index Match_bits.pp
    t.match_bits t.rlength t.mlength t.offset Sim_engine.Time_ns.pp t.time

module Queue = struct
  type event = t

  (* What an empty slot holds: events sit in the ring unboxed, so a post
     allocates nothing. *)
  let vacant =
    {
      kind = Sent;
      initiator = Simnet.Proc_id.make ~nid:0 ~pid:0;
      portal_index = 0;
      match_bits = Match_bits.zero;
      rlength = 0;
      mlength = 0;
      offset = 0;
      md_handle = Handle.none;
      md_user_ptr = 0;
      time = Sim_engine.Time_ns.zero;
    }

  (* The ring starts empty and doubles on demand up to [capacity], so a
     queue costs what it holds rather than what it could hold: a deep EQ
     on a rank that never receives stays a few words. *)
  type t = {
    sched : Sim_engine.Scheduler.t;
    capacity : int;
    mutable ring : event array;
    mutable head : int; (* next read position *)
    mutable len : int;
    mutable dropped : int;
    mutable posted : int;
    mutable depth_series : Sim_engine.Metrics.series option;
    mutable interrupts : int;
    nonempty : Sim_engine.Sync.Waitq.t;
  }

  let create ?name sched ~capacity =
    if capacity <= 0 then invalid_arg "Event.Queue.create: capacity must be positive";
    let t =
      {
        sched;
        capacity;
        ring = [||];
        head = 0;
        len = 0;
        dropped = 0;
        posted = 0;
        depth_series = None;
        interrupts = 0;
        nonempty = Sim_engine.Sync.Waitq.create ~name:"eq" sched;
      }
    in
    (match name with
    | None -> ()
    | Some n ->
      (* Named queues publish a depth time-series plus posted/dropped
         probes under the "eq" label; anonymous queues cost nothing. *)
      let m = Sim_engine.Scheduler.metrics sched in
      let labels = [ ("eq", n) ] in
      t.depth_series <- Some (Sim_engine.Metrics.series m ~labels "eq.depth");
      Sim_engine.Metrics.probe m ~labels "eq.posted" (fun () ->
          float_of_int t.posted);
      Sim_engine.Metrics.probe m ~labels "eq.dropped" (fun () ->
          float_of_int t.dropped));
    t

  let capacity t = t.capacity
  let count t = t.len
  let is_full t = t.len = t.capacity

  (* Checked before the floats are made: they would be boxed for the
     call even with metrics off. *)
  let record_depth t =
    match t.depth_series with
    | Some s when Sim_engine.Metrics.series_enabled s ->
      Sim_engine.Metrics.push s
        ~x:(Sim_engine.Time_ns.to_us (Sim_engine.Scheduler.now t.sched))
        ~y:(float_of_int t.len)
    | Some _ | None -> ()

  (* Called with the ring full and [len < capacity]: move the entries,
     oldest first, to the front of a ring twice the size (at least 8
     slots, at most [capacity]). *)
  let grow t =
    let old = t.ring in
    let size = Array.length old in
    let ring = Array.make (min t.capacity (max 8 (2 * size))) vacant in
    let first = size - t.head in
    Array.blit old t.head ring 0 first;
    Array.blit old 0 ring first t.head;
    t.ring <- ring;
    t.head <- 0

  let post t ev =
    if is_full t then begin
      t.dropped <- t.dropped + 1;
      false
    end
    else begin
      if t.len = Array.length t.ring then grow t;
      let tail = (t.head + t.len) mod Array.length t.ring in
      t.ring.(tail) <- ev;
      t.len <- t.len + 1;
      t.posted <- t.posted + 1;
      record_depth t;
      Sim_engine.Sync.Waitq.broadcast t.nonempty;
      true
    end

  (* The oldest event; the queue is not empty. *)
  let take t =
    let ev = t.ring.(t.head) in
    t.ring.(t.head) <- vacant;
    t.head <- (t.head + 1) mod Array.length t.ring;
    t.len <- t.len - 1;
    record_depth t;
    ev

  let get t = if t.len = 0 then None else Some (take t)

  let rec wait t =
    if t.len > 0 then take t
    else begin
      Sim_engine.Sync.Waitq.wait t.nonempty;
      wait t
    end

  let wake t =
    t.interrupts <- t.interrupts + 1;
    Sim_engine.Sync.Waitq.broadcast t.nonempty

  let wait_opt t =
    let mark = t.interrupts in
    let rec loop () =
      match get t with
      | Some ev -> Some ev
      | None ->
        if t.interrupts <> mark then None
        else begin
          Sim_engine.Sync.Waitq.wait t.nonempty;
          loop ()
        end
    in
    loop ()

  let dropped t = t.dropped
  let posted t = t.posted
end
