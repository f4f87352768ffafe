type event =
  | Recv_complete of { src : Simnet.Proc_id.t; buffer : bytes; length : int }
  | Send_complete of { dst : Simnet.Proc_id.t; length : int }

type stats = {
  sends : int;
  receives : int;
  drops_no_token : int;
  polls : int;
  tokens_available : int;
}

(* The receive tokens of one size: [tc_tokens] holds the backed ones,
   oldest first, and [tc_unbacked] counts more whose buffers are created
   when an arrival first takes one. A backed token is taken first, so a
   port only ever backs as many tokens as it has had in use at once. *)
type token_class = {
  tc_size : int;
  tc_tokens : bytes Queue.t;
  mutable tc_unbacked : int;
}

type t = {
  tp : Simnet.Transport.t;
  self : Simnet.Proc_id.t;
  (* Non-empty classes, smallest size first. *)
  mutable token_classes : token_class list;
  mutable token_count : int;
  events : event Queue.t;
  nonempty : Sim_engine.Sync.Waitq.t;
  depth_series : Sim_engine.Metrics.series;
  mutable s_sends : int;
  mutable s_receives : int;
  mutable s_drops : int;
  mutable s_polls : int;
  mutable live : bool;
  mutable interrupts : int;
}

(* The port's event queue is GM's analogue of a Portals event queue, so it
   publishes the same "eq.depth" series the Fig. 6 comparison reads. *)
let record_depth t =
  if Sim_engine.Metrics.series_enabled t.depth_series then begin
    let sched = Simnet.Fabric.sched t.tp.Simnet.Transport.fabric in
    Sim_engine.Metrics.push t.depth_series
      ~x:(Sim_engine.Time_ns.to_us (Sim_engine.Scheduler.now sched))
      ~y:(float_of_int (Queue.length t.events))
  end

let rec find_class size = function
  | [] -> None
  | c :: rest -> if c.tc_size = size then Some c else find_class size rest

let rec insert_class c = function
  | c' :: rest when c'.tc_size < c.tc_size -> c' :: insert_class c rest
  | classes -> c :: classes

let token_class t size =
  match find_class size t.token_classes with
  | Some c -> c
  | None ->
    let c = { tc_size = size; tc_tokens = Queue.create (); tc_unbacked = 0 } in
    t.token_classes <- insert_class c t.token_classes;
    c

let provide_receive_token t buffer =
  Queue.add buffer (token_class t (Bytes.length buffer)).tc_tokens;
  t.token_count <- t.token_count + 1

let provide_receive_tokens t ~size n =
  if n < 0 then invalid_arg "Gm.provide_receive_tokens: negative count";
  if n > 0 then begin
    let c = token_class t size in
    c.tc_unbacked <- c.tc_unbacked + n;
    t.token_count <- t.token_count + n
  end

let rec smallest_fit len = function
  | [] -> None
  | c :: rest -> if c.tc_size >= len then Some c else smallest_fit len rest

(* Best fit: the oldest token of the smallest size that holds [len]
   bytes, so an eager message never takes the larger token granted for
   a rendezvous while an eager token fits; the rendezvous data would
   then find no token and be dropped. *)
let take_token t len =
  match smallest_fit len t.token_classes with
  | None -> None
  | Some c ->
    let tok =
      if Queue.is_empty c.tc_tokens then begin
        c.tc_unbacked <- c.tc_unbacked - 1;
        Bytes.create c.tc_size
      end
      else Queue.pop c.tc_tokens
    in
    if Queue.is_empty c.tc_tokens && c.tc_unbacked = 0 then
      t.token_classes <- List.filter (fun c' -> c' != c) t.token_classes;
    t.token_count <- t.token_count - 1;
    Some tok

let on_arrival t ~src payload =
  if t.live then begin
    let len = Bytes.length payload in
    match take_token t len with
    | None -> t.s_drops <- t.s_drops + 1
    | Some buffer ->
      (* NIC DMA into the token buffer: no host CPU, no application. *)
      Bytes.blit payload 0 buffer 0 len;
      t.s_receives <- t.s_receives + 1;
      Queue.add (Recv_complete { src; buffer; length = len }) t.events;
      record_depth t;
      Sim_engine.Sync.Waitq.broadcast t.nonempty
  end

let open_port tp ~id:self =
  let sched = Simnet.Fabric.sched tp.Simnet.Transport.fabric in
  let m = Sim_engine.Scheduler.metrics sched in
  let pname = Format.asprintf "%a" Simnet.Proc_id.pp self in
  let t =
    {
      tp;
      self;
      token_classes = [];
      token_count = 0;
      events = Queue.create ();
      nonempty = Sim_engine.Sync.Waitq.create ~name:"gm-port" sched;
      depth_series =
        Sim_engine.Metrics.series m ~labels:[ ("eq", "gm:" ^ pname) ] "eq.depth";
      s_sends = 0;
      s_receives = 0;
      s_drops = 0;
      s_polls = 0;
      live = true;
      interrupts = 0;
    }
  in
  let labels = [ ("port", pname) ] in
  let probe name f =
    Sim_engine.Metrics.probe m ~labels name (fun () -> float_of_int (f ()))
  in
  probe "gm.sends" (fun () -> t.s_sends);
  probe "gm.receives" (fun () -> t.s_receives);
  probe "gm.drops_no_token" (fun () -> t.s_drops);
  probe "gm.polls" (fun () -> t.s_polls);
  tp.Simnet.Transport.register self (fun ~src payload -> on_arrival t ~src payload);
  t

let close t =
  if t.live then begin
    t.live <- false;
    t.tp.Simnet.Transport.unregister t.self
  end

let send t ~dst payload =
  t.s_sends <- t.s_sends + 1;
  let length = Bytes.length payload in
  t.tp.Simnet.Transport.send ~src:t.self ~dst payload;
  Sim_engine.Scheduler.after
    (Simnet.Fabric.sched t.tp.Simnet.Transport.fabric)
    t.tp.Simnet.Transport.send_overhead (fun () ->
      if t.live then begin
        Queue.add (Send_complete { dst; length }) t.events;
        Sim_engine.Sync.Waitq.broadcast t.nonempty
      end)

let poll t =
  t.s_polls <- t.s_polls + 1;
  let ev = Queue.take_opt t.events in
  if ev <> None then record_depth t;
  ev

let pending_events t = Queue.length t.events

let wake t =
  t.interrupts <- t.interrupts + 1;
  Sim_engine.Sync.Waitq.broadcast t.nonempty

let wait_event t =
  let mark = t.interrupts in
  let rec loop () =
    if Queue.is_empty t.events && t.interrupts = mark then begin
      Sim_engine.Sync.Waitq.wait t.nonempty;
      loop ()
    end
  in
  loop ()

let stats t =
  {
    sends = t.s_sends;
    receives = t.s_receives;
    drops_no_token = t.s_drops;
    polls = t.s_polls;
    tokens_available = t.token_count;
  }
