open Sim_engine
module Frame = Frame

type config = { eager_threshold : int; per_packet_interrupt : bool }

type stats = {
  eager_messages : int;
  rendezvous_messages : int;
  rts_sent : int;
  cts_sent : int;
  data_packets : int;
  bytes_carried : int;
  failed_handshakes : int;
  data_drops : int;
  eager_drops : int;
  malformed_drops : int;
}

type queued = { q_dst : Simnet.Proc_id.t; q_payload : bytes }

(* Per-(src,dst) ordered sender pipeline. *)
type pair = {
  src : Simnet.Proc_id.t;
  dst : Simnet.Proc_id.t;
  waiting : queued Queue.t;
  mutable busy : bool;
  mutable next_msg_id : int;
  awaiting_cts : (int, bytes) Hashtbl.t;
}

(* Receive-side reassembly of one streamed message of [total] bytes (the
   RTS's length); [arrived] has one byte per packet, set once that
   packet's bytes are in [buffer], and grows as packets land: nothing is
   sized from the RTS's length until a data packet repeats it. The RTS
   opens it, and the first packet sets [buffer]. While [aliased],
   [buffer] is the sender's image itself: every packet so far was an
   intact view of it at its own offset, so its bytes are already in
   place, and the message is handed up without a reassembly copy. The
   first packet that is not such a view (a damaged copy) turns the
   buffer into a private copy, which the remaining packets fill. *)
type assembly = {
  total : int;
  mutable buffer : bytes;
  mutable aliased : bool;
  mutable arrived : Bytes.t;
  mutable received : int;
}

(* Receive side of one (src, me) stream. A pair's rendezvous messages
   follow one another: the sender streams one before it asks to send the
   next, and the RTS of a message reaches the receiver before any of its
   data. [rx_id] is the newest message whose RTS arrived, and [rx_open]
   its reassembly until it completes; a Data packet of any other message,
   or of a completed one, is a duplicate or a straggler.

   Eager frames go out back to back, so a delaying fabric may reorder
   them: every id below [rx_next] has arrived (as an Eager frame or an
   RTS), and [rx_ahead] holds the ids above it that arrived early. *)
type rx = {
  mutable rx_id : int;
  mutable rx_open : assembly option;
  mutable rx_next : int;
  rx_ahead : (int, unit) Hashtbl.t;
}

type mstats = {
  mutable s_eager : int;
  mutable s_rendezvous : int;
  mutable s_rts : int;
  mutable s_cts : int;
  mutable s_data : int;
  mutable s_bytes : int;
  mutable s_failed : int;
  mutable s_data_drops : int;
  mutable s_eager_drops : int;
  mutable s_malformed : int;
}

type t = {
  fabric : Simnet.Fabric.t;
  cfg : config;
  sched : Scheduler.t;
  pairs : (Simnet.Proc_id.t * Simnet.Proc_id.t, pair) Hashtbl.t;
  kcopy : Simnet.Link.t array; (* per owned node: kernel copy engine *)
  uppers : (Simnet.Proc_id.t, src:Simnet.Proc_id.t -> bytes -> unit) Hashtbl.t;
  rxs : rx Simnet.Proc_id.Pair_tbl.tbl;
  st : mstats;
  mutable send_error :
    src:Simnet.Proc_id.t -> dst:Simnet.Proc_id.t -> len:int -> unit;
}

let profile t = Simnet.Fabric.profile t.fabric
let chunk_payload t = (profile t).Simnet.Profile.mtu - Frame.header_size

let create ?config fabric =
  let profile = Simnet.Fabric.profile fabric in
  let cfg =
    match config with
    | Some c -> c
    | None ->
      { eager_threshold = profile.Simnet.Profile.mtu; per_packet_interrupt = true }
  in
  let sched = Simnet.Fabric.sched fabric in
  let t =
    {
      fabric;
      cfg;
      sched;
      pairs = Hashtbl.create 64;
      kcopy =
        Simnet.Fabric.per_node fabric (fun nid ->
            Simnet.Link.create ~name:("kcopy" ^ string_of_int nid) sched);
      uppers = Hashtbl.create 64;
      rxs = Simnet.Proc_id.Pair_tbl.create 64;
      st =
        {
          s_eager = 0;
          s_rendezvous = 0;
          s_rts = 0;
          s_cts = 0;
          s_data = 0;
          s_bytes = 0;
          s_failed = 0;
          s_data_drops = 0;
          s_eager_drops = 0;
          s_malformed = 0;
        };
      send_error = (fun ~src:_ ~dst:_ ~len:_ -> ());
    }
  in
  Simnet.Link.probe_family sched ~size:(Array.length t.kcopy) (Array.get t.kcopy);
  let m = Scheduler.metrics sched in
  let labels = [ ("protocol", "rtscts") ] in
  let probe name f = Metrics.probe m ~labels name (fun () -> float_of_int (f ())) in
  probe "rtscts.eager_messages" (fun () -> t.st.s_eager);
  probe "rtscts.rendezvous_messages" (fun () -> t.st.s_rendezvous);
  probe "rtscts.rts_sent" (fun () -> t.st.s_rts);
  probe "rtscts.cts_sent" (fun () -> t.st.s_cts);
  probe "rtscts.data_packets" (fun () -> t.st.s_data);
  probe "rtscts.bytes_carried" (fun () -> t.st.s_bytes);
  probe "rtscts.failed_handshakes" (fun () -> t.st.s_failed);
  (* A node crash kills every handshake touching it: transfers parked in
     [awaiting_cts] toward the dead node (their CTS will never come),
     everything queued behind them, and partial reassemblies of the dead
     node's streams. Failing them now un-stalls the pair pipeline and
     surfaces the loss through [on_send_error]. *)
  Simnet.Fabric.on_crash fabric (fun nid ->
      Hashtbl.iter
        (fun (_, dst) pair ->
          if dst.Simnet.Proc_id.nid = nid then begin
            let stalled = Hashtbl.length pair.awaiting_cts > 0 in
            Hashtbl.iter
              (fun _ payload ->
                t.st.s_failed <- t.st.s_failed + 1;
                t.send_error ~src:pair.src ~dst:pair.dst
                  ~len:(Bytes.length payload))
              pair.awaiting_cts;
            Hashtbl.reset pair.awaiting_cts;
            Queue.iter
              (fun q ->
                t.st.s_failed <- t.st.s_failed + 1;
                t.send_error ~src:pair.src ~dst:q.q_dst
                  ~len:(Bytes.length q.q_payload))
              pair.waiting;
            Queue.clear pair.waiting;
            if stalled then pair.busy <- false
          end)
        t.pairs;
      Simnet.Proc_id.Pair_tbl.fold
        (fun src _ rx () ->
          if src.Simnet.Proc_id.nid = nid then rx.rx_open <- None)
        t.rxs ());
  t

let on_send_error t f = t.send_error <- f

let stats t =
  {
    eager_messages = t.st.s_eager;
    rendezvous_messages = t.st.s_rendezvous;
    rts_sent = t.st.s_rts;
    cts_sent = t.st.s_cts;
    data_packets = t.st.s_data;
    bytes_carried = t.st.s_bytes;
    failed_handshakes = t.st.s_failed;
    data_drops = t.st.s_data_drops;
    eager_drops = t.st.s_eager_drops;
    malformed_drops = t.st.s_malformed;
  }

let host_cpu t nid = Simnet.Node.host_cpu (Simnet.Fabric.node t.fabric nid)

let kcopy t nid =
  t.kcopy.(Simnet.Fabric.owned_index t.fabric ~what:"Rtscts.kcopy" nid)

let steal t nid cost = Cpu.steal (host_cpu t nid) cost

let pair_of t ~src ~dst =
  match Hashtbl.find_opt t.pairs (src, dst) with
  | Some p -> p
  | None ->
    let p =
      {
        src;
        dst;
        waiting = Queue.create ();
        busy = false;
        next_msg_id = 0;
        awaiting_cts = Hashtbl.create 4;
      }
    in
    Hashtbl.replace t.pairs (src, dst) p;
    p

let send_frame t ~src ~dst frame =
  Simnet.Fabric.send_frame t.fabric ~src ~dst (Frame.encode frame)

(* --- sender side ------------------------------------------------------ *)

(* Stream the packets of a granted transfer. Each packet occupies the
   sender's kernel copy engine, then enters the wire; copies and wire
   serialisation overlap across packets (the paper's pipelining). *)
let stream_packets t pair msg_id payload ~on_done =
  let profile = profile t in
  let chunk = chunk_payload t in
  let len = Bytes.length payload in
  let copy_link = kcopy t pair.src.Simnet.Proc_id.nid in
  let rec go offset =
    if offset >= len then on_done ()
    else begin
      let n = min chunk (len - offset) in
      let copy_done =
        Simnet.Link.occupy copy_link (Simnet.Profile.copy_time profile n)
      in
      t.st.s_data <- t.st.s_data + 1;
      Scheduler.at t.sched copy_done (fun () ->
          steal t pair.src.Simnet.Proc_id.nid (Simnet.Profile.copy_time profile n);
          send_frame t ~src:pair.src ~dst:pair.dst
            {
              Frame.kind = Frame.Data;
              msg_id;
              total_len = len;
              offset;
              payload;
              pay_off = offset;
              pay_len = n;
            };
          if offset + n >= len then on_done ());
      if offset + n < len then go (offset + n)
    end
  in
  if len = 0 then on_done () else go 0

let rec pump t pair =
  match Queue.take_opt pair.waiting with
  | None -> pair.busy <- false
  | Some { q_dst = dst; q_payload = payload } ->
    pair.busy <- true;
    let profile = profile t in
    let len = Bytes.length payload in
    let syscall = profile.Simnet.Profile.host_syscall_cost in
    steal t pair.src.Simnet.Proc_id.nid syscall;
    if len <= t.cfg.eager_threshold then begin
      t.st.s_bytes <- t.st.s_bytes + len;
      t.st.s_eager <- t.st.s_eager + 1;
      let copy_link = kcopy t pair.src.Simnet.Proc_id.nid in
      let copy_done =
        Simnet.Link.occupy copy_link (Simnet.Profile.copy_time profile len)
      in
      let msg_id = pair.next_msg_id in
      pair.next_msg_id <- pair.next_msg_id + 1;
      Scheduler.at t.sched copy_done (fun () ->
          steal t pair.src.Simnet.Proc_id.nid (Simnet.Profile.copy_time profile len);
          send_frame t ~src:pair.src ~dst
            {
              Frame.kind = Frame.Eager;
              msg_id;
              total_len = len;
              offset = 0;
              payload;
              pay_off = 0;
              pay_len = len;
            };
          pump t pair)
    end
    else if
      (* A rendezvous needs both ends live: the RTS must reach [dst] and
         the CTS must find its way back to [pair.src]. If either endpoint
         is unregistered the handshake can never complete — fail the send
         to the sender now instead of parking it in [awaiting_cts]
         forever (and stalling everything queued behind it). *)
      not
        (Simnet.Fabric.endpoint_live t.fabric pair.src
        && Simnet.Fabric.endpoint_live t.fabric dst)
    then begin
      t.st.s_failed <- t.st.s_failed + 1;
      t.send_error ~src:pair.src ~dst ~len;
      pump t pair
    end
    else begin
      t.st.s_bytes <- t.st.s_bytes + len;
      t.st.s_rendezvous <- t.st.s_rendezvous + 1;
      t.st.s_rts <- t.st.s_rts + 1;
      let msg_id = pair.next_msg_id in
      pair.next_msg_id <- pair.next_msg_id + 1;
      Hashtbl.replace pair.awaiting_cts msg_id payload;
      Scheduler.after t.sched syscall (fun () ->
          send_frame t ~src:pair.src ~dst
            {
              Frame.kind = Frame.Rts;
              msg_id;
              total_len = len;
              offset = 0;
              payload = Bytes.empty;
              pay_off = 0;
              pay_len = 0;
            })
      (* The pump stalls here; the CTS handler resumes it. *)
    end

let enqueue t ~src ~dst payload =
  let pair = pair_of t ~src ~dst in
  Queue.add { q_dst = dst; q_payload = payload } pair.waiting;
  if not pair.busy then pump t pair

let handle_cts t ~me ~from msg_id =
  let pair = pair_of t ~src:me ~dst:from in
  match Hashtbl.find_opt pair.awaiting_cts msg_id with
  | None -> () (* stale grant: the transfer no longer exists *)
  | Some payload ->
    Hashtbl.remove pair.awaiting_cts msg_id;
    stream_packets t pair msg_id payload ~on_done:(fun () -> pump t pair)

(* --- receiver side ---------------------------------------------------- *)

let deliver_up t ~me ~src payload =
  match Hashtbl.find_opt t.uppers me with
  | None -> () (* upper layer unregistered mid-flight *)
  | Some handler -> handler ~src payload

let rx_of t ~src ~me =
  match Simnet.Proc_id.Pair_tbl.find t.rxs src me with
  | rx -> rx
  | exception Not_found ->
    let rx =
      { rx_id = -1; rx_open = None; rx_next = 0; rx_ahead = Hashtbl.create 1 }
    in
    Simnet.Proc_id.Pair_tbl.add t.rxs src me rx;
    rx

(* Whether message [id] of the stream arrives for the first time;
   records it either way. *)
let first_arrival rx id =
  if id < rx.rx_next || Hashtbl.mem rx.rx_ahead id then false
  else begin
    if id > rx.rx_next then Hashtbl.replace rx.rx_ahead id ()
    else begin
      rx.rx_next <- id + 1;
      while Hashtbl.mem rx.rx_ahead rx.rx_next do
        Hashtbl.remove rx.rx_ahead rx.rx_next;
        rx.rx_next <- rx.rx_next + 1
      done
    end;
    true
  end

(* Whether slot [i] of [a] has landed; [arrived] is short until the
   packets past its end land. *)
let landed a i = i < Bytes.length a.arrived && Bytes.get a.arrived i <> '\000'

let mark_landed a i =
  let n = Bytes.length a.arrived in
  if i >= n then begin
    let grown = Bytes.make (max (i + 1) (2 * n)) '\000' in
    Bytes.blit a.arrived 0 grown 0 n;
    a.arrived <- grown
  end;
  Bytes.set a.arrived i '\001'

(* A data packet lies where its message's sender would have put it: the
   same length as the RTS announced, a packet boundary, a full chunk or
   the message's tail. *)
let packet_fits ~chunk a (f : Frame.t) =
  f.Frame.total_len = a.total && f.Frame.offset >= 0
  && f.Frame.offset < a.total
  && f.Frame.offset mod chunk = 0
  && f.Frame.pay_len = min chunk (a.total - f.Frame.offset)

let malformed t = t.st.s_malformed <- t.st.s_malformed + 1

let handle_frame t ~me ~src frame =
  let profile = profile t in
  let nid = me.Simnet.Proc_id.nid in
  let interrupt () = steal t nid profile.Simnet.Profile.host_interrupt_cost in
  match frame.Frame.kind with
  (* Only a fabric that damages frames without the reliability shim
     delivers a header that contradicts itself: an eager length that is
     not the frame's, or a negative message length. *)
  | Frame.Eager when frame.Frame.total_len <> frame.Frame.pay_len ->
    interrupt ();
    malformed t
  | Frame.Rts when frame.Frame.total_len < 0 ->
    interrupt ();
    malformed t
  | Frame.Eager when not (first_arrival (rx_of t ~src ~me) frame.Frame.msg_id) ->
    interrupt ();
    t.st.s_eager_drops <- t.st.s_eager_drops + 1
  | Frame.Eager ->
    interrupt ();
    let cost =
      Time_ns.add profile.Simnet.Profile.host_interrupt_cost
        (Simnet.Profile.copy_time profile frame.Frame.total_len)
    in
    let copy_done = Simnet.Link.occupy (kcopy t nid) cost in
    Scheduler.at t.sched copy_done (fun () ->
        steal t nid (Simnet.Profile.copy_time profile frame.Frame.total_len);
        (* A frame is immutable once sent, so an intact view of the
           sender's whole image is handed up as is. *)
        let { Frame.payload; pay_off; pay_len; _ } = frame in
        deliver_up t ~me ~src
          (if pay_off = 0 && pay_len = Bytes.length payload then payload
           else Bytes.sub payload pay_off pay_len))
  | Frame.Rts ->
    interrupt ();
    let msg_id = frame.Frame.msg_id and len = frame.Frame.total_len in
    let rx = rx_of t ~src ~me in
    (* A repeated RTS is answered again (the sender ignores a stale CTS)
       but opens nothing. *)
    if first_arrival rx msg_id then begin
      rx.rx_id <- msg_id;
      rx.rx_open <-
        Some
          {
            total = len;
            buffer = Bytes.empty;
            aliased = false;
            arrived = Bytes.empty;
            received = 0;
          }
    end;
    t.st.s_cts <- t.st.s_cts + 1;
    send_frame t ~src:me ~dst:src
      {
        Frame.kind = Frame.Cts;
        msg_id;
        total_len = len;
        offset = 0;
        payload = Bytes.empty;
        pay_off = 0;
        pay_len = 0;
      }
  | Frame.Cts ->
    interrupt ();
    handle_cts t ~me ~from:src frame.Frame.msg_id
  | Frame.Data -> (
    if t.cfg.per_packet_interrupt then interrupt ();
    let chunk = chunk_payload t in
    let slot = frame.Frame.offset / chunk in
    match Simnet.Proc_id.Pair_tbl.find t.rxs src me with
    | { rx_id; rx_open = Some assembly; _ }
      when rx_id = frame.Frame.msg_id && not (packet_fits ~chunk assembly frame)
      ->
      malformed t
    | { rx_id; rx_open = Some assembly; _ } as rx
      when rx_id = frame.Frame.msg_id && not (landed assembly slot) ->
      mark_landed assembly slot;
      let { Frame.payload; pay_off; pay_len = n; offset; total_len; _ } =
        frame
      in
      let in_place = pay_off = offset && Bytes.length payload = total_len in
      if assembly.received = 0 then begin
        assembly.aliased <- in_place;
        assembly.buffer <-
          (if in_place then payload else Bytes.create total_len)
      end
      else if assembly.aliased && not (in_place && payload == assembly.buffer)
      then begin
        (* The packets so far viewed [buffer] at their own offsets, so a
           copy of it holds their bytes; later packets overwrite the
           rest. *)
        assembly.buffer <- Bytes.copy assembly.buffer;
        assembly.aliased <- false
      end;
      if not assembly.aliased then
        Bytes.blit payload pay_off assembly.buffer offset n;
      assembly.received <- assembly.received + n;
      let copy_done =
        Simnet.Link.occupy (kcopy t nid) (Simnet.Profile.copy_time profile n)
      in
      let complete = assembly.received >= frame.Frame.total_len in
      if complete then rx.rx_open <- None;
      Scheduler.at t.sched copy_done (fun () ->
          steal t nid (Simnet.Profile.copy_time profile n);
          if complete then deliver_up t ~me ~src assembly.buffer)
    | _ | (exception Not_found) -> t.st.s_data_drops <- t.st.s_data_drops + 1)

(* --- the transport record -------------------------------------------- *)

let transport t =
  let profile = profile t in
  {
    Simnet.Transport.fabric = t.fabric;
    send = (fun ~src ~dst payload -> enqueue t ~src ~dst payload);
    register =
      (fun pid handler ->
        Simnet.Fabric.register_frames t.fabric pid (fun ~src frame ->
            match Frame.decode frame with
            | Error _ -> () (* not ours: drop silently at this layer *)
            | Ok frame -> handle_frame t ~me:pid ~src frame);
        Hashtbl.replace t.uppers pid handler);
    unregister =
      (fun pid ->
        Hashtbl.remove t.uppers pid;
        Simnet.Fabric.unregister t.fabric pid);
    charge_rx = (fun nid cost -> steal t nid cost);
    rx_track = (fun nid -> Printf.sprintf "cpu%d" nid);
    match_entry_cost = profile.Simnet.Profile.host_match_cost;
    send_overhead = profile.Simnet.Profile.host_syscall_cost;
  }
