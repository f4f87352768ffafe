open Sim_engine

type config = { eager_threshold : int; recv_tokens : int; call_cost : Time_ns.t }

let default_config =
  { eager_threshold = 16384; recv_tokens = 64; call_cost = Time_ns.ns 300 }

type status = Transport.status = { source : int; tag : int; length : int }

type req_kind = Send | Recv

type request = {
  id : int;
  kind : req_kind;
  buffer : bytes;
  want_context : int;
  want_source : int;
  want_tag : int;
  mutable state : [ `Pending | `Complete of status | `Failed of int ];
}

(* What each GM send's completion event means, FIFO with Send_complete. *)
type sent_kind = Sk_eager of request | Sk_data of request | Sk_control

type unexpected =
  | Ux_eager of { ux_env : Envelope.t; ux_payload : bytes }
  | Ux_rts of { ux_env : Envelope.t; ux_cookie : int; ux_total : int }

type t = {
  gm_port : Gm.t;
  cfg : config;
  ranks : Simnet.Proc_id.t array;
  my_rank : int;
  sched : Scheduler.t;
  tp : Simnet.Transport.t;
  mutable next_id : int;
  mutable next_cookie : int;
  posted : request Queue.t; (* receive posting order *)
  unexpected : unexpected Queue.t;
  sent_fifo : sent_kind Queue.t;
  awaiting_cts : (int, request * bytes) Hashtbl.t; (* cookie -> send *)
  awaiting_data : (int, request * Envelope.t) Hashtbl.t; (* cookie -> recv *)
  failed : (int, unit) Hashtbl.t; (* ranks whose node crashed *)
  mutable peer_cbs : (rank:int -> unit) list;
  mutable eager_sends : int;
  mutable rdvz_sends : int;
  mutable completions : int;
}

let rank t = t.my_rank
let size t = Array.length t.ranks
let port t = t.gm_port

let token_size t = t.cfg.eager_threshold + Envelope.gm_header_size

let fail_req req rank =
  match req.state with
  | `Pending -> req.state <- `Failed rank
  | `Complete _ | `Failed _ -> ()

(* A peer's node crashed: GM's connection state (the tokens the peer held
   for us, our rendezvous handshakes with it) is gone. Every request that
   can only complete with that peer's cooperation fails; blocked waiters
   are woken to observe it. New traffic toward the peer raises
   [Envelope.Peer_failed] until [reconnect]. *)
let on_peer_crash t nid =
  let hit = ref false in
  Array.iteri
    (fun r pid ->
      if r <> t.my_rank && pid.Simnet.Proc_id.nid = nid then begin
        hit := true;
        Hashtbl.replace t.failed r ();
        (* Posted receives pinned to the dead source. *)
        let n = Queue.length t.posted in
        for _ = 1 to n do
          let req = Queue.pop t.posted in
          if req.want_source = r then fail_req req r else Queue.add req t.posted
        done;
        (* Rendezvous sends stuck waiting for the dead peer's CTS. *)
        let dead_cts =
          Hashtbl.fold
            (fun cookie (req, _) acc ->
              if req.want_source = r then (cookie, req) :: acc else acc)
            t.awaiting_cts []
        in
        List.iter
          (fun (cookie, req) ->
            Hashtbl.remove t.awaiting_cts cookie;
            fail_req req r)
          dead_cts;
        (* Rendezvous receives waiting for the dead peer's data. *)
        let dead_data =
          Hashtbl.fold
            (fun cookie (req, env) acc ->
              if env.Envelope.src_rank = r then (cookie, req) :: acc else acc)
            t.awaiting_data []
        in
        List.iter
          (fun (cookie, req) ->
            Hashtbl.remove t.awaiting_data cookie;
            fail_req req r)
          dead_data;
        List.iter (fun cb -> cb ~rank:r) t.peer_cbs
      end)
    t.ranks;
  if !hit then Gm.wake t.gm_port

let create tp ~ranks ~rank:my_rank ?(config = default_config) () =
  if my_rank < 0 || my_rank >= Array.length ranks then
    invalid_arg "Mpi_gm.create: rank out of range";
  let gm_port = Gm.open_port tp ~id:ranks.(my_rank) in
  let t =
    {
      gm_port;
      cfg = config;
      ranks;
      my_rank;
      sched = tp.Simnet.Transport.sched;
      tp;
      next_id = 1;
      next_cookie = 0;
      posted = Queue.create ();
      unexpected = Queue.create ();
      sent_fifo = Queue.create ();
      awaiting_cts = Hashtbl.create 16;
      awaiting_data = Hashtbl.create 16;
      failed = Hashtbl.create 4;
      peer_cbs = [];
      eager_sends = 0;
      rdvz_sends = 0;
      completions = 0;
    }
  in
  for _ = 1 to config.recv_tokens do
    Gm.provide_receive_token gm_port (Bytes.create (token_size t))
  done;
  tp.Simnet.Transport.on_crash (fun nid -> on_peer_crash t nid);
  t

let finalize t = Gm.close t.gm_port

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let fresh_cookie t =
  let c = t.next_cookie in
  t.next_cookie <- c + 1;
  (t.my_rank * 1_000_003) + c

let complete t req status =
  match req.state with
  | `Pending ->
    req.state <- `Complete status;
    t.completions <- t.completions + 1
  | `Complete _ | `Failed _ -> ()

let on_peer_failure t cb = t.peer_cbs <- t.peer_cbs @ [ cb ]

let failed_ranks t =
  List.sort compare (Hashtbl.fold (fun r () acc -> r :: acc) t.failed [])

let reconnect t ~rank:r =
  if r < 0 || r >= Array.length t.ranks then
    invalid_arg "Mpi_gm.reconnect: rank out of range";
  Hashtbl.remove t.failed r

let check_alive t peer =
  if Hashtbl.mem t.failed peer then raise (Envelope.Peer_failed peer)

let gm_send t ~dst msg kind =
  Queue.add kind t.sent_fifo;
  Gm.send t.gm_port ~dst:t.ranks.(dst) (Envelope.encode_gm msg)

(* Find and remove the first posted receive matching the envelope. *)
let match_posted t (env : Envelope.t) =
  let n = Queue.length t.posted in
  let found = ref None in
  for _ = 1 to n do
    let req = Queue.pop t.posted in
    if
      !found = None
      && req.state = `Pending
      && Envelope.matches ~context:req.want_context env ~source:req.want_source
           ~tag:req.want_tag
    then found := Some req
    else Queue.add req t.posted
  done;
  !found

let copy_in t req payload ~off ~len =
  let n = min len (Bytes.length req.buffer) in
  Scheduler.delay t.sched (t.tp.Simnet.Transport.host_copy_time n);
  Bytes.blit payload off req.buffer 0 n;
  n

(* Grant a matched rendezvous: provision a token big enough for the data
   message, then tell the sender to go. *)
let grant_rts t ~env ~cookie ~total req =
  Hashtbl.replace t.awaiting_data cookie (req, env);
  Gm.provide_receive_token t.gm_port
    (Bytes.create (total + Envelope.gm_header_size));
  gm_send t ~dst:env.Envelope.src_rank (Envelope.Gm_cts { cookie }) Sk_control

(* [token] is decoded in place: matched payloads are blitted straight
   from it into the request buffer. *)
let handle_recv t token length =
  match Envelope.decode_gm token ~len:length with
  | Error _ -> () (* not an MPI message; ignore *)
  | Ok (Envelope.Gm_eager { env; payload; pay_off; pay_len }) ->
    (match match_posted t env with
    | Some req ->
      let n = copy_in t req payload ~off:pay_off ~len:pay_len in
      complete t req
        { source = env.Envelope.src_rank; tag = env.Envelope.tag; length = n }
    | None ->
      (* The token is recycled once this returns: keep a copy. *)
      Queue.add
        (Ux_eager { ux_env = env; ux_payload = Bytes.sub payload pay_off pay_len })
        t.unexpected)
  | Ok (Envelope.Gm_rts { env; cookie; total_len }) ->
    (match match_posted t env with
    | Some req -> grant_rts t ~env ~cookie ~total:total_len req
    | None ->
      Queue.add
        (Ux_rts { ux_env = env; ux_cookie = cookie; ux_total = total_len })
        t.unexpected)
  | Ok (Envelope.Gm_cts { cookie }) ->
    (match Hashtbl.find_opt t.awaiting_cts cookie with
    | None -> ()
    | Some (req, data) ->
      Hashtbl.remove t.awaiting_cts cookie;
      let dst = req.want_source in
      gm_send t ~dst
        (Envelope.Gm_data
           { cookie; payload = data; pay_off = 0; pay_len = Bytes.length data })
        (Sk_data req))
  | Ok (Envelope.Gm_data { cookie; payload; pay_off; pay_len }) ->
    (match Hashtbl.find_opt t.awaiting_data cookie with
    | None -> ()
    | Some (req, env) ->
      Hashtbl.remove t.awaiting_data cookie;
      let n = copy_in t req payload ~off:pay_off ~len:pay_len in
      complete t req
        { source = env.Envelope.src_rank; tag = env.Envelope.tag; length = n })

let handle_sent t =
  match Queue.take_opt t.sent_fifo with
  | None -> ()
  | Some (Sk_eager req) ->
    complete t req
      {
        source = t.my_rank;
        tag = req.want_tag;
        length = Bytes.length req.buffer;
      }
  | Some (Sk_data req) ->
    complete t req
      {
        source = t.my_rank;
        tag = req.want_tag;
        length = Bytes.length req.buffer;
      }
  | Some Sk_control -> ()

(* The library progress engine: runs ONLY here — no application bypass. *)
let progress_raw t =
  let rec drain () =
    match Gm.poll t.gm_port with
    | None -> ()
    | Some (Gm.Recv_complete { buffer; length; _ }) ->
      handle_recv t buffer length;
      (* Recycle the token (unexpected eagers were copied out of it, so
         the buffer is free either way). *)
      if Bytes.length buffer = token_size t then
        Gm.provide_receive_token t.gm_port buffer;
      drain ()
    | Some (Gm.Send_complete _) ->
      handle_sent t;
      drain ()
  in
  drain ()

let lib_entry t =
  Scheduler.delay t.sched t.cfg.call_cost;
  progress_raw t

let progress t = lib_entry t

let check_peer t peer name =
  if peer < 0 || peer >= Array.length t.ranks then
    invalid_arg (Printf.sprintf "Mpi_gm.%s: rank %d out of range" name peer)

let isend t ?(context = 0) ~dst ~tag data =
  check_peer t dst "isend";
  check_alive t dst;
  lib_entry t;
  let req =
    {
      id = fresh_id t;
      kind = Send;
      buffer = data;
      want_context = context;
      want_source = dst;
      want_tag = tag;
      state = `Pending;
    }
  in
  let env =
    {
      Envelope.protocol =
        (if Bytes.length data <= t.cfg.eager_threshold then Envelope.Eager
         else Envelope.Rendezvous);
      context;
      src_rank = t.my_rank;
      tag;
    }
  in
  (match env.Envelope.protocol with
  | Envelope.Eager ->
    t.eager_sends <- t.eager_sends + 1;
    gm_send t ~dst
      (Envelope.Gm_eager
         { env; payload = data; pay_off = 0; pay_len = Bytes.length data })
      (Sk_eager req)
  | Envelope.Rendezvous ->
    t.rdvz_sends <- t.rdvz_sends + 1;
    let cookie = fresh_cookie t in
    Hashtbl.replace t.awaiting_cts cookie (req, data);
    gm_send t ~dst
      (Envelope.Gm_rts { env; cookie; total_len = Bytes.length data })
      Sk_control);
  req

let take_unexpected t ~context ~source ~tag =
  let n = Queue.length t.unexpected in
  let found = ref None in
  for _ = 1 to n do
    let u = Queue.pop t.unexpected in
    let env = match u with Ux_eager { ux_env; _ } | Ux_rts { ux_env; _ } -> ux_env in
    if !found = None && Envelope.matches ~context env ~source ~tag then
      found := Some u
    else Queue.add u t.unexpected
  done;
  !found

let irecv t ?(context = 0) ?(source = Envelope.any_source)
    ?(tag = Envelope.any_tag) buffer =
  if source <> Envelope.any_source then begin
    check_peer t source "irecv";
    check_alive t source
  end;
  lib_entry t;
  let req =
    {
      id = fresh_id t;
      kind = Recv;
      buffer;
      want_context = context;
      want_source = source;
      want_tag = tag;
      state = `Pending;
    }
  in
  (match take_unexpected t ~context ~source ~tag with
  | Some (Ux_eager { ux_env; ux_payload }) ->
    let n = copy_in t req ux_payload ~off:0 ~len:(Bytes.length ux_payload) in
    complete t req
      { source = ux_env.Envelope.src_rank; tag = ux_env.Envelope.tag; length = n }
  | Some (Ux_rts { ux_env; ux_cookie; ux_total }) ->
    grant_rts t ~env:ux_env ~cookie:ux_cookie ~total:ux_total req
  | None -> Queue.add req t.posted);
  req

let test t req =
  lib_entry t;
  match req.state with
  | `Complete st -> Some st
  | `Pending -> None
  | `Failed r -> raise (Envelope.Peer_failed r)

let wait t req =
  lib_entry t;
  let rec loop () =
    match req.state with
    | `Complete st -> st
    | `Failed r -> raise (Envelope.Peer_failed r)
    | `Pending ->
      (* Blocking gm_receive: sleep until the port has an event (or a
         peer-failure wake), then run the library protocol over it. *)
      Gm.wait_event t.gm_port;
      progress_raw t;
      loop ()
  in
  loop ()

let counters t =
  let s = Gm.stats t.gm_port in
  [
    ("eager_sends", t.eager_sends);
    ("rdvz_sends", t.rdvz_sends);
    ("completions", t.completions);
    ("port_sends", s.Gm.sends);
    ("port_receives", s.Gm.receives);
  ]

(* The Transport.S instance: what Mpi.Make and the conformance suite
   consume. *)
module Tx = struct
  let name = "gm"

  type nonrec t = t
  type nonrec request = request

  let create tp ~ranks ~rank = create tp ~ranks ~rank ()
  let finalize = finalize
  let rank = rank
  let size = size
  let isend = isend
  let irecv = irecv
  let test = test
  let wait = wait
  let progress = progress
  let on_peer_failure = on_peer_failure
  let failed_ranks = failed_ranks
  let reconnect = reconnect
  let counters = counters
end
