open Sim_engine

(* The library-side MPI engine: matching, the unexpected queue, the
   eager/rendezvous choice and the RTS/CTS state, all on the host, all
   advancing only inside library calls. MPICH/GM and the ibverbs stack
   (Liu et al.) run this one protocol; each supplies only how its bytes
   move, through [ops]. *)

type status = Transport.status = { source : int; tag : int; length : int }

type request = {
  buffer : bytes;
  want_context : int;
  want_source : int; (* a send's destination *)
  want_tag : int;
  mutable state : [ `Pending | `Complete of status | `Failed of int ];
}

type unexpected =
  | Ux_eager of { ux_env : Envelope.t; ux_payload : bytes }
  | Ux_rts of { ux_env : Envelope.t; ux_cookie : int; ux_total : int }
  | Ux_dead of Envelope.t (* a header whose sender crashed after sending it *)

type ('d, 'k) t = {
  dev : 'd;
  ops : ('d, 'k) ops;
  name : string;
  eager_threshold : int;
  call_cost : Time_ns.t;
  ranks : Simnet.Proc_id.t array;
  my_rank : int;
  sched : Scheduler.t;
  tp : Simnet.Transport.t;
  mutable next_cookie : int;
  posted : request Queue.t; (* receive posting order *)
  unexpected : unexpected Queue.t;
  awaiting_cts : (int, request) Hashtbl.t; (* cookie -> send *)
  awaiting_data : (int, request * Envelope.t * 'k) Hashtbl.t;
      (* cookie -> recv, the RTS envelope, the stack's landing key *)
  failed : (int, unit) Hashtbl.t; (* ranks whose node crashed *)
  mutable peer_cbs : (rank:int -> unit) list;
  mutable eager_sends : int;
  mutable rdvz_sends : int;
  mutable completions : int;
}

and ('d, 'k) ops = {
  send_eager : ('d, 'k) t -> request -> Envelope.t -> unit;
  send_rts : ('d, 'k) t -> request -> Envelope.t -> cookie:int -> unit;
  grant : ('d, 'k) t -> request -> Envelope.t -> cookie:int -> total:int -> unit;
  release : ('d, 'k) t -> 'k -> unit;
  poll : ('d, 'k) t -> unit;
  block : ('d, 'k) t -> unit;
  wake : ('d, 'k) t -> unit;
  drop_peer : ('d, 'k) t -> int -> unit;
  reset_peer : ('d, 'k) t -> int -> unit;
}

let dev t = t.dev
let rank t = t.my_rank
let size t = Array.length t.ranks
let ranks t = t.ranks
let eager_threshold t = t.eager_threshold
let awaiting_cts t = t.awaiting_cts
let awaiting_data t = t.awaiting_data

let fail_req req rank =
  match req.state with
  | `Pending -> req.state <- `Failed rank
  | `Complete _ | `Failed _ -> ()

let complete t req status =
  match req.state with
  | `Pending ->
    req.state <- `Complete status;
    t.completions <- t.completions + 1
  | `Complete _ | `Failed _ -> ()

(* A peer's node crashed: the stack's connection state with it (tokens,
   rings, credits) and our rendezvous handshakes with it are gone. Every
   request that can only complete with that peer's cooperation fails;
   blocked waiters are woken to observe it. New traffic toward the peer
   raises [Envelope.Peer_failed] until [reconnect]. *)
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
        (* Buffered rendezvous headers from it: the data behind them died
           with the node, so whichever receive claims one fails. *)
        let n = Queue.length t.unexpected in
        for _ = 1 to n do
          match Queue.pop t.unexpected with
          | Ux_rts { ux_env; _ } when ux_env.Envelope.src_rank = r ->
            Queue.add (Ux_dead ux_env) t.unexpected
          | u -> Queue.add u t.unexpected
        done;
        t.ops.drop_peer t r;
        (* Rendezvous sends stuck waiting for the dead peer's CTS. *)
        let dead_cts =
          Hashtbl.fold
            (fun cookie req acc ->
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
            (fun cookie (req, env, key) acc ->
              if env.Envelope.src_rank = r then (cookie, req, key) :: acc
              else acc)
            t.awaiting_data []
        in
        List.iter
          (fun (cookie, req, key) ->
            Hashtbl.remove t.awaiting_data cookie;
            t.ops.release t key;
            fail_req req r)
          dead_data;
        List.iter (fun cb -> cb ~rank:r) t.peer_cbs
      end)
    t.ranks;
  if !hit then t.ops.wake t

(* [make_dev] builds the stack's own state for this rank's process id,
   once the rank is known to be valid. *)
let create ~name ~ops ~eager_threshold ~call_cost tp ~ranks ~rank:my_rank
    make_dev =
  if my_rank < 0 || my_rank >= Array.length ranks then
    invalid_arg (name ^ ".create: rank out of range");
  let dev = make_dev ranks.(my_rank) in
  let t =
    {
      dev;
      ops;
      name;
      eager_threshold;
      call_cost;
      ranks;
      my_rank;
      sched = tp.Simnet.Transport.sched;
      tp;
      next_cookie = 0;
      posted = Queue.create ();
      unexpected = Queue.create ();
      awaiting_cts = Hashtbl.create 16;
      awaiting_data = Hashtbl.create 16;
      failed = Hashtbl.create 4;
      peer_cbs = [];
      eager_sends = 0;
      rdvz_sends = 0;
      completions = 0;
    }
  in
  tp.Simnet.Transport.on_crash (fun nid -> on_peer_crash t nid);
  t

let fresh_cookie t =
  let c = t.next_cookie in
  t.next_cookie <- c + 1;
  (t.my_rank * 1_000_003) + c

let on_peer_failure t cb = t.peer_cbs <- t.peer_cbs @ [ cb ]

let failed_ranks t =
  List.sort compare (Hashtbl.fold (fun r () acc -> r :: acc) t.failed [])

let reconnect t ~rank:r =
  if r < 0 || r >= Array.length t.ranks then
    invalid_arg (t.name ^ ".reconnect: rank out of range");
  if Hashtbl.mem t.failed r then begin
    Hashtbl.remove t.failed r;
    t.ops.reset_peer t r
  end

let check_alive t peer =
  if Hashtbl.mem t.failed peer then raise (Envelope.Peer_failed peer)

let check_peer t peer fn =
  if peer < 0 || peer >= Array.length t.ranks then
    invalid_arg (Printf.sprintf "%s.%s: rank %d out of range" t.name fn peer)

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

let take_unexpected t ~context ~source ~tag =
  let n = Queue.length t.unexpected in
  let found = ref None in
  for _ = 1 to n do
    let u = Queue.pop t.unexpected in
    let env =
      match u with
      | Ux_eager { ux_env; _ } | Ux_rts { ux_env; _ } | Ux_dead ux_env -> ux_env
    in
    if !found = None && Envelope.matches ~context env ~source ~tag then
      found := Some u
    else Queue.add u t.unexpected
  done;
  !found

let take tbl cookie =
  match Hashtbl.find_opt tbl cookie with
  | Some _ as found ->
    Hashtbl.remove tbl cookie;
    found
  | None -> None

(* Copy a matched payload into the receive buffer (truncating), charging
   the host copy, and complete the receive. *)
let deliver t req (env : Envelope.t) payload ~off ~len =
  let n = min len (Bytes.length req.buffer) in
  Scheduler.delay t.sched (t.tp.Simnet.Transport.host_copy_time n);
  Bytes.blit payload off req.buffer 0 n;
  complete t req { source = env.src_rank; tag = env.tag; length = n }

(* Grant a matched rendezvous — unless its sender has crashed, which no
   clear-to-send can reach. *)
let grant t req (env : Envelope.t) ~cookie ~total =
  if Hashtbl.mem t.failed env.src_rank then fail_req req env.src_rank
  else t.ops.grant t req env ~cookie ~total

let on_eager t env payload ~off ~len =
  match match_posted t env with
  | Some req -> deliver t req env payload ~off ~len
  | None ->
    (* The stack reuses [payload] once this returns: keep a copy. *)
    Queue.add
      (Ux_eager { ux_env = env; ux_payload = Bytes.sub payload off len })
      t.unexpected

let on_rts t env ~cookie ~total =
  match match_posted t env with
  | Some req -> grant t req env ~cookie ~total
  | None ->
    Queue.add
      (Ux_rts { ux_env = env; ux_cookie = cookie; ux_total = total })
      t.unexpected

(* The progress engine runs only on library entry — no application
   bypass. *)
let progress t =
  Scheduler.delay t.sched t.call_cost;
  t.ops.poll t

let isend t ?(context = 0) ~dst ~tag data =
  check_peer t dst "isend";
  check_alive t dst;
  progress t;
  let req =
    {
      buffer = data;
      want_context = context;
      want_source = dst;
      want_tag = tag;
      state = `Pending;
    }
  in
  let eager = Bytes.length data <= t.eager_threshold in
  let env =
    {
      Envelope.protocol = (if eager then Envelope.Eager else Envelope.Rendezvous);
      context;
      src_rank = t.my_rank;
      tag;
    }
  in
  if eager then begin
    t.eager_sends <- t.eager_sends + 1;
    t.ops.send_eager t req env
  end
  else begin
    t.rdvz_sends <- t.rdvz_sends + 1;
    let cookie = fresh_cookie t in
    Hashtbl.replace t.awaiting_cts cookie req;
    t.ops.send_rts t req env ~cookie
  end;
  req

let irecv t ?(context = 0) ?(source = Envelope.any_source)
    ?(tag = Envelope.any_tag) buffer =
  if source <> Envelope.any_source then begin
    check_peer t source "irecv";
    check_alive t source
  end;
  progress t;
  let req =
    {
      buffer;
      want_context = context;
      want_source = source;
      want_tag = tag;
      state = `Pending;
    }
  in
  (match take_unexpected t ~context ~source ~tag with
  | Some (Ux_eager { ux_env; ux_payload }) ->
    deliver t req ux_env ux_payload ~off:0 ~len:(Bytes.length ux_payload)
  | Some (Ux_rts { ux_env; ux_cookie; ux_total }) ->
    grant t req ux_env ~cookie:ux_cookie ~total:ux_total
  | Some (Ux_dead env) -> fail_req req env.Envelope.src_rank
  | None -> Queue.add req t.posted);
  req

let test t req =
  progress t;
  match req.state with
  | `Complete st -> Some st
  | `Pending -> None
  | `Failed r -> raise (Envelope.Peer_failed r)

let wait t req =
  progress t;
  let rec loop () =
    match req.state with
    | `Complete st -> st
    | `Failed r -> raise (Envelope.Peer_failed r)
    | `Pending ->
      (* Sleep until the device has activity (or a peer-failure wake),
         then run the protocol over it. *)
      t.ops.block t;
      t.ops.poll t;
      loop ()
  in
  loop ()

let counters t =
  [
    ("eager_sends", t.eager_sends);
    ("rdvz_sends", t.rdvz_sends);
    ("completions", t.completions);
  ]

module Endpoint = struct
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
end
