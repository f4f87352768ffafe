open Sim_engine

(* The MPI engine every stack runs on: requests and their completion, the
   argument checks, cookies, the unexpected queue, the failed-rank set and
   the library entry points. Where matching runs — in the Portals NI or in
   the library ([Mpi_libmatch]) — is the stack's [ops]. *)

type status = { source : int; tag : int; length : int }

type request = {
  buffer : bytes;
  want_context : int;
  mutable want_source : int;
      (* a send's destination; a receive's filter until [grant] narrows
         it to the sender *)
  mutable want_tag : int;
  mutable state : [ `Pending | `Complete of status | `Failed of int ];
}

type dev = ..

type t = {
  dev : dev;
  ops : ops;
  name : string;
  eager_threshold : int;
  call_cost : Time_ns.t;
  ranks : Simnet.Proc_id.t array;
  my_rank : int;
  sched : Scheduler.t;
  tp : Simnet.Transport.t;
  mutable next_seq : int;
  unexpected : unexpected Queue.t;
  failed : (int, unit) Hashtbl.t; (* ranks whose node crashed *)
  mutable peer_cbs : (rank:int -> unit) list;
  mutable eager_sends : int;
  mutable rdvz_sends : int;
  mutable completions : int;
}

and ops = {
  connectionless : bool;
  send_eager : t -> request -> Envelope.t -> unit;
  send_rts : t -> request -> Envelope.t -> cookie:int -> unit;
  grant : t -> request -> Envelope.t -> cookie:int -> total:int -> unit;
  post : t -> request -> unit;
  poll : t -> unit;
  block : t -> unit;
  wake : t -> unit;
  drop_peer : t -> int -> unit;
  reset_peer : t -> int -> unit;
  finalize : t -> unit;
  counters : t -> (string * int) list;
}

(* An eager message's bytes stay where the stack put them (a copy, a
   slab) until a receive claims them with the stack's own [claim]. *)
and unexpected =
  | Ux_eager : {
      env : Envelope.t;
      claim : t -> request -> Envelope.t -> 'a -> off:int -> len:int -> unit;
      data : 'a;
      off : int;
      len : int;
    }
      -> unexpected
  | Ux_rts of { env : Envelope.t; cookie : int; total : int }
  | Ux_dead of Envelope.t (* a header whose sender crashed after sending it *)

let dev t = t.dev
let rank t = t.my_rank
let size t = Array.length t.ranks
let ranks t = t.ranks
let eager_threshold t = t.eager_threshold
let eager_sends t = t.eager_sends
let rdvz_sends t = t.rdvz_sends
let finalize t = t.ops.finalize t

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

(* A cookie names one rendezvous: the sender's rank, its node's
   incarnation when it sent, and a sequence number. 16 + 14 + 32 bits keep
   it a non-negative int that fits the 64-bit cookie field of every
   header; no run restarts a node 2^14 times or sends 2^32 rendezvous
   from one endpoint. *)
let seq_bits = 32
let incarnation_mask = (1 lsl 14) - 1

let incarnation t rank =
  Simnet.Fabric.incarnation t.tp.Simnet.Transport.fabric
    t.ranks.(rank).Simnet.Proc_id.nid
  land incarnation_mask

let fresh_cookie t =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  (t.my_rank lsl (seq_bits + 14))
  lor (incarnation t t.my_rank lsl seq_bits)
  lor (seq land ((1 lsl seq_bits) - 1))

let cookie_incarnation cookie = (cookie lsr seq_bits) land incarnation_mask

(* A peer's node crashed: every request that can only complete with that
   peer's cooperation fails, and blocked waiters are woken to observe it.
   Buffered rendezvous headers from it become dead: the data behind them
   died with the node, so whichever receive claims one fails. *)
let on_peer_crash t nid =
  let hit = ref false in
  Array.iteri
    (fun r pid ->
      if r <> t.my_rank && pid.Simnet.Proc_id.nid = nid then begin
        hit := true;
        Hashtbl.replace t.failed r ();
        let n = Queue.length t.unexpected in
        for _ = 1 to n do
          match Queue.pop t.unexpected with
          | Ux_rts { env; _ } when env.Envelope.src_rank = r ->
            Queue.add (Ux_dead env) t.unexpected
          | u -> Queue.add u t.unexpected
        done;
        t.ops.drop_peer t r;
        List.iter (fun cb -> cb ~rank:r) t.peer_cbs
      end)
    t.ranks;
  if !hit then t.ops.wake t

let reconnect t ~rank:r =
  if r < 0 || r >= Array.length t.ranks then
    invalid_arg (t.name ^ ".reconnect: rank out of range");
  if Hashtbl.mem t.failed r then begin
    Hashtbl.remove t.failed r;
    t.ops.reset_peer t r
  end

(* [make_dev] builds the stack's own state for this rank's process id,
   once the rank is known to be valid. A connectionless stack keeps no
   per-peer state, so a restarted peer is re-admitted with no
   handshake. *)
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
      sched = Simnet.Fabric.sched tp.Simnet.Transport.fabric;
      tp;
      next_seq = 0;
      unexpected = Queue.create ();
      failed = Hashtbl.create 4;
      peer_cbs = [];
      eager_sends = 0;
      rdvz_sends = 0;
      completions = 0;
    }
  in
  let fabric = tp.Simnet.Transport.fabric in
  Simnet.Fabric.on_crash fabric (fun nid -> on_peer_crash t nid);
  if ops.connectionless then
    Simnet.Fabric.on_restart fabric (fun nid ->
        Array.iteri
          (fun r pid -> if pid.Simnet.Proc_id.nid = nid then reconnect t ~rank:r)
          ranks);
  t

let on_peer_failure t cb = t.peer_cbs <- t.peer_cbs @ [ cb ]

let failed_ranks t =
  List.sort compare (Hashtbl.fold (fun r () acc -> r :: acc) t.failed [])

(* One check for every stack. The wildcards are receive filters, so only
   [irecv] takes them. *)
let check_args t fn ~wildcards ~context ~peer ~tag =
  let bad what v =
    invalid_arg (Printf.sprintf "%s.%s: %s %d out of range" t.name fn what v)
  in
  if context < 0 || context > Envelope.max_context then bad "context" context;
  if
    not (wildcards && peer = Envelope.any_source)
    && (peer < 0 || peer >= Array.length t.ranks)
  then bad "rank" peer;
  if
    not (wildcards && tag = Envelope.any_tag)
    && (tag < 0 || tag > Envelope.max_tag)
  then bad "tag" tag

(* A connection-oriented stack refuses traffic with a failed peer. *)
let refuse_failed t peer =
  if (not t.ops.connectionless) && Hashtbl.mem t.failed peer then
    raise (Envelope.Peer_failed peer)

let take_unexpected t ~context ~source ~tag =
  let n = Queue.length t.unexpected in
  let found = ref None in
  for _ = 1 to n do
    let u = Queue.pop t.unexpected in
    let env =
      match u with Ux_eager { env; _ } | Ux_rts { env; _ } | Ux_dead env -> env
    in
    if Option.is_none !found && Envelope.matches ~context env ~source ~tag then
      found := Some u
    else Queue.add u t.unexpected
  done;
  !found

let unexpected_eager t env ~claim data ~off ~len =
  Queue.add (Ux_eager { env; claim; data; off; len }) t.unexpected

let unexpected_rts t env ~cookie ~total =
  Queue.add (Ux_rts { env; cookie; total }) t.unexpected

let take tbl key =
  match Hashtbl.find_opt tbl key with
  | Some _ as found ->
    Hashtbl.remove tbl key;
    found
  | None -> None

let deliver t req (env : Envelope.t) payload ~off ~len =
  let n = min len (Bytes.length req.buffer) in
  Scheduler.delay t.sched
    (Simnet.Profile.copy_time
       (Simnet.Fabric.profile t.tp.Simnet.Transport.fabric)
       n);
  Bytes.blit payload off req.buffer 0 n;
  complete t req { source = env.src_rank; tag = env.tag; length = n }

(* The one grant/pull path. A header from a crashed sender, or from an
   earlier incarnation of a restarted one, names data nobody can send
   any more: no clear-to-send or Get toward the sender could complete. *)
let grant t req (env : Envelope.t) ~cookie ~total =
  let src = env.src_rank in
  if Hashtbl.mem t.failed src || cookie_incarnation cookie <> incarnation t src
  then fail_req req src
  else begin
    req.want_source <- src;
    req.want_tag <- env.tag;
    t.ops.grant t req env ~cookie ~total
  end

let progress t =
  Scheduler.delay t.sched t.call_cost;
  t.ops.poll t

let isend t ?(context = 0) ~dst ~tag data =
  check_args t "isend" ~wildcards:false ~context ~peer:dst ~tag;
  refuse_failed t dst;
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
  else if Hashtbl.mem t.failed dst then
    (* A rendezvous needs the peer to take the data; a down peer never
       will. *)
    fail_req req dst
  else begin
    t.rdvz_sends <- t.rdvz_sends + 1;
    t.ops.send_rts t req env ~cookie:(fresh_cookie t)
  end;
  req

let irecv t ?(context = 0) ?(source = Envelope.any_source)
    ?(tag = Envelope.any_tag) buffer =
  check_args t "irecv" ~wildcards:true ~context ~peer:source ~tag;
  if source <> Envelope.any_source then refuse_failed t source;
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
  | Some (Ux_eager { env; claim; data; off; len }) ->
    claim t req env data ~off ~len
  | Some (Ux_rts { env; cookie; total }) -> grant t req env ~cookie ~total
  | Some (Ux_dead env) -> fail_req req env.Envelope.src_rank
  | None when source <> Envelope.any_source && Hashtbl.mem t.failed source ->
    (* Nothing buffered from the peer and its node is down: the receive
       can never match. *)
    fail_req req source
  | None -> t.ops.post t req);
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
      t.ops.block t;
      loop ()
  in
  loop ()

let counters t =
  ("eager_sends", t.eager_sends)
  :: ("rdvz_sends", t.rdvz_sends)
  :: ("completions", t.completions)
  :: t.ops.counters t
