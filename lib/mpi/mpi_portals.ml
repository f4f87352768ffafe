open Sim_engine
module P = Portals

(* Portal table assignments for the MPI device. *)
let pt_mpi = 4
let pt_rdvz = 5
let acl_cookie = 0
let context_world = 0
let max_context = Envelope.max_context

type config = {
  eager_threshold : int;
  slab_size : int;
  slab_count : int;
  eq_capacity : int;
  call_cost : Time_ns.t;
}

let default_config =
  {
    eager_threshold = 65536;
    slab_size = 262144;
    slab_count = 8;
    eq_capacity = 8192;
    call_cost = Time_ns.ns 300;
  }

(* Envelope <-> Portals match-bits codec. Lives here, not in Envelope:
   the match-bits layout is this adapter's private wire contract with
   the Portals NI, and no other stack sees it. *)
(* Field layout within the 64 match bits. *)
let proto_shift = 62
let proto_width = 2
let ctx_shift = 48
let ctx_width = 14
let src_shift = 32
let src_width = 16
let tag_shift = 0
let tag_width = 32

let check_ranges ~context ~src_rank ~tag =
  if context < 0 || context > max_context then invalid_arg "Mpi: bad context";
  if src_rank < 0 || src_rank > Envelope.max_rank then invalid_arg "Mpi: bad rank";
  if tag < 0 || tag > Envelope.max_tag then invalid_arg "Mpi: bad tag"

let to_match_bits t =
  check_ranges ~context:t.Envelope.context ~src_rank:t.src_rank ~tag:t.tag;
  let open P.Match_bits in
  let proto = match t.Envelope.protocol with Envelope.Eager -> 0 | Envelope.Rendezvous -> 1 in
  logor
    (field ~shift:proto_shift ~width:proto_width proto)
    (logor
       (field ~shift:ctx_shift ~width:ctx_width t.context)
       (logor
          (field ~shift:src_shift ~width:src_width t.src_rank)
          (field ~shift:tag_shift ~width:tag_width t.tag)))

let of_match_bits bits =
  let open P.Match_bits in
  let proto = extract ~shift:proto_shift ~width:proto_width bits in
  {
    Envelope.protocol = (if proto = 0 then Envelope.Eager else Envelope.Rendezvous);
    context = extract ~shift:ctx_shift ~width:ctx_width bits;
    src_rank = extract ~shift:src_shift ~width:src_width bits;
    tag = extract ~shift:tag_shift ~width:tag_width bits;
  }

let recv_match_bits ~context ~source ~tag =
  let open P.Match_bits in
  let mbits =
    logor
      (field ~shift:ctx_shift ~width:ctx_width context)
      (logor
         (field ~shift:src_shift ~width:src_width
            (if source = Envelope.any_source then 0 else source))
         (field ~shift:tag_shift ~width:tag_width (if tag = Envelope.any_tag then 0 else tag)))
  in
  let ignore_bits =
    (* Protocol bits always ignored; wildcards widen the mask. *)
    let acc = mask ~shift:proto_shift ~width:proto_width in
    let acc =
      if source = Envelope.any_source then logor acc (mask ~shift:src_shift ~width:src_width)
      else acc
    in
    if tag = Envelope.any_tag then logor acc (mask ~shift:tag_shift ~width:tag_width) else acc
  in
  (mbits, ignore_bits)

type status = Transport.status = { source : int; tag : int; length : int }

type req_kind = Send_eager | Send_rdvz | Recv

type request = {
  id : int;
  kind : req_kind;
  buffer : bytes;
  want_source : int;
  want_tag : int;
  mutable state : [ `Pending | `Complete of status | `Failed of int ];
  mutable rdvz_source : int; (* envelope of the matched rendezvous header *)
  mutable rdvz_tag : int;
}

(* A slab's memory is a reservation: the NI creates it when the first
   unexpected message lands, and the library reads it back through the
   slab's MD. Re-arming attaches a new MD over the same reservation. *)
type slab = {
  s_idx : int;
  s_memory : P.Md.reservation;
  mutable s_meh : P.Handle.me;
  mutable s_mdh : P.Handle.md;
  mutable s_outstanding : int; (* unexpected chunks not yet copied out *)
}

type unexpected =
  | Ux_eager of {
      ux_env : Envelope.t;
      ux_slab : slab;
      ux_off : int;
      ux_mlen : int;
    }
  | Ux_rdvz of {
      ux_env : Envelope.t;
      ux_cookie : int64;
      ux_total : int;
      ux_src : Simnet.Proc_id.t;
    }
  | Ux_dead of Envelope.t (* a header whose sender crashed after sending it *)

type t = {
  ni : P.Ni.t;
  cfg : config;
  ranks : Simnet.Proc_id.t array;
  my_rank : int;
  sched : Scheduler.t;
  tp : Simnet.Transport.t;
  eqh : P.Handle.eq;
  eqq : P.Event.Queue.t;
  reqs : (int, request) Hashtbl.t;
  mutable next_id : int;
  mutable next_cookie : int;
  unexpected : unexpected Queue.t;
  slabs : slab array;
  mutable slab_order : int list; (* match-list order, front = searched first *)
  mutable ux_bytes : int;
  mutable ux_highwater : int;
  mutable eager_sends : int;
  mutable rdvz_sends : int;
  mutable completions : int;
  mutable decode_errors : int; (* corrupt rendezvous headers discarded *)
  failed : (int, unit) Hashtbl.t; (* ranks whose node is down *)
  mutable peer_cbs : (rank:int -> unit) list;
}

let rank t = t.my_rank
let size t = Array.length t.ranks
let ni t = t.ni
let unexpected_bytes_highwater t = t.ux_highwater

let ok_exn = P.Errors.ok_exn

let slab_md_options =
  {
    P.Md.op_put = true;
    op_get = false;
    manage_remote = false;
    truncate = false;
    ack_disable = true;
  }

let attach_slab t (slab : slab) =
  let meh =
    ok_exn ~op:"slab me_attach"
      (P.Ni.me_attach t.ni ~portal_index:pt_mpi ~match_id:P.Match_id.any
         ~match_bits:P.Match_bits.zero ~ignore_bits:P.Match_bits.all_ones
         ~unlink:P.Md.Retain ~pos:`Tail ())
  in
  let mdh =
    ok_exn ~op:"slab md_attach"
      (P.Ni.md_attach t.ni ~me:meh
         (P.Ni.md_spec_reserved ~options:slab_md_options ~threshold:P.Md.Infinite
            ~unlink:P.Md.Retain ~eq:t.eqh
            ~user_ptr:(-(slab.s_idx + 1))
            slab.s_memory))
  in
  slab.s_meh <- meh;
  slab.s_mdh <- mdh

let fail_req t req rank =
  match req.state with
  | `Pending ->
    req.state <- `Failed rank;
    Hashtbl.remove t.reqs req.id
  | `Complete _ | `Failed _ -> ()

(* A peer's node crashed. Requests that need that peer's cooperation —
   rendezvous sends awaiting its pull, receives pinned to it — fail;
   blocked waiters are woken to observe it. Eager sends complete locally
   either way (fire-and-forget: the loss shows up at the receiver's
   accounting, not the sender's). *)
let on_peer_crash t nid =
  let hit = ref false in
  Array.iteri
    (fun r pid ->
      if r <> t.my_rank && pid.Simnet.Proc_id.nid = nid then begin
        hit := true;
        Hashtbl.replace t.failed r ();
        let victims =
          Hashtbl.fold
            (fun _ req acc ->
              let dead =
                match req.kind with
                | Send_rdvz -> req.want_source = r
                | Recv -> req.want_source = r || req.rdvz_source = r
                | Send_eager -> false
              in
              if dead then req :: acc else acc)
            t.reqs []
        in
        List.iter (fun req -> fail_req t req r) victims;
        (* Buffered rendezvous headers from it: the payload they point
           at died with the node, so whichever receive claims one
           fails. *)
        let n = Queue.length t.unexpected in
        for _ = 1 to n do
          match Queue.pop t.unexpected with
          | Ux_rdvz { ux_env; _ } when ux_env.Envelope.src_rank = r ->
            Queue.add (Ux_dead ux_env) t.unexpected
          | u -> Queue.add u t.unexpected
        done;
        List.iter (fun cb -> cb ~rank:r) t.peer_cbs
      end)
    t.ranks;
  if !hit then P.Event.Queue.wake t.eqq

(* Portals is connectionless (§3): a restarted peer needs no
   reconnection handshake, so its failed mark clears as soon as the node
   is back up. Requests failed by the crash stay failed — their traffic
   is gone — but new traffic flows with zero re-registration. *)
let on_node_restart t nid =
  Array.iteri
    (fun r pid -> if pid.Simnet.Proc_id.nid = nid then Hashtbl.remove t.failed r)
    t.ranks

let create tp ~ranks ~rank:my_rank ?(config = default_config) () =
  if my_rank < 0 || my_rank >= Array.length ranks then
    invalid_arg "Mpi_portals.create: rank out of range";
  let ni = P.Ni.create tp ~id:ranks.(my_rank) () in
  let eqh = ok_exn ~op:"eq_alloc" (P.Ni.eq_alloc ni ~capacity:config.eq_capacity) in
  let eqq = ok_exn ~op:"eq" (P.Ni.eq ni eqh) in
  let t =
    {
      ni;
      cfg = config;
      ranks;
      my_rank;
      sched = P.Ni.sched ni;
      tp;
      eqh;
      eqq;
      reqs = Hashtbl.create 64;
      next_id = 1;
      next_cookie = 0;
      unexpected = Queue.create ();
      slabs =
        Array.init config.slab_count (fun s_idx ->
            {
              s_idx;
              s_memory = P.Md.reserve config.slab_size;
              s_meh = P.Handle.none;
              s_mdh = P.Handle.none;
              s_outstanding = 0;
            });
      slab_order = List.init config.slab_count (fun i -> i);
      ux_bytes = 0;
      ux_highwater = 0;
      eager_sends = 0;
      rdvz_sends = 0;
      completions = 0;
      decode_errors = 0;
      failed = Hashtbl.create 4;
      peer_cbs = [];
    }
  in
  Array.iter (fun slab -> attach_slab t slab) t.slabs;
  let m = Scheduler.metrics t.sched in
  let labels = [ ("rank", string_of_int my_rank) ] in
  let probe name f = Metrics.probe m ~labels name (fun () -> float_of_int (f ())) in
  probe "mpi.eager_sends" (fun () -> t.eager_sends);
  probe "mpi.rdvz_sends" (fun () -> t.rdvz_sends);
  probe "mpi.unexpected_bytes" (fun () -> t.ux_bytes);
  probe "mpi.unexpected_highwater" (fun () -> t.ux_highwater);
  probe "mpi.decode_errors" (fun () -> t.decode_errors);
  tp.Simnet.Transport.on_crash (fun nid -> on_peer_crash t nid);
  tp.Simnet.Transport.on_restart (fun nid -> on_node_restart t nid);
  t

let finalize t = P.Ni.shutdown t.ni

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let fresh_cookie t =
  let seq = t.next_cookie in
  t.next_cookie <- seq + 1;
  Int64.logor
    (Int64.shift_left (Int64.of_int t.my_rank) 32)
    (Int64.of_int (seq land 0xFFFFFFFF))

let find_req t id = Hashtbl.find_opt t.reqs id

let complete t req status =
  match req.state with
  | `Pending ->
    req.state <- `Complete status;
    t.completions <- t.completions + 1;
    Hashtbl.remove t.reqs req.id
  | `Complete _ | `Failed _ -> ()

let on_peer_failure t cb = t.peer_cbs <- t.peer_cbs @ [ cb ]

let failed_ranks t =
  List.sort compare (Hashtbl.fold (fun r () acc -> r :: acc) t.failed [])

let reconnect t ~rank:r =
  if r < 0 || r >= Array.length t.ranks then
    invalid_arg "Mpi_portals.reconnect: rank out of range";
  (* Nothing to rebuild: Portals keeps no per-peer connection state. The
     mark (if the node is still down) clears here as it would on
     restart. *)
  Hashtbl.remove t.failed r

(* Rotate a slab to the tail of the match list once its contents have all
   been claimed and it is too full to be useful. *)
let maybe_rearm_slab t (slab : slab) =
  if slab.s_outstanding = 0 then begin
    match P.Ni.md_local_offset t.ni slab.s_mdh with
    | Error _ -> ()
    | Ok used ->
      let headroom = t.cfg.eager_threshold + Envelope.rdvz_header_size in
      if used > 0 && used > t.cfg.slab_size - headroom then begin
        ok_exn ~op:"slab rearm unlink" (P.Ni.me_unlink t.ni slab.s_meh);
        attach_slab t slab;
        t.slab_order <-
          List.filter (fun i -> i <> slab.s_idx) t.slab_order @ [ slab.s_idx ]
      end
  end

let maybe_rearm_all t = Array.iter (fun slab -> maybe_rearm_slab t slab) t.slabs

let read_slab t (slab : slab) ~off ~len ~dst =
  ok_exn ~op:"slab md_read"
    (P.Ni.md_read t.ni slab.s_mdh ~offset:off ~len ~dst ~dst_off:0)

(* A header too close to the slab's end to hold one is truncated, which
   the decoder reports. *)
let read_rdvz_header t slab ~off =
  let hdr =
    Bytes.create (min Envelope.rdvz_header_size (t.cfg.slab_size - off))
  in
  read_slab t slab ~off ~len:(Bytes.length hdr) ~dst:hdr;
  Envelope.decode_rdvz_header hdr ~off:0

let first_slab_me t =
  match t.slab_order with
  | [] -> invalid_arg "Mpi_portals: no slabs configured"
  | idx :: _ -> t.slabs.(idx).s_meh

(* Receiver pull of a rendezvous payload: expose the user buffer as an MD
   and get from the sender's per-message entry — unless the sender has
   crashed, when nothing is left to pull. *)
let issue_get t req (env : Envelope.t) ~cookie ~total_len ~src =
  if Hashtbl.mem t.failed env.src_rank then fail_req t req env.src_rank
  else begin
    req.rdvz_source <- env.src_rank;
    req.rdvz_tag <- env.tag;
    let len = min total_len (Bytes.length req.buffer) in
    let mdh =
      ok_exn ~op:"rdvz md_bind"
        (P.Ni.md_bind t.ni
           (P.Ni.md_spec
              ~options:{ P.Md.default_options with P.Md.ack_disable = true }
              ~threshold:(P.Md.Count 1) ~unlink:P.Md.Unlink ~eq:t.eqh
              ~user_ptr:req.id ~length:len req.buffer))
    in
    ok_exn ~op:"rdvz get"
      (P.Ni.get t.ni ~md:mdh
         (P.Ni.op ~target:src ~portal_index:pt_rdvz ~cookie:acl_cookie
            ~match_bits:(P.Match_bits.of_int64 cookie) ()))
  end

let handle_event t (ev : P.Event.t) =
  let up = ev.P.Event.md_user_ptr in
  (* A rendezvous header that fails to decode means in-flight corruption
     reached the MPI layer (only possible with integrity off); the
     message is lost either way, but losing it {e silently} made such
     runs undebuggable — count it and leave a trace breadcrumb. *)
  let decode_error t ~ctx =
    t.decode_errors <- t.decode_errors + 1;
    Trace.instant (Scheduler.trace t.sched) ~subsys:"mpi"
      ~proc:(Printf.sprintf "cpu%d" (P.Ni.id t.ni).Simnet.Proc_id.nid)
      (Printf.sprintf "mpi.decode_error rank=%d %s" t.my_rank ctx)
  in
  match ev.P.Event.kind with
  | P.Event.Put when up < 0 ->
    (* Unexpected: landed in a slab. *)
    let slab = t.slabs.(-up - 1) in
    let env = of_match_bits ev.P.Event.match_bits in
    (match env.Envelope.protocol with
    | Envelope.Eager ->
      slab.s_outstanding <- slab.s_outstanding + 1;
      t.ux_bytes <- t.ux_bytes + ev.P.Event.mlength;
      if t.ux_bytes > t.ux_highwater then t.ux_highwater <- t.ux_bytes;
      Queue.add
        (Ux_eager
           {
             ux_env = env;
             ux_slab = slab;
             ux_off = ev.P.Event.offset;
             ux_mlen = ev.P.Event.mlength;
           })
        t.unexpected
    | Envelope.Rendezvous ->
      (match read_rdvz_header t slab ~off:ev.P.Event.offset with
      | Error _ -> decode_error t ~ctx:"unexpected rendezvous header"
      | Ok (cookie, total_len) ->
        Queue.add
          (Ux_rdvz
             {
               ux_env = env;
               ux_cookie = cookie;
               ux_total = total_len;
               ux_src = ev.P.Event.initiator;
             })
          t.unexpected))
  | P.Event.Put -> (
    (* A posted receive matched. *)
    match find_req t up with
    | None -> ()
    | Some req ->
      let env = of_match_bits ev.P.Event.match_bits in
      (match env.Envelope.protocol with
      | Envelope.Eager ->
        complete t req
          {
            source = env.Envelope.src_rank;
            tag = env.Envelope.tag;
            length = ev.P.Event.mlength;
          }
      | Envelope.Rendezvous ->
        (match Envelope.decode_rdvz_header req.buffer ~off:ev.P.Event.offset with
        | Error _ -> decode_error t ~ctx:"posted rendezvous header"
        | Ok (cookie, total_len) ->
          issue_get t req env ~cookie ~total_len ~src:ev.P.Event.initiator)))
  | P.Event.Sent -> (
    match find_req t up with
    | Some ({ kind = Send_eager; _ } as req) ->
      complete t req
        {
          source = t.my_rank;
          tag = req.want_tag;
          length = Bytes.length req.buffer;
        }
    | Some { kind = Send_rdvz | Recv; _ } | None -> ())
  | P.Event.Get -> (
    (* The receiver pulled our rendezvous payload. *)
    match find_req t up with
    | Some ({ kind = Send_rdvz; _ } as req) ->
      complete t req
        { source = t.my_rank; tag = req.want_tag; length = ev.P.Event.mlength }
    | Some { kind = Send_eager | Recv; _ } | None -> ())
  | P.Event.Reply -> (
    (* Our rendezvous pull completed. *)
    match find_req t up with
    | Some ({ kind = Recv; _ } as req) ->
      complete t req
        {
          source = req.rdvz_source;
          tag = req.rdvz_tag;
          length = ev.P.Event.mlength;
        }
    | Some { kind = Send_eager | Send_rdvz; _ } | None -> ())
  | P.Event.Ack | P.Event.Atomic | P.Event.Triggered -> ()

let progress_raw t =
  let rec drain () =
    match P.Event.Queue.get t.eqq with
    | None -> ()
    | Some ev ->
      handle_event t ev;
      drain ()
  in
  drain ();
  maybe_rearm_all t

let lib_entry t =
  Scheduler.delay t.sched t.cfg.call_cost;
  progress_raw t

let progress t = lib_entry t

let take_unexpected t ~context ~source ~tag =
  let n = Queue.length t.unexpected in
  let found = ref None in
  for _ = 1 to n do
    let u = Queue.pop t.unexpected in
    let env =
      match u with
      | Ux_eager { ux_env; _ } | Ux_rdvz { ux_env; _ } | Ux_dead ux_env -> ux_env
    in
    if !found = None && Envelope.matches ~context env ~source ~tag then
      found := Some u
    else Queue.add u t.unexpected
  done;
  !found

let mk_request t ~kind ~buffer ~want_source ~want_tag =
  let req =
    {
      id = fresh_id t;
      kind;
      buffer;
      want_source;
      want_tag;
      state = `Pending;
      rdvz_source = Envelope.any_source;
      rdvz_tag = Envelope.any_tag;
    }
  in
  Hashtbl.replace t.reqs req.id req;
  req

let check_peer t peer name =
  if peer < 0 || peer >= Array.length t.ranks then
    invalid_arg (Printf.sprintf "Mpi_portals.%s: rank %d out of range" name peer)

let check_context context =
  if context < 0 || context > max_context then
    invalid_arg "Mpi_portals: context out of range"

let isend t ?(context = context_world) ~dst ~tag data =
  check_context context;
  check_peer t dst "isend";
  lib_entry t;
  let len = Bytes.length data in
  let eager = len <= t.cfg.eager_threshold in
  let req =
    mk_request t
      ~kind:(if eager then Send_eager else Send_rdvz)
      ~buffer:data ~want_source:dst ~want_tag:tag
  in
  let target = t.ranks.(dst) in
  if eager then begin
    t.eager_sends <- t.eager_sends + 1;
    let env =
      { Envelope.protocol = Envelope.Eager; context; src_rank = t.my_rank; tag }
    in
    let mdh =
      ok_exn ~op:"eager md_bind"
        (P.Ni.md_bind t.ni
           (P.Ni.md_spec
              ~options:{ P.Md.default_options with P.Md.ack_disable = true }
              ~threshold:(P.Md.Count 1) ~unlink:P.Md.Unlink ~eq:t.eqh
              ~user_ptr:req.id data))
    in
    ok_exn ~op:"eager put"
      (P.Ni.put t.ni ~md:mdh ~ack:false
         (P.Ni.op ~target ~portal_index:pt_mpi ~cookie:acl_cookie
            ~match_bits:(to_match_bits env) ()))
  end
  else if Hashtbl.mem t.failed dst then
    (* A rendezvous needs the peer to pull; a down peer never will. Fail
       the request now instead of parking it forever. *)
    fail_req t req dst
  else begin
    t.rdvz_sends <- t.rdvz_sends + 1;
    (* Expose the payload for the receiver's pull, keyed by a cookie and
       restricted to the destination process. *)
    let cookie = fresh_cookie t in
    let meh =
      ok_exn ~op:"rdvz me_attach"
        (P.Ni.me_attach t.ni ~portal_index:pt_rdvz
           ~match_id:(P.Match_id.of_proc target)
           ~match_bits:(P.Match_bits.of_int64 cookie)
           ~ignore_bits:P.Match_bits.zero ~unlink:P.Md.Unlink ~pos:`Tail ())
    in
    let data_options =
      {
        P.Md.op_put = false;
        op_get = true;
        manage_remote = true;
        truncate = false;
        ack_disable = true;
      }
    in
    let _data_mdh =
      ok_exn ~op:"rdvz data md"
        (P.Ni.md_attach t.ni ~me:meh
           (P.Ni.md_spec ~options:data_options ~threshold:(P.Md.Count 1)
              ~unlink:P.Md.Unlink ~eq:t.eqh ~user_ptr:req.id data))
    in
    let env =
      {
        Envelope.protocol = Envelope.Rendezvous;
        context;
        src_rank = t.my_rank;
        tag;
      }
    in
    let header = Envelope.encode_rdvz_header ~cookie ~total_len:len in
    (* No EQ on the header descriptor: its SENT is not a completion
       signal (the GET is); threshold 1 still self-cleans it. *)
    let hmd =
      ok_exn ~op:"rdvz header md"
        (P.Ni.md_bind t.ni
           (P.Ni.md_spec
              ~options:{ P.Md.default_options with P.Md.ack_disable = true }
              ~threshold:(P.Md.Count 1) ~unlink:P.Md.Unlink header))
    in
    ok_exn ~op:"rdvz header put"
      (P.Ni.put t.ni ~md:hmd ~ack:false
         (P.Ni.op ~target ~portal_index:pt_mpi ~cookie:acl_cookie
            ~match_bits:(to_match_bits env) ()))
  end;
  req

let irecv t ?(context = context_world) ?(source = Envelope.any_source)
    ?(tag = Envelope.any_tag) buffer =
  check_context context;
  if source <> Envelope.any_source then check_peer t source "irecv";
  lib_entry t;
  let req = mk_request t ~kind:Recv ~buffer ~want_source:source ~want_tag:tag in
  (match take_unexpected t ~context ~source ~tag with
  | Some (Ux_eager { ux_env; ux_slab; ux_off; ux_mlen }) ->
    (* Claim buffered unexpected data: one host copy, slab reference
       released. *)
    let n = min ux_mlen (Bytes.length buffer) in
    Scheduler.delay t.sched (t.tp.Simnet.Transport.host_copy_time n);
    read_slab t ux_slab ~off:ux_off ~len:n ~dst:buffer;
    ux_slab.s_outstanding <- ux_slab.s_outstanding - 1;
    t.ux_bytes <- t.ux_bytes - ux_mlen;
    maybe_rearm_slab t ux_slab;
    complete t req
      { source = ux_env.Envelope.src_rank; tag = ux_env.Envelope.tag; length = n }
  | Some (Ux_rdvz { ux_env; ux_cookie; ux_total; ux_src }) ->
    issue_get t req ux_env ~cookie:ux_cookie ~total_len:ux_total ~src:ux_src
  | Some (Ux_dead env) -> fail_req t req env.Envelope.src_rank
  | None when source <> Envelope.any_source && Hashtbl.mem t.failed source ->
    (* Nothing buffered from the peer and its node is down: the receive
       can never match. *)
    fail_req t req source
  | None ->
    (* Post to the match list: after every earlier posted receive, before
       the unexpected slabs (Fig. 3's ordering). *)
    let mbits, ibits = recv_match_bits ~context ~source ~tag in
    let meh =
      ok_exn ~op:"recv me_insert"
        (P.Ni.me_insert t.ni ~base:(first_slab_me t) ~match_id:P.Match_id.any
           ~match_bits:mbits ~ignore_bits:ibits ~unlink:P.Md.Unlink ~pos:`Before ())
    in
    let recv_options =
      {
        P.Md.op_put = true;
        op_get = false;
        manage_remote = true;
        truncate = true;
        ack_disable = true;
      }
    in
    let _mdh =
      ok_exn ~op:"recv md_attach"
        (P.Ni.md_attach t.ni ~me:meh
           (P.Ni.md_spec ~options:recv_options ~threshold:(P.Md.Count 1)
              ~unlink:P.Md.Unlink ~eq:t.eqh ~user_ptr:req.id buffer))
    in
    ());
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
      (match P.Event.Queue.wait_opt t.eqq with
      | Some ev ->
        handle_event t ev;
        progress_raw t
      | None -> () (* woken out of band: re-check the request state *));
      loop ()
  in
  loop ()

let counters t =
  [
    ("eager_sends", t.eager_sends);
    ("rdvz_sends", t.rdvz_sends);
    ("completions", t.completions);
    ("unexpected_highwater", t.ux_highwater);
  ]

(* The Transport.S instance: what Mpi.Make and the conformance suite
   consume. Only the create arity differs from the toplevel API (the
   signature fixes the config-free form). *)
module Tx = struct
  let name = "portals"

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
