open Sim_engine
module C = Mpi_core
module P = Portals

(* MPI over Portals 3.0: matching runs in the NI's match lists, so this
   module is the match-bits codec, the unexpected slabs, the MD/ME set-up
   of each protocol step and the event handler. The request lifecycle is
   [Mpi_core]'s. *)

(* Portal table assignments for the MPI device. *)
let pt_mpi = 4
let pt_rdvz = 5
let acl_cookie = 0

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

(* [Mpi_core]'s argument check keeps every field in range. *)
let to_match_bits t =
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

(* A receive in [recvs]. A posted receive keeps its match entry, so a
   crash that fails the receive can take the entry off the match list; a
   rendezvous pull has none ([P.Handle.none]). *)
type recv = { r_req : C.request; r_meh : P.Handle.me }

(* An MD's user pointer names the request its events complete: a send in
   [sends] (an eager put's SENT, a rendezvous payload's GET), a receive
   in [recvs] (a posted receive's PUT, a rendezvous pull's REPLY), or,
   negative, a slab. *)
type dev = {
  ni : P.Ni.t;
  cfg : config;
  eqh : P.Handle.eq;
  eqq : P.Event.Queue.t;
  sends : (int, C.request) Hashtbl.t;
  recvs : (int, recv) Hashtbl.t;
  mutable next_id : int;
  slabs : slab array;
  mutable slab_order : int list; (* match-list order, front = searched first *)
  mutable ux_bytes : int;
  mutable ux_highwater : int;
  mutable decode_errors : int; (* corrupt rendezvous headers discarded *)
}

type C.dev += Portals_dev of dev

let dev t =
  match C.dev t with
  | Portals_dev d -> d
  | _ -> invalid_arg "Mpi_portals: not a Portals endpoint"

let ni t = (dev t).ni
let unexpected_bytes_highwater t = (dev t).ux_highwater

let ok_exn = P.Errors.ok_exn

let register d tbl req =
  let id = d.next_id in
  d.next_id <- id + 1;
  Hashtbl.replace tbl id req;
  id

let slab_md_options =
  {
    P.Md.op_put = true;
    op_get = false;
    manage_remote = false;
    truncate = false;
    ack_disable = true;
  }

let attach_slab d (slab : slab) =
  let meh =
    ok_exn ~op:"slab me_attach"
      (P.Ni.me_attach d.ni ~portal_index:pt_mpi ~match_id:P.Match_id.any
         ~match_bits:P.Match_bits.zero ~ignore_bits:P.Match_bits.all_ones
         ~unlink:P.Md.Retain ~pos:`Tail ())
  in
  let mdh =
    ok_exn ~op:"slab md_attach"
      (P.Ni.md_attach d.ni ~me:meh
         (P.Ni.md_spec_reserved ~options:slab_md_options ~threshold:P.Md.Infinite
            ~unlink:P.Md.Retain ~eq:d.eqh
            ~user_ptr:(-(slab.s_idx + 1))
            slab.s_memory))
  in
  slab.s_meh <- meh;
  slab.s_mdh <- mdh

(* Rotate a slab to the tail of the match list once its contents have all
   been claimed and it is too full to be useful. *)
let maybe_rearm_slab d (slab : slab) =
  if slab.s_outstanding = 0 then begin
    match P.Ni.md_local_offset d.ni slab.s_mdh with
    | Error _ -> ()
    | Ok used ->
      let headroom = d.cfg.eager_threshold + Envelope.rdvz_header_size in
      if used > 0 && used > d.cfg.slab_size - headroom then begin
        ok_exn ~op:"slab rearm unlink" (P.Ni.me_unlink d.ni slab.s_meh);
        attach_slab d slab;
        d.slab_order <-
          List.filter (fun i -> i <> slab.s_idx) d.slab_order @ [ slab.s_idx ]
      end
  end

let read_slab d (slab : slab) ~off ~len ~dst =
  ok_exn ~op:"slab md_read"
    (P.Ni.md_read d.ni slab.s_mdh ~offset:off ~len ~dst ~dst_off:0)

(* A header too close to the slab's end to hold one is truncated, which
   the decoder reports. *)
let read_rdvz_header d slab ~off =
  let hdr =
    Bytes.create (min Envelope.rdvz_header_size (d.cfg.slab_size - off))
  in
  read_slab d slab ~off ~len:(Bytes.length hdr) ~dst:hdr;
  Envelope.decode_rdvz_header hdr ~off:0

(* Claim buffered unexpected data: one host copy, slab reference
   released. *)
let claim_slab t (req : C.request) (env : Envelope.t) slab ~off ~len =
  let d = dev t in
  let n = min len (Bytes.length req.C.buffer) in
  Scheduler.delay (P.Ni.sched d.ni)
    (Simnet.Profile.copy_time
       (Simnet.Fabric.profile (P.Ni.transport d.ni).Simnet.Transport.fabric)
       n);
  read_slab d slab ~off ~len:n ~dst:req.C.buffer;
  slab.s_outstanding <- slab.s_outstanding - 1;
  d.ux_bytes <- d.ux_bytes - len;
  maybe_rearm_slab d slab;
  C.complete t req { source = env.src_rank; tag = env.tag; length = n }

let first_slab_me d =
  match d.slab_order with
  | [] -> invalid_arg "Mpi_portals: no slabs configured"
  | idx :: _ -> d.slabs.(idx).s_meh

let send_eager t (req : C.request) env =
  let d = dev t in
  let mdh =
    ok_exn ~op:"eager md_bind"
      (P.Ni.md_bind d.ni
         (P.Ni.md_spec
            ~options:{ P.Md.default_options with P.Md.ack_disable = true }
            ~threshold:(P.Md.Count 1) ~unlink:P.Md.Unlink ~eq:d.eqh
            ~user_ptr:(register d d.sends req) req.C.buffer))
  in
  ok_exn ~op:"eager put"
    (P.Ni.put d.ni ~md:mdh ~ack:false
       (P.Ni.op ~target:(C.ranks t).(req.C.want_source) ~portal_index:pt_mpi
          ~cookie:acl_cookie ~match_bits:(to_match_bits env) ()))

(* Expose the payload for the receiver's pull, keyed by the cookie and
   restricted to the destination process, then put the header. *)
let send_rts t (req : C.request) env ~cookie =
  let d = dev t in
  let target = (C.ranks t).(req.C.want_source) in
  let id = register d d.sends req in
  let meh =
    ok_exn ~op:"rdvz me_attach"
      (P.Ni.me_attach d.ni ~portal_index:pt_rdvz
         ~match_id:(P.Match_id.of_proc target)
         ~match_bits:(P.Match_bits.of_int64 (Int64.of_int cookie))
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
      (P.Ni.md_attach d.ni ~me:meh
         (P.Ni.md_spec ~options:data_options ~threshold:(P.Md.Count 1)
            ~unlink:P.Md.Unlink ~eq:d.eqh ~user_ptr:id req.C.buffer))
  in
  let header =
    Envelope.encode_rdvz_header ~cookie ~total_len:(Bytes.length req.C.buffer)
  in
  (* No EQ on the header descriptor: its SENT is not a completion
     signal (the GET is); threshold 1 still self-cleans it. *)
  let hmd =
    ok_exn ~op:"rdvz header md"
      (P.Ni.md_bind d.ni
         (P.Ni.md_spec
            ~options:{ P.Md.default_options with P.Md.ack_disable = true }
            ~threshold:(P.Md.Count 1) ~unlink:P.Md.Unlink header))
  in
  ok_exn ~op:"rdvz header put"
    (P.Ni.put d.ni ~md:hmd ~ack:false
       (P.Ni.op ~target ~portal_index:pt_mpi ~cookie:acl_cookie
          ~match_bits:(to_match_bits env) ()))

(* Receiver pull of a rendezvous payload: expose the user buffer as an MD
   and get from the sender's per-message entry. *)
let pull t (req : C.request) (env : Envelope.t) ~cookie ~total =
  let d = dev t in
  let len = min total (Bytes.length req.C.buffer) in
  let mdh =
    ok_exn ~op:"rdvz md_bind"
      (P.Ni.md_bind d.ni
         (P.Ni.md_spec
            ~options:{ P.Md.default_options with P.Md.ack_disable = true }
            ~threshold:(P.Md.Count 1) ~unlink:P.Md.Unlink ~eq:d.eqh
            ~user_ptr:(register d d.recvs { r_req = req; r_meh = P.Handle.none })
            ~length:len req.C.buffer))
  in
  ok_exn ~op:"rdvz get"
    (P.Ni.get d.ni ~md:mdh
       (P.Ni.op ~target:(C.ranks t).(env.src_rank) ~portal_index:pt_rdvz
          ~cookie:acl_cookie
          ~match_bits:(P.Match_bits.of_int64 (Int64.of_int cookie))
          ()))

(* Post to the match list: after every earlier posted receive, before
   the unexpected slabs (Fig. 3's ordering). *)
let post t (req : C.request) =
  let d = dev t in
  let mbits, ibits =
    recv_match_bits ~context:req.C.want_context ~source:req.C.want_source
      ~tag:req.C.want_tag
  in
  let meh =
    ok_exn ~op:"recv me_insert"
      (P.Ni.me_insert d.ni ~base:(first_slab_me d) ~match_id:P.Match_id.any
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
      (P.Ni.md_attach d.ni ~me:meh
         (P.Ni.md_spec ~options:recv_options ~threshold:(P.Md.Count 1)
            ~unlink:P.Md.Unlink ~eq:d.eqh
            ~user_ptr:(register d d.recvs { r_req = req; r_meh = meh })
            req.C.buffer))
  in
  ()

let handle_event t (ev : P.Event.t) =
  let d = dev t in
  let up = ev.P.Event.md_user_ptr in
  (* A rendezvous header that fails to decode means in-flight corruption
     reached the MPI layer (only possible with integrity off); the
     message is lost either way, but losing it {e silently} made such
     runs undebuggable — count it and leave a trace breadcrumb. A header
     naming no rank of the job is damaged the same way. *)
  let decode_error ~ctx =
    d.decode_errors <- d.decode_errors + 1;
    Trace.instant (Scheduler.trace (P.Ni.sched d.ni)) ~subsys:"mpi"
      ~proc:(Printf.sprintf "cpu%d" (P.Ni.id d.ni).Simnet.Proc_id.nid)
      (Printf.sprintf "mpi.decode_error rank=%d %s" (C.rank t) ctx)
  in
  let header (env : Envelope.t) = function
    | Ok _ when env.src_rank >= C.size t -> Error "rendezvous header: bad rank"
    | decoded -> decoded
  in
  match ev.P.Event.kind with
  | P.Event.Put when up < 0 ->
    (* Unexpected: landed in a slab. *)
    let slab = d.slabs.(-up - 1) in
    let env = of_match_bits ev.P.Event.match_bits in
    (match env.Envelope.protocol with
    | Envelope.Eager ->
      slab.s_outstanding <- slab.s_outstanding + 1;
      d.ux_bytes <- d.ux_bytes + ev.P.Event.mlength;
      if d.ux_bytes > d.ux_highwater then d.ux_highwater <- d.ux_bytes;
      C.unexpected_eager t env ~claim:claim_slab slab ~off:ev.P.Event.offset
        ~len:ev.P.Event.mlength
    | Envelope.Rendezvous ->
      (match header env (read_rdvz_header d slab ~off:ev.P.Event.offset) with
      | Error _ -> decode_error ~ctx:"unexpected rendezvous header"
      | Ok (cookie, total) -> C.unexpected_rts t env ~cookie ~total))
  | P.Event.Put -> (
    (* A posted receive matched. *)
    match Hashtbl.find_opt d.recvs up with
    | None -> ()
    | Some { r_req = req; _ } ->
      let env = of_match_bits ev.P.Event.match_bits in
      (match env.Envelope.protocol with
      | Envelope.Eager ->
        Hashtbl.remove d.recvs up;
        C.complete t req
          {
            source = env.Envelope.src_rank;
            tag = env.Envelope.tag;
            length = ev.P.Event.mlength;
          }
      | Envelope.Rendezvous ->
        (match
           header env
             (Envelope.decode_rdvz_header req.C.buffer ~off:ev.P.Event.offset)
         with
        | Error _ -> decode_error ~ctx:"posted rendezvous header"
        | Ok (cookie, total) ->
          Hashtbl.remove d.recvs up;
          C.grant t req env ~cookie ~total)))
  | P.Event.Sent -> (
    (* An eager put left. *)
    match C.take d.sends up with
    | Some req ->
      C.complete t req
        {
          source = C.rank t;
          tag = req.C.want_tag;
          length = Bytes.length req.C.buffer;
        }
    | None -> ())
  | P.Event.Get -> (
    (* The receiver pulled our rendezvous payload. *)
    match C.take d.sends up with
    | Some req ->
      C.complete t req
        { source = C.rank t; tag = req.C.want_tag; length = ev.P.Event.mlength }
    | None -> ())
  | P.Event.Reply -> (
    (* Our rendezvous pull completed; [grant] narrowed the receive to the
       sender. *)
    match C.take d.recvs up with
    | Some { r_req = req; _ } ->
      C.complete t req
        {
          source = req.C.want_source;
          tag = req.C.want_tag;
          length = ev.P.Event.mlength;
        }
    | None -> ())
  | P.Event.Ack | P.Event.Atomic | P.Event.Triggered -> ()

let poll t =
  let d = dev t in
  (* [wait] on a non-empty queue returns at once, without boxing the
     event as [get] does. *)
  let rec drain () =
    if P.Event.Queue.count d.eqq > 0 then begin
      handle_event t (P.Event.Queue.wait d.eqq);
      drain ()
    end
  in
  drain ();
  Array.iter (fun slab -> maybe_rearm_slab d slab) d.slabs

(* A peer's node crashed: rendezvous sends awaiting its pull and receives
   pinned to it (or granted to it) fail. Eager sends complete locally
   either way (fire-and-forget: the loss shows up at the receiver's
   accounting, not the sender's). A failed posted receive's match entry
   is unlinked too: left on the list, it would take the restarted peer's
   first matching message for a receive nobody waits on. The unlink
   fails harmlessly when a message already consumed the entry. *)
let drop_peer t r =
  let d = dev t in
  let fail tbl dead release =
    Hashtbl.fold (fun id v acc -> if dead v then id :: acc else acc) tbl []
    |> List.iter (fun id ->
           release (Hashtbl.find tbl id);
           Hashtbl.remove tbl id)
  in
  fail d.sends
    (fun req ->
      req.C.want_source = r && Bytes.length req.C.buffer > d.cfg.eager_threshold)
    (fun req -> C.fail_req req r);
  fail d.recvs
    (fun v -> v.r_req.C.want_source = r)
    (fun v ->
      ignore (P.Ni.me_unlink d.ni v.r_meh);
      C.fail_req v.r_req r)

(* Portals keeps no per-peer connection state (§3): a restarted peer is
   re-admitted with no handshake, and nothing needs rebuilding. *)
let ops =
  {
    C.connectionless = true;
    send_eager;
    send_rts;
    grant = pull;
    post;
    poll;
    block =
      (fun t ->
        match P.Event.Queue.wait_opt (dev t).eqq with
        | Some ev ->
          handle_event t ev;
          poll t
        | None -> () (* woken out of band: re-check the request state *));
    wake = (fun t -> P.Event.Queue.wake (dev t).eqq);
    drop_peer;
    reset_peer = (fun _ _ -> ());
    finalize = (fun t -> P.Ni.shutdown (dev t).ni);
    counters = (fun t -> [ ("unexpected_highwater", (dev t).ux_highwater) ]);
  }

let create tp ~ranks ~rank ?(config = default_config) () =
  let t =
    C.create ~name:"Mpi_portals" ~ops ~eager_threshold:config.eager_threshold
      ~call_cost:config.call_cost tp ~ranks ~rank (fun id ->
        let ni = P.Ni.create tp ~id () in
        let eqh =
          ok_exn ~op:"eq_alloc" (P.Ni.eq_alloc ni ~capacity:config.eq_capacity)
        in
        Portals_dev
          {
            ni;
            cfg = config;
            eqh;
            eqq = ok_exn ~op:"eq" (P.Ni.eq ni eqh);
            sends = Hashtbl.create 32;
            recvs = Hashtbl.create 32;
            next_id = 1;
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
            decode_errors = 0;
          })
  in
  let d = dev t in
  Array.iter (attach_slab d) d.slabs;
  let m = Scheduler.metrics (P.Ni.sched d.ni) in
  let labels = [ ("rank", string_of_int rank) ] in
  let probe name f = Metrics.probe m ~labels name (fun () -> float_of_int (f ())) in
  probe "mpi.eager_sends" (fun () -> C.eager_sends t);
  probe "mpi.rdvz_sends" (fun () -> C.rdvz_sends t);
  probe "mpi.unexpected_bytes" (fun () -> d.ux_bytes);
  probe "mpi.unexpected_highwater" (fun () -> d.ux_highwater);
  probe "mpi.decode_errors" (fun () -> d.decode_errors);
  t
