open Sim_engine
module C = Mpi_core
module L = Mpi_libmatch

(* MPI over the ibverbs-style RDMA transport — the two protocols of Liu
   et al. (MVAPICH): small messages go through sender-written per-peer
   rings the receiver polls (one RDMA write per message, no matching on
   the NIC and none below the MPI library on the host); large messages
   negotiate a rendezvous (RTS -> CTS carrying an rkey -> one RDMA
   write straight into the user buffer -> FIN). Everything above the
   verbs surface — matching, unexpected messages, rendezvous state — is
   the library's, run by [Mpi_libmatch] as for GM: nothing here advances
   unless the application is inside an MPI call. *)

type config = {
  eager_threshold : int;
      (* largest payload through the ring fast path; bigger goes
         rendezvous *)
  ring_slots : int; (* slots per (sender, receiver) ring *)
  call_cost : Time_ns.t; (* host CPU burned entering any MPI call *)
}

let default_config =
  { eager_threshold = 8192; ring_slots = 64; call_cost = Time_ns.ns 300 }

(* A ring message that could not be written for lack of credit: the
   composed wire image waits here, in per-peer FIFO order, until the
   receiver's tail update restores credit. *)
type backlogged = { bk_img : bytes; bk_len : int; bk_action : (unit -> unit) option }

(* A granted rendezvous keeps the rkey of its landing buffer in [lib]. *)
type dev = {
  hca : Ibverbs.t;
  mutable next_wr : int;
  send_rings : Ibverbs.Ring.send option array; (* None at my_rank *)
  recv_rings : Ibverbs.Ring.recv option array;
  backlog : backlogged Queue.t array; (* per destination rank *)
  wr_actions : (int, unit -> unit) Hashtbl.t; (* wr_id -> on local completion *)
  lib : int L.t;
}

type C.dev += Iv_dev of dev

let dev t =
  match C.dev t with
  | Iv_dev d -> d
  | _ -> invalid_arg "Mpi_ibverbs: not an ibverbs endpoint"

let hca t = (dev t).hca

let fresh_wr d =
  let w = d.next_wr in
  d.next_wr <- w + 1;
  w

(* A crashed peer's rendezvous state goes with the ring messages still
   waiting for its credit. *)
let drop_peer t r =
  L.drop_peer (dev t).lib ~release:(Ibverbs.dereg_mr (hca t)) r;
  let backlog = (dev t).backlog.(r) in
  Queue.iter (fun bk -> match bk.bk_action with None -> () | Some f -> f ()) backlog;
  Queue.clear backlog

let send_ring d dst =
  match d.send_rings.(dst) with
  | Some sv -> sv
  | None -> invalid_arg "Mpi_ibverbs: send to self rank"

let issue_write d sv img len action =
  let wr_id = fresh_wr d in
  (match action with
  | None -> ()
  | Some f -> Hashtbl.replace d.wr_actions wr_id f);
  Ibverbs.Ring.try_write sv ~wr_id
    ~fill:(fun buf off -> Bytes.blit img 0 buf off len)
    ~len

(* Send one composed channel message to [dst], in order: if earlier
   messages are still waiting for credit, or the write itself finds the
   ring full, the image joins the per-peer backlog. [action] runs when
   the write completes locally. *)
let ring_send t ~dst img len action =
  let d = dev t in
  let sv = send_ring d dst in
  if not (Queue.is_empty d.backlog.(dst)) then
    Queue.add { bk_img = img; bk_len = len; bk_action = action } d.backlog.(dst)
  else if not (issue_write d sv img len action) then
    Queue.add { bk_img = img; bk_len = len; bk_action = action } d.backlog.(dst)

let drain_backlog d dst =
  match d.send_rings.(dst) with
  | None -> ()
  | Some sv ->
    let rec go () =
      match Queue.peek_opt d.backlog.(dst) with
      | Some bk when issue_write d sv bk.bk_img bk.bk_len bk.bk_action ->
        ignore (Queue.pop d.backlog.(dst));
        go ()
      | Some _ | None -> ()
    in
    go ()

let send_eager t (req : C.request) env =
  let data = req.C.buffer in
  let len = Bytes.length data in
  let img = Bytes.create (Envelope.iv_header_size + len) in
  let n =
    Envelope.encode_iv_eager img ~off:0 ~env ~payload:data ~pay_off:0
      ~pay_len:len
  in
  ring_send t ~dst:req.C.want_source img n
    (Some
       (fun () ->
         C.complete t req
           { source = C.rank t; tag = req.C.want_tag; length = len }))

let send_rts t (req : C.request) env ~cookie =
  L.await_cts (dev t).lib req ~cookie;
  let img = Bytes.create Envelope.iv_header_size in
  let n =
    Envelope.encode_iv_rts img ~off:0 ~env ~cookie
      ~total_len:(Bytes.length req.C.buffer)
  in
  ring_send t ~dst:req.C.want_source img n None

(* Grant a matched rendezvous: register the receive buffer itself as
   the landing region and tell the sender where to write — the data
   will arrive without another copy (and without the host). *)
let grant_rts t (req : C.request) env ~cookie ~total =
  let rkey = Ibverbs.alloc_rkey (hca t) in
  Ibverbs.reg_mr (hca t) ~rkey req.C.buffer;
  L.await_data (dev t).lib req env ~cookie rkey;
  let len = min total (Bytes.length req.C.buffer) in
  let img = Bytes.create Envelope.iv_header_size in
  let n = Envelope.encode_iv_cts img ~off:0 ~cookie ~rkey ~len in
  ring_send t ~dst:env.Envelope.src_rank img n None

let handle_iv t buf view =
  let lib = (dev t).lib in
  match view with
  | Envelope.Iv_eager { env; pay_off; pay_len } ->
    L.on_eager t lib env buf ~off:pay_off ~len:pay_len
  | Envelope.Iv_rts { env; cookie; total_len } ->
    L.on_rts t lib env ~cookie ~total:total_len
  | Envelope.Iv_cts { cookie; rkey; len } -> (
    match L.cts lib cookie with
    | None -> ()
    | Some req ->
      let data = req.C.buffer in
      let dst = req.C.want_source in
      let n = min len (Bytes.length data) in
      (* The payload write goes straight from the user buffer; the FIN
         chases it down the same FIFO pair, so it lands after the
         data. The send completes on the write's local completion. *)
      let d = dev t in
      let wr_id = fresh_wr d in
      Hashtbl.replace d.wr_actions wr_id (fun () ->
          C.complete t req
            { source = C.rank t; tag = req.C.want_tag; length = Bytes.length data });
      Ibverbs.rdma_write (hca t) ~dst:(C.ranks t).(dst) ~rkey ~offset:0
        ~src:data ~src_off:0 ~len:n ~wr_id;
      let img = Bytes.create Envelope.iv_header_size in
      let m = Envelope.encode_iv_fin img ~off:0 ~cookie ~length:n in
      ring_send t ~dst img m None)
  | Envelope.Iv_fin { cookie; length } -> (
    match L.data lib cookie with
    | None -> ()
    | Some (req, env, rkey) ->
      Ibverbs.dereg_mr (hca t) rkey;
      C.complete t req
        {
          source = env.Envelope.src_rank;
          tag = env.Envelope.tag;
          length = min length (Bytes.length req.C.buffer);
        })

let rec drain_ring t rv =
  match Ibverbs.Ring.poll rv with
  | None -> ()
  | Some (buf, off, len) ->
    (match Envelope.decode_iv buf ~off ~len with
    | Error _ -> () (* stale or torn slot; drop *)
    | Ok view -> handle_iv t buf view);
    Ibverbs.Ring.consume rv;
    drain_ring t rv

(* The device side of progress — retire local write completions, poll
   every peer ring for landed messages, and retry credit-starved sends. *)
let poll t =
  let d = dev t in
  let rec drain_cq () =
    match Ibverbs.poll_cq d.hca with
    | None -> ()
    | Some (Ibverbs.Write_complete { wr_id }) ->
      (if wr_id <> Ibverbs.Ring.credit_wr_id then
         match C.take d.wr_actions wr_id with
         | None -> ()
         | Some f -> f ());
      drain_cq ()
  in
  drain_cq ();
  Array.iter (Option.iter (drain_ring t)) d.recv_rings;
  for r = 0 to C.size t - 1 do
    if not (Queue.is_empty d.backlog.(r)) then drain_backlog d r
  done

(* Re-admit a restarted peer: the pair's rings are re-established from
   scratch — head, tail and credits to zero on both buffers we own (the
   peer's own reconnect resets its side). What its previous incarnation
   wrote into our ring is run through the library first, as the next
   library call would have: its eager messages are delivered, and its
   rendezvous headers fail whichever receive claims them. *)
let reset_peer t r =
  let d = dev t in
  Option.iter (drain_ring t) d.recv_rings.(r);
  Option.iter Ibverbs.Ring.reset_send d.send_rings.(r);
  Option.iter Ibverbs.Ring.reset_recv d.recv_rings.(r)

let ops =
  {
    C.connectionless = false;
    send_eager;
    send_rts;
    grant = grant_rts;
    post = (fun t req -> L.post (dev t).lib req);
    poll;
    (* Poll-block: sleep until a write lands somewhere or a completion
       surfaces. *)
    block =
      (fun t ->
        Ibverbs.wait_activity (hca t);
        poll t);
    wake = (fun t -> Ibverbs.wake (hca t));
    drop_peer;
    reset_peer;
    finalize = (fun t -> Ibverbs.close (hca t));
    counters =
      (fun t ->
        let s = Ibverbs.stats (hca t) in
        [
          ("hca_writes", s.Ibverbs.writes);
          ("hca_remote_writes", s.Ibverbs.remote_writes);
        ]);
  }

let create tp ~ranks ~rank:my_rank ?(config = default_config) () =
  let n = Array.length ranks in
  let spay = Envelope.iv_header_size + config.eager_threshold in
  C.create ~name:"Mpi_ibverbs" ~ops ~eager_threshold:config.eager_threshold
    ~call_cost:config.call_cost tp ~ranks ~rank:my_rank (fun id ->
      let hca = Ibverbs.create tp ~id in
      Iv_dev
      {
        hca;
        next_wr = 1;
        send_rings =
          Array.init n (fun r ->
              if r = my_rank then None
              else
                Some
                  (Ibverbs.Ring.create_send hca ~dst:ranks.(r) ~dst_rank:r
                     ~my_rank ~slots:config.ring_slots ~slot_payload:spay));
        recv_rings =
          Array.init n (fun r ->
              if r = my_rank then None
              else
                Some
                  (Ibverbs.Ring.create_recv hca ~peer:ranks.(r) ~peer_rank:r
                     ~my_rank ~slots:config.ring_slots ~slot_payload:spay));
        backlog = Array.init n (fun _ -> Queue.create ());
        wr_actions = Hashtbl.create 32;
        lib = L.create ();
      })

