open Sim_engine
module C = Mpi_core

(* MPI over the ibverbs-style RDMA transport — the two protocols of Liu
   et al. (MVAPICH): small messages go through sender-written per-peer
   rings the receiver polls (one RDMA write per message, no matching on
   the NIC and none below the MPI library on the host); large messages
   negotiate a rendezvous (RTS -> CTS carrying an rkey -> one RDMA
   write straight into the user buffer -> FIN). Everything above the
   verbs surface — matching, unexpected messages, rendezvous state — is
   the library's, run by [Mpi_core] as for GM: nothing here advances
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

type status = Transport.status = { source : int; tag : int; length : int }
type request = C.request

(* A ring message that could not be written for lack of credit: the
   composed wire image waits here, in per-peer FIFO order, until the
   receiver's tail update restores credit. *)
type backlogged = { bk_img : bytes; bk_len : int; bk_action : (unit -> unit) option }

type dev = {
  hca : Ibverbs.t;
  mutable next_wr : int;
  send_rings : Ibverbs.Ring.send option array; (* None at my_rank *)
  recv_rings : Ibverbs.Ring.recv option array;
  backlog : backlogged Queue.t array; (* per destination rank *)
  wr_actions : (int, unit -> unit) Hashtbl.t; (* wr_id -> on local completion *)
}

(* A granted rendezvous keeps the rkey of its landing buffer. *)
type t = (dev, int) C.t

include C.Endpoint

let hca (t : t) = (C.dev t).hca

let fresh_wr d =
  let w = d.next_wr in
  d.next_wr <- w + 1;
  w

(* Re-admit a restarted peer: the pair's rings are re-established from
   scratch — head, tail and credits to zero on both buffers we own (the
   peer's own reconnect resets its side). *)
let reset_peer (t : t) r =
  Option.iter Ibverbs.Ring.reset_send (C.dev t).send_rings.(r);
  Option.iter Ibverbs.Ring.reset_recv (C.dev t).recv_rings.(r)

(* Ring messages still waiting for a crashed peer's credit. *)
let drop_peer (t : t) r =
  let backlog = (C.dev t).backlog.(r) in
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
let ring_send (t : t) ~dst img len action =
  let d = C.dev t in
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

let send_eager (t : t) (req : request) env =
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
           { source = rank t; tag = req.C.want_tag; length = len }))

let send_rts t (req : request) env ~cookie =
  let img = Bytes.create Envelope.iv_header_size in
  let n =
    Envelope.encode_iv_rts img ~off:0 ~env ~cookie
      ~total_len:(Bytes.length req.C.buffer)
  in
  ring_send t ~dst:req.C.want_source img n None

(* Grant a matched rendezvous: register the receive buffer itself as
   the landing region and tell the sender where to write — the data
   will arrive without another copy (and without the host). *)
let grant_rts (t : t) (req : request) env ~cookie ~total =
  let rkey = Ibverbs.alloc_rkey (hca t) in
  Ibverbs.reg_mr (hca t) ~rkey req.C.buffer;
  Hashtbl.replace (C.awaiting_data t) cookie (req, env, rkey);
  let len = min total (Bytes.length req.C.buffer) in
  let img = Bytes.create Envelope.iv_header_size in
  let n = Envelope.encode_iv_cts img ~off:0 ~cookie ~rkey ~len in
  ring_send t ~dst:env.Envelope.src_rank img n None

let handle_iv (t : t) buf view =
  match view with
  | Envelope.Iv_eager { env; pay_off; pay_len } ->
    C.on_eager t env buf ~off:pay_off ~len:pay_len
  | Envelope.Iv_rts { env; cookie; total_len } ->
    C.on_rts t env ~cookie ~total:total_len
  | Envelope.Iv_cts { cookie; rkey; len } -> (
    match C.take (C.awaiting_cts t) cookie with
    | None -> ()
    | Some req ->
      let data = req.C.buffer in
      let dst = req.C.want_source in
      let n = min len (Bytes.length data) in
      (* The payload write goes straight from the user buffer; the FIN
         chases it down the same FIFO pair, so it lands after the
         data. The send completes on the write's local completion. *)
      let d = C.dev t in
      let wr_id = fresh_wr d in
      Hashtbl.replace d.wr_actions wr_id (fun () ->
          C.complete t req
            { source = rank t; tag = req.C.want_tag; length = Bytes.length data });
      Ibverbs.rdma_write (hca t) ~dst:(C.ranks t).(dst) ~rkey ~offset:0
        ~src:data ~src_off:0 ~len:n ~wr_id;
      let img = Bytes.create Envelope.iv_header_size in
      let m = Envelope.encode_iv_fin img ~off:0 ~cookie ~length:n in
      ring_send t ~dst img m None)
  | Envelope.Iv_fin { cookie; length } -> (
    match C.take (C.awaiting_data t) cookie with
    | None -> ()
    | Some (req, env, rkey) ->
      Ibverbs.dereg_mr (hca t) rkey;
      C.complete t req
        {
          source = env.Envelope.src_rank;
          tag = env.Envelope.tag;
          length = min length (Bytes.length req.C.buffer);
        })

(* The device side of progress — retire local write completions, poll
   every peer ring for landed messages, and retry credit-starved sends. *)
let progress_raw (t : t) =
  let d = C.dev t in
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
  Array.iter
    (function
      | None -> ()
      | Some rv ->
        let rec drain_ring () =
          match Ibverbs.Ring.poll rv with
          | None -> ()
          | Some (buf, off, len) ->
            (match Envelope.decode_iv buf ~off ~len with
            | Error _ -> () (* stale or torn slot; drop *)
            | Ok view -> handle_iv t buf view);
            Ibverbs.Ring.consume rv;
            drain_ring ()
        in
        drain_ring ())
    d.recv_rings;
  for r = 0 to size t - 1 do
    if not (Queue.is_empty d.backlog.(r)) then drain_backlog d r
  done

let ops =
  {
    C.send_eager;
    send_rts;
    grant = grant_rts;
    release = (fun t rkey -> Ibverbs.dereg_mr (hca t) rkey);
    poll = progress_raw;
    (* Poll-block: sleep until a write lands somewhere or a completion
       surfaces. *)
    block = (fun t -> Ibverbs.wait_activity (hca t));
    wake = (fun t -> Ibverbs.wake (hca t));
    drop_peer;
    reset_peer;
  }

let create tp ~ranks ~rank:my_rank ?(config = default_config) () =
  let n = Array.length ranks in
  let spay = Envelope.iv_header_size + config.eager_threshold in
  C.create ~name:"Mpi_ibverbs" ~ops ~eager_threshold:config.eager_threshold
    ~call_cost:config.call_cost tp ~ranks ~rank:my_rank (fun id ->
      let hca = Ibverbs.create tp ~id in
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
      })

let finalize t = Ibverbs.close (hca t)

let counters t =
  let s = Ibverbs.stats (hca t) in
  C.counters t
  @ [
      ("hca_writes", s.Ibverbs.writes);
      ("hca_remote_writes", s.Ibverbs.remote_writes);
    ]

(* The Transport.S instance: what Mpi.Make and the conformance suite
   consume. *)
module Tx = struct
  include C.Endpoint

  let name = "ibverbs"

  type nonrec t = t
  type nonrec request = request

  let create tp ~ranks ~rank = create tp ~ranks ~rank ()
  let finalize = finalize
  let counters = counters

  (* The rings have no self pair. *)
  let isend t ?context ~dst ~tag data =
    if dst = rank t then invalid_arg "Mpi_ibverbs.isend: self sends unsupported";
    C.Endpoint.isend t ?context ~dst ~tag data
end

let isend = Tx.isend
