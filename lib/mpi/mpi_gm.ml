open Sim_engine
module C = Mpi_core
module L = Mpi_libmatch

type config = { eager_threshold : int; recv_tokens : int; call_cost : Time_ns.t }

let default_config =
  { eager_threshold = 16384; recv_tokens = 64; call_cost = Time_ns.ns 300 }

(* What each GM send's completion event means, FIFO with Send_complete. *)
type sent_kind = Sk_eager of C.request | Sk_data of C.request | Sk_control

(* [spare] binds each rendezvous token size to the tokens of that size
   that have been drained, most recent first ([Hashtbl.add] stacks
   bindings), so a later grant of the same size reuses one instead of
   allocating a payload-sized buffer. A granted rendezvous keeps nothing
   beyond its [lib] entry: its data lands in a token, not in a registered
   region. *)
type dev = {
  gm_port : Gm.t;
  sent_fifo : sent_kind Queue.t;
  spare : (int, bytes) Hashtbl.t;
  lib : unit L.t;
}

type C.dev += Gm_dev of dev

let dev t =
  match C.dev t with Gm_dev d -> d | _ -> invalid_arg "Mpi_gm: not a GM endpoint"

let port t = (dev t).gm_port
let token_size t = C.eager_threshold t + Envelope.gm_header_size

let gm_send t ~dst msg kind =
  Queue.add kind (dev t).sent_fifo;
  Gm.send (port t) ~dst:(C.ranks t).(dst) (Envelope.encode_gm msg)

let send_eager t (req : C.request) env =
  let data = req.C.buffer in
  gm_send t ~dst:req.C.want_source
    (Envelope.Gm_eager
       { env; payload = data; pay_off = 0; pay_len = Bytes.length data })
    (Sk_eager req)

let send_rts t (req : C.request) env ~cookie =
  L.await_cts (dev t).lib req ~cookie;
  gm_send t ~dst:req.C.want_source
    (Envelope.Gm_rts { env; cookie; total_len = Bytes.length req.C.buffer })
    Sk_control

let rendezvous_token t size =
  let spare = (dev t).spare in
  match Hashtbl.find_opt spare size with
  | Some token ->
    Hashtbl.remove spare size;
    token
  | None -> Bytes.create size

(* Grant a matched rendezvous: provision a token big enough for the data
   message, then tell the sender to go. *)
let grant_rts t req env ~cookie ~total =
  L.await_data (dev t).lib req env ~cookie ();
  Gm.provide_receive_token (port t)
    (rendezvous_token t (total + Envelope.gm_header_size));
  gm_send t ~dst:env.Envelope.src_rank (Envelope.Gm_cts { cookie }) Sk_control

(* [token] is decoded in place: matched payloads are blitted straight
   from it into the request buffer. *)
let handle_recv t token length =
  let lib = (dev t).lib in
  match Envelope.decode_gm token ~len:length with
  | Error _ -> () (* not an MPI message; ignore *)
  | Ok (Envelope.Gm_eager { env; payload; pay_off; pay_len }) ->
    L.on_eager t lib env payload ~off:pay_off ~len:pay_len
  | Ok (Envelope.Gm_rts { env; cookie; total_len }) ->
    L.on_rts t lib env ~cookie ~total:total_len
  | Ok (Envelope.Gm_cts { cookie }) -> (
    match L.cts lib cookie with
    | None -> ()
    | Some req ->
      let data = req.C.buffer in
      gm_send t ~dst:req.C.want_source
        (Envelope.Gm_data
           { cookie; payload = data; pay_off = 0; pay_len = Bytes.length data })
        (Sk_data req))
  | Ok (Envelope.Gm_data { cookie; payload; pay_off; pay_len }) -> (
    match L.data lib cookie with
    | None -> ()
    | Some (req, env, ()) -> C.deliver t req env payload ~off:pay_off ~len:pay_len)

let handle_sent t =
  match Queue.take_opt (dev t).sent_fifo with
  | None | Some Sk_control -> ()
  | Some (Sk_eager req | Sk_data req) ->
    C.complete t req
      {
        source = C.rank t;
        tag = req.C.want_tag;
        length = Bytes.length req.C.buffer;
      }

let poll t =
  let rec drain () =
    match Gm.poll (port t) with
    | None -> ()
    | Some (Gm.Recv_complete { buffer; length; _ }) ->
      handle_recv t buffer length;
      (* Recycle the token (unexpected eagers were copied out of it, so
         the buffer is free either way): an eager token goes back to the
         port, a rendezvous token waits for the next grant of its size. *)
      let size = Bytes.length buffer in
      if size = token_size t then Gm.provide_receive_token (port t) buffer
      else Hashtbl.add (dev t).spare size buffer;
      drain ()
    | Some (Gm.Send_complete _) ->
      handle_sent t;
      drain ()
  in
  drain ()

let ops =
  {
    C.connectionless = false;
    send_eager;
    send_rts;
    grant = grant_rts;
    post = (fun t req -> L.post (dev t).lib req);
    poll;
    (* Blocking gm_receive: sleep until the port has an event. *)
    block =
      (fun t ->
        Gm.wait_event (port t);
        poll t);
    wake = (fun t -> Gm.wake (port t));
    drop_peer = (fun t r -> L.drop_peer (dev t).lib ~release:ignore r);
    reset_peer = (fun _ _ -> ());
    finalize = (fun t -> Gm.close (port t));
    counters =
      (fun t ->
        let s = Gm.stats (port t) in
        [ ("port_sends", s.Gm.sends); ("port_receives", s.Gm.receives) ]);
  }

let create tp ~ranks ~rank ?(config = default_config) () =
  let t =
    C.create ~name:"Mpi_gm" ~ops ~eager_threshold:config.eager_threshold
      ~call_cost:config.call_cost tp ~ranks ~rank (fun id ->
        Gm_dev
          {
            gm_port = Gm.open_port tp ~id;
            sent_fifo = Queue.create ();
            spare = Hashtbl.create 4;
            lib = L.create ();
          })
  in
  Gm.provide_receive_tokens (port t) ~size:(token_size t) config.recv_tokens;
  t
