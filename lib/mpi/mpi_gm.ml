open Sim_engine
module C = Mpi_core

type config = { eager_threshold : int; recv_tokens : int; call_cost : Time_ns.t }

let default_config =
  { eager_threshold = 16384; recv_tokens = 64; call_cost = Time_ns.ns 300 }

type status = Transport.status = { source : int; tag : int; length : int }
type request = C.request

(* What each GM send's completion event means, FIFO with Send_complete. *)
type sent_kind = Sk_eager of request | Sk_data of request | Sk_control

(* [spare] binds each rendezvous token size to the tokens of that size
   that have been drained, most recent first ([Hashtbl.add] stacks
   bindings), so a later grant of the same size reuses one instead of
   allocating a payload-sized buffer. *)
type dev = {
  gm_port : Gm.t;
  sent_fifo : sent_kind Queue.t;
  spare : (int, bytes) Hashtbl.t;
}

(* A granted rendezvous keeps nothing beyond the core's entry: its data
   lands in a token, not in a registered region. *)
type t = (dev, unit) C.t

include C.Endpoint

let port (t : t) = (C.dev t).gm_port

let token_size (t : t) = C.eager_threshold t + Envelope.gm_header_size

let gm_send (t : t) ~dst msg kind =
  Queue.add kind (C.dev t).sent_fifo;
  Gm.send (port t) ~dst:(C.ranks t).(dst) (Envelope.encode_gm msg)

let send_eager t (req : request) env =
  let data = req.C.buffer in
  gm_send t ~dst:req.C.want_source
    (Envelope.Gm_eager
       { env; payload = data; pay_off = 0; pay_len = Bytes.length data })
    (Sk_eager req)

let send_rts t (req : request) env ~cookie =
  gm_send t ~dst:req.C.want_source
    (Envelope.Gm_rts { env; cookie; total_len = Bytes.length req.C.buffer })
    Sk_control

let rendezvous_token (t : t) size =
  let spare = (C.dev t).spare in
  match Hashtbl.find_opt spare size with
  | Some token ->
    Hashtbl.remove spare size;
    token
  | None -> Bytes.create size

(* Grant a matched rendezvous: provision a token big enough for the data
   message, then tell the sender to go. *)
let grant_rts (t : t) req env ~cookie ~total =
  Hashtbl.replace (C.awaiting_data t) cookie (req, env, ());
  Gm.provide_receive_token (port t)
    (rendezvous_token t (total + Envelope.gm_header_size));
  gm_send t ~dst:env.Envelope.src_rank (Envelope.Gm_cts { cookie }) Sk_control

(* [token] is decoded in place: matched payloads are blitted straight
   from it into the request buffer. *)
let handle_recv (t : t) token length =
  match Envelope.decode_gm token ~len:length with
  | Error _ -> () (* not an MPI message; ignore *)
  | Ok (Envelope.Gm_eager { env; payload; pay_off; pay_len }) ->
    C.on_eager t env payload ~off:pay_off ~len:pay_len
  | Ok (Envelope.Gm_rts { env; cookie; total_len }) ->
    C.on_rts t env ~cookie ~total:total_len
  | Ok (Envelope.Gm_cts { cookie }) -> (
    match C.take (C.awaiting_cts t) cookie with
    | None -> ()
    | Some req ->
      let data = req.C.buffer in
      gm_send t ~dst:req.C.want_source
        (Envelope.Gm_data
           { cookie; payload = data; pay_off = 0; pay_len = Bytes.length data })
        (Sk_data req))
  | Ok (Envelope.Gm_data { cookie; payload; pay_off; pay_len }) -> (
    match C.take (C.awaiting_data t) cookie with
    | None -> ()
    | Some (req, env, ()) -> C.deliver t req env payload ~off:pay_off ~len:pay_len)

let handle_sent (t : t) =
  match Queue.take_opt (C.dev t).sent_fifo with
  | None | Some Sk_control -> ()
  | Some (Sk_eager req | Sk_data req) ->
    C.complete t req
      {
        source = rank t;
        tag = req.C.want_tag;
        length = Bytes.length req.C.buffer;
      }

let progress_raw (t : t) =
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
      else Hashtbl.add (C.dev t).spare size buffer;
      drain ()
    | Some (Gm.Send_complete _) ->
      handle_sent t;
      drain ()
  in
  drain ()

let ops =
  {
    C.send_eager;
    send_rts;
    grant = grant_rts;
    release = (fun _ () -> ());
    poll = progress_raw;
    (* Blocking gm_receive: sleep until the port has an event. *)
    block = (fun t -> Gm.wait_event (port t));
    wake = (fun t -> Gm.wake (port t));
    drop_peer = (fun _ _ -> ());
    reset_peer = (fun _ _ -> ());
  }

let create tp ~ranks ~rank ?(config = default_config) () =
  let t =
    C.create ~name:"Mpi_gm" ~ops ~eager_threshold:config.eager_threshold
      ~call_cost:config.call_cost tp ~ranks ~rank (fun id ->
        {
          gm_port = Gm.open_port tp ~id;
          sent_fifo = Queue.create ();
          spare = Hashtbl.create 4;
        })
  in
  for _ = 1 to config.recv_tokens do
    Gm.provide_receive_token (port t) (Bytes.create (token_size t))
  done;
  t

let finalize t = Gm.close (port t)

let counters t =
  let s = Gm.stats (port t) in
  C.counters t @ [ ("port_sends", s.Gm.sends); ("port_receives", s.Gm.receives) ]

(* The Transport.S instance: what Mpi.Make and the conformance suite
   consume. *)
module Tx = struct
  include C.Endpoint

  let name = "gm"

  type nonrec t = t
  type nonrec request = request

  let create tp ~ranks ~rank = create tp ~ranks ~rank ()
  let finalize = finalize
  let counters = counters
end
