module Envelope = Envelope
module Mpi_portals = Mpi_portals
module Mpi_gm = Mpi_gm
module Mpi_ibverbs = Mpi_ibverbs
module Nx = Nx

module type TRANSPORT = Transport.S

type status = Transport.status = { source : int; tag : int; length : int }

exception Peer_failed = Envelope.Peer_failed

let any_source = Envelope.any_source
let any_tag = Envelope.any_tag

(* Reserve the top of the tag space for the barrier rounds. *)
let barrier_tag_base = Envelope.max_tag - 64

module type ENDPOINT = sig
  include Transport.S

  val waitall : t -> request list -> Transport.status list
  val send : t -> ?context:int -> dst:int -> tag:int -> bytes -> unit

  val recv :
    t -> ?context:int -> ?source:int -> ?tag:int -> bytes -> Transport.status
  val barrier : ?tolerant:bool -> t -> unit
end

(* The one MPI <-> transport binding: everything above the Transport.S
   surface (blocking calls, waitall, the barrier) is derived here, once,
   for every backend. *)
module Make (T : Transport.S) :
  ENDPOINT with type t = T.t and type request = T.request = struct
  include T

  let waitall t reqs = List.map (fun r -> wait t r) reqs

  let send t ?context ~dst ~tag data =
    ignore (wait t (isend t ?context ~dst ~tag data))

  let recv t ?context ?source ?tag buffer =
    wait t (irecv t ?context ?source ?tag buffer)

  let barrier ?(tolerant = false) t =
    let n = size t in
    let me = rank t in
    if n > 1 then begin
      (* Dissemination: in round k, send to (me + 2^k) mod n and receive
         from (me - 2^k) mod n; ceil(log2 n) rounds synchronise everyone.
         With [tolerant], exchanges with crashed ranks are skipped instead
         of raising — the surviving ranks still synchronise among
         themselves (enough for a shutdown barrier). *)
      let guard f =
        if tolerant then (try f () with Transport.Peer_failed _ -> ())
        else f ()
      in
      let rec round k step =
        if step < n then begin
          let tag = barrier_tag_base + k in
          let to_peer = (me + step) mod n in
          let from_peer = (me - step + n) mod n in
          guard (fun () -> ignore (wait t (isend t ~dst:to_peer ~tag Bytes.empty)));
          guard (fun () ->
              ignore (wait t (irecv t ~source:from_peer ~tag (Bytes.create 0))));
          round (k + 1) (step * 2)
        end
      in
      round 0 1
    end
end

module Over_portals = Make (Mpi_portals.Tx)
module Over_gm = Make (Mpi_gm.Tx)
module Over_ibverbs = Make (Mpi_ibverbs.Tx)

(* Run-time backend selection: an endpoint packs the derived module with
   its state; a request carries its endpoint, so every operation reaches
   the backend that issued it. *)
type t = Ep : (module ENDPOINT with type t = 'e and type request = 'r) * 'e -> t

type request =
  | Req :
      (module ENDPOINT with type t = 'e and type request = 'r) * 'e * 'r
      -> request

let of_endpoint m ep = Ep (m, ep)

let create_portals tp ~ranks ~rank ?config () =
  Ep ((module Over_portals), Mpi_portals.create tp ~ranks ~rank ?config ())

let create_gm tp ~ranks ~rank ?config () =
  Ep ((module Over_gm), Mpi_gm.create tp ~ranks ~rank ?config ())

let create_ibverbs tp ~ranks ~rank ?config () =
  Ep ((module Over_ibverbs), Mpi_ibverbs.create tp ~ranks ~rank ?config ())

let finalize (Ep ((module M), ep)) = M.finalize ep
let rank (Ep ((module M), ep)) = M.rank ep
let size (Ep ((module M), ep)) = M.size ep
let counters (Ep ((module M), ep)) = M.counters ep

let isend t ?context ~dst ~tag data =
  match t with
  | Ep ((module M), ep) -> Req ((module M), ep, M.isend ep ?context ~dst ~tag data)

let irecv t ?context ?source ?tag buffer =
  match t with
  | Ep ((module M), ep) ->
    Req ((module M), ep, M.irecv ep ?context ?source ?tag buffer)

let test (_ : t) (Req ((module M), ep, r)) = M.test ep r
let wait (_ : t) (Req ((module M), ep, r)) = M.wait ep r
let waitall t reqs = List.map (fun r -> wait t r) reqs
let progress (Ep ((module M), ep)) = M.progress ep

let send t ?context ~dst ~tag data =
  ignore (wait t (isend t ?context ~dst ~tag data))

let recv t ?context ?source ?tag buffer =
  wait t (irecv t ?context ?source ?tag buffer)

let on_peer_failure (Ep ((module M), ep)) cb = M.on_peer_failure ep cb
let failed_ranks (Ep ((module M), ep)) = M.failed_ranks ep
let reconnect (Ep ((module M), ep)) ~rank = M.reconnect ep ~rank
let barrier ?tolerant (Ep ((module M), ep)) = M.barrier ?tolerant ep
