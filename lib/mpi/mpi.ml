module Envelope = Envelope
module Mpi_portals = Mpi_portals
module Mpi_gm = Mpi_gm
module Mpi_ibverbs = Mpi_ibverbs
module Nx = Nx

(* The endpoint calls are the core's; the interface shows only those. *)
include Mpi_core

exception Peer_failed = Envelope.Peer_failed

let any_source = Envelope.any_source
let any_tag = Envelope.any_tag
let create_portals = Mpi_portals.create
let create_gm = Mpi_gm.create
let create_ibverbs = Mpi_ibverbs.create
let waitall t reqs = List.map (fun r -> wait t r) reqs

let send t ?context ~dst ~tag data =
  ignore (wait t (isend t ?context ~dst ~tag data))

let recv t ?context ?source ?tag buffer =
  wait t (irecv t ?context ?source ?tag buffer)

(* Reserve the top of the tag space for the barrier rounds. *)
let barrier_tag_base = Envelope.max_tag - 64

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
      if tolerant then (try f () with Peer_failed _ -> ()) else f ()
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
