(* NX rides the Portals matching engine through the same device layer as
   MPI: an NX type is a tag, the -1 selector is the tag wildcard, and NX
   receives never restrict the source (crecv matches any sender). The
   info registers are NX's way of reporting status. *)

type msgid = Send of Mpi_core.request | Recv of Mpi_core.request

type t = {
  ep : Mpi_core.t;
  mutable info_count : int;
  mutable info_node : int;
  mutable info_type : int;
}

let any_type = -1

let create tp ~ranks ~rank () =
  { ep = Mpi_portals.create tp ~ranks ~rank (); info_count = -1; info_node = -1;
    info_type = -1 }

let check_type typ =
  if typ < 0 then invalid_arg "Nx: message types must be non-negative"

let isend t ~typ ~node payload =
  check_type typ;
  Send (Mpi_core.isend t.ep ~dst:node ~tag:typ payload)

let irecv t ~typesel buffer =
  if typesel <> any_type then check_type typesel;
  let tag = if typesel = any_type then Envelope.any_tag else typesel in
  Recv (Mpi_core.irecv t.ep ~source:Envelope.any_source ~tag buffer)

let record_info t (st : Mpi_core.status) =
  t.info_count <- st.length;
  t.info_node <- st.source;
  t.info_type <- st.tag

let msgwait t id =
  match id with
  | Send req -> ignore (Mpi_core.wait t.ep req)
  | Recv req ->
    let st = Mpi_core.wait t.ep req in
    record_info t st

let msgdone t id =
  match id with
  | Send req -> Mpi_core.test t.ep req <> None
  | Recv req -> (
    match Mpi_core.test t.ep req with
    | None -> false
    | Some st ->
      record_info t st;
      true)

let csend t ~typ ~node payload = msgwait t (isend t ~typ ~node payload)

let crecv t ~typesel buffer =
  msgwait t (irecv t ~typesel buffer);
  t.info_count

let infocount t = t.info_count
let infonode t = t.info_node
let infotype t = t.info_type
