module C = Mpi_core

type 'k t = {
  posted : C.request Queue.t; (* receive posting order *)
  awaiting_cts : (int, C.request) Hashtbl.t; (* cookie -> send *)
  awaiting_data : (int, C.request * Envelope.t * 'k) Hashtbl.t;
      (* cookie -> recv, the RTS envelope, the stack's landing key *)
}

let create () =
  {
    posted = Queue.create ();
    awaiting_cts = Hashtbl.create 16;
    awaiting_data = Hashtbl.create 16;
  }

let post l req = Queue.add req l.posted
let await_cts l req ~cookie = Hashtbl.replace l.awaiting_cts cookie req
let cts l cookie = C.take l.awaiting_cts cookie

let await_data l req env ~cookie key =
  Hashtbl.replace l.awaiting_data cookie (req, env, key)

let data l cookie = C.take l.awaiting_data cookie

(* Find and remove the first posted receive matching the envelope. *)
let match_posted l (env : Envelope.t) =
  let n = Queue.length l.posted in
  let found = ref None in
  for _ = 1 to n do
    let req = Queue.pop l.posted in
    if
      Option.is_none !found
      && req.C.state = `Pending
      && Envelope.matches ~context:req.C.want_context env
           ~source:req.C.want_source ~tag:req.C.want_tag
    then found := Some req
    else Queue.add req l.posted
  done;
  !found

let on_eager t l env payload ~off ~len =
  match match_posted l env with
  | Some req -> C.deliver t req env payload ~off ~len
  | None ->
    (* The stack reuses [payload] once this returns: keep a copy. *)
    C.unexpected_eager t env ~claim:C.deliver (Bytes.sub payload off len)
      ~off:0 ~len

let on_rts t l env ~cookie ~total =
  match match_posted l env with
  | Some req -> C.grant t req env ~cookie ~total
  | None -> C.unexpected_rts t env ~cookie ~total

let drop_peer l ~release r =
  let n = Queue.length l.posted in
  for _ = 1 to n do
    let req = Queue.pop l.posted in
    if req.C.want_source = r then C.fail_req req r else Queue.add req l.posted
  done;
  let dead_cts =
    Hashtbl.fold
      (fun cookie req acc ->
        if req.C.want_source = r then (cookie, req) :: acc else acc)
      l.awaiting_cts []
  in
  List.iter
    (fun (cookie, req) ->
      Hashtbl.remove l.awaiting_cts cookie;
      C.fail_req req r)
    dead_cts;
  let dead_data =
    Hashtbl.fold
      (fun cookie (req, env, key) acc ->
        if env.Envelope.src_rank = r then (cookie, req, key) :: acc else acc)
      l.awaiting_data []
  in
  List.iter
    (fun (cookie, req, key) ->
      Hashtbl.remove l.awaiting_data cookie;
      release key;
      C.fail_req req r)
    dead_data
