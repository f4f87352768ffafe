(* A reference model of the NI's translation path (§4.4, Figs. 3-4; the
   receive rules of §4.8) used as a test oracle.

   The model is a plain list per portal: no handles, no intrusive links,
   no immediates. One QCheck generator drives it and a real target NI
   with the same sequence of match-list edits (attach, insert, unlink,
   retarget, MD attach) and remote operations (put, get, atomic) from
   three initiators on two nodes. After every operation both sides must
   agree on
   - the target's events (kind, initiator, offset, mlength, rlength, MD),
   - the initiators' completion events (kind, mlength),
   - the bytes deposited in every target MD and returned by gets and
     atomics,
   - the entries the match walk examined ([entries_walked]),
   - the NI's live resources and its drop count.

   Triggered chains are not modelled. *)

open Portals
open Sim_engine

let proc nid pid = Simnet.Proc_id.make ~nid ~pid
let target = proc 1 0
let initiators = [| proc 0 0; proc 2 0; proc 2 1 |]
let portals = 3

(* An index the table does not have: such requests drop before the ACL. *)
let bad_portal = 64

(* ACL on the target: cookies 0 and 1 are the defaults (any process, any
   portal); 2 admits node 2 on portal 1 only; 3 admits proc 0:0 on any
   portal; 4 is an empty slot. *)
let acl_entries =
  [
    (2, { Acl.allowed_id = Match_id.make ~nid:(Match_id.Id 2) ~pid:Match_id.Any;
          allowed_portal = Some 1 });
    (3, { Acl.allowed_id = Match_id.of_proc (proc 0 0); allowed_portal = None });
  ]

let cookies = 5

(* ------------------------------------------------------------------ *)
(* Generated operations *)

type region = Flat | Iovec of int list (* segment lengths *) | Reserved

type md_gen = {
  g_len : int; (* Flat and Reserved only; Iovec sums its segments *)
  g_region : region;
  g_put : bool;
  g_get : bool;
  g_remote : bool; (* manage_remote *)
  g_truncate : bool;
  g_ack_disable : bool;
  g_threshold : int option; (* None = infinite *)
  g_unlink : bool;
}

type criteria = {
  c_nid : Match_id.component;
  c_pid : Match_id.component;
  c_bits : int64;
  c_ignore : int64;
  c_unlink : bool;
}

type remote = {
  r_src : int; (* index into [initiators] *)
  r_portal : int;
  r_cookie : int;
  r_bits : int64;
  r_offset : int;
}

type step =
  | Attach of int * [ `Head | `Tail ] * criteria * md_gen option
  | Insert of int * [ `Before | `After ] * criteria * md_gen option
  | Md_attach of int * md_gen
  | Unlink of int
  | Retarget of int * int64
  | Put of remote * int * int option * bool (* md length, put length, ack *)
  | Get of remote * int
  | Atomic of remote * Wire.aop * int64 * int64

let pp_component = function Match_id.Any -> "*" | Match_id.Id n -> string_of_int n

let pp_md g =
  Printf.sprintf "md(%s%s%s%s%s%s thr=%s%s)"
    (match g.g_region with
    | Flat -> Printf.sprintf "flat %d" g.g_len
    | Reserved -> Printf.sprintf "rsv %d" g.g_len
    | Iovec segs -> "iov " ^ String.concat "+" (List.map string_of_int segs))
    (if g.g_put then " P" else "") (if g.g_get then " G" else "")
    (if g.g_remote then " remote" else " local")
    (if g.g_truncate then " trunc" else "")
    (if g.g_ack_disable then " noack" else "")
    (match g.g_threshold with None -> "inf" | Some n -> string_of_int n)
    (if g.g_unlink then " unlink" else "")

let pp_criteria c =
  Printf.sprintf "%s:%s bits=%Lx ign=%Lx%s" (pp_component c.c_nid)
    (pp_component c.c_pid) c.c_bits c.c_ignore
    (if c.c_unlink then " unlink" else "")

let pp_remote r =
  Printf.sprintf "from %d pt=%d ck=%d bits=%Lx off=%d" r.r_src r.r_portal
    r.r_cookie r.r_bits r.r_offset

let pp_opt_md = function None -> "" | Some g -> " + " ^ pp_md g

let pp_step = function
  | Attach (pt, pos, c, md) ->
    Printf.sprintf "attach pt%d %s %s%s" pt
      (if pos = `Head then "head" else "tail")
      (pp_criteria c) (pp_opt_md md)
  | Insert (i, pos, c, md) ->
    Printf.sprintf "insert %s #%d %s%s"
      (if pos = `Before then "before" else "after")
      i (pp_criteria c) (pp_opt_md md)
  | Md_attach (i, g) -> Printf.sprintf "md_attach #%d %s" i (pp_md g)
  | Unlink i -> Printf.sprintf "unlink #%d" i
  | Retarget (i, b) -> Printf.sprintf "retarget #%d bits=%Lx" i b
  | Put (r, l, pl, ack) ->
    Printf.sprintf "put %s md=%d len=%s%s" (pp_remote r) l
      (match pl with None -> "all" | Some n -> string_of_int n)
      (if ack then " ack" else "")
  | Get (r, l) -> Printf.sprintf "get %s len=%d" (pp_remote r) l
  | Atomic (r, aop, operand, compare) ->
    Printf.sprintf "atomic %s %s %Ld cmp=%Ld" (pp_remote r)
      (Wire.aop_to_string aop) operand compare

let gen_steps =
  let open QCheck.Gen in
  (* A small bit space, so criteria collide often; ignore masks cover the
     low bit, the low byte, the high word and everything. *)
  let bits = oneofl [ 0L; 1L; 2L; 0x100000001L ] in
  let ignore_bits =
    frequency
      [ (2, return 0L); (1, return 1L); (1, return 0xFFL);
        (1, return 0xFFFFFFFF00000000L); (2, return (-1L)) ]
  in
  let comp ids = frequency [ (3, return Match_id.Any); (1, map (fun i -> Match_id.Id i) (oneofl ids)) ] in
  let criteria =
    comp [ 0; 2 ] >>= fun c_nid ->
    comp [ 0; 1 ] >>= fun c_pid ->
    map3
      (fun c_bits c_ignore c_unlink -> { c_nid; c_pid; c_bits; c_ignore; c_unlink })
      bits ignore_bits bool
  in
  let md =
    frequency
      [ (4, return Flat);
        (1, map (fun l -> Iovec l) (list_size (int_range 1 3) (int_range 0 12)));
        (1, return Reserved) ]
    >>= fun g_region ->
    int_range 0 32 >>= fun g_len ->
    map3
      (fun (g_put, g_get) (g_remote, g_truncate, g_ack_disable) (g_threshold, g_unlink) ->
        { g_len; g_region; g_put; g_get; g_remote; g_truncate; g_ack_disable;
          g_threshold; g_unlink })
      (frequency [ (4, return (true, true)); (1, pair bool bool) ])
      (triple bool bool (frequency [ (4, return false); (1, return true) ]))
      (pair (frequency [ (2, return None); (3, map Option.some (int_range 0 3)) ]) bool)
  in
  let remote =
    map3
      (fun r_src r_portal (r_cookie, r_bits, r_offset) ->
        { r_src; r_portal; r_cookie; r_bits; r_offset })
      (int_range 0 (Array.length initiators - 1))
      (frequency [ (20, int_range 0 (portals - 1)); (1, return bad_portal) ])
      (triple
         (frequency [ (8, return 0); (1, int_range 1 (cookies - 1)) ])
         bits
         (frequency
            [ (3, return 0); (2, int_range 0 36); (2, map (fun k -> 8 * k) (int_range 0 4)) ]))
  in
  let pos_md = frequency [ (3, map Option.some md); (1, return None) ] in
  let attach =
    map3
      (fun pt head (c, m) -> Attach (pt, (if head then `Head else `Tail), c, m))
      (int_range 0 (portals - 1)) bool (pair criteria pos_md)
  in
  (* Every sequence opens with a few entries, so most requests walk. *)
  list_size (int_range 2 8) attach >>= fun prelude ->
  map (fun steps -> prelude @ steps) @@ list_size (int_range 1 40) @@
  frequency
    [
      (3, attach);
      ( 2,
        map3
          (fun i before (c, m) -> Insert (i, (if before then `Before else `After), c, m))
          small_nat bool (pair criteria pos_md) );
      (1, map2 (fun i g -> Md_attach (i, g)) small_nat md);
      (1, map (fun i -> Unlink i) small_nat);
      (1, map2 (fun i b -> Retarget (i, b)) small_nat bits);
      ( 5,
        remote >>= fun r ->
        int_range 0 24 >>= fun l ->
        map2
          (fun pl ack -> Put (r, l, pl, ack))
          (frequency [ (2, return None); (1, map Option.some (int_range 0 l)) ])
          bool );
      (2, map2 (fun r l -> Get (r, l)) remote (int_range 0 24));
      ( 2,
        map3
          (fun r aop (operand, compare) -> Atomic (r, aop, operand, compare))
          remote (oneofl Wire.all_aops)
          (pair (map Int64.of_int (int_range (-3) 3)) (map Int64.of_int (int_range 0 2))) );
    ]

(* ------------------------------------------------------------------ *)
(* The model *)

type m_md = {
  md_id : int;
  data : bytes; (* the region's logical bytes as the model sees them *)
  known : bool array; (* a reservation's bytes are unspecified until written *)
  md_opts : Md.options;
  mutable thresh : int option;
  md_unlink : bool;
  mutable loc : int;
  read_real : unit -> bytes; (* the real region's logical bytes *)
  md_h : Handle.md;
}

type m_me = {
  me_id : int;
  me_h : Handle.me;
  pt : int;
  crit : criteria;
  mutable m_bits : int64;
  mutable mds : m_md list; (* first considered only *)
}

type model = {
  lists : m_me list array; (* per portal, head first *)
  mutable all : m_me list; (* live entries, oldest first: step indices *)
}

let active md = match md.thresh with None -> true | Some n -> n > 0

(* §4.4, Fig. 4: does [md] accept the request, and where? *)
let accepts md ~op ~rlength ~roffset =
  let len = Bytes.length md.data in
  let enabled =
    match op with
    | `Put -> md.md_opts.Md.op_put
    | `Get -> md.md_opts.Md.op_get
    | `Atomic -> md.md_opts.Md.op_put && md.md_opts.Md.op_get
  in
  if not (active md && enabled) then None
  else begin
    let offset = if md.md_opts.Md.manage_remote then roffset else md.loc in
    if offset + rlength <= len then Some (offset, rlength)
    else if op = `Atomic || not md.md_opts.Md.truncate then None
    else if offset >= len then Some (len, 0)
    else Some (offset, len - offset)
  end

let criteria_match e (src : Simnet.Proc_id.t) mbits =
  let comp c v = match c with Match_id.Any -> true | Match_id.Id x -> x = v in
  comp e.crit.c_nid src.Simnet.Proc_id.nid
  && comp e.crit.c_pid src.Simnet.Proc_id.pid
  && Int64.equal
       (Int64.logand (Int64.logxor e.m_bits mbits) (Int64.lognot e.crit.c_ignore))
       0L

(* Walk a portal's list; the count includes the entry that matched. *)
let translate m ~portal ~src ~mbits ~op ~rlength ~roffset =
  let rec go n = function
    | [] -> (n, None)
    | e :: rest ->
      let n = n + 1 in
      if not (criteria_match e src mbits) then go n rest
      else begin
        match e.mds with
        | [] -> go n rest
        | md :: _ ->
          (match accepts md ~op ~rlength ~roffset with
          | None -> go n rest
          | Some (offset, mlength) -> (n, Some (e, md, offset, mlength)))
      end
  in
  go 0 m.lists.(portal)

let remove_entry m e =
  m.lists.(e.pt) <- List.filter (fun x -> x != e) m.lists.(e.pt);
  m.all <- List.filter (fun x -> x != e) m.all

(* Consume a threshold; an exhausted unlink-policy MD leaves its entry,
   and an emptied unlink-policy entry leaves its list. *)
let consume m e md ~offset ~mlength =
  (match md.thresh with Some n when n > 0 -> md.thresh <- Some (n - 1) | _ -> ());
  if not md.md_opts.Md.manage_remote then md.loc <- offset + mlength;
  if (not (active md)) && md.md_unlink then begin
    e.mds <- List.filter (fun x -> x != md) e.mds;
    if e.mds = [] && e.crit.c_unlink then remove_entry m e
  end

let acl_ok ~cookie ~src ~portal =
  if cookie = 0 || cookie = 1 then true
  else
    match List.assoc_opt cookie acl_entries with
    | None -> false
    | Some a ->
      Match_id.matches a.Acl.allowed_id src
      && (match a.Acl.allowed_portal with None -> true | Some p -> p = portal)

(* ------------------------------------------------------------------ *)
(* The system under test, driven in lockstep *)

type env = {
  sched : Scheduler.t;
  ni : Ni.t;
  inis : Ni.t array;
  ini_eqs : Handle.eq array;
  eqh : Handle.eq;
  m : model;
  mutable next_id : int;
}

let ok ~what = function
  | Ok v -> v
  | Error e -> failwith (what ^ ": " ^ Errors.to_string e)

let setup () =
  let sched = Scheduler.create () in
  let fabric =
    Simnet.Fabric.create sched ~profile:Simnet.Profile.myrinet_mcp ~nodes:3
  in
  let tp = Simnet.Transport.offload fabric in
  let ni = Ni.create tp ~id:target () in
  List.iter (fun (i, e) -> ok ~what:"acl" (Acl.set (Ni.acl ni) i e)) acl_entries;
  let inis = Array.map (fun id -> Ni.create tp ~id ()) initiators in
  {
    sched;
    ni;
    inis;
    ini_eqs = Array.map (fun n -> ok ~what:"eq" (Ni.eq_alloc n ~capacity:256)) inis;
    eqh = ok ~what:"eq" (Ni.eq_alloc ni ~capacity:1024);
    m = { lists = Array.make portals []; all = [] };
    next_id = 0;
  }

let fresh env =
  let id = env.next_id in
  env.next_id <- id + 1;
  id

let pattern id len = Bytes.init len (fun i -> Char.chr ((id * 37 + i * 11) land 0xFF))

(* Attach a generated MD to [e] on both sides. *)
let attach_md env e g =
  let md_id = fresh env in
  let options =
    { Md.op_put = g.g_put; op_get = g.g_get; manage_remote = g.g_remote;
      truncate = g.g_truncate; ack_disable = g.g_ack_disable }
  in
  let threshold = match g.g_threshold with None -> Md.Infinite | Some n -> Md.Count n in
  let unlink = if g.g_unlink then Md.Unlink else Md.Retain in
  let spec region = { Ni.region; options; threshold; unlink; eq = env.eqh; user_ptr = md_id } in
  let region, data, known, read_real =
    match g.g_region with
    | Flat ->
      let buf = pattern md_id g.g_len in
      (spec (Ni.Flat { buffer = buf; length = None }), Bytes.copy buf, Array.make g.g_len true, fun () -> buf)
    | Iovec segs ->
      (* Each segment starts one byte into its own buffer. *)
      let bufs = List.map (fun l -> (pattern md_id (l + 2), 1, l)) segs in
      let read () =
        Bytes.concat Bytes.empty (List.map (fun (b, o, l) -> Bytes.sub b o l) bufs)
      in
      let data = read () in
      (spec (Ni.Iovec bufs), data, Array.make (Bytes.length data) true, read)
    | Reserved ->
      let r = Md.reserve g.g_len in
      ( spec (Ni.Reserved r),
        Bytes.make g.g_len '\000',
        Array.make g.g_len false,
        fun () -> Md.reserved_bytes r )
  in
  let md_h = ok ~what:"md_attach" (Ni.md_attach env.ni ~me:e.me_h region) in
  let md =
    { md_id; data; known; md_opts = options; thresh = g.g_threshold;
      md_unlink = g.g_unlink; loc = 0; read_real; md_h }
  in
  e.mds <- e.mds @ [ md ]

let new_entry env ~pt c attach =
  let me_h =
    ok ~what:"me attach"
      (attach ~match_id:(Match_id.make ~nid:c.c_nid ~pid:c.c_pid)
         ~match_bits:(Match_bits.of_int64 c.c_bits)
         ~ignore_bits:(Match_bits.of_int64 c.c_ignore)
         ~unlink:(if c.c_unlink then Md.Unlink else Md.Retain))
  in
  let e = { me_id = fresh env; me_h; pt; crit = c; m_bits = c.c_bits; mds = [] } in
  env.m.all <- env.m.all @ [ e ];
  e

let nth env i =
  match env.m.all with [] -> None | l -> Some (List.nth l (i mod List.length l))

let insert_rel l ~base ~after e =
  List.concat_map
    (fun x -> if x != base then [ x ] else if after then [ x; e ] else [ e; x ])
    l

let all_mds env = List.concat_map (fun e -> e.mds) env.m.all

(* Before a get or an atomic reads a reservation, learn the bytes the
   model does not know (they are unspecified, not wrong). *)
let learn md =
  if Array.exists not md.known then begin
    let real = md.read_real () in
    Array.iteri
      (fun i k ->
        if not k then begin
          Bytes.set md.data i (Bytes.get real i);
          md.known.(i) <- true
        end)
      md.known
  end

type expect = {
  x_target : (Event.kind * int * int * int * int * int) option;
      (* kind, initiator nid, offset, mlength, rlength, md *)
  x_initiator : (Event.kind * int) list;
  x_walked : int;
  x_dropped : bool;
  x_reply : bytes option; (* the bytes a get or atomic brings back *)
}

let no_effect = { x_target = None; x_initiator = []; x_walked = 0; x_dropped = true; x_reply = None }

(* Where a remote operation goes before any match-list walk. *)
let admitted r src =
  r.r_portal >= 0 && r.r_portal < portals
  && acl_ok ~cookie:r.r_cookie ~src ~portal:r.r_portal

let event_of ~kind ~src ~offset ~mlength ~rlength md =
  Some (kind, src.Simnet.Proc_id.nid, offset, mlength, rlength, md.md_id)

let model_put env r ~len ~ack ~payload =
  let src = initiators.(r.r_src) in
  let sent = [ (Event.Sent, len) ] in
  if not (admitted r src) then { no_effect with x_initiator = sent }
  else begin
    match
      translate env.m ~portal:r.r_portal ~src ~mbits:r.r_bits ~op:`Put
        ~rlength:len ~roffset:r.r_offset
    with
    | walked, None -> { no_effect with x_initiator = sent; x_walked = walked }
    | walked, Some (e, md, offset, mlength) ->
      Bytes.blit payload 0 md.data offset mlength;
      Array.fill md.known offset mlength true;
      consume env.m e md ~offset ~mlength;
      let acked = ack && not md.md_opts.Md.ack_disable in
      {
        x_target = event_of ~kind:Event.Put ~src ~offset ~mlength ~rlength:len md;
        x_initiator = (if acked then sent @ [ (Event.Ack, mlength) ] else sent);
        x_walked = walked;
        x_dropped = false;
        x_reply = None;
      }
  end

let model_get env r ~len =
  let src = initiators.(r.r_src) in
  if not (admitted r src) then no_effect
  else begin
    match
      translate env.m ~portal:r.r_portal ~src ~mbits:r.r_bits ~op:`Get
        ~rlength:len ~roffset:r.r_offset
    with
    | walked, None -> { no_effect with x_walked = walked }
    | walked, Some (e, md, offset, mlength) ->
      learn md;
      let reply = Bytes.sub md.data offset mlength in
      consume env.m e md ~offset ~mlength;
      {
        x_target = event_of ~kind:Event.Get ~src ~offset ~mlength ~rlength:len md;
        x_initiator = [ (Event.Reply, mlength) ];
        x_walked = walked;
        x_dropped = false;
        x_reply = Some reply;
      }
  end

let model_atomic env r ~aop ~operand ~compare =
  let src = initiators.(r.r_src) in
  let w = Wire.atomic_word_size in
  if not (admitted r src) then no_effect
  else if r.r_offset mod w <> 0 then no_effect
  else begin
    match
      translate env.m ~portal:r.r_portal ~src ~mbits:r.r_bits ~op:`Atomic
        ~rlength:w ~roffset:r.r_offset
    with
    | walked, None -> { no_effect with x_walked = walked }
    | walked, Some (e, md, offset, mlength) ->
      learn md;
      let old = Bytes.get_int64_le md.data offset in
      let next =
        match aop with
        | Wire.Fetch_add -> Int64.add old operand
        | Wire.Swap -> operand
        | Wire.Cas -> if Int64.equal old compare then operand else old
      in
      Bytes.set_int64_le md.data offset next;
      consume env.m e md ~offset ~mlength;
      let reply = Bytes.create w in
      Bytes.set_int64_le reply 0 old;
      {
        x_target = event_of ~kind:Event.Atomic ~src ~offset ~mlength ~rlength:w md;
        x_initiator = [ (Event.Reply, w) ];
        x_walked = walked;
        x_dropped = false;
        x_reply = Some reply;
      }
  end

let drain ni eqh =
  let q = ok ~what:"eq" (Ni.eq ni eqh) in
  let rec go acc = match Event.Queue.get q with None -> List.rev acc | Some e -> go (e :: acc) in
  go []

let fail fmt = Printf.ksprintf failwith fmt

(* Run one remote operation on the real NIs and compare with [x]. *)
let check_remote env r ~ini_md ~ini_buf x run =
  let before_walked = (Ni.counters env.ni).Ni.entries_walked in
  let before_dropped = Ni.dropped_total env.ni in
  ok ~what:"initiate" (run env.inis.(r.r_src) ini_md);
  Scheduler.run env.sched;
  let walked = (Ni.counters env.ni).Ni.entries_walked - before_walked in
  if walked <> x.x_walked then fail "entries_walked %d, model %d" walked x.x_walked;
  let dropped = Ni.dropped_total env.ni - before_dropped in
  if dropped <> if x.x_dropped then 1 else 0 then
    fail "drops %d, model %b" dropped x.x_dropped;
  let target_events =
    List.map
      (fun (ev : Event.t) ->
        ( ev.Event.kind, ev.Event.initiator.Simnet.Proc_id.nid, ev.Event.offset,
          ev.Event.mlength, ev.Event.rlength, ev.Event.md_user_ptr ))
      (drain env.ni env.eqh)
  in
  let show (k, n, o, ml, rl, md) =
    Printf.sprintf "%s from %d off=%d mlen=%d rlen=%d md=%d" (Event.kind_to_string k) n o ml rl md
  in
  if target_events <> Option.to_list x.x_target then
    fail "target events [%s], model [%s]"
      (String.concat "; " (List.map show target_events))
      (String.concat "; " (List.map show (Option.to_list x.x_target)));
  let ini_events =
    List.map (fun (ev : Event.t) -> (ev.Event.kind, ev.Event.mlength))
      (drain env.inis.(r.r_src) env.ini_eqs.(r.r_src))
  in
  if ini_events <> x.x_initiator then
    fail "initiator events [%s], model [%s]"
      (String.concat "; "
         (List.map (fun (k, l) -> Printf.sprintf "%s %d" (Event.kind_to_string k) l) ini_events))
      (String.concat "; "
         (List.map (fun (k, l) -> Printf.sprintf "%s %d" (Event.kind_to_string k) l) x.x_initiator));
  match x.x_reply with
  | None -> ()
  | Some reply ->
    let got = Bytes.sub ini_buf 0 (Bytes.length reply) in
    if not (Bytes.equal got reply) then fail "reply bytes differ"

let bind_initiator env r len =
  let ini = env.inis.(r.r_src) in
  let buf = pattern (fresh env) len in
  let h =
    ok ~what:"md_bind" (Ni.md_bind ini (Ni.md_spec ~eq:env.ini_eqs.(r.r_src) buf))
  in
  (h, buf)

let op_of r =
  Ni.op ~target ~portal_index:r.r_portal ~cookie:r.r_cookie
    ~match_bits:(Match_bits.of_int64 r.r_bits) ~offset:r.r_offset ()

let apply env step =
  let m = env.m in
  let with_md e = function None -> () | Some g -> attach_md env e g in
  match step with
  | Attach (pt, pos, c, g) ->
    let e =
      new_entry env ~pt c (fun ~match_id ~match_bits ~ignore_bits ~unlink ->
          Ni.me_attach env.ni ~portal_index:pt ~match_id ~match_bits
            ~ignore_bits ~unlink ~pos ())
    in
    m.lists.(pt) <- (if pos = `Head then e :: m.lists.(pt) else m.lists.(pt) @ [ e ]);
    with_md e g
  | Insert (i, pos, c, g) ->
    (match nth env i with
    | None -> ()
    | Some base ->
      let e =
        new_entry env ~pt:base.pt c (fun ~match_id ~match_bits ~ignore_bits ~unlink ->
            Ni.me_insert env.ni ~base:base.me_h ~match_id ~match_bits
              ~ignore_bits ~unlink ~pos ())
      in
      m.lists.(base.pt) <- insert_rel m.lists.(base.pt) ~base ~after:(pos = `After) e;
      with_md e g)
  | Md_attach (i, g) -> Option.iter (fun e -> attach_md env e g) (nth env i)
  | Unlink i ->
    Option.iter
      (fun e ->
        ok ~what:"me_unlink" (Ni.me_unlink env.ni e.me_h);
        remove_entry m e)
      (nth env i)
  | Retarget (i, bits) ->
    Option.iter
      (fun e ->
        ok ~what:"me_retarget"
          (Ni.me_retarget env.ni e.me_h ~match_bits:(Match_bits.of_int64 bits));
        e.m_bits <- bits;
        List.iter (fun md -> md.loc <- 0) e.mds;
        m.lists.(e.pt) <- List.filter (fun x -> x != e) m.lists.(e.pt) @ [ e ])
      (nth env i)
  | Put (r, md_len, put_len, ack) ->
    let ini_md, ini_buf = bind_initiator env r md_len in
    let len = Option.value put_len ~default:md_len in
    let x = model_put env r ~len ~ack ~payload:ini_buf in
    check_remote env r ~ini_md ~ini_buf x (fun ni md ->
        Ni.put ni ~md ~ack ?length:put_len (op_of r))
  | Get (r, len) ->
    let ini_md, ini_buf = bind_initiator env r len in
    let x = model_get env r ~len in
    check_remote env r ~ini_md ~ini_buf x (fun ni md -> Ni.get ni ~md (op_of r))
  | Atomic (r, aop, operand, compare) ->
    let ini_md, ini_buf = bind_initiator env r Wire.atomic_word_size in
    let x = model_atomic env r ~aop ~operand ~compare in
    check_remote env r ~ini_md ~ini_buf x (fun ni md ->
        Ni.atomic ni ~md ~aop ~operand ~compare (op_of r))

(* After every step: every target MD holds the model's bytes (where the
   model knows them), and the NI holds exactly the model's objects. *)
let check_state env =
  List.iter
    (fun md ->
      let real = md.read_real () in
      Array.iteri
        (fun i k ->
          if k && Bytes.get real i <> Bytes.get md.data i then
            fail "md %d byte %d differs" md.md_id i)
        md.known)
    (all_mds env);
  let r = Ni.resources env.ni in
  let mes = List.length env.m.all and mds = List.length (all_mds env) in
  if r.Ni.live_mes <> mes || r.Ni.live_mds <> mds || r.Ni.live_eqs <> 1
     || r.Ni.live_cts <> 0
  then
    fail "resources mes=%d mds=%d eqs=%d cts=%d, model mes=%d mds=%d"
      r.Ni.live_mes r.Ni.live_mds r.Ni.live_eqs r.Ni.live_cts mes mds

let run_oracle steps =
  let env = setup () in
  List.iteri
    (fun i step ->
      try
        apply env step;
        check_state env
      with Failure msg -> fail "step %d (%s): %s" i (pp_step step) msg)
    steps;
  true

let oracle_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"the NI's translation path agrees with a list model"
         ~count:300 ~long_factor:30
         (QCheck.make gen_steps ~shrink:QCheck.Shrink.list
            ~print:(fun steps -> String.concat "\n" (List.map pp_step steps)))
         run_oracle);
  ]

let () = Alcotest.run "ni_oracle" [ ("translation", oracle_tests) ]
