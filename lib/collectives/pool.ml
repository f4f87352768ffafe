module P = Portals

(* A slab's memory is a reservation, as in [Mpi_portals]: the NI creates
   it on the first deposit, and re-arming attaches a new MD over the same
   reservation. [create] backs slab 0 only, where every pool's first
   message lands; the overflow slabs cost memory once traffic reaches
   them. *)
type slab = {
  s_idx : int;
  s_memory : P.Md.reservation;
  mutable s_meh : P.Handle.me;
  mutable s_mdh : P.Handle.md;
  mutable s_outstanding : int;
  mutable s_used : int; (* the MD's locally managed offset *)
}

(* An arrived-but-unclaimed message is its deposit event (slab, offset
   and length are all in it), chained in arrival order within its
   bucket. *)
type cell = Nil | Cell of { ev : P.Event.t; mutable next : cell }

type t = {
  pool_ni : P.Ni.t;
  portal_index : int;
  slab_size : int;
  eqh : P.Handle.eq;
  eqq : P.Event.Queue.t;
  slabs : slab array;
  (* Arrived-but-unclaimed messages, hashed by their match bits. [recv]
     claims by exact bits, so a claim walks one bucket and unlinks the
     oldest cell with those bits; appending at the bucket's tail keeps
     arrival order per key. A message costs its one cell. *)
  mutable heads : cell array;
  mutable tails : cell array;
  mutable pending_count : int;
  (* Send-side scratch: one persistent descriptor over [scratch_buf],
     reused by every [send] via a put-region of the payload's length.
     The NI copies payload into the wire image synchronously inside
     [put], so the scratch is free again as soon as the call returns —
     no per-message md_bind/unlink churn, and with no event queue and an
     infinite threshold the NI elides the SENT completion too. It starts
     at [scratch_initial] bytes and doubles, up to [slab_size], when a
     payload does not fit; its descriptor is re-bound then. *)
  mutable scratch_buf : bytes;
  mutable scratch_mdh : P.Handle.md;
  (* The last put-region length handed to [Ni.put], as the option its
     [?length] takes: kept, a run of same-sized sends boxes none. *)
  mutable put_length : int option;
}

exception Eq_overflow of { capacity : int; dropped : int }

let () =
  Printexc.register_printer (function
    | Eq_overflow { capacity; dropped } ->
      Some
        (Printf.sprintf
           "Pool.Eq_overflow: the pool's event queue (capacity %d) dropped %d \
            arrivals; size it from the job"
           capacity dropped)
    | _ -> None)

let ok_exn = P.Errors.ok_exn

let slab_options =
  {
    P.Md.op_put = true;
    op_get = false;
    manage_remote = false;
    truncate = false;
    ack_disable = true;
  }

let attach_slab t slab =
  let meh =
    ok_exn ~op:"pool me_attach"
      (P.Ni.me_attach t.pool_ni ~portal_index:t.portal_index
         ~match_id:P.Match_id.any ~match_bits:P.Match_bits.zero
         ~ignore_bits:P.Match_bits.all_ones ~unlink:P.Md.Retain ~pos:`Tail ())
  in
  let mdh =
    ok_exn ~op:"pool md_attach"
      (P.Ni.md_attach t.pool_ni ~me:meh
         (P.Ni.md_spec_reserved ~options:slab_options ~threshold:P.Md.Infinite
            ~unlink:P.Md.Retain ~eq:t.eqh
            ~user_ptr:(-(slab.s_idx + 1))
            slab.s_memory))
  in
  slab.s_meh <- meh;
  slab.s_mdh <- mdh;
  slab.s_used <- 0

(* Small enough to stay in the minor heap. *)
let scratch_initial = 1024

let bind_scratch ni buf =
  ok_exn ~op:"pool scratch md_bind"
    (P.Ni.md_bind ni
       (P.Ni.md_spec
          ~options:{ P.Md.default_options with P.Md.ack_disable = true }
          ~threshold:P.Md.Infinite ~unlink:P.Md.Retain buf))

let create ni ~portal_index ?(slab_size = 131_072) ?(slab_count = 4)
    ?(eq_capacity = 4096) () =
  let eqh = ok_exn ~op:"pool eq_alloc" (P.Ni.eq_alloc ni ~capacity:eq_capacity) in
  let eqq = ok_exn ~op:"pool eq" (P.Ni.eq ni eqh) in
  let scratch_buf = Bytes.create (min slab_size scratch_initial) in
  let scratch_mdh = bind_scratch ni scratch_buf in
  let t =
    {
      pool_ni = ni;
      portal_index;
      slab_size;
      eqh;
      eqq;
      slabs =
        Array.init slab_count (fun s_idx ->
            {
              s_idx;
              s_memory = P.Md.reserve slab_size;
              s_meh = P.Handle.none;
              s_mdh = P.Handle.none;
              s_outstanding = 0;
              s_used = 0;
            });
      heads = Array.make 32 Nil;
      tails = Array.make 32 Nil;
      pending_count = 0;
      scratch_buf;
      scratch_mdh;
      put_length = None;
    }
  in
  if slab_count > 0 then ignore (P.Md.reserved_bytes t.slabs.(0).s_memory);
  Array.iter (fun slab -> attach_slab t slab) t.slabs;
  t

let ni t = t.pool_ni

let grow_scratch t len =
  let rec double n = if n >= len then n else double (2 * n) in
  let buf = Bytes.create (min t.slab_size (double (2 * Bytes.length t.scratch_buf))) in
  ok_exn ~op:"pool scratch md_unlink" (P.Ni.md_unlink t.pool_ni t.scratch_mdh);
  t.scratch_buf <- buf;
  t.scratch_mdh <- bind_scratch t.pool_ni buf

let send t ~dst ~bits payload =
  let len = Bytes.length payload in
  if len > t.slab_size then
    invalid_arg "Pool.send: payload larger than the pool's slab size";
  if len > Bytes.length t.scratch_buf then grow_scratch t len;
  Bytes.blit payload 0 t.scratch_buf 0 len;
  (match t.put_length with
  | Some l when l = len -> ()
  | Some _ | None -> t.put_length <- Some len);
  ok_exn ~op:"pool put"
    (P.Ni.put t.pool_ni ~md:t.scratch_mdh ~ack:false ?length:t.put_length
       {
         P.Ni.target = dst;
         portal_index = t.portal_index;
         cookie = P.Acl.default_cookie_job;
         match_bits = bits;
         offset = 0;
       })

(* Every event is drained before a claim, so [s_used] is the slab MD's
   local offset by then. *)
let maybe_rearm t slab =
  if slab.s_outstanding = 0 && slab.s_used > t.slab_size / 2 then begin
    ok_exn ~op:"pool rearm" (P.Ni.me_unlink t.pool_ni slab.s_meh);
    attach_slab t slab
  end

let bucket heads bits =
  let h = (P.Match_bits.hi32 bits * 0x9E3779B1) lxor P.Match_bits.lo32 bits in
  let h = h * 0x9E3779B1 in
  (h lxor (h lsr 29)) land (Array.length heads - 1)

let append heads tails i c =
  (match tails.(i) with Nil -> heads.(i) <- c | Cell last -> last.next <- c);
  tails.(i) <- c

(* Double the buckets, moving every cell in bucket order so each key's
   cells keep their arrival order. *)
let grow_buckets t =
  let n = 2 * Array.length t.heads in
  let heads = Array.make n Nil and tails = Array.make n Nil in
  let rec move = function
    | Nil -> ()
    | Cell c as cell ->
      let next = c.next in
      c.next <- Nil;
      append heads tails (bucket heads c.ev.P.Event.match_bits) cell;
      move next
  in
  Array.iter move t.heads;
  t.heads <- heads;
  t.tails <- tails

let dispatch t (ev : P.Event.t) =
  match ev.P.Event.kind with
  (* A TRIGGERED deposit is a put fired by a remote chain — same data
     landing, different provenance. *)
  | (P.Event.Put | P.Event.Triggered) when ev.P.Event.md_user_ptr < 0 ->
    let slab = t.slabs.(-ev.P.Event.md_user_ptr - 1) in
    slab.s_outstanding <- slab.s_outstanding + 1;
    slab.s_used <- ev.P.Event.offset + ev.P.Event.mlength;
    if t.pending_count >= 2 * Array.length t.heads then grow_buckets t;
    append t.heads t.tails (bucket t.heads ev.P.Event.match_bits)
      (Cell { ev; next = Nil });
    t.pending_count <- t.pending_count + 1
  | P.Event.Put | P.Event.Get | P.Event.Atomic | P.Event.Reply | P.Event.Ack
  | P.Event.Sent | P.Event.Triggered -> ()

(* [wait] on a non-empty queue returns at once, without boxing the
   event as [get] does. *)
let rec drain t =
  if P.Event.Queue.count t.eqq > 0 then begin
    dispatch t (P.Event.Queue.wait t.eqq);
    drain t
  end

(* Unlink and return the oldest cell in bucket [i] with [bits]. *)
let rec take t i bits prev = function
  | Nil -> Nil
  | Cell c as cell ->
    if not (P.Match_bits.equal c.ev.P.Event.match_bits bits) then
      take t i bits cell c.next
    else begin
      (match prev with Nil -> t.heads.(i) <- c.next | Cell p -> p.next <- c.next);
      if c.next == Nil then t.tails.(i) <- prev;
      t.pending_count <- t.pending_count - 1;
      cell
    end

let check_overflow t =
  let dropped = P.Event.Queue.dropped t.eqq in
  if dropped > 0 then
    raise (Eq_overflow { capacity = P.Event.Queue.capacity t.eqq; dropped })

let rec recv t ~bits =
  drain t;
  check_overflow t;
  let i = bucket t.heads bits in
  match take t i bits Nil t.heads.(i) with
  | Cell { ev; _ } ->
    let slab = t.slabs.(-ev.P.Event.md_user_ptr - 1) in
    let data =
      Bytes.sub (P.Md.reserved_bytes slab.s_memory) ev.P.Event.offset
        ev.P.Event.mlength
    in
    slab.s_outstanding <- slab.s_outstanding - 1;
    maybe_rearm t slab;
    data
  | Nil ->
    (* Block until something arrives, then go through normal dispatch. *)
    dispatch t (P.Event.Queue.wait t.eqq);
    recv t ~bits

let pending t =
  drain t;
  t.pending_count
