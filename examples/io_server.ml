(* Multiple protocols sharing one interface (section 2: "Portals ... had
   to support not only application message passing, but also I/O
   protocols to a remote filesystem, and protocols between the components
   of the parallel runtime environment").

   Node 0 runs a file server speaking its own protocol on two dedicated
   portal table entries: clients *get* file blocks straight out of the
   server's buffer cache (one-sided reads the server process never sees),
   and *put* write requests into a slab the server drains. Meanwhile the
   same client processes run an MPI computation — over the very same
   network interface, on the MPI portal entries. The portal table keeps
   the protocols apart.

     dune exec examples/io_server.exe *)

open Sim_engine
module P = Portals
module MP = Mpi.Mpi_portals

let pt_file_read = 20 (* block cache exposed for one-sided gets *)
let pt_file_write = 21 (* write requests, server-drained *)
let block_size = 4096
let blocks = 16

let ok what = P.Errors.ok_exn ~op:what

(* --- client-side file protocol over an existing Portals NI ---------- *)

let file_read ni eqh eqq ~server ~block =
  let buffer = Bytes.create block_size in
  let mdh =
    ok "read md"
      (P.Ni.md_bind ni
         (P.Ni.md_spec ~threshold:(P.Md.Count 1) ~unlink:P.Md.Unlink ~eq:eqh
            buffer))
  in
  ok "read get"
    (P.Ni.get ni ~md:mdh
       (P.Ni.op ~target:server ~portal_index:pt_file_read
          ~match_bits:(P.Match_bits.of_int block) ()));
  let rec await () =
    let ev = P.Event.Queue.wait eqq in
    match ev.P.Event.kind with
    | P.Event.Reply -> buffer
    | P.Event.Sent | P.Event.Ack | P.Event.Put | P.Event.Get
    | P.Event.Atomic | P.Event.Triggered -> await ()
  in
  await ()

let file_write ni eqh eqq ~server ~block data =
  let bits = P.Match_bits.field ~shift:32 ~width:16 block in
  let mdh =
    ok "write md"
      (P.Ni.md_bind ni
         (P.Ni.md_spec ~threshold:(P.Md.Count 2) ~unlink:P.Md.Unlink ~eq:eqh
            data))
  in
  ok "write put"
    (P.Ni.put ni ~md:mdh ~ack:true
       (P.Ni.op ~target:server ~portal_index:pt_file_write ~match_bits:bits ()));
  (* Wait for the acknowledgment: the request is in the server's intake. *)
  let rec await () =
    let ev = P.Event.Queue.wait eqq in
    match ev.P.Event.kind with
    | P.Event.Ack -> ()
    | P.Event.Sent | P.Event.Reply | P.Event.Put | P.Event.Get
    | P.Event.Atomic | P.Event.Triggered -> await ()
  in
  await ()

let () =
  let clients = 3 in
  let world = Runtime.create_world ~nodes:(1 + clients) () in
  let sched = world.Runtime.sched in
  let server_id = world.Runtime.ranks.(0) in

  (* ---- server structures ------------------------------------------- *)
  let server_ni = P.Ni.create world.Runtime.transport ~id:server_id () in
  let cache =
    Array.init blocks (fun b ->
        let data = Bytes.make block_size (Char.chr (65 + (b mod 26))) in
        let me =
          ok "cache me"
            (P.Ni.me_attach server_ni ~portal_index:pt_file_read
               ~match_id:P.Match_id.any
               ~match_bits:(P.Match_bits.of_int b)
               ~ignore_bits:P.Match_bits.zero ())
        in
        let _ =
          ok "cache md"
            (P.Ni.md_attach server_ni ~me
               (P.Ni.md_spec
                  ~options:
                    {
                      P.Md.op_put = false;
                      op_get = true;
                      manage_remote = true;
                      truncate = false;
                      ack_disable = true;
                    }
                  data))
        in
        data)
  in
  let write_eqh = ok "weq" (P.Ni.eq_alloc server_ni ~capacity:256) in
  let write_eq = ok "weq" (P.Ni.eq server_ni write_eqh) in
  let write_me =
    ok "write me"
      (P.Ni.me_attach server_ni ~portal_index:pt_file_write
         ~match_id:P.Match_id.any ~match_bits:P.Match_bits.zero
         ~ignore_bits:P.Match_bits.all_ones ())
  in
  let write_slab = Bytes.create (64 * 1024) in
  let _ =
    ok "write slab md"
      (P.Ni.md_attach server_ni ~me:write_me
         (P.Ni.md_spec
            ~options:
              {
                P.Md.op_put = true;
                op_get = false;
                manage_remote = false;
                truncate = false;
                ack_disable = false;
              }
            ~eq:write_eqh write_slab))
  in
  let writes_applied = ref 0 in
  let expected_writes = clients in
  Scheduler.spawn sched ~name:"file-server" (fun () ->
      while !writes_applied < expected_writes do
        let ev = P.Event.Queue.wait write_eq in
        (* Apply the write: the block number travels in the match bits. *)
        let block =
          P.Match_bits.extract ~shift:32 ~width:16 ev.P.Event.match_bits
        in
        Bytes.blit write_slab ev.P.Event.offset cache.(block) 0 ev.P.Event.mlength;
        incr writes_applied
      done);

  (* ---- clients: MPI job + file I/O on one interface each ----------- *)
  let client_ranks = Array.sub world.Runtime.ranks 1 clients in
  let endpoints =
    Array.init clients (fun rank ->
        MP.create world.Runtime.transport ~ranks:client_ranks ~rank ())
  in
  let reads_ok = ref 0 and readbacks_ok = ref 0 and mpi_sum = ref 0 in
  Array.iteri
    (fun c ep ->
      Scheduler.spawn sched ~name:(Printf.sprintf "client%d" c) (fun () ->
          (* The file protocol runs on the SAME interface as MPI, on its
             own portal entries. *)
          let ni = MP.ni ep in
          let eqh = ok "client eq" (P.Ni.eq_alloc ni ~capacity:64) in
          let eqq = ok "client eq" (P.Ni.eq ni eqh) in
          (* 1. Read a block one-sidedly and verify the cache contents. *)
          let my_block = c * 2 in
          let data = file_read ni eqh eqq ~server:server_id ~block:my_block in
          if Bytes.get data 0 = Char.chr (65 + (my_block mod 26)) then
            incr reads_ok;
          (* 2. MPI among the clients, interleaved with the I/O. *)
          if c <> 0 then
            ignore (Mpi.wait ep (Mpi.isend ep ~dst:0 ~tag:5 (Bytes.make 1 (Char.chr c))))
          else
            for _ = 1 to clients - 1 do
              let b = Bytes.create 1 in
              ignore (Mpi.wait ep (Mpi.irecv ep ~tag:5 b));
              mpi_sum := !mpi_sum + Char.code (Bytes.get b 0)
            done;
          (* 3. Write a block, then read it back. *)
          let target_block = blocks - 1 - c in
          file_write ni eqh eqq ~server:server_id ~block:target_block
            (Bytes.make block_size (Char.chr (97 + c)));
          (* Give the server fiber a moment to apply the intake. *)
          Scheduler.delay sched (Time_ns.ms 1.0);
          let back = file_read ni eqh eqq ~server:server_id ~block:target_block in
          if Bytes.get back 100 = Char.chr (97 + c) then incr readbacks_ok))
    endpoints;
  Runtime.run world;
  Format.printf "io_server: %d clients against one file server@." clients;
  Format.printf "one-sided block reads verified: %d/%d@." !reads_ok clients;
  Format.printf "MPI traffic alongside I/O: sum of client ids = %d (expect %d)@."
    !mpi_sum
    (clients * (clients - 1) / 2);
  Format.printf "writes applied by server: %d, readbacks verified: %d/%d@."
    !writes_applied !readbacks_ok clients;
  Format.printf "server host CPU stolen: %a@." Time_ns.pp
    (Cpu.stolen_total (Runtime.host_cpu_of_rank world 0));
  if !reads_ok = clients && !readbacks_ok = clients then
    Format.printf "verified: two protocols coexist on one interface@."
  else begin
    Format.printf "FAILED@.";
    exit 1
  end
