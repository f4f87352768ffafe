(* Quickstart: the raw Portals 3.0 API on a two-node simulated cluster.

   Walks the paper's core concepts end to end: bring up interfaces, build
   the target-side addressing structures of Figure 3 (portal entry ->
   match entry -> memory descriptor -> event queue), then perform the two
   data movement operations of Figures 1 and 2 — a matching put with an
   acknowledgment and a matching get answered by a reply — while printing
   every completion event.

     dune exec examples/quickstart.exe *)

open Sim_engine
module P = Portals

let pt_index = 12 (* our protocol's portal table entry *)

let show fmt = Format.printf fmt

let ok what = P.Errors.ok_exn ~op:what

let () =
  (* A two-node cluster whose NICs run the Portals processing (the MCP
     placement): no host CPU is involved in any receive below. *)
  let world = Runtime.create_world ~transport:Runtime.Offload ~nodes:2 () in
  let ni rank =
    P.Ni.create (Runtime.transport_of_rank world rank)
      ~id:world.Runtime.ranks.(rank) ()
  in
  let alice = ni 0 and bob = ni 1 in
  show "Interfaces up: alice=%s bob=%s@."
    (Simnet.Proc_id.to_string (P.Ni.id alice))
    (Simnet.Proc_id.to_string (P.Ni.id bob));

  (* --- Bob exposes memory (Figure 3's structures) ------------------- *)
  (* An event queue to learn about operations on his memory... *)
  let bob_eqh = ok "eq_alloc" (P.Ni.eq_alloc bob ~capacity:32) in
  let bob_eq = ok "eq" (P.Ni.eq bob bob_eqh) in
  (* ...a match entry accepting match bits 0xCAFE from anyone... *)
  let bob_me =
    ok "me_attach"
      (P.Ni.me_attach bob ~portal_index:pt_index ~match_id:P.Match_id.any
         ~match_bits:(P.Match_bits.of_int 0xCAFE)
         ~ignore_bits:P.Match_bits.zero ())
  in
  (* ...and a memory descriptor over a real buffer. *)
  let bob_memory = Bytes.make 64 '.' in
  Bytes.blit_string "bob's readable data" 0 bob_memory 32 19;
  let _bob_md =
    ok "md_attach"
      (P.Ni.md_attach bob ~me:bob_me (P.Ni.md_spec ~eq:bob_eqh bob_memory))
  in
  show "Bob exposed 64 bytes at portal %d, match bits 0xCAFE@.@." pt_index;

  (* --- Alice puts into Bob's memory (Figure 1) ---------------------- *)
  let alice_eqh = ok "eq_alloc" (P.Ni.eq_alloc alice ~capacity:32) in
  let alice_eq = ok "eq" (P.Ni.eq alice alice_eqh) in
  let greeting = Bytes.of_string "hello from alice" in
  let put_md =
    ok "md_bind"
      (P.Ni.md_bind alice
         (P.Ni.md_spec ~threshold:(P.Md.Count 2) ~unlink:P.Md.Unlink
            ~eq:alice_eqh greeting))
  in
  Scheduler.spawn (Runtime.sched_of_rank world 0) ~name:"alice" (fun () ->
      ok "put"
        (P.Ni.put alice ~md:put_md ~ack:true
           (P.Ni.op ~target:(P.Ni.id bob) ~portal_index:pt_index
              ~match_bits:(P.Match_bits.of_int 0xCAFE) ~offset:4 ()));
      show "alice: put posted (16 bytes at offset 4)@.";
      (* Local completion: the message left, then Bob acknowledged. *)
      let sent = P.Event.Queue.wait alice_eq in
      show "alice: %a@." P.Event.pp sent;
      let ack = P.Event.Queue.wait alice_eq in
      show "alice: %a@.@." P.Event.pp ack;

      (* --- Alice gets from Bob's memory (Figure 2) ------------------ *)
      let window = Bytes.create 19 in
      let get_md =
        ok "md_bind"
          (P.Ni.md_bind alice
             (P.Ni.md_spec ~threshold:(P.Md.Count 1) ~unlink:P.Md.Unlink
                ~eq:alice_eqh window))
      in
      ok "get"
        (P.Ni.get alice ~md:get_md
           (P.Ni.op ~target:(P.Ni.id bob) ~portal_index:pt_index
              ~match_bits:(P.Match_bits.of_int 0xCAFE) ~offset:32 ()));
      show "alice: get posted (19 bytes from offset 32)@.";
      let reply = P.Event.Queue.wait alice_eq in
      show "alice: %a@." P.Event.pp reply;
      show "alice: fetched %S@." (Bytes.to_string window));

  Scheduler.spawn (Runtime.sched_of_rank world 1) ~name:"bob" (fun () ->
      (* Bob only *observes*: both operations complete without him. This
         is application bypass — remove this fiber entirely and the data
         still moves. *)
      let put_ev = P.Event.Queue.wait bob_eq in
      show "bob:   %a@." P.Event.pp put_ev;
      show "bob:   my memory now reads %S@.@."
        (Bytes.to_string (Bytes.sub bob_memory 0 24));
      let get_ev = P.Event.Queue.wait bob_eq in
      show "bob:   %a@." P.Event.pp get_ev);

  Runtime.run world;
  show "@.Simulated time elapsed: %a@." Time_ns.pp (Runtime.now world);
  show "Host CPU cycles stolen on bob's node: %a (the NIC did all the work)@."
    Time_ns.pp
    (Cpu.stolen_total (Runtime.host_cpu_of_rank world 1))
