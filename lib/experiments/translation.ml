open Sim_engine
module P = Portals

type row = {
  depth : int;
  entries_walked : int;
  nic_walk_us : float;
  host_walk_us : float;
  host_stolen_us : float;
}

let default_depths = [ 0; 1; 8; 64; 512 ]

let pt_bench = 9

(* Attach [depth] entries that match nothing, then one catch-all. *)
let build_list ni ~depth buffer =
  for _ = 1 to depth do
    ignore
      (P.Errors.ok_exn ~op:"decoy me"
         (P.Ni.me_attach ni ~portal_index:pt_bench ~match_id:P.Match_id.any
            ~match_bits:(P.Match_bits.of_int 0x5151)
            ~ignore_bits:P.Match_bits.zero ()))
  done;
  let meh =
    P.Errors.ok_exn ~op:"accepting me"
      (P.Ni.me_attach ni ~portal_index:pt_bench ~match_id:P.Match_id.any
         ~match_bits:P.Match_bits.zero ~ignore_bits:P.Match_bits.all_ones ())
  in
  let eqh = P.Errors.ok_exn ~op:"eq" (P.Ni.eq_alloc ni ~capacity:16) in
  let _ =
    P.Errors.ok_exn ~op:"md"
      (P.Ni.md_attach ni ~me:meh
         (P.Ni.md_spec ~threshold:P.Md.Infinite ~eq:eqh buffer))
  in
  ()

let walk_entries ~scenario ~transport ~depth =
  let world = Runtime.create_world ~scenario ~transport ~nodes:2 () in
  let ni rank =
    P.Ni.create (Runtime.transport_of_rank world rank)
      ~id:world.Runtime.ranks.(rank) ()
  in
  let ni0 = ni 0 and ni1 = ni 1 in
  build_list ni1 ~depth (Bytes.create 64);
  let mdh =
    P.Errors.ok_exn ~op:"bind"
      (P.Ni.md_bind ni0
         (P.Ni.md_spec
            ~options:{ P.Md.default_options with P.Md.ack_disable = true }
            ~threshold:(P.Md.Count 1) ~unlink:P.Md.Unlink (Bytes.create 8)))
  in
  P.Errors.ok_exn ~op:"put"
    (P.Ni.put ni0 ~md:mdh ~ack:false
       (P.Ni.op ~target:world.Runtime.ranks.(1) ~portal_index:pt_bench ()));
  Runtime.run world;
  let counters = P.Ni.counters ni1 in
  let cpu = Runtime.host_cpu_of_rank world 1 in
  (counters.P.Ni.entries_walked, Time_ns.to_us (Cpu.stolen_total cpu))

let run ?(scenario = Runtime.Scenario.default) ?(depths = default_depths) () =
  let nic = Simnet.Profile.myrinet_mcp.Simnet.Profile.nic_match_cost in
  let host = Simnet.Profile.myrinet_kernel.Simnet.Profile.host_match_cost in
  List.map
    (fun depth ->
      let entries_walked, _ =
        walk_entries ~scenario ~transport:Runtime.Offload ~depth
      in
      let _, host_stolen_us =
        walk_entries ~scenario ~transport:Runtime.Kernel_interrupt ~depth
      in
      {
        depth;
        entries_walked;
        nic_walk_us = float_of_int (entries_walked * nic) /. 1000.;
        host_walk_us = float_of_int (entries_walked * host) /. 1000.;
        host_stolen_us;
      })
    depths

let pp ppf rows =
  Format.fprintf ppf
    "Address translation (Figs 3-4): match-list walk cost vs depth:@.";
  Format.fprintf ppf "%-8s %-10s %-14s %-14s %-16s@." "depth" "walked"
    "nic-walk(us)" "host-walk(us)" "host-stolen(us)";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-8d %-10d %-14.3f %-14.3f %-16.3f@." r.depth
        r.entries_walked r.nic_walk_us r.host_walk_us r.host_stolen_us)
    rows
