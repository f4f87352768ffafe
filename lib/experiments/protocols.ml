open Sim_engine
module P = Portals

type entry = {
  time_us : float;
  side : [ `Initiator | `Target ];
  kind : string;
  mlength : int;
}

type timeline = { figure : int; operation : string; entries : entry list }

let pt_bench = 9

let setup ?scenario ?(transport = Runtime.Offload) () =
  let world = Runtime.create_world ?scenario ~transport ~nodes:2 () in
  let ni rank =
    P.Ni.create (Runtime.transport_of_rank world rank)
      ~id:world.Runtime.ranks.(rank) ()
  in
  (world, ni 0, ni 1)

let attach_target ni buffer =
  let eqh = P.Errors.ok_exn ~op:"eq" (P.Ni.eq_alloc ni ~capacity:16) in
  let meh =
    P.Errors.ok_exn ~op:"me"
      (P.Ni.me_attach ni ~portal_index:pt_bench ~match_id:P.Match_id.any
         ~match_bits:P.Match_bits.zero ~ignore_bits:P.Match_bits.all_ones ())
  in
  let _ =
    P.Errors.ok_exn ~op:"md"
      (P.Ni.md_attach ni ~me:meh
         (P.Ni.md_spec ~threshold:P.Md.Infinite ~eq:eqh buffer))
  in
  P.Errors.ok_exn ~op:"eq resolve" (P.Ni.eq ni eqh)

let collect entries side eqq =
  let rec go () =
    match P.Event.Queue.get eqq with
    | None -> ()
    | Some ev ->
      entries :=
        {
          time_us = Time_ns.to_us ev.P.Event.time;
          side;
          kind = P.Event.kind_to_string ev.P.Event.kind;
          mlength = ev.P.Event.mlength;
        }
        :: !entries;
      go ()
  in
  go ()

let finish entries =
  List.sort (fun a b -> compare (a.time_us, a.kind) (b.time_us, b.kind)) !entries

let run_put ?scenario ?(message_size = 4096) ?transport () =
  let world, ni0, ni1 = setup ?scenario ?transport () in
  let target_eq = attach_target ni1 (Bytes.create message_size) in
  let ieqh = P.Errors.ok_exn ~op:"eq" (P.Ni.eq_alloc ni0 ~capacity:16) in
  let ieqq = P.Errors.ok_exn ~op:"eq" (P.Ni.eq ni0 ieqh) in
  let mdh =
    P.Errors.ok_exn ~op:"bind"
      (P.Ni.md_bind ni0
         (P.Ni.md_spec ~threshold:(P.Md.Count 2) ~unlink:P.Md.Unlink ~eq:ieqh
            (Bytes.create message_size)))
  in
  P.Errors.ok_exn ~op:"put"
    (P.Ni.put ni0 ~md:mdh ~ack:true
       (P.Ni.op ~target:world.Runtime.ranks.(1) ~portal_index:pt_bench ()));
  Runtime.run world;
  let entries = ref [] in
  collect entries `Initiator ieqq;
  collect entries `Target target_eq;
  { figure = 1; operation = "put (send)"; entries = finish entries }

let run_get ?scenario ?(message_size = 4096) ?transport () =
  let world, ni0, ni1 = setup ?scenario ?transport () in
  let target_eq = attach_target ni1 (Bytes.create message_size) in
  let ieqh = P.Errors.ok_exn ~op:"eq" (P.Ni.eq_alloc ni0 ~capacity:16) in
  let ieqq = P.Errors.ok_exn ~op:"eq" (P.Ni.eq ni0 ieqh) in
  let mdh =
    P.Errors.ok_exn ~op:"bind"
      (P.Ni.md_bind ni0
         (P.Ni.md_spec ~threshold:(P.Md.Count 1) ~unlink:P.Md.Unlink ~eq:ieqh
            (Bytes.create message_size)))
  in
  P.Errors.ok_exn ~op:"get"
    (P.Ni.get ni0 ~md:mdh
       (P.Ni.op ~target:world.Runtime.ranks.(1) ~portal_index:pt_bench ()));
  Runtime.run world;
  let entries = ref [] in
  collect entries `Initiator ieqq;
  collect entries `Target target_eq;
  { figure = 2; operation = "get"; entries = finish entries }

let pp ppf t =
  Format.fprintf ppf "Figure %d: Portal %s protocol@." t.figure t.operation;
  List.iter
    (fun e ->
      Format.fprintf ppf "  t=%-10.2fus %-10s %-6s mlength=%d@." e.time_us
        (match e.side with `Initiator -> "initiator" | `Target -> "target")
        e.kind e.mlength)
    t.entries
