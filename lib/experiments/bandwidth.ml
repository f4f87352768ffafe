open Sim_engine
module P = Portals

type row = { size : int; mb_per_s : float }

type t = { placement : string; rows : row list }

let default_sizes = [ 1_024; 4_096; 16_384; 65_536; 262_144; 1_048_576 ]

let pt_bench = 8

let measure ~scenario ~transport ~size ~count =
  let world = Runtime.create_world ~scenario ~transport ~nodes:2 () in
  let ni rank =
    P.Ni.create (Runtime.transport_of_rank world rank)
      ~id:world.Runtime.ranks.(rank) ()
  in
  let ni0 = ni 0 and ni1 = ni 1 in
  let sched1 = Runtime.sched_of_rank world 1 in
  let eqh = P.Errors.ok_exn ~op:"eq" (P.Ni.eq_alloc ni1 ~capacity:(count * 2)) in
  let eqq = P.Errors.ok_exn ~op:"eq" (P.Ni.eq ni1 eqh) in
  let meh =
    P.Errors.ok_exn ~op:"me"
      (P.Ni.me_attach ni1 ~portal_index:pt_bench ~match_id:P.Match_id.any
         ~match_bits:P.Match_bits.zero ~ignore_bits:P.Match_bits.all_ones ())
  in
  let _ =
    P.Errors.ok_exn ~op:"md"
      (P.Ni.md_attach ni1 ~me:meh
         (P.Ni.md_spec
            ~options:{ P.Md.default_options with P.Md.ack_disable = true }
            ~threshold:P.Md.Infinite ~eq:eqh (Bytes.create size)))
  in
  let finished = ref Time_ns.zero in
  Scheduler.spawn sched1 ~name:"sink" (fun () ->
      for _ = 1 to count do
        ignore (P.Event.Queue.wait eqq)
      done;
      finished := Scheduler.now sched1);
  Scheduler.spawn (Runtime.sched_of_rank world 0) ~name:"source" (fun () ->
      let payload = Bytes.create size in
      for _ = 1 to count do
        let mdh =
          P.Errors.ok_exn ~op:"bind"
            (P.Ni.md_bind ni0
               (P.Ni.md_spec
                  ~options:{ P.Md.default_options with P.Md.ack_disable = true }
                  ~threshold:(P.Md.Count 1) ~unlink:P.Md.Unlink payload))
        in
        P.Errors.ok_exn ~op:"put"
          (P.Ni.put ni0 ~md:mdh ~ack:false
             (P.Ni.op ~target:world.Runtime.ranks.(1) ~portal_index:pt_bench ()))
      done);
  Runtime.run world;
  (* Read the byte count off the sink NI's registry probe rather than
     recomputing size * count: the curve reflects what actually landed. *)
  let snap = Metrics.snapshot (Scheduler.metrics sched1) in
  let sink = Format.asprintf "%a" Simnet.Proc_id.pp world.Runtime.ranks.(1) in
  let bytes =
    match Metrics.Snapshot.find snap ~labels:[ ("proc", sink) ] "ni.rx_bytes" with
    | Some (Metrics.Snapshot.Gauge b) -> b
    | _ -> 0.
  in
  let elapsed = Time_ns.to_s !finished in
  if elapsed <= 0. then 0. else bytes /. elapsed /. 1e6

let run_one ?(scenario = Runtime.Scenario.default) ?(sizes = default_sizes)
    ?(count = 16) transport =
  {
    placement = Runtime.transport_kind_name transport;
    rows =
      List.map
        (fun size ->
          { size; mb_per_s = measure ~scenario ~transport ~size ~count })
        sizes;
  }

let run ?scenario ?sizes ?count () =
  List.map (fun transport -> run_one ?scenario ?sizes ?count transport)
    [ Runtime.Offload; Runtime.Rtscts ]

let pp ppf ts =
  Format.fprintf ppf "Streaming bandwidth (MB/s) vs message size:@.";
  Format.fprintf ppf "%-12s" "size(B)";
  List.iter (fun t -> Format.fprintf ppf "%-18s" t.placement) ts;
  Format.fprintf ppf "@.";
  match ts with
  | [] -> ()
  | first :: _ ->
    List.iteri
      (fun i row ->
        Format.fprintf ppf "%-12d" row.size;
        List.iter
          (fun t -> Format.fprintf ppf "%-18.1f" (List.nth t.rows i).mb_per_s)
          ts;
        Format.fprintf ppf "@.")
      first.rows
