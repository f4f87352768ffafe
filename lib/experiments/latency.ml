open Sim_engine
module P = Portals

type row = { placement : string; rtt_us : float; one_way_us : float }

let pt_bench = 8

(* Catch-all target structures: every incoming put lands in [buffer] and
   logs to a fresh EQ. *)
let attach_echo ni buffer =
  let eqh = P.Errors.ok_exn ~op:"eq" (P.Ni.eq_alloc ni ~capacity:128) in
  let eqq = P.Errors.ok_exn ~op:"eq" (P.Ni.eq ni eqh) in
  let meh =
    P.Errors.ok_exn ~op:"me"
      (P.Ni.me_attach ni ~portal_index:pt_bench ~match_id:P.Match_id.any
         ~match_bits:P.Match_bits.zero ~ignore_bits:P.Match_bits.all_ones ())
  in
  let options =
    { P.Md.default_options with P.Md.truncate = true; ack_disable = true }
  in
  let _mdh =
    P.Errors.ok_exn ~op:"md"
      (P.Ni.md_attach ni ~me:meh
         (P.Ni.md_spec ~options ~threshold:P.Md.Infinite ~eq:eqh buffer))
  in
  eqq

let send ni ~target payload =
  let mdh =
    P.Errors.ok_exn ~op:"bind"
      (P.Ni.md_bind ni
         (P.Ni.md_spec
            ~options:{ P.Md.default_options with P.Md.ack_disable = true }
            ~threshold:(P.Md.Count 1) ~unlink:P.Md.Unlink payload))
  in
  P.Errors.ok_exn ~op:"put"
    (P.Ni.put ni ~md:mdh ~ack:false (P.Ni.op ~target ~portal_index:pt_bench ()))

let run_one ?scenario ?profile ?label ?(message_size = 0) ?(iterations = 50)
    transport =
  let world = Runtime.create_world ?scenario ?profile ~transport ~nodes:2 () in
  let ni rank =
    P.Ni.create (Runtime.transport_of_rank world rank)
      ~id:world.Runtime.ranks.(rank) ()
  in
  let ni0 = ni 0 and ni1 = ni 1 in
  let eq0 = attach_echo ni0 (Bytes.create (max message_size 8)) in
  let eq1 = attach_echo ni1 (Bytes.create (max message_size 8)) in
  let payload = Bytes.create message_size in
  (* The measurement lives in the pinger's registry next to the fabric's
     own instruments; the row is read back out of the snapshot. *)
  let sched0 = Runtime.sched_of_rank world 0 in
  let registry = Scheduler.metrics sched0 in
  let rtt = Metrics.summary registry "latency.rtt_us" in
  Scheduler.spawn sched0 ~name:"pinger" (fun () ->
      (* One warmup round trip, then the measured ones. *)
      for i = 0 to iterations do
        let start = Scheduler.now sched0 in
        send ni0 ~target:world.Runtime.ranks.(1) payload;
        let _ev = P.Event.Queue.wait eq0 in
        if i > 0 then
          Metrics.observe rtt
            (Time_ns.to_us (Time_ns.sub (Scheduler.now sched0) start))
      done);
  Scheduler.spawn (Runtime.sched_of_rank world 1) ~name:"ponger" (fun () ->
      for _ = 0 to iterations do
        let _ev = P.Event.Queue.wait eq1 in
        send ni1 ~target:world.Runtime.ranks.(0) payload
      done);
  Runtime.run world;
  let mean =
    match Metrics.Snapshot.find (Metrics.snapshot registry) "latency.rtt_us" with
    | Some (Metrics.Snapshot.Summary { mean; _ }) -> mean
    | _ -> 0.
  in
  {
    placement =
      (match label with
      | Some l -> l
      | None -> Runtime.transport_kind_name transport);
    rtt_us = mean;
    one_way_us = mean /. 2.;
  }

let run ?scenario ?message_size ?iterations () =
  let rows =
    List.map
      (fun transport -> run_one ?scenario ?message_size ?iterations transport)
      [ Runtime.Offload; Runtime.Kernel_interrupt; Runtime.Rtscts ]
    @ [
        run_one ?scenario ?message_size ?iterations
          ~profile:Simnet.Profile.asci_red_puma ~label:"puma/asci-red"
          Runtime.Kernel_interrupt;
        run_one ?scenario ?message_size ?iterations
          ~profile:Simnet.Profile.tcp_reference ~label:"tcp-reference"
          Runtime.Rtscts;
      ]
  in
  List.sort (fun a b -> compare a.rtt_us b.rtt_us) rows

let pp ppf rows =
  Format.fprintf ppf "Zero-length ping-pong latency:@.";
  Format.fprintf ppf "%-20s %-12s %-12s@." "placement" "rtt(us)" "half-rtt(us)";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-20s %-12.2f %-12.2f@." r.placement r.rtt_us
        r.one_way_us)
    rows
