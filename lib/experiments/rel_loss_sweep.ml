open Sim_engine

type mode_result = {
  delivered : int;
  completion_us : float;
  goodput_mbps : float;
  retransmits : int;
  retries_exhausted : int;
}

type row = { loss : float; reliable : mode_result; raw : mode_result }

let default_losses = [ 0.; 0.01; 0.02; 0.05; 0.1 ]

(* One fixed point-to-point stream over a fresh 2-node fabric; the only
   variables are the fault model and whether the reliability protocol is
   shimmed underneath the wire. *)
let stream ?registry ~loss ~seed ~reliable ~msgs ~size () =
  let sched = Scheduler.create () in
  let fabric =
    Simnet.Fabric.create sched ~profile:Simnet.Profile.myrinet_mcp ~nodes:2
  in
  Simnet.Fabric.set_fault_model fabric
    (if loss <= 0. then None
     else Some (Simnet.Fault.bernoulli ~seed ~p:loss ()));
  let rel = if reliable then Some (Reliability.attach fabric) else None in
  let src = Simnet.Proc_id.make ~nid:0 ~pid:0 in
  let dst = Simnet.Proc_id.make ~nid:1 ~pid:0 in
  let delivered = ref 0 and last = ref Time_ns.zero in
  Simnet.Fabric.register fabric dst (fun ~src:_ _payload ->
      incr delivered;
      last := Scheduler.now sched);
  Simnet.Fabric.register fabric src (fun ~src:_ _ -> ());
  for _ = 1 to msgs do
    Simnet.Fabric.send fabric ~src ~dst (Bytes.create size)
  done;
  Scheduler.run sched;
  (match registry with
  | Some reg ->
    Metrics.absorb reg
      ~labels:
        [
          ("experiment", "rel_loss_sweep");
          ("loss", Printf.sprintf "%g" loss);
          ("seed", string_of_int seed);
          ("mode", if reliable then "reliable" else "raw");
        ]
      (Metrics.snapshot (Scheduler.metrics sched))
  | None -> ());
  let completion_us = Time_ns.to_us !last in
  let goodput_mbps =
    (* payload bytes per microsecond = MB/s (decimal). *)
    if completion_us <= 0. then 0.
    else float_of_int (!delivered * size) /. completion_us
  in
  let retransmits, retries_exhausted =
    match rel with
    | None -> (0, 0)
    | Some r ->
      let st = Reliability.stats r in
      (st.Reliability.retransmits, st.Reliability.retries_exhausted)
  in
  { delivered = !delivered; completion_us; goodput_mbps; retransmits;
    retries_exhausted }

let mean l = List.fold_left ( +. ) 0. l /. float_of_int (max 1 (List.length l))
let meani f l = List.map (fun r -> float_of_int (f r)) l |> mean
let meanf f l = List.map f l |> mean

let average results =
  {
    delivered = int_of_float (Float.round (meani (fun r -> r.delivered) results));
    completion_us = meanf (fun r -> r.completion_us) results;
    goodput_mbps = meanf (fun r -> r.goodput_mbps) results;
    retransmits = int_of_float (Float.round (meani (fun r -> r.retransmits) results));
    retries_exhausted =
      int_of_float (Float.round (meani (fun r -> r.retries_exhausted) results));
  }

(* The loss x seed grid, losses-major: one fresh pair of fabrics per
   point, so every [(loss, seed)] replays bit-exactly. *)
let run ?(losses = default_losses) ?(seeds = [ 1; 2; 3 ]) ?(msgs = 200)
    ?(size = 1024) ?registry () =
  List.map
    (fun loss ->
      let runs =
        List.map
          (fun seed ->
            ( stream ?registry ~loss ~seed ~reliable:true ~msgs ~size (),
              stream ?registry ~loss ~seed ~reliable:false ~msgs ~size () ))
          seeds
      in
      {
        loss;
        reliable = average (List.map fst runs);
        raw = average (List.map snd runs);
      })
    losses

let pp ppf rows =
  Format.fprintf ppf
    "Goodput and completion vs wire loss (reliable vs raw fabric):@.";
  Format.fprintf ppf "%-6s | %-10s %-12s %-8s %-7s | %-10s %-12s %s@." "loss"
    "rel MB/s" "rel done us" "rel dlv" "rexmit" "raw MB/s" "raw done us"
    "raw dlv";
  List.iter
    (fun r ->
      Format.fprintf ppf
        "%-6.3f | %-10.1f %-12.1f %-8d %-7d | %-10.1f %-12.1f %d@." r.loss
        r.reliable.goodput_mbps r.reliable.completion_us r.reliable.delivered
        r.reliable.retransmits r.raw.goodput_mbps r.raw.completion_us
        r.raw.delivered)
    rows
