open Sim_engine

(* Crash–restart recovery, Portals vs GM.

   Two nodes. Rank 0 (node 0, the survivor) streams small eager messages
   to rank 1 (node 1, the victim) at a fixed cadence. Mid-run, node 1
   crash-stops — its rank fiber is killed, its procs deregister, its
   in-flight traffic is lost — and later restarts in a fresh incarnation,
   whereupon the restarted process re-creates its endpoint and resumes
   receiving. Both backends face the {e identical} schedule; a liveness
   monitor (heartbeats over the same fabric) runs in both worlds so the
   environments match.

   The asymmetry under test (§3's argument for connectionless protocol
   building blocks): the Portals survivor holds no per-peer connection
   state, so the moment the victim is back, traffic flows — zero action
   at rank 0. The GM survivor's token/handshake state for the victim died
   with it: sends raise [Mpi.Peer_failed] until the liveness monitor
   notices the recovery and the survivor reconnects, and everything
   attempted in between is lost. *)

type backend_result = {
  backend : string;
  sent : int;  (** Send attempts at rank 0 (including failed ones). *)
  delivered : int;  (** Received by rank 1, both incarnations. *)
  lost : int;
  send_errors : int;  (** [Mpi.Peer_failed] raised at the sender. *)
  reconnects : int;
  recovery_us : float;
      (** First delivery to the restarted rank 1, relative to the
          restart; negative if nothing arrived after the restart. *)
  stale_fenced : int;  (** NI drops with reason [stale_incarnation]. *)
  drops_crashed : int;  (** Fabric drops from down nodes / crash epochs. *)
}

type config = {
  msgs : int;
  interval : Time_ns.t;
  size : int;
  down_at : Time_ns.t;
  up_at : Time_ns.t;
  horizon : Time_ns.t;
}

let default_config =
  {
    msgs = 80;
    interval = Time_ns.us 50.;
    size = 256;
    down_at = Time_ns.us 1000.;
    up_at = Time_ns.us 2200.;
    horizon = Time_ns.us 6000.;
  }

let victim_nid = 1

let sum_stale_drops world =
  let slug = Portals.Ni.drop_reason_slug Portals.Ni.Stale_incarnation in
  let snap = Runtime.metrics_snapshot world in
  List.fold_left
    (fun acc (e : Metrics.Snapshot.entry) ->
      match e.Metrics.Snapshot.value with
      | Metrics.Snapshot.Gauge v
        when List.mem ("reason", slug) e.Metrics.Snapshot.labels ->
        acc + int_of_float v
      | _ -> acc)
    0
    (Metrics.Snapshot.filter snap "ni.drops")

let run_backend ~scenario ~(cfg : config) backend =
  (* The victim's crash joins any the scenario scripts; the world applies
     the merged schedule to every shard. *)
  let scenario =
    Runtime.Scenario.add_crashes scenario
      [ (victim_nid, cfg.down_at, Some cfg.up_at) ]
  in
  let world = Runtime.create_world ~scenario ~nodes:2 () in
  let ranks = world.Runtime.ranks in
  let make_ep rank =
    let tp = Runtime.transport_of_rank world rank in
    match backend with
    | `Portals -> Mpi.create_portals tp ~ranks ~rank ()
    | `Gm -> Mpi.create_gm tp ~ranks ~rank ()
  in
  let sched0 = Runtime.sched_of_rank world 0 in
  let sched1 = Runtime.sched_of_rank world 1 in
  let sent = ref 0 in
  let send_errors = ref 0 in
  let reconnects = ref 0 in
  let delivered = ref 0 in
  let recovery = ref (-1.) in
  (* The victim's receive loop; run by both of its incarnations. Blocks
     in recv between arrivals — the crash kills it there. *)
  let rank1_main ~second_life ep =
    let buf = Bytes.create cfg.size in
    let rec loop () =
      let _st = Mpi.recv ep ~source:0 buf in
      delivered := !delivered + 1;
      if second_life && !recovery < 0. then
        recovery :=
          Time_ns.to_us (Time_ns.sub (Scheduler.now sched1) cfg.up_at);
      loop ()
    in
    (try loop () with Mpi.Peer_failed _ -> ())
  in
  let ep0 = make_ep 0 in
  let ep1 = make_ep 1 in
  Scheduler.spawn sched0 ~name:"rank0" ~domain:0 (fun () ->
      let payload = Bytes.create cfg.size in
      for i = 1 to cfg.msgs do
        Scheduler.delay sched0 cfg.interval;
        incr sent;
        try Mpi.send ep0 ~dst:1 ~tag:i payload
        with Mpi.Peer_failed _ -> incr send_errors
      done);
  Scheduler.spawn sched1 ~name:"rank1" ~domain:victim_nid (fun () ->
      rank1_main ~second_life:false ep1);
  (* The restarted node boots its process back up: a fresh endpoint, a
     fresh fiber — the victim's side of recovery, common to both
     backends. *)
  Scheduler.at sched1 (Time_ns.add cfg.up_at (Time_ns.ns 1)) (fun () ->
      let ep1' = make_ep 1 in
      Scheduler.spawn sched1 ~name:"rank1-restarted" ~domain:victim_nid
        (fun () -> rank1_main ~second_life:true ep1'));
  (* Identical liveness monitor in both worlds. Only the GM survivor acts
     on it: recovery detection triggers the reconnection its dead
     connection state demands. The Portals survivor needs no hook. *)
  let liveness =
    Runtime.Liveness.start ~period:(Time_ns.us 100.) ~timeout:(Time_ns.us 350.)
      ~until:cfg.horizon world
  in
  (match backend with
  | `Portals -> ()
  | `Gm ->
    Runtime.Liveness.on_up liveness (fun nid ->
        if nid = victim_nid then begin
          incr reconnects;
          Mpi.reconnect ep0 ~rank:1
        end));
  Runtime.run ~until:cfg.horizon world;
  (* Each lost frame is counted once, by the replica that dropped it. *)
  let drops_crashed =
    Array.fold_left
      (fun acc f -> acc + (Simnet.Fabric.stats f).Simnet.Fabric.drops_crashed)
      0 (Runtime.shard_fabrics world)
  in
  {
    backend = (match backend with `Portals -> "portals" | `Gm -> "gm");
    sent = !sent;
    delivered = !delivered;
    lost = !sent - !delivered;
    send_errors = !send_errors;
    reconnects = !reconnects;
    recovery_us = !recovery;
    stale_fenced = sum_stale_drops world;
    drops_crashed;
  }

let run ?(scenario = Runtime.Scenario.default) ?(config = default_config) () =
  [
    run_backend ~scenario ~cfg:config `Portals;
    run_backend ~scenario ~cfg:config `Gm;
  ]

let pp_config ppf (cfg : config) =
  Format.fprintf ppf
    "%d messages of %d B every %a; node %d down at %a, restarted at %a"
    cfg.msgs cfg.size Time_ns.pp cfg.interval victim_nid Time_ns.pp cfg.down_at
    Time_ns.pp cfg.up_at

let pp ppf rows =
  Format.fprintf ppf
    "Crash-restart recovery (one mid-run node restart, identical schedule):@.";
  Format.fprintf ppf "%-9s %-5s %-9s %-5s %-8s %-10s %-11s %-6s %s@." "backend"
    "sent" "delivered" "lost" "senderr" "reconnects" "recovery_us" "stale"
    "crashdrops";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-9s %-5d %-9d %-5d %-8d %-10d %-11.1f %-6d %d@."
        r.backend r.sent r.delivered r.lost r.send_errors r.reconnects
        r.recovery_us r.stale_fenced r.drops_crashed)
    rows
