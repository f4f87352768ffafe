open Sim_engine

(* Reserved pids for the monitor plumbing, far above any application
   rank's pid (ranks get pid = rank / nodes, tiny numbers). *)
let beat_pid = 0xBEA7
let monitor_pid = 0xD0C

type state = Beating | Silent

type verdict = Alive | Suspected_crashed | Suspected_partitioned

type t = {
  fabric : Simnet.Fabric.t;  (* The monitor node's owner-shard replica. *)
  sched : Scheduler.t;  (* The monitor node's owner-shard scheduler. *)
  period : Time_ns.t;
  timeout : Time_ns.t;
  monitor : Simnet.Proc_id.nid;
  until : Time_ns.t;
  last_seen : Time_ns.t array;
  states : state array;
  mutable down_cbs : (Simnet.Proc_id.nid -> unit) list;
  mutable up_cbs : (Simnet.Proc_id.nid -> unit) list;
  emit_sched : Scheduler.t array;  (* Per nid: its owner shard. *)
  emit_fabric : Simnet.Fabric.t array;
  m_sent : Metrics.counter array;
      (* Per nid, registered on the owner shard's registry so emitters
         never mutate another domain's counter; per-shard registration
         is idempotent, so shard totals sum to the job-wide count. *)
  m_received : Metrics.counter;
  m_suspects : Metrics.counter;
  m_recoveries : Metrics.counter;
}

let default_period = Time_ns.us 200.
let default_timeout = Time_ns.us 700.

let monitor_proc t = Simnet.Proc_id.make ~nid:t.monitor ~pid:monitor_pid

let suspected t =
  let acc = ref [] in
  Array.iteri
    (fun nid st -> if st = Silent then acc := nid :: !acc)
    t.states;
  List.rev !acc

(* Suspicion is one bit — "silent too long" — but what it {e means}
   depends on ground truth only the fabric has: a down node is crashed;
   an up-but-silent node behind an active (or just-healed) cut is
   partitioned, not dead. Classify at query time so a heal or restart
   reflects immediately. *)
let verdict t nid =
  if nid < 0 || nid >= Array.length t.states then
    invalid_arg "Liveness.verdict: node out of range";
  if t.states.(nid) = Beating then Alive
  else if not (Simnet.Fabric.is_node_up t.fabric nid) then Suspected_crashed
  else if
    Simnet.Fabric.partitioned_now t.fabric ~src:nid ~dst:t.monitor
    || Simnet.Fabric.partitioned_now t.fabric ~src:t.monitor ~dst:nid
  then Suspected_partitioned
  else if Simnet.Fabric.has_partitions t.fabric then
    (* No cut active right now, but this world schedules them: an
       up-but-silent node is a heal whose first beat has not landed
       yet, not a death. *)
    Suspected_partitioned
  else Suspected_crashed

let pp_verdict ppf = function
  | Alive -> Format.pp_print_string ppf "alive"
  | Suspected_crashed -> Format.pp_print_string ppf "suspected-crashed"
  | Suspected_partitioned -> Format.pp_print_string ppf "suspected-partitioned"

let on_down t cb = t.down_cbs <- t.down_cbs @ [ cb ]
let on_up t cb = t.up_cbs <- t.up_cbs @ [ cb ]
let handle_beat t ~src (_ : bytes) =
  let nid = src.Simnet.Proc_id.nid in
  Metrics.incr t.m_received;
  t.last_seen.(nid) <- Scheduler.now t.sched;
  if t.states.(nid) = Silent then begin
    (* The node is beating again: it restarted, a partition healed, or
       the verdict was a false positive under heavy loss. *)
    t.states.(nid) <- Beating;
    Metrics.incr t.m_recoveries;
    List.iter (fun cb -> cb nid) t.up_cbs
  end

(* One emitter per node: while the node is up, a heartbeat goes over the
   real fabric — subject to the same fault models, crash drops and wire
   occupancy as application traffic — every period. A down node simply
   misses beats; when it restarts, the emitter picks back up unchanged.

   Beats are raw datagrams ([send_raw]), never shim traffic: only the
   freshest beat matters, so ordered-reliable delivery is exactly wrong
   for them — one corrupt-dropped beat would head-of-line-block every
   later beat behind an escalating RTO and manufacture false suspicion
   of a healthy peer. Losing a beat outright is fine; five in a row is
   what the timeout is for.

   Each emitter runs on its node's owner shard (scheduler and fabric
   replica): in a parallel world the beat enters the wire where the
   node lives and crosses to the monitor's shard like any message. *)
let rec emit t nid =
  let sched = t.emit_sched.(nid) and fabric = t.emit_fabric.(nid) in
  if Time_ns.compare (Scheduler.now sched) t.until < 0 then begin
    if Simnet.Fabric.is_node_up fabric nid && nid <> t.monitor then begin
      Metrics.incr t.m_sent.(nid);
      Simnet.Fabric.send_raw fabric
        ~src:(Simnet.Proc_id.make ~nid ~pid:beat_pid)
        ~dst:(monitor_proc t) (Bytes.create 1)
    end;
    Scheduler.after sched t.period (fun () -> emit t nid)
  end

let rec check t =
  if Time_ns.compare (Scheduler.now t.sched) t.until < 0 then begin
    let now = Scheduler.now t.sched in
    Array.iteri
      (fun nid st ->
        if
          nid <> t.monitor && st = Beating
          && Time_ns.compare (Time_ns.sub now t.last_seen.(nid)) t.timeout > 0
        then begin
          t.states.(nid) <- Silent;
          Metrics.incr t.m_suspects;
          List.iter (fun cb -> cb nid) t.down_cbs
        end)
      t.states;
    (* If the monitor node itself crashed, its receive handler went away
       with the crash; re-register once the node is back. *)
    if
      Simnet.Fabric.is_node_up t.fabric t.monitor
      && not (Simnet.Fabric.is_registered t.fabric (monitor_proc t))
    then
      Simnet.Fabric.register t.fabric (monitor_proc t) (fun ~src payload ->
          handle_beat t ~src payload);
    Scheduler.after t.sched t.period (fun () -> check t)
  end

let start ?(period = default_period) ?(timeout = default_timeout)
    ?(monitor = 0) ~until (world : World.world) =
  if Time_ns.compare timeout period < 0 then
    invalid_arg "Liveness.start: timeout must be at least the period";
  let nodes = Simnet.Topology.nodes (World.topology world) in
  if monitor < 0 || monitor >= nodes then
    invalid_arg "Liveness.start: monitor node out of range";
  let fabric = World.fabric_of_nid world monitor in
  let sched = World.sched_of_nid world monitor in
  let m = Scheduler.metrics sched in
  let labels = [ ("monitor", string_of_int monitor) ] in
  let t =
    {
      fabric;
      sched;
      period;
      timeout;
      monitor;
      until;
      last_seen = Array.make nodes (Scheduler.now sched);
      states = Array.make nodes Beating;
      down_cbs = [];
      up_cbs = [];
      emit_sched = Array.init nodes (World.sched_of_nid world);
      emit_fabric = Array.init nodes (World.fabric_of_nid world);
      m_sent =
        Array.init nodes (fun nid ->
            Metrics.counter
              (Scheduler.metrics (World.sched_of_nid world nid))
              ~labels "liveness.heartbeats_sent");
      m_received = Metrics.counter m ~labels "liveness.heartbeats_received";
      m_suspects = Metrics.counter m ~labels "liveness.suspects";
      m_recoveries = Metrics.counter m ~labels "liveness.recoveries";
    }
  in
  Metrics.probe m ~labels "liveness.suspected_now" (fun () ->
      float_of_int (List.length (suspected t)));
  Simnet.Fabric.register fabric (monitor_proc t) (fun ~src payload ->
      handle_beat t ~src payload);
  for nid = 0 to nodes - 1 do
    if nid <> monitor then emit t nid
  done;
  check t;
  t
