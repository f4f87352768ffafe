open Sim_engine

type congestion = { cong_depth : int; cong_bytes : int }

type t = {
  sched : Scheduler.t;
  link_name : string;
  bandwidth : float option;
  latency : Time_ns.t;
  queue_limit : int option;
  tracked : bool;
  mutable free_at : Time_ns.t;
  mutable busy : Time_ns.t;
  mutable outstanding : int;
  mutable peak_outstanding : int;
  mutable drops : int;
  mutable hook : (congestion -> unit) option;
  (* flow id -> number of its transmissions currently on this link;
     only maintained for tracked links. *)
  flows : (int, int) Hashtbl.t;
  mutable peak_flows : int;
}

let create ?(name = "link") ?bandwidth ?(latency = Time_ns.zero) ?queue_limit
    ?(tracked = false) sched =
  {
    sched;
    link_name = name;
    bandwidth;
    latency;
    queue_limit;
    tracked;
    free_at = Time_ns.zero;
    busy = Time_ns.zero;
    outstanding = 0;
    peak_outstanding = 0;
    drops = 0;
    hook = None;
    flows = Hashtbl.create (if tracked then 8 else 1);
    peak_flows = 0;
  }

let probe_family sched ~size link =
  let tracked = size > 0 && (link 0).tracked in
  let m = Scheduler.metrics sched in
  let member i = (link i).link_name in
  let family name f = Metrics.probe_family m ~label:"link" ~size ~member name f in
  family "link.busy_us" (fun i -> Time_ns.to_us (link i).busy);
  family "link.utilization" (fun i ->
      let now = Time_ns.to_us (Scheduler.now sched) in
      if now <= 0. then 0. else Time_ns.to_us (link i).busy /. now);
  if tracked then begin
    family "link.busy_ns" (fun i -> float_of_int (link i).busy);
    family "link.queue_depth" (fun i -> float_of_int (link i).peak_outstanding);
    family "link.flows" (fun i -> float_of_int (link i).peak_flows);
    family "link.congestion_drops" (fun i -> float_of_int (link i).drops)
  end

let occupy t d =
  if Time_ns.compare d Time_ns.zero < 0 then
    invalid_arg (t.link_name ^ ": negative occupancy");
  let start = Time_ns.max (Scheduler.now t.sched) t.free_at in
  let finish = Time_ns.add start d in
  t.free_at <- finish;
  t.busy <- Time_ns.add t.busy d;
  finish

(* A tracked link sees every hop of every message, so neither of these
   allocates or raises in the common case: [mem] before [find] on entry,
   where a flow often has nothing outstanding, and [find] on exit, where
   it always has. *)
let flow_enter t flow =
  if Hashtbl.mem t.flows flow then
    Hashtbl.replace t.flows flow (Hashtbl.find t.flows flow + 1)
  else begin
    Hashtbl.replace t.flows flow 1;
    t.peak_flows <- max t.peak_flows (Hashtbl.length t.flows)
  end

let flow_leave t flow =
  match Hashtbl.find t.flows flow with
  | 1 -> Hashtbl.remove t.flows flow
  | n -> Hashtbl.replace t.flows flow (n - 1)
  | exception Not_found -> ()

let transmit t ?flow ~bytes () =
  let bandwidth =
    match t.bandwidth with
    | Some bw -> bw
    | None -> invalid_arg (t.link_name ^ ": transmit on a link with no bandwidth")
  in
  let congested =
    match t.queue_limit with
    | Some lim -> t.outstanding >= lim
    | None -> false
  in
  if congested then begin
    t.drops <- t.drops + 1;
    Option.iter
      (fun hook -> hook { cong_depth = t.outstanding; cong_bytes = bytes })
      t.hook;
    `Dropped
  end
  else begin
    let finish = occupy t (Time_ns.of_rate ~bytes_per_s:bandwidth bytes) in
    if t.tracked || t.queue_limit <> None then begin
      t.outstanding <- t.outstanding + 1;
      t.peak_outstanding <- max t.peak_outstanding t.outstanding;
      (match flow with Some f -> flow_enter t f | None -> ());
      Scheduler.at t.sched finish (fun () ->
          t.outstanding <- t.outstanding - 1;
          match flow with Some f -> flow_leave t f | None -> ())
    end;
    `Accepted (Time_ns.add finish t.latency)
  end

let on_congestion t hook = t.hook <- Some hook
let name t = t.link_name
let busy_time t = t.busy
let queue_depth t = t.outstanding
let peak_queue_depth t = t.peak_outstanding
let peak_flows t = t.peak_flows
let congestion_drops t = t.drops
