open Sim_engine

type corruption = Flip of { bit : int } | Truncate of { keep : int }

type decision =
  | Deliver
  | Drop
  | Duplicate
  | Corrupt of corruption
  | Delay of { by : Time_ns.t; reorder : bool }

(* Per-hop corruption re-samples are {e keyed}, not streamed: the draw is
   a pure function of (model seed, pair, per-pair message sequence, hop
   index), so it does not matter on which shard — or in which global
   event order — a hop executes. This is what lets a multi-hop route
   cross shard boundaries in the parallel engine without sharing PRNG
   state. *)
type hop_sampler =
  src:Proc_id.t -> dst:Proc_id.t -> seq:int -> hop:int -> len:int ->
  corruption option

type t = {
  label : string;
  f : now:Time_ns.t -> src:Proc_id.t -> dst:Proc_id.t -> len:int -> decision;
  corrupting : bool;
      (* Whether this model can ever return [Corrupt] — lets the fabric
         skip per-hop re-sampling for models that never mutate bytes, so
         their multi-hop PRNG streams stay what they were before
         corruption existed. *)
  hop : hop_sampler option;
      (* Keyed per-hop re-sample; [None] for models that never corrupt
         and for [custom] models (whose closure cannot be keyed). *)
}

let none =
  {
    label = "none";
    f = (fun ~now:_ ~src:_ ~dst:_ ~len:_ -> Deliver);
    corrupting = false;
    hop = None;
  }

let clamp01 p = if p < 0. then 0. else if p > 1. then 1. else p

(* Each pair gets a chain with its own PRNG derived from the model seed
   and the pair identity, so the stream one pair sees does not depend on
   how its traffic interleaves with other pairs'. Under the parallel
   engine this is load-bearing for every stochastic model, not just
   gilbert: a pair's draws happen in its sender's program order, which is
   deterministic per shard, while any shared stream would be consumed in
   global event order — an artifact of the partitioning. *)
let pair_seed seed (src : Proc_id.t) (dst : Proc_id.t) =
  let mix acc v = (acc * 0x100000001b3) lxor v in
  List.fold_left mix seed
    [ src.Proc_id.nid; src.Proc_id.pid; dst.Proc_id.nid; dst.Proc_id.pid ]

let hop_key seed (src : Proc_id.t) (dst : Proc_id.t) ~seq ~hop =
  let mix acc v = (acc * 0x100000001b3) lxor v in
  List.fold_left mix (pair_seed seed src dst) [ 0x9E3779B9; seq; hop ]

(* Lazily-built per-pair streams backing a stochastic model instance. *)
let per_pair_streams seed =
  let chains = Proc_id.Pair_tbl.create 16 in
  fun src dst ->
    match Proc_id.Pair_tbl.find chains src dst with
    | prng -> prng
    | exception Not_found ->
      let prng = Prng.create ~seed:(pair_seed seed src dst) in
      Proc_id.Pair_tbl.add chains src dst prng;
      prng

let bernoulli ?(seed = 0) ~p () =
  let p = clamp01 p in
  let stream = per_pair_streams seed in
  {
    label = Printf.sprintf "bernoulli(p=%g)" p;
    f =
      (fun ~now:_ ~src ~dst ~len:_ ->
        if Prng.float (stream src dst) 1.0 < p then Drop else Deliver);
    corrupting = false;
    hop = None;
  }

let gilbert ?(seed = 0) ?(p_loss_bad = 1.0) ~p_enter ~p_exit () =
  let p_enter = clamp01 p_enter
  and p_exit = clamp01 p_exit
  and p_loss_bad = clamp01 p_loss_bad in
  let chains = Proc_id.Pair_tbl.create 16 in
  let chain src dst =
    match Proc_id.Pair_tbl.find chains src dst with
    | c -> c
    | exception Not_found ->
      let c = (ref false, Prng.create ~seed:(pair_seed seed src dst)) in
      Proc_id.Pair_tbl.add chains src dst c;
      c
  in
  {
    label =
      Printf.sprintf "gilbert(enter=%g,exit=%g,loss=%g)" p_enter p_exit
        p_loss_bad;
    f =
      (fun ~now:_ ~src ~dst ~len:_ ->
        let bad, prng = chain src dst in
        (if !bad then begin
           if Prng.float prng 1.0 < p_exit then bad := false
         end
         else if Prng.float prng 1.0 < p_enter then bad := true);
        if !bad && Prng.float prng 1.0 < p_loss_bad then Drop else Deliver);
    corrupting = false;
    hop = None;
  }

let duplicator ?(seed = 0) ~p () =
  let p = clamp01 p in
  let stream = per_pair_streams seed in
  {
    label = Printf.sprintf "duplicator(p=%g)" p;
    f =
      (fun ~now:_ ~src ~dst ~len:_ ->
        if Prng.float (stream src dst) 1.0 < p then Duplicate else Deliver);
    corrupting = false;
    hop = None;
  }

let sample_corruption prng ~p ~len =
  if Prng.float prng 1.0 >= p || len = 0 then None
  else if Prng.float prng 1.0 < 0.25 then
    Some (Truncate { keep = Prng.int prng len })
  else Some (Flip { bit = Prng.int prng (len * 8) })

let corrupt ?(seed = 0) ~p () =
  let p = clamp01 p in
  let stream = per_pair_streams seed in
  {
    label = Printf.sprintf "corrupt(p=%g)" p;
    f =
      (fun ~now:_ ~src ~dst ~len ->
        match sample_corruption (stream src dst) ~p ~len with
        | Some c -> Corrupt c
        | None -> Deliver);
    corrupting = true;
    hop =
      Some
        (fun ~src ~dst ~seq ~hop ~len ->
          let prng = Prng.create ~seed:(hop_key seed src dst ~seq ~hop) in
          sample_corruption prng ~p ~len);
  }

(* The sender still owns the frame (it may be duplicated, retransmitted
   or reused): a flip copies the part it writes, a truncation only
   shortens the view. *)
let mutate c frame =
  match c with
  | Flip { bit } -> Frame.flip frame ~bit
  | Truncate { keep } -> Frame.truncate frame ~keep

let delay ?(seed = 0) ?jitter ?(reorder = false) ~mean () =
  if Time_ns.compare mean Time_ns.zero < 0 then
    invalid_arg "Fault.delay: mean must be >= 0";
  let jitter = match jitter with Some j -> j | None -> mean / 2 in
  if Time_ns.compare jitter Time_ns.zero < 0 then
    invalid_arg "Fault.delay: jitter must be >= 0";
  if Time_ns.compare jitter mean > 0 then
    invalid_arg "Fault.delay: jitter must not exceed the mean";
  let stream = per_pair_streams seed in
  {
    label =
      Printf.sprintf "delay(mean=%s,jitter=%s%s)" (Time_ns.to_string mean)
        (Time_ns.to_string jitter)
        (if reorder then ",reorder" else "");
    f =
      (fun ~now:_ ~src ~dst ~len:_ ->
        let by =
          if jitter = 0 then mean
          else mean - jitter + Prng.int (stream src dst) ((2 * jitter) + 1)
        in
        if by = 0 then Deliver else Delay { by; reorder });
    corrupting = false;
    hop = None;
  }

let link_flap ?(offset = Time_ns.zero) ~period ~downtime () =
  if period <= 0 then invalid_arg "Fault.link_flap: period must be positive";
  if downtime < 0 || downtime > period then
    invalid_arg "Fault.link_flap: downtime must lie within the period";
  let uptime = period - downtime in
  {
    label =
      Printf.sprintf "link_flap(period=%s,down=%s)" (Time_ns.to_string period)
        (Time_ns.to_string downtime);
    f =
      (fun ~now ~src:_ ~dst:_ ~len:_ ->
        let t = Time_ns.sub now offset in
        let phase = ((t mod period) + period) mod period in
        if phase >= uptime then Drop else Deliver);
    corrupting = false;
    hop = None;
  }

let custom f = { label = "custom"; f; corrupting = true; hop = None }

let compose models =
  match models with
  | [] -> none
  | [ m ] -> m
  | _ ->
    {
      label =
        "compose(" ^ String.concat "," (List.map (fun m -> m.label) models) ^ ")";
      f =
        (fun ~now ~src ~dst ~len ->
          (* Evaluate all so PRNG streams advance deterministically. *)
          let decisions =
            List.map (fun m -> m.f ~now ~src ~dst ~len) models
          in
          let first p = List.find_opt p decisions in
          if List.mem Drop decisions then Drop
          else
            match first (function Corrupt _ -> true | _ -> false) with
            | Some d -> d
            | None -> (
              match first (function Delay _ -> true | _ -> false) with
              | Some d -> d
              | None ->
                if List.mem Duplicate decisions then Duplicate else Deliver));
      corrupting = List.exists (fun m -> m.corrupting) models;
      hop =
        (match List.filter_map (fun m -> m.hop) models with
        | [] -> None
        | hops ->
          Some
            (fun ~src ~dst ~seq ~hop ~len ->
              List.fold_left
                (fun acc h ->
                  match acc with
                  | Some _ -> acc
                  | None -> h ~src ~dst ~seq ~hop ~len)
                None hops));
    }

let decide t ~now ~src ~dst ~len = t.f ~now ~src ~dst ~len
let can_corrupt t = t.corrupting
let hop_sample t = t.hop

type crash_event = {
  victim : Proc_id.nid;
  down_at : Time_ns.t;
  up_at : Time_ns.t option;
}

type crash_schedule = crash_event list

let crash_schedule events =
  let evs =
    List.map
      (fun (victim, down_at, up_at) ->
        if Time_ns.compare down_at Time_ns.zero < 0 then
          invalid_arg "Fault.crash_schedule: down_at must be >= 0";
        (match up_at with
        | Some u when Time_ns.compare u down_at <= 0 ->
          invalid_arg "Fault.crash_schedule: up_at must be after down_at"
        | _ -> ());
        { victim; down_at; up_at })
      events
    |> List.sort (fun a b -> compare (a.down_at, a.victim) (b.down_at, b.victim))
  in
  (* A node cannot crash again while already down. *)
  let last : (Proc_id.nid, Time_ns.t option) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun e ->
      (match Hashtbl.find_opt last e.victim with
      | Some None ->
        invalid_arg
          (Printf.sprintf
             "Fault.crash_schedule: node %d crashes again after a permanent kill"
             e.victim)
      | Some (Some prev_up) when Time_ns.compare e.down_at prev_up < 0 ->
        invalid_arg
          (Printf.sprintf
             "Fault.crash_schedule: node %d crashes again before its restart"
             e.victim)
      | _ -> ());
      Hashtbl.replace last e.victim e.up_at)
    evs;
  evs

type partition_event = {
  group_a : Proc_id.nid list;
  group_b : Proc_id.nid list;
  one_way : bool;
  cut_at : Time_ns.t;
  heal_at : Time_ns.t option;
}

type partition_schedule = partition_event list

let partition_schedule events =
  List.iter
    (fun e ->
      if e.group_a = [] || e.group_b = [] then
        invalid_arg "Fault.partition_schedule: both groups must be non-empty";
      List.iter
        (fun nid ->
          if List.mem nid e.group_b then
            invalid_arg
              (Printf.sprintf
                 "Fault.partition_schedule: node %d appears on both sides of \
                  the cut"
                 nid))
        e.group_a;
      if Time_ns.compare e.cut_at Time_ns.zero < 0 then
        invalid_arg "Fault.partition_schedule: cut_at must be >= 0";
      match e.heal_at with
      | Some h when Time_ns.compare h e.cut_at <= 0 ->
        invalid_arg "Fault.partition_schedule: heal_at must be after cut_at"
      | _ -> ())
    events;
  List.sort (fun a b -> Time_ns.compare a.cut_at b.cut_at) events

let partition_nids schedule =
  List.concat_map (fun e -> e.group_a @ e.group_b) schedule
  |> List.sort_uniq compare

(* Whether src -> dst traffic is severed at [now]. A symmetric cut severs
   both directions; a one-way cut only severs group_a -> group_b. *)
let cut_now schedule ~now ~src ~dst =
  List.exists
    (fun e ->
      Time_ns.compare e.cut_at now <= 0
      && (match e.heal_at with
         | None -> true
         | Some h -> Time_ns.compare now h < 0)
      && ((List.mem src e.group_a && List.mem dst e.group_b)
         || ((not e.one_way) && List.mem src e.group_b && List.mem dst e.group_a)))
    schedule

let random_crash_schedule ?(seed = 0) ~nids ~crashes ~horizon () =
  if crashes < 0 then
    invalid_arg "Fault.random_crash_schedule: crashes must be >= 0";
  if crashes = 0 then []
  else begin
    if nids = [] then
      invalid_arg "Fault.random_crash_schedule: no candidate nodes";
    if Time_ns.compare horizon Time_ns.zero <= 0 then
      invalid_arg "Fault.random_crash_schedule: horizon must be positive";
    let prng = Prng.create ~seed in
    let pool = Array.of_list nids in
    (* Disjoint per-event slices of the horizon keep the schedule valid
       even when the same victim is drawn twice. *)
    let slice = max 2 (horizon / crashes) in
    List.init crashes (fun k ->
        let victim = pool.(Prng.int prng (Array.length pool)) in
        let base = k * slice in
        let half = max 1 (slice / 2) in
        let down_at = base + Prng.int prng half in
        let up_at = base + half + Prng.int prng (max 1 (slice - half - 1)) in
        (victim, down_at, Some up_at))
    |> crash_schedule
  end
