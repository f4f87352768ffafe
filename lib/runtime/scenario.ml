(* One run's scenario: everything the front-ends' --seed / --loss /
   --fault / --crash / --topology / --queue-limit / --domains /
   --collectives flags describe, as one immutable value that the
   experiments hand to every world they build. *)

type t = {
  seed : int;
  fault : string option;
  crashes : Simnet.Fault.crash_schedule option;
  topology : string option;
  queue_limit : int option;
  domains : int;
  collectives : Collectives.impl;
}

let default =
  { seed = 0; fault = None; crashes = None; topology = None;
    queue_limit = None; domains = 1; collectives = Collectives.Host }

(* "bernoulli:P" | "gilbert:P_ENTER:P_EXIT" | "duplicate:P"
   | "corrupt:P" | "delay:MEAN_US[:JITTER_US]" | "flap:PERIOD_US:DOWN_US"
   | "partition:A.B|C.D@CUT_US[:HEAL_US]" | "none", composable with "+"
   (e.g. "bernoulli:0.02+corrupt:0.01"). The five stochastic models take
   an optional "@sN" suffix that seeds them with N instead of the
   world's seed. Partition elements describe scheduled group cuts (nids
   '.'-joined; '|' severs both directions, '>' only A → B traffic)
   rather than per-message models, so parsing returns both halves. *)
let faults_of_spec ~seed spec =
  let bad reason =
    invalid_arg
      (Printf.sprintf
         "Runtime: bad fault spec %S (%s); expected \
          bernoulli:P|gilbert:P_ENTER:P_EXIT|duplicate:P|corrupt:P|\
          delay:MEAN_US[:JITTER_US], each with an optional @sSEED, or \
          flap:PERIOD_US:DOWN_US|partition:A.B|C.D@CUT_US[:HEAL_US]|none, \
          joined with '+'"
         spec reason)
  in
  let float_field s =
    match float_of_string_opt (String.trim s) with
    | Some f -> f
    | None -> bad (Printf.sprintf "%S is not a number" s)
  in
  (* The models clamp out-of-range probabilities; a CLI spec should be
     told it is wrong instead. *)
  let prob_field s =
    let p = float_field s in
    if p < 0. || p > 1. then
      bad (Printf.sprintf "probability %S outside [0, 1]" s);
    p
  in
  let time_field s =
    let us = float_field s in
    if us < 0. then bad (Printf.sprintf "time %S is negative" s);
    Sim_engine.Time_ns.us us
  in
  (* "A.B|C.D@CUT_US[:HEAL_US]" ('>' instead of '|' for a one-way cut). *)
  let parse_partition body =
    let nids_of s =
      let parts = String.split_on_char '.' (String.trim s) in
      if parts = [ "" ] then bad "empty partition group";
      List.map
        (fun n ->
          match int_of_string_opt (String.trim n) with
          | Some nid when nid >= 0 -> nid
          | Some _ | None ->
            bad (Printf.sprintf "%S: node ids are nonnegative integers" body))
        parts
    in
    match String.index_opt body '@' with
    | None -> bad (Printf.sprintf "partition %S has no '@'" body)
    | Some at ->
      let groups = String.sub body 0 at in
      let times = String.sub body (at + 1) (String.length body - at - 1) in
      let one_way, sep =
        match (String.index_opt groups '>', String.index_opt groups '|') with
        | Some i, None -> (true, i)
        | None, Some i -> (false, i)
        | _ ->
          bad
            (Printf.sprintf "partition %S needs exactly one '|' or '>'" body)
      in
      let group_a = nids_of (String.sub groups 0 sep) in
      let group_b =
        nids_of (String.sub groups (sep + 1) (String.length groups - sep - 1))
      in
      let cut_at, heal_at =
        match String.split_on_char ':' times with
        | [ cut ] -> (time_field cut, None)
        | [ cut; heal ] -> (time_field cut, Some (time_field heal))
        | _ -> bad (Printf.sprintf "partition %S: too many times" body)
      in
      { Simnet.Fault.group_a; group_b; one_way; cut_at; heal_at }
  in
  (* "MODEL@sN": the model's own seed; with no suffix, the world's. *)
  let seeded s =
    match String.index_opt s '@' with
    | None -> (s, None)
    | Some at -> (
      let suffix = String.sub s (at + 1) (String.length s - at - 1) in
      match Scanf.sscanf_opt suffix "s%d%!" Fun.id with
      | Some n -> (String.sub s 0 at, Some n)
      | None -> bad (Printf.sprintf "%S: a seed suffix is @sN" s))
  in
  let parse_model s =
    let model, own_seed = seeded s in
    let seed = Option.value own_seed ~default:seed in
    let unseeded m =
      if own_seed <> None then bad (Printf.sprintf "%S takes no seed" s);
      m
    in
    match String.split_on_char ':' model with
    | [ "none" ] -> unseeded Simnet.Fault.none
    | [ "bernoulli"; p ] -> Simnet.Fault.bernoulli ~seed ~p:(prob_field p) ()
    | [ "gilbert"; p_enter; p_exit ] ->
      Simnet.Fault.gilbert ~seed ~p_enter:(prob_field p_enter)
        ~p_exit:(prob_field p_exit) ()
    | [ "duplicate"; p ] -> Simnet.Fault.duplicator ~seed ~p:(prob_field p) ()
    | [ "corrupt"; p ] -> Simnet.Fault.corrupt ~seed ~p:(prob_field p) ()
    | [ "delay"; mean ] -> Simnet.Fault.delay ~seed ~mean:(time_field mean) ()
    | [ "delay"; mean; jitter ] ->
      let mean = time_field mean and jitter = time_field jitter in
      if Sim_engine.Time_ns.compare jitter mean > 0 then
        bad "delay jitter exceeds mean";
      Simnet.Fault.delay ~seed ~jitter ~mean ()
    | [ "flap"; period; down ] ->
      let period = Sim_engine.Time_ns.us (float_field period) in
      let downtime = Sim_engine.Time_ns.us (float_field down) in
      if Sim_engine.Time_ns.compare downtime period > 0 then
        bad "downtime exceeds period";
      unseeded (Simnet.Fault.link_flap ~period ~downtime ())
    | _ -> bad (Printf.sprintf "unknown model %S" s)
  in
  let parse_one s =
    let s = String.trim s in
    match String.split_on_char ':' s with
    | "partition" :: rest -> `Partition (parse_partition (String.concat ":" rest))
    | _ -> `Model (parse_model s)
  in
  let parts = List.map parse_one (String.split_on_char '+' spec) in
  if parts = [] then bad "empty";
  let models =
    List.filter_map (function `Model m -> Some m | `Partition _ -> None) parts
  in
  let events =
    List.filter_map (function `Partition e -> Some e | `Model _ -> None) parts
  in
  let partitions =
    try Simnet.Fault.partition_schedule events
    with Invalid_argument reason -> bad reason
  in
  (models, partitions)

(* "NID@DOWN_US[:UP_US]" elements joined with ',': node NID crash-stops
   at DOWN_US microseconds and, with the optional UP_US, restarts then. *)
let crashes_of_spec spec =
  let bad reason =
    invalid_arg
      (Printf.sprintf
         "Runtime: bad crash spec %S (%s); expected NID@DOWN_US[:UP_US], \
          joined with ','"
         spec reason)
  in
  let parse_one s =
    let s = String.trim s in
    match String.index_opt s '@' with
    | None -> bad (Printf.sprintf "%S has no '@'" s)
    | Some i ->
      let nid =
        match int_of_string_opt (String.sub s 0 i) with
        | Some n when n >= 0 -> n
        | Some _ | None ->
          bad (Printf.sprintf "%S: node id must be a nonnegative integer" s)
      in
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      let time_of f =
        match float_of_string_opt f with
        | Some us when us >= 0. -> Sim_engine.Time_ns.us us
        | Some _ | None ->
          bad (Printf.sprintf "%S: times are nonnegative microseconds" s)
      in
      (match String.index_opt rest ':' with
      | None -> (nid, time_of rest, None)
      | Some j ->
        let down = String.sub rest 0 j in
        let up = String.sub rest (j + 1) (String.length rest - j - 1) in
        (nid, time_of down, Some (time_of up)))
  in
  if String.trim spec = "" then bad "empty";
  try Simnet.Fault.crash_schedule (List.map parse_one (String.split_on_char ',' spec))
  with Invalid_argument reason when not (String.length reason > 7 && String.sub reason 0 8 = "Runtime:") ->
    bad reason

(* [loss] is sugar: "bernoulli:P", first in the spec, so it composes
   ahead of the rest as the flag always has. *)
let make ?(loss = 0.) ?(seed = 0) ?fault ?crashes ?topology ?queue_limit
    ?(domains = 1) ?(collectives = "host") () =
  let bad what = invalid_arg ("Runtime.Scenario.make: " ^ what) in
  let collectives =
    match Collectives.impl_of_string collectives with
    | Some impl -> impl
    | None ->
      bad
        (Printf.sprintf "unknown collectives engine %S (host|nic)" collectives)
  in
  if domains < 1 then bad "need at least one domain";
  (* An empty spec means none, so a flag can be cleared explicitly. *)
  let spec = function Some "" | None -> None | s -> s in
  let topology = spec topology in
  Option.iter Simnet.Topology.check_spec topology;
  if Option.fold ~none:false ~some:(fun l -> l <= 0) queue_limit then
    bad "queue limit must be positive";
  if loss < 0. || loss >= 1. then bad "loss must be in [0, 1)";
  let fault =
    match (loss > 0., spec fault) with
    | false, f -> f
    | true, None -> Some (Printf.sprintf "bernoulli:%.17g" loss)
    | true, Some f -> Some (Printf.sprintf "bernoulli:%.17g+%s" loss f)
  in
  Option.iter (fun f -> ignore (faults_of_spec ~seed:0 f)) fault;
  let crashes = Option.map crashes_of_spec (spec crashes) in
  { seed; fault; crashes; topology; queue_limit; domains; collectives }

let add_crashes t events =
  let scripted =
    List.map
      (fun (ev : Simnet.Fault.crash_event) -> (ev.victim, ev.down_at, ev.up_at))
      (Option.value t.crashes ~default:[])
  in
  { t with crashes = Some (Simnet.Fault.crash_schedule (scripted @ events)) }

(* Fresh model instances on every call: models carry mutable per-pair
   PRNG tables, so each shard fabric of a world needs its own. Same
   scenario + same seed => identical per-pair streams. *)
let faults t ~seed =
  match t.fault with None -> ([], []) | Some spec -> faults_of_spec ~seed spec
