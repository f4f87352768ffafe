(* Central observability registry. Every subsystem (NI, CPU, links, event
   queues, protocol layers) registers named instruments here; experiments
   and the CLI read a uniform snapshot back out instead of stitching
   together per-module records.

   Counters, gauges, summaries and series are keyed by (name, sorted
   labels) in a table; registering the same key twice returns the same
   instrument, so components created in loops (one NI per rank, one link
   per node) can register unconditionally. Only a series tests a flag
   (the registry's detail level) before it records.

   Probes and probe families are snapshot-time gauges and never enter the
   table. A probe is one record pushed on a list, with its labels as
   given; a family stands for one probe per member of an array (every
   CPU, every link) as a single registration. Normalising labels,
   resolving keys and polling all happen when a snapshot is taken, so
   registering an NI's 29 probes makes 29 list cells. *)

type labels = (string * string) list

let normalize_labels labels =
  List.sort_uniq (fun (a, _) (b, _) -> String.compare a b) labels

let pp_labels ppf labels =
  match labels with
  | [] -> ()
  | _ ->
    Format.fprintf ppf "{%s}"
      (String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) labels))

type counter = { mutable c_value : int }
type gauge = { mutable g_value : float }

type summary = {
  mutable m_count : int;
  mutable m_total : float;
  mutable m_sum_sq : float;
  mutable m_min : float;
  mutable m_max : float;
}

type series = {
  r_enabled : bool ref;
  mutable r_rev_points : (float * float) list;
  mutable r_len : int;
}

type instrument =
  | Counter of counter
  | Gauge of gauge
  | Summary of summary
  | Series of series

(* [stamp] orders registrations, so a snapshot can let the latest one
   win where a probe, a family member or a table entry share a key. *)
type entry = { name : string; labels : labels; instrument : instrument; stamp : int }

(* Labels as the caller gave them: normalised only by [snapshot]. *)
type probe = { p_name : string; p_labels : labels; p_read : unit -> float; p_stamp : int }

type family = {
  f_name : string;
  f_label : string;
  f_size : int;
  f_member : int -> string;
  f_value : int -> float;
  f_stamp : int;
}

type t = {
  (* Time-series sampling is a separate, default-off level: every sample
     allocates a point, and some series sample per message (EQ depth,
     protocol windows) — too hot to pay in scaling sweeps that never read
     the curves. Deep-dive experiments (Fig. 5/6 worlds) switch it on. *)
  detail : bool ref;
  mutable rev_entries : entry list;
  mutable rev_probes : probe list;
  mutable rev_families : family list;
  mutable last_stamp : int;
  tbl : (string * labels, entry) Hashtbl.t;
}

let create ?(detail = false) () =
  {
    detail = ref detail;
    rev_entries = [];
    rev_probes = [];
    rev_families = [];
    last_stamp = 0;
    tbl = Hashtbl.create 64;
  }

let detail t = !(t.detail)
let set_detail t on = t.detail := on

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Summary _ -> "summary"
  | Series _ -> "series"

let next_stamp t =
  t.last_stamp <- t.last_stamp + 1;
  t.last_stamp

let register t name labels make =
  let labels = normalize_labels labels in
  let key = (name, labels) in
  match Hashtbl.find_opt t.tbl key with
  | Some entry -> entry
  | None ->
    let entry = { name; labels; instrument = make (); stamp = next_stamp t } in
    Hashtbl.add t.tbl key entry;
    t.rev_entries <- entry :: t.rev_entries;
    entry

let mismatch name want got =
  invalid_arg
    (Printf.sprintf "Metrics: %S already registered as a %s, wanted a %s" name
       got want)

let counter t ?(labels = []) name =
  match
    (register t name labels (fun () ->
         Counter { c_value = 0 }))
      .instrument
  with
  | Counter c -> c
  | other -> mismatch name "counter" (kind_name other)

let gauge t ?(labels = []) name =
  match
    (register t name labels (fun () ->
         Gauge { g_value = 0. }))
      .instrument
  with
  | Gauge g -> g
  | other -> mismatch name "gauge" (kind_name other)

(* A later probe under the same key shadows an earlier one at snapshot
   time: a component recreated under the same identity (e.g. a fresh NI
   for the same rank) must not publish its predecessor's counters. *)
let probe t ?(labels = []) name f =
  t.rev_probes <-
    { p_name = name; p_labels = labels; p_read = f; p_stamp = next_stamp t }
    :: t.rev_probes

let probe_family t ~label ~size ~member name f =
  t.rev_families <-
    {
      f_name = name;
      f_label = label;
      f_size = size;
      f_member = member;
      f_value = f;
      f_stamp = next_stamp t;
    }
    :: t.rev_families

let new_summary () =
  Summary
    {
      m_count = 0;
      m_total = 0.;
      m_sum_sq = 0.;
      m_min = infinity;
      m_max = neg_infinity;
    }

let summary t ?(labels = []) name =
  match (register t name labels new_summary).instrument with
  | Summary s -> s
  | other -> mismatch name "summary" (kind_name other)

let series t ?(labels = []) name =
  match
    (register t name labels (fun () ->
         Series { r_enabled = t.detail; r_rev_points = []; r_len = 0 }))
      .instrument
  with
  | Series s -> s
  | other -> mismatch name "series" (kind_name other)

let incr c = c.c_value <- c.c_value + 1
let add c n = c.c_value <- c.c_value + n
let counter_value c = c.c_value
let set g v = g.g_value <- v

let observe m x =
  m.m_count <- m.m_count + 1;
  m.m_total <- m.m_total +. x;
  m.m_sum_sq <- m.m_sum_sq +. (x *. x);
  if x < m.m_min then m.m_min <- x;
  if x > m.m_max then m.m_max <- x

let push r ~x ~y =
  if !(r.r_enabled) then begin
    r.r_rev_points <- (x, y) :: r.r_rev_points;
    r.r_len <- r.r_len + 1
  end

let series_enabled r = !(r.r_enabled)
let series_points r = List.rev r.r_rev_points
let series_length r = r.r_len

let reset t =
  List.iter
    (fun e ->
      match e.instrument with
      | Counter c -> c.c_value <- 0
      | Gauge g -> g.g_value <- 0.
      | Summary m ->
        m.m_count <- 0;
        m.m_total <- 0.;
        m.m_sum_sq <- 0.;
        m.m_min <- infinity;
        m.m_max <- neg_infinity
      | Series r ->
        r.r_rev_points <- [];
        r.r_len <- 0)
    t.rev_entries

module Snapshot = struct
  type value =
    | Counter of int
    | Gauge of float
    | Summary of {
        count : int;
        mean : float;
        min : float;
        max : float;
        stddev : float;
        total : float;
      }
    | Series of (float * float) list

  type entry = { name : string; labels : labels; value : value }
  type nonrec t = entry list

  let find ?(labels = []) t name =
    let labels = normalize_labels labels in
    Option.map
      (fun e -> e.value)
      (List.find_opt (fun e -> String.equal e.name name && e.labels = labels) t)

  let find_exn ?(labels = []) t name =
    match find ~labels t name with
    | Some v -> v
    | None ->
      invalid_arg
        (Format.asprintf "Metrics.Snapshot: no entry %S %a" name pp_labels
           (normalize_labels labels))

  let filter t name = List.filter (fun e -> String.equal e.name name) t
end

let summary_stats m =
  let mean = if m.m_count = 0 then 0. else m.m_total /. float_of_int m.m_count in
  let stddev =
    if m.m_count < 2 then 0.
    else begin
      let n = float_of_int m.m_count in
      let var = (m.m_sum_sq /. n) -. (mean *. mean) in
      if var < 0. then 0. else sqrt var
    end
  in
  Snapshot.Summary
    {
      count = m.m_count;
      mean;
      min = (if m.m_count = 0 then 0. else m.m_min);
      max = (if m.m_count = 0 then 0. else m.m_max);
      stddev;
      total = m.m_total;
    }

(* Where a snapshot row comes from; polled only once it has won its key. *)
type source = Entry of entry | Probe of probe | Member of family * int

type row = { r_name : string; r_labels : labels; r_stamp : int; r_source : source }

let poll row : Snapshot.entry =
  let value =
    match row.r_source with
    | Entry { instrument = Counter c; _ } -> Snapshot.Counter c.c_value
    | Entry { instrument = Gauge g; _ } -> Snapshot.Gauge g.g_value
    | Entry { instrument = Summary m; _ } -> summary_stats m
    | Entry { instrument = Series r; _ } -> Snapshot.Series (series_points r)
    | Probe p -> Snapshot.Gauge (p.p_read ())
    | Member (f, i) -> Snapshot.Gauge (f.f_value i)
  in
  { Snapshot.name = row.r_name; labels = row.r_labels; value }

let snapshot t : Snapshot.t =
  let of_entry acc e =
    { r_name = e.name; r_labels = e.labels; r_stamp = e.stamp; r_source = Entry e }
    :: acc
  in
  let of_probe acc p =
    {
      r_name = p.p_name;
      r_labels = normalize_labels p.p_labels;
      r_stamp = p.p_stamp;
      r_source = Probe p;
    }
    :: acc
  in
  let of_family acc f =
    let rec go i acc =
      if i < 0 then acc
      else
        go (i - 1)
          ({
             r_name = f.f_name;
             r_labels = [ (f.f_label, f.f_member i) ];
             r_stamp = f.f_stamp;
             r_source = Member (f, i);
           }
          :: acc)
    in
    go (f.f_size - 1) acc
  in
  let by_key a b =
    match String.compare a.r_name b.r_name with
    | 0 -> compare a.r_labels b.r_labels
    | c -> c
  in
  (* Sorted by key with the latest registration first, so keeping the
     first row of each key lets the last registration win. *)
  let order a b = match by_key a b with 0 -> Int.compare b.r_stamp a.r_stamp | c -> c in
  (* A probe and a table instrument may not share a key, in either
     order; the error names the later of the two as the one wanted. *)
  let check_kinds group =
    let entry =
      List.find_map (fun r -> match r.r_source with Entry e -> Some e | _ -> None) group
    in
    (* [group] runs latest first, so the last probe seen is the earliest. *)
    let first_probe =
      List.fold_left
        (fun acc r -> match r.r_source with Probe p -> Some p.p_stamp | _ -> acc)
        None group
    in
    match (entry, first_probe) with
    | Some e, Some p when p > e.stamp -> mismatch e.name "probe" (kind_name e.instrument)
    | Some e, Some _ -> mismatch e.name (kind_name e.instrument) "probe"
    | _ -> ()
  in
  let rec resolve acc = function
    | [] -> List.rev acc
    | winner :: rest ->
      let rec split shadowed = function
        | row :: rest when by_key winner row = 0 -> split (row :: shadowed) rest
        | rest -> (shadowed, rest)
      in
      let shadowed, rest = split [] rest in
      (match shadowed with [] -> () | _ -> check_kinds (winner :: List.rev shadowed));
      resolve (poll winner :: acc) rest
  in
  let rows = List.fold_left of_entry [] t.rev_entries in
  let rows = List.fold_left of_probe rows t.rev_probes in
  List.fold_left of_family rows t.rev_families |> List.sort order |> resolve []

let absorb t ?(labels = []) (snap : Snapshot.t) =
  List.iter
    (fun (e : Snapshot.entry) ->
      let combined = labels @ e.Snapshot.labels in
      match e.Snapshot.value with
      | Snapshot.Counter v ->
        let c = counter t ~labels:combined e.Snapshot.name in
        c.c_value <- c.c_value + v
      | Snapshot.Gauge v ->
        let g = gauge t ~labels:combined e.Snapshot.name in
        g.g_value <- g.g_value +. v
      | Snapshot.Summary { count; mean; stddev; min; max; total } ->
        let m = summary t ~labels:combined e.Snapshot.name in
        if count > 0 then begin
          let n = float_of_int count in
          (* Recover the moment sums so absorbed summaries keep merging:
             sum_sq = n * (stddev^2 + mean^2). *)
          m.m_count <- m.m_count + count;
          m.m_total <- m.m_total +. total;
          m.m_sum_sq <- m.m_sum_sq +. (n *. ((stddev *. stddev) +. (mean *. mean)));
          if min < m.m_min then m.m_min <- min;
          if max > m.m_max then m.m_max <- max
        end
      | Snapshot.Series pts ->
        let r = series t ~labels:combined e.Snapshot.name in
        List.iter
          (fun (x, y) ->
            r.r_rev_points <- (x, y) :: r.r_rev_points;
            r.r_len <- r.r_len + 1)
          pts)
    snap
