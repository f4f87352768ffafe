(* Central observability registry. Every subsystem (NI, CPU, links, event
   queues, protocol layers) registers named instruments here; experiments
   and the CLI read a uniform snapshot back out instead of stitching
   together per-module records.

   Instruments are keyed by (name, sorted labels); registering the same key
   twice returns the same instrument, so components created in loops (one
   NI per rank, one link per node) can register unconditionally. Probes are
   polled only at snapshot time, so hot paths pay nothing for them; the
   mutating instruments pay one branch on the shared [enabled] flag.

   A probe family stands for one probe per member of an array (every CPU,
   every link) as a single registration: no per-member closure, label
   list or table entry exists until a snapshot expands it. *)

type labels = (string * string) list

let normalize_labels labels =
  List.sort_uniq (fun (a, _) (b, _) -> String.compare a b) labels

let pp_labels ppf labels =
  match labels with
  | [] -> ()
  | _ ->
    Format.fprintf ppf "{%s}"
      (String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) labels))

type counter = { c_enabled : bool ref; mutable c_value : int }
type gauge = { g_enabled : bool ref; mutable g_value : float }

type summary = {
  m_enabled : bool ref;
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
  | Probe of (unit -> float)
  | Summary of summary
  | Series of series

(* [stamp] orders registrations, so a snapshot can let the latest one
   win where a family member and another registration share a key. *)
type entry = {
  name : string;
  labels : labels;
  mutable instrument : instrument;
  mutable stamp : int;
}

type family = {
  f_name : string;
  f_label : string;
  f_size : int;
  f_member : int -> string;
  f_value : int -> float;
  f_stamp : int;
}

type t = {
  enabled : bool ref;
  (* Time-series sampling is a separate, default-off level: every sample
     allocates a point, and some series sample per message (EQ depth,
     protocol windows) — too hot to pay in scaling sweeps that never read
     the curves. Deep-dive experiments (Fig. 5/6 worlds) switch it on. *)
  detail : bool ref;
  mutable rev_entries : entry list;
  mutable rev_families : family list;
  mutable last_stamp : int;
  tbl : (string * labels, entry) Hashtbl.t;
}

let create ?(enabled = true) ?(detail = false) () =
  {
    enabled = ref enabled;
    detail = ref detail;
    rev_entries = [];
    rev_families = [];
    last_stamp = 0;
    tbl = Hashtbl.create 64;
  }

let enabled t = !(t.enabled)
let set_enabled t on = t.enabled := on
let detail t = !(t.detail)
let set_detail t on = t.detail := on

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Probe _ -> "probe"
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
         Counter { c_enabled = t.enabled; c_value = 0 }))
      .instrument
  with
  | Counter c -> c
  | other -> mismatch name "counter" (kind_name other)

let gauge t ?(labels = []) name =
  match
    (register t name labels (fun () ->
         Gauge { g_enabled = t.enabled; g_value = 0. }))
      .instrument
  with
  | Gauge g -> g
  | other -> mismatch name "gauge" (kind_name other)

let probe t ?(labels = []) name f =
  (* Re-registering a probe rebinds it: a component recreated under the
     same identity (e.g. a fresh NI for the same rank) must not leave a
     stale closure polling dead state. *)
  let entry = register t name labels (fun () -> Probe f) in
  match entry.instrument with
  | Probe _ ->
    entry.instrument <- Probe f;
    entry.stamp <- next_stamp t
  | other -> mismatch name "probe" (kind_name other)

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

let new_summary enabled =
  Summary
    {
      m_enabled = enabled;
      m_count = 0;
      m_total = 0.;
      m_sum_sq = 0.;
      m_min = infinity;
      m_max = neg_infinity;
    }

let summary t ?(labels = []) name =
  match (register t name labels (fun () -> new_summary t.enabled)).instrument with
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

let incr c = if !(c.c_enabled) then c.c_value <- c.c_value + 1
let add c n = if !(c.c_enabled) then c.c_value <- c.c_value + n
let counter_value c = c.c_value
let set g v = if !(g.g_enabled) then g.g_value <- v
let gauge_value g = g.g_value

let observe m x =
  if !(m.m_enabled) then begin
    m.m_count <- m.m_count + 1;
    m.m_total <- m.m_total +. x;
    m.m_sum_sq <- m.m_sum_sq +. (x *. x);
    if x < m.m_min then m.m_min <- x;
    if x > m.m_max then m.m_max <- x
  end

let push r ~x ~y =
  if !(r.r_enabled) then begin
    r.r_rev_points <- (x, y) :: r.r_rev_points;
    r.r_len <- r.r_len + 1
  end

let series_points r = List.rev r.r_rev_points
let series_length r = r.r_len

let reset t =
  List.iter
    (fun e ->
      match e.instrument with
      | Counter c -> c.c_value <- 0
      | Gauge g -> g.g_value <- 0.
      | Probe _ -> ()
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

let snapshot t : Snapshot.t =
  let capture e : Snapshot.entry =
    let value =
      match e.instrument with
      | Counter c -> Snapshot.Counter c.c_value
      | Gauge g -> Snapshot.Gauge g.g_value
      | Probe f -> Snapshot.Gauge (f ())
      | Summary m -> summary_stats m
      | Series r -> Snapshot.Series (series_points r)
    in
    { Snapshot.name = e.name; labels = e.labels; value }
  in
  let expand acc f =
    let rec go i acc =
      if i < 0 then acc
      else
        let e =
          {
            Snapshot.name = f.f_name;
            labels = [ (f.f_label, f.f_member i) ];
            value = Snapshot.Gauge (f.f_value i);
          }
        in
        go (i - 1) ((f.f_stamp, e) :: acc)
    in
    go (f.f_size - 1) acc
  in
  let by_key (a : Snapshot.entry) (b : Snapshot.entry) =
    match String.compare a.Snapshot.name b.Snapshot.name with
    | 0 -> compare a.Snapshot.labels b.Snapshot.labels
    | c -> c
  in
  (* Sorted by key with the latest registration first, so keeping the
     first entry of each key lets the last registration win. *)
  let order (sa, a) (sb, b) =
    match by_key a b with 0 -> Int.compare sb sa | c -> c
  in
  let rec latest acc = function
    | (_, e) :: rest -> (
      match acc with
      | prev :: _ when by_key prev e = 0 -> latest acc rest
      | _ -> latest (e :: acc) rest)
    | [] -> List.rev acc
  in
  let stamped = List.rev_map (fun e -> (e.stamp, capture e)) t.rev_entries in
  List.fold_left expand stamped t.rev_families |> List.sort order |> latest []

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
        g.g_value <- v
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
