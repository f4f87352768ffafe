(** Composable fault models for the fabric.

    Cplant's reliability protocol lived {e below} the Portals modules: the
    wire was allowed to lose, duplicate and delay packets, and a
    seq/ACK/retransmit layer manufactured the reliable in-order service
    §2 of the paper assumes. To exercise that layer (lib/reliability) the
    fabric needs faults richer than the original boolean injector:

    {ul
    {- {!bernoulli}: i.i.d. loss at probability [p] — the classic sweep
       axis.}
    {- {!gilbert}: two-state Gilbert–Elliott burst loss; losses cluster,
       which is what stresses cumulative-ACK recovery.}
    {- {!duplicator}: delivers selected messages twice, exercising
       duplicate suppression.}
    {- {!corrupt}: mutates the encoded frame in flight — a seeded bit
       flip or truncation — exercising the integrity layer (frame
       checksums, §4.8 drop accounting).}
    {- {!delay}: seeded extra latency. By default the fabric still
       delivers each (src, dst) pair's traffic in send order (jitter
       reorders {e across} pairs only); [~reorder:true] lifts that and
       lets a pair's own messages overtake each other.}
    {- {!link_flap}: the link goes down for [downtime] out of every
       [period] and then repairs; everything sent while down is lost.}
    {- {!custom}: arbitrary stateful decisions, e.g. "drop every frame
       longer than N bytes".}}

    Every stochastic model carries its own explicit-state PRNG seeded at
    construction, so a campaign point [(model, seed)] replays exactly.
    Decisions are sampled once per message at {e send} time (corrupting
    models are re-sampled per hop on multi-hop routes; see [Fabric]). *)

type corruption =
  | Flip of { bit : int }  (** Flip bit [bit mod (len * 8)] of the frame. *)
  | Truncate of { keep : int }  (** Keep only the first [keep] bytes. *)

type decision =
  | Deliver  (** Let the message through untouched. *)
  | Drop  (** Lose the message after it occupies the wire. *)
  | Duplicate  (** Deliver the message twice. *)
  | Corrupt of corruption  (** Deliver a mutated copy of the frame. *)
  | Delay of { by : Sim_engine.Time_ns.t; reorder : bool }
      (** Deliver [by] later than the fault-free arrival; [reorder]
          permits overtaking within the (src, dst) pair. *)

type t

val none : t
(** Always {!Deliver}. *)

val bernoulli : ?seed:int -> p:float -> unit -> t
(** Drop each message independently with probability [p] (clamped to
    [0, 1]). *)

val gilbert :
  ?seed:int -> ?p_loss_bad:float -> p_enter:float -> p_exit:float -> unit -> t
(** Gilbert–Elliott burst loss. Each (src, dst) pair carries its own
    two-state chain: a Good link becomes Bad with probability [p_enter]
    per message, a Bad link repairs with probability [p_exit]; while Bad,
    messages drop with probability [p_loss_bad] (default 1.0). *)

val duplicator : ?seed:int -> p:float -> unit -> t
(** Duplicate each message independently with probability [p]. *)

val corrupt : ?seed:int -> p:float -> unit -> t
(** Corrupt each message independently with probability [p] (clamped to
    [0, 1]): 3/4 of corruption events flip one uniformly chosen bit, 1/4
    truncate the frame to a uniformly chosen prefix. Zero-length frames
    pass untouched. *)

val mutate : corruption -> Frame.t -> Frame.t
(** Apply a corruption to a frame. The original is never written (the
    sender still owns it): a [Flip] returns a frame whose header or view,
    whichever the bit lands in, is a fresh copy; a [Truncate] returns a
    shorter view. Out-of-range positions wrap ([Flip]) or clamp
    ([Truncate]), so any sampled corruption applies to any frame. *)

val delay : ?seed:int -> ?jitter:Sim_engine.Time_ns.t -> ?reorder:bool ->
  mean:Sim_engine.Time_ns.t -> unit -> t
(** Delay every message by [mean ± uniform jitter] (default jitter
    [mean / 2], default [reorder] false). Raises [Invalid_argument] on a
    negative [mean] or [jitter], or [jitter > mean] (a negative delay
    cannot be scheduled). *)

val link_flap :
  ?offset:Sim_engine.Time_ns.t ->
  period:Sim_engine.Time_ns.t ->
  downtime:Sim_engine.Time_ns.t ->
  unit ->
  t
(** Deterministic outage-and-repair cycle: within each [period] (starting
    at [offset], default 0), the link is up for [period - downtime], then
    down for [downtime]. Messages sent while down are dropped. [downtime]
    must not exceed [period]. *)

val custom :
  (now:Sim_engine.Time_ns.t ->
  src:Proc_id.t ->
  dst:Proc_id.t ->
  len:int ->
  decision) ->
  t
(** Arbitrary decision function; may close over its own state. Custom
    models have no keyed per-hop sampler (their corruption, if any, is
    end-to-end only), and a closure over shared state is the one model
    kind whose draws can depend on global event order — the parallel
    engine's same-seed determinism guarantee does not extend to it. *)

val compose : t list -> t
(** Evaluate every model on every message (so each model's PRNG stream
    advances identically regardless of the others' decisions) and
    combine by severity: any [Drop] wins, else the first [Corrupt], else
    the first [Delay], else any [Duplicate], else [Deliver]. *)

val can_corrupt : t -> bool
(** Whether the model can ever return [Corrupt]. The fabric re-samples
    corrupting models at each hop of a multi-hop route (per-hop
    corruption) and skips the re-sampling entirely for models that
    cannot, keeping their PRNG streams unchanged. *)

type hop_sampler =
  src:Proc_id.t -> dst:Proc_id.t -> seq:int -> hop:int -> len:int ->
  corruption option
(** Keyed per-hop corruption re-sample: a pure function of (model seed,
    pair, per-pair message sequence [seq], hop index), independent of
    execution order — so a route may cross shard boundaries in the
    parallel engine without sharing PRNG state. *)

val hop_sample : t -> hop_sampler option
(** The model's keyed per-hop sampler, if it can corrupt ([None] for
    non-corrupting and [custom] models). *)

val decide :
  t ->
  now:Sim_engine.Time_ns.t ->
  src:Proc_id.t ->
  dst:Proc_id.t ->
  len:int ->
  decision

(** {1 Crash-stop schedules}

    Unlike the per-message models above, node failures are scheduled
    events: at [down_at] the victim node crash-stops (fibers killed,
    in-flight traffic lost, procs deregistered) and at [up_at], if given,
    it restarts in a fresh incarnation. Apply with
    [Fabric.apply_crash_schedule]. *)

type crash_event = {
  victim : Proc_id.nid;
  down_at : Sim_engine.Time_ns.t;
  up_at : Sim_engine.Time_ns.t option;  (** [None] = never restarts. *)
}

type crash_schedule = crash_event list

val crash_schedule :
  (Proc_id.nid * Sim_engine.Time_ns.t * Sim_engine.Time_ns.t option) list ->
  crash_schedule
(** Validate and sort a scripted kill/revive list. Raises
    [Invalid_argument] on a negative [down_at], an [up_at] not after its
    [down_at], or a node crashing again while still down. *)

(** {1 Partition schedules}

    Network partitions are scheduled events like crashes, not per-message
    coin flips: at [cut_at] traffic between the two groups is severed
    (both directions, or only group_a → group_b when [one_way]) and at
    [heal_at], if given, the cut repairs. Partitioned nodes stay {e up} —
    their fibers run, they keep sending — which is exactly what
    distinguishes a partition from a crash to the liveness layer. Apply
    with [Fabric.apply_partition_schedule]. *)

type partition_event = {
  group_a : Proc_id.nid list;
  group_b : Proc_id.nid list;
  one_way : bool;  (** Sever only group_a → group_b traffic. *)
  cut_at : Sim_engine.Time_ns.t;
  heal_at : Sim_engine.Time_ns.t option;  (** [None] = never heals. *)
}

type partition_schedule = partition_event list

val partition_schedule : partition_event list -> partition_schedule
(** Validate and sort a cut/heal list. Raises [Invalid_argument] on an
    empty group, a node on both sides of a cut, a negative [cut_at], or a
    [heal_at] not after its [cut_at]. *)

val partition_nids : partition_schedule -> Proc_id.nid list
(** Every node named by the schedule, deduplicated — for range
    validation against the fabric's node count. *)

val cut_now :
  partition_schedule ->
  now:Sim_engine.Time_ns.t ->
  src:Proc_id.nid ->
  dst:Proc_id.nid ->
  bool
(** Whether src → dst traffic is severed at [now]. *)

val random_crash_schedule :
  ?seed:int ->
  nids:Proc_id.nid list ->
  crashes:int ->
  horizon:Sim_engine.Time_ns.t ->
  unit ->
  crash_schedule
(** [crashes] kill/revive pairs with uniformly drawn victims and times,
    spread over disjoint slices of [\[0, horizon)] so the schedule is
    always valid. Deterministic in [seed]. *)
