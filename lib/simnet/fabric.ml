open Sim_engine

type stats = {
  messages_sent : int;
  bytes_sent : int;
  messages_delivered : int;
  drops_unregistered : int;
  drops_injected : int;
  drops_congested : int;
  drops_crashed : int;
  drops_partitioned : int;
  dups_injected : int;
  corrupts_injected : int;
  delays_injected : int;
}

type shim = {
  shim_tx : src:Proc_id.t -> dst:Proc_id.t -> Frame.t -> unit;
  shim_rx : src:Proc_id.t -> dst:Proc_id.t -> Frame.t -> unit;
}

(* A registered receiver takes plain bytes ([register]) or frames
   ([register_frames]); the fabric hands each what it asked for. *)
type handler =
  | Bytes_rx of (src:Proc_id.t -> bytes -> unit)
  | Frame_rx of (src:Proc_id.t -> Frame.t -> unit)

(* What a message in flight carries, and so where it lands. A raw
   message is the whole-buffer frame with no header, and travels as its
   bytes, unboxed: the raw path allocates no frame. A frame with a
   header travels as a [Frame.t], and the shim's own frames are told
   apart by their class, which rides beside the bytes. *)
type _ body =
  | Whole : bytes body  (* [send_raw], or [send] with no shim *)
  | View : Frame.t body  (* [send_frame] with no shim *)
  | Shim : Frame.t body  (* [send_framed]: lands at [shim_rx] *)

(* Cross-shard fabric traffic as plain data. The sending shard resolves
   every stochastic choice — fault decision, delay, partition cut, crash
   epochs — before the message leaves its domain, so the receiving shard
   only executes consequences against its own replica state. Closures
   must not cross domains: they would capture the wrong shard's fabric.
   A frame crossing shards still views the sender's buffer, which is
   immutable once sent (see [Frame]). *)
type remote =
  | R_land : {
      rl_body : 'p body;
      rl_src : Proc_id.t;
      rl_dst : Proc_id.t;
      rl_payload : 'p;
      rl_decision : Fault.decision;
      rl_cut : bool;
      rl_src_epoch : int;
      rl_dst_epoch : int;
    }
      -> remote
  | R_hop : {
      rh_body : 'p body;
      rh_src : Proc_id.t;
      rh_dst : Proc_id.t;
      rh_payload : 'p;
      rh_v : int; (* the vertex the message has reached *)
      rh_i : int; (* hops taken so far; keys hop corruption *)
      rh_seq : int; (* per-pair message sequence, keys hop corruption *)
      rh_wire_bytes : int; (* wire image of the {e original} frame *)
      rh_decision : Fault.decision;
      rh_cut : bool;
      rh_src_epoch : int;
      rh_dst_epoch : int;
      rh_delay_by : Time_ns.t;
      rh_clamp : bool; (* FIFO floor active, decided at send time *)
    }
      -> remote

(* Crash or restart callbacks in registration order: a growable array
   with a count, so registering one is amortized O(1). *)
type listeners = { mutable fns : (Proc_id.nid -> unit) array; mutable count : int }

let new_listeners () = { fns = [||]; count = 0 }

type t = {
  fabric_sched : Scheduler.t;
  fabric_profile : Profile.t;
  topo : Topology.t;
  (* The world's node-to-shard map and this replica's shard in it. A
     replica holds state only for what its shard owns: the nodes of its
     block [first, first + Array.length nodes), and the hop links leaving
     the vertices it owns. A sequential fabric is the one shard, which
     owns everything. *)
  shard_map : Shard_map.t;
  self : int;
  (* [Shard_map.shards shard_map > 1], kept as a field: every hop and
     landing asks it, and asking the map (a call into another module)
     made the 1-shard [paper] benchmark about 5% slower. *)
  sharded : bool;
  first : Proc_id.nid;
  (* One serialising link per directed edge of the hop graph, indexed by
     topology link id; empty for the fully-connected (seed) topology,
     which keeps the private-wire fast path. A link another shard owns
     is one shared placeholder, never transmitted on: a hop always runs
     on the shard that owns the link's source vertex. There is no route
     table: each hop asks [Router.next_link] for the link out of the
     vertex the message has reached. *)
  hop_links : Link.t array;
  (* The owned nodes, indexed by [nid - first]. *)
  nodes : Node.t array;
  (* Every node's crash state, owned or not, one word each: its crash
     count (the crash epoch) times two, plus one while it is down. The
     replicated crash schedule keeps the words in step on every shard,
     which is all a replica knows of the nodes it does not own. *)
  status : int array;
  (* Per-node handler slots of the owned nodes, indexed by [nid - first]
     then pid. Delivery is the fabric's hottest operation, so the lookup
     is two array loads instead of a hash of the (nid, pid) record. The
     pid dimension grows on demand (procs-per-node is small, usually 1). *)
  handlers : handler option array array;
  mutable fault : Fault.t option;
  (* Whether frame codecs above this fabric append and require CRC-32C
     trailers; see [set_integrity]. *)
  mutable integrity : bool;
  mutable shim : shim option;
  (* Scheduled cuts, consulted (deterministically, no PRNG) on every
     landing while non-empty. *)
  mutable partitions : Fault.partition_schedule;
  (* Per-(src,dst) FIFO floor, active from the first non-reorder [Delay]
     decision on: a delayed message records its arrival and every later
     message on the pair lands no earlier, so jitter reorders across
     pairs but never within one. Inactive (and costing nothing) until a
     delay fault actually fires. *)
  mutable fifo_clamp : bool;
  pair_arrivals : Time_ns.t ref Proc_id.Pair_tbl.tbl;
  (* Per-(src,dst) message sequence, maintained only when the fault model
     has a keyed per-hop sampler; keys its draws. *)
  send_seqs : int ref Proc_id.Pair_tbl.tbl;
  (* Forwards a message whose next step runs on another shard; installed
     by [set_post] on a sharded replica. *)
  mutable post : dst_shard:int -> time:Time_ns.t -> remote -> unit;
  (* Fault-family probes are registered on first use so a fault-free
     run's metric snapshot stays exactly what it was before the
     corruption/delay/partition faults existed. *)
  mutable fault_probes_on : bool;
  mutable partition_probe_on : bool;
  mutable sent : int;
  mutable sent_bytes : int;
  mutable delivered : int;
  mutable drop_unregistered : int;
  mutable drop_congested : int;
  mutable drop_crashed : int;
  mutable drop_partitioned : int;
  mutable corrupt_injected : int;
  mutable delay_injected : int;
  mutable dup_injected : int;
  mutable crash_count : int;
  mutable restart_count : int;
  crash_listeners : listeners;
  restart_listeners : listeners;
  (* Injected drops are counted per (src, dst) pair in the registry;
     [stats] derives the total by summing these. A pair's counter is
     created by its first drop, so the table grows with the traffic
     that was lost, never with the node count. *)
  drop_pairs : Metrics.counter Proc_id.Pair_tbl.tbl;
}

let create ?topology ?queue_limit ?shard sched ~profile ~nodes =
  if nodes <= 0 then invalid_arg "Fabric.create: need at least one node";
  let topo =
    match topology with
    | None -> Topology.build Topology.Full ~nodes
    | Some topo ->
      if Topology.nodes topo <> nodes then
        invalid_arg
          (Printf.sprintf "Fabric.create: topology has %d nodes, not %d"
             (Topology.nodes topo) nodes);
      topo
  in
  let shard_map, self =
    match shard with
    | None -> (Shard_map.build topo ~profile ~shards:1, 0)
    | Some (map, k) ->
      if Shard_map.nodes map <> nodes then
        invalid_arg
          (Printf.sprintf "Fabric.create: shard map has %d nodes, not %d"
             (Shard_map.nodes map) nodes);
      (map, k)
  in
  let first, stop = Shard_map.block shard_map self in
  (* A hop runs on the shard that owns the link's source vertex, so that
     shard alone builds the link. *)
  let owns_link id = Shard_map.owner shard_map (Topology.link_src topo id) = self in
  let unowned = lazy (Link.create ~name:"unowned" sched) in
  let hop_links =
    Array.init (Topology.link_count topo) (fun id ->
        if owns_link id then
          Link.create
            ~name:(Topology.link_name topo id)
            ~bandwidth:profile.Profile.wire_bandwidth
            ~latency:profile.Profile.wire_latency ?queue_limit ~tracked:true
            sched
        else Lazy.force unowned)
  in
  (* The owned hop links in id order: all of them, unless the
     placeholder stands in for some. *)
  let owned_links =
    if Lazy.is_val unowned then begin
      let owned = ref [] in
      for id = Array.length hop_links - 1 downto 0 do
        if owns_link id then owned := hop_links.(id) :: !owned
      done;
      Array.of_list !owned
    end
    else hop_links
  in
  let t =
    {
      fabric_sched = sched;
      fabric_profile = profile;
      topo;
      shard_map;
      self;
      sharded = Shard_map.shards shard_map > 1;
      first;
      hop_links;
      nodes =
        Array.init (stop - first) (fun i -> Node.create sched ~nid:(first + i));
      status = Array.make nodes 0;
      handlers = Array.make (stop - first) [||];
      fault = None;
      integrity = false;
      shim = None;
      partitions = [];
      fifo_clamp = false;
      pair_arrivals = Proc_id.Pair_tbl.create 16;
      send_seqs = Proc_id.Pair_tbl.create 16;
      post =
        (fun ~dst_shard:_ ~time:_ _ ->
          invalid_arg "Fabric: a sharded replica posted before set_post");
      fault_probes_on = false;
      partition_probe_on = false;
      sent = 0;
      sent_bytes = 0;
      delivered = 0;
      drop_unregistered = 0;
      drop_congested = 0;
      drop_crashed = 0;
      drop_partitioned = 0;
      corrupt_injected = 0;
      delay_injected = 0;
      dup_injected = 0;
      crash_count = 0;
      restart_count = 0;
      crash_listeners = new_listeners ();
      restart_listeners = new_listeners ();
      drop_pairs = Proc_id.Pair_tbl.create 16;
    }
  in
  (* The fabric owns its nodes' CPUs and links and its hop links, so it
     registers their probes: one family per metric, not one per part. *)
  let owned = Array.length t.nodes in
  Cpu.probe_family sched ~size:owned (fun i -> Node.host_cpu t.nodes.(i));
  Link.probe_family sched ~size:owned (fun i -> Node.tx_link t.nodes.(i));
  Link.probe_family sched ~size:(Array.length owned_links) (Array.get owned_links);
  let m = Scheduler.metrics sched in
  let probe name f = Metrics.probe m name (fun () -> float_of_int (f ())) in
  probe "fabric.sent" (fun () -> t.sent);
  probe "fabric.sent_bytes" (fun () -> t.sent_bytes);
  probe "fabric.delivered" (fun () -> t.delivered);
  probe "fabric.drops_unregistered" (fun () -> t.drop_unregistered);
  (* Only a shared-link topology can congest; keep the seed topology's
     metric snapshot exactly as it was. *)
  if Array.length hop_links > 0 then
    probe "fabric.drops_congested" (fun () -> t.drop_congested);
  probe "fabric.dups_injected" (fun () -> t.dup_injected);
  probe "fabric.drops_crashed" (fun () -> t.drop_crashed);
  probe "fabric.crashes" (fun () -> t.crash_count);
  probe "fabric.restarts" (fun () -> t.restart_count);
  t

let sched t = t.fabric_sched
let profile t = t.fabric_profile
let topology t = t.topo
let node_count t = Array.length t.status
let owned_nodes t = (t.first, t.first + Array.length t.nodes)

let owns t nid =
  let i = nid - t.first in
  i >= 0 && i < Array.length t.nodes

let check_nid t ~what nid =
  if nid < 0 || nid >= node_count t then
    invalid_arg (Printf.sprintf "%s: nid %d out of range" what nid)

let owned_index t ~what nid =
  check_nid t ~what nid;
  if not (owns t nid) then
    invalid_arg
      (Printf.sprintf "%s: node %d belongs to shard %d, not to shard %d" what
         nid
         (Shard_map.owner t.shard_map nid)
         t.self);
  nid - t.first

let per_node t f = Array.init (Array.length t.nodes) (fun i -> f (t.first + i))

let hop_link t id =
  if id < 0 || id >= Array.length t.hop_links then
    invalid_arg (Printf.sprintf "Fabric.hop_link: id %d out of range" id);
  let v = Topology.link_src t.topo id in
  let owner = Shard_map.owner t.shard_map v in
  if owner <> t.self then
    invalid_arg
      (Printf.sprintf
         "Fabric.hop_link: link %d leaves vertex %d of shard %d, not of shard %d"
         id v owner t.self);
  t.hop_links.(id)

let peak_link_queue_depth t =
  Array.fold_left (fun acc l -> max acc (Link.peak_queue_depth l)) 0 t.hop_links

let node t nid = t.nodes.(owned_index t ~what:"Fabric.node" nid)

(* The handler of an owned process, if any; [None] for a process of a
   node this replica does not own. *)
let find_handler t pid =
  let i = pid.Proc_id.nid - t.first and p = pid.Proc_id.pid in
  if i < 0 || i >= Array.length t.handlers || p < 0 then None
  else
    let slots = t.handlers.(i) in
    if p >= Array.length slots then None else slots.(p)

let add_handler t pid handler =
  let i = owned_index t ~what:"Fabric.register" pid.Proc_id.nid in
  if find_handler t pid <> None then
    invalid_arg ("Fabric.register: already registered: " ^ Proc_id.to_string pid);
  let p = pid.Proc_id.pid in
  if p < 0 then
    invalid_arg ("Fabric.register: negative pid: " ^ Proc_id.to_string pid);
  let slots = t.handlers.(i) in
  let slots =
    if p < Array.length slots then slots
    else begin
      let grown = Array.make (max (p + 1) (2 * Array.length slots)) None in
      Array.blit slots 0 grown 0 (Array.length slots);
      t.handlers.(i) <- grown;
      grown
    end
  in
  slots.(p) <- Some handler

let register t pid handler = add_handler t pid (Bytes_rx handler)
let register_frames t pid handler = add_handler t pid (Frame_rx handler)

let unregister t pid =
  let i = owned_index t ~what:"Fabric.unregister" pid.Proc_id.nid in
  let slots = t.handlers.(i) and p = pid.Proc_id.pid in
  if p >= 0 && p < Array.length slots then slots.(p) <- None

let is_registered t pid =
  ignore (owned_index t ~what:"Fabric.is_registered" pid.Proc_id.nid);
  find_handler t pid <> None

let status t ~what nid =
  check_nid t ~what nid;
  t.status.(nid)

let is_node_up t nid = status t ~what:"Fabric.is_node_up" nid land 1 = 0

(* A restart bumps the incarnation: it trails the crash count while the
   node is down and equals it once the node is back. *)
let incarnation t nid =
  let s = status t ~what:"Fabric.incarnation" nid in
  (s lsr 1) - (s land 1)

let set_post t post =
  if not t.sharded then invalid_arg "Fabric.set_post: a lone shard posts nothing";
  t.post <- post

(* The shard that runs vertex [v]'s part of a message, or -1 for this
   one. *)
let elsewhere t v =
  if not t.sharded then -1
  else
    let owner = Shard_map.owner t.shard_map v in
    if owner = t.self then -1 else owner

(* Conservative: a replica can only rule out an endpoint it is the
   authority for. Remote handler tables live on the owning shard. *)
let endpoint_live t pid =
  if owns t pid.Proc_id.nid then find_handler t pid <> None else true

let append_listener l f =
  if l.count = Array.length l.fns then begin
    let fns = Array.make (max 4 (2 * l.count)) f in
    Array.blit l.fns 0 fns 0 l.count;
    l.fns <- fns
  end;
  l.fns.(l.count) <- f;
  l.count <- l.count + 1

(* Only the listeners registered before this event fire: one appended by
   a running listener waits for the next event. *)
let fire l nid =
  let n = l.count in
  for i = 0 to n - 1 do
    l.fns.(i) nid
  done

let on_crash t f = append_listener t.crash_listeners f
let on_restart t f = append_listener t.restart_listeners f

(* In parallel mode this runs on {e every} shard at the same simulated
   time (the schedule is replicated), so each shard's status word for
   the victim flips in lockstep; only the owner counts the event and
   clears the victim's handlers, and the kill is a no-op elsewhere
   (remote nodes have no fibers on this shard). Listeners fire on every
   shard: each shard's shims and monitors track all peers. *)
let crash t nid =
  let s = status t ~what:"Fabric.crash" nid in
  if s land 1 = 1 then
    invalid_arg (Printf.sprintf "Fabric.crash: node %d already down" nid);
  t.status.(nid) <- s + 3;
  if owns t nid then begin
    t.crash_count <- t.crash_count + 1;
    (* Volatile state dies with the node: its processes disappear from
       the fabric and its resident fibers are destroyed. *)
    let slots = t.handlers.(nid - t.first) in
    Array.fill slots 0 (Array.length slots) None
  end;
  ignore (Scheduler.kill_domain t.fabric_sched nid);
  fire t.crash_listeners nid

let restart t nid =
  let s = status t ~what:"Fabric.restart" nid in
  if s land 1 = 0 then
    invalid_arg (Printf.sprintf "Fabric.restart: node %d not down" nid);
  t.status.(nid) <- s - 1;
  if owns t nid then t.restart_count <- t.restart_count + 1;
  fire t.restart_listeners nid

let apply_crash_schedule t schedule =
  List.iter
    (fun ev ->
      check_nid t ~what:"Fabric.apply_crash_schedule" ev.Fault.victim;
      Scheduler.at t.fabric_sched ev.Fault.down_at (fun () ->
          crash t ev.Fault.victim);
      Option.iter
        (fun up ->
          Scheduler.at t.fabric_sched up (fun () -> restart t ev.Fault.victim))
        ev.Fault.up_at)
    schedule

let ensure_fault_probes t =
  if not t.fault_probes_on then begin
    t.fault_probes_on <- true;
    let m = Scheduler.metrics t.fabric_sched in
    let probe name f = Metrics.probe m name (fun () -> float_of_int (f ())) in
    probe "fabric.corrupts_injected" (fun () -> t.corrupt_injected);
    probe "fabric.delays_injected" (fun () -> t.delay_injected)
  end

let set_fault_model t fault =
  if fault <> None then ensure_fault_probes t;
  t.fault <- fault

let set_integrity t on = t.integrity <- on
let integrity t = t.integrity

let apply_partition_schedule t schedule =
  let schedule = Fault.partition_schedule schedule in
  List.iter
    (fun nid ->
      if nid < 0 || nid >= node_count t then
        invalid_arg
          (Printf.sprintf "Fabric.apply_partition_schedule: unknown nid %d" nid))
    (Fault.partition_nids schedule);
  if schedule <> [] && not t.partition_probe_on then begin
    t.partition_probe_on <- true;
    Metrics.probe
      (Scheduler.metrics t.fabric_sched)
      "fabric.drops_partitioned"
      (fun () -> float_of_int (t.drop_partitioned))
  end;
  t.partitions <- t.partitions @ schedule

let partition_schedule t = t.partitions
let has_partitions t = t.partitions <> []

let partitioned_now t ~src ~dst =
  t.partitions <> []
  && Fault.cut_now t.partitions ~now:(Scheduler.now t.fabric_sched) ~src ~dst

let install_shim t shim =
  if t.shim <> None then
    invalid_arg "Fabric.install_shim: a shim is already installed";
  t.shim <- Some shim

let has_shim t = t.shim <> None

let drop_pair_counter t ~src ~dst =
  match Proc_id.Pair_tbl.find t.drop_pairs src dst with
  | c -> c
  | exception Not_found ->
    let c =
      Metrics.counter
        (Scheduler.metrics t.fabric_sched)
        ~labels:
          [ ("src", Proc_id.to_string src); ("dst", Proc_id.to_string dst) ]
        "fabric.drops_injected"
    in
    Proc_id.Pair_tbl.add t.drop_pairs src dst c;
    c

let deliver_bytes t ~src ~dst buf =
  match find_handler t dst with
  | None -> t.drop_unregistered <- t.drop_unregistered + 1
  | Some handler -> (
    t.delivered <- t.delivered + 1;
    match handler with
    | Bytes_rx f -> f ~src buf
    | Frame_rx f -> f ~src (Frame.of_bytes buf))

let deliver t ~src ~dst frame =
  match find_handler t dst with
  | None -> t.drop_unregistered <- t.drop_unregistered + 1
  | Some handler -> (
    t.delivered <- t.delivered + 1;
    match handler with
    | Bytes_rx f -> f ~src (Frame.to_bytes frame)
    | Frame_rx f -> f ~src frame)

(* The frame class travels beside the payload, never inside it: bit
   damage cannot turn a shim frame into raw traffic or back. *)
let arrive : type p. t -> p body -> src:Proc_id.t -> dst:Proc_id.t -> p -> unit
    =
 fun t body ~src ~dst payload ->
  match body with
  | Whole -> deliver_bytes t ~src ~dst payload
  | View -> deliver t ~src ~dst payload
  | Shim -> (
    match t.shim with
    | Some shim -> shim.shim_rx ~src ~dst payload
    | None -> deliver t ~src ~dst payload)

let body_length : type p. p body -> p -> int =
 fun body payload ->
  match body with
  | Whole -> Bytes.length payload
  | View -> Frame.length payload
  | Shim -> Frame.length payload

(* Damage never writes into the sent payload ([Fault.mutate] copies on
   write), and a raw message stays raw bytes. *)
let mutate_counted : type p. t -> p body -> Fault.corruption -> p -> p =
 fun t body c payload ->
  t.corrupt_injected <- t.corrupt_injected + 1;
  match body with
  | Whole -> Frame.to_bytes (Fault.mutate c (Frame.of_bytes payload))
  | View -> Fault.mutate c payload
  | Shim -> Fault.mutate c payload

(* On multi-hop routes the end-to-end fault sample covers the first hop;
   each later hop re-samples, honouring only [Corrupt] outcomes, so a
   long route accumulates more bit damage than a short one while
   loss/delay/duplication stay end-to-end properties. The re-sample is
   the model's {e keyed} sampler — a pure function of (pair, message
   sequence, hop index) — so a route crossing shard boundaries draws the
   same damage no matter which domain executes which hop. Models that
   cannot corrupt have no sampler and cost nothing here. *)
let per_hop_corrupt t body ~src ~dst ~seq ~hop payload =
  match t.fault with
  | Some f -> (
    match Fault.hop_sample f with
    | Some sample -> (
      match sample ~src ~dst ~seq ~hop ~len:(body_length body payload) with
      | Some c -> mutate_counted t body c payload
      | None -> payload)
    | None -> payload)
  | None -> payload

(* Per-pair send sequence, maintained only when keyed hop sampling needs
   it: the count is then a pure function of the pair's send history, so
   sequential and parallel runs agree on every key. *)
let next_send_seq t ~src ~dst =
  match t.fault with
  | Some f when Fault.hop_sample f <> None -> (
    match Proc_id.Pair_tbl.find t.send_seqs src dst with
    | r ->
      let v = !r in
      r := v + 1;
      v
    | exception Not_found ->
      Proc_id.Pair_tbl.add t.send_seqs src dst (ref 1);
      0)
  | _ -> 0

let clamp_arrival t ~src ~dst arrival =
  match Proc_id.Pair_tbl.find t.pair_arrivals src dst with
  | r ->
    let a = if Time_ns.compare arrival !r < 0 then !r else arrival in
    r := a;
    a
  | exception Not_found ->
    Proc_id.Pair_tbl.add t.pair_arrivals src dst (ref arrival);
    arrival

(* Landing: the message has reached its destination at the current
   simulated time; apply the decision resolved at send time. Runs on the
   destination's owner shard, so every land-side counter is incremented
   exactly once across the world. *)
let land_msg t body ~src ~dst ~decision ~cut ~src_epoch ~dst_epoch payload =
  let sender = t.status.(src.Proc_id.nid)
  and receiver = t.status.(dst.Proc_id.nid) in
  if
    sender lsr 1 <> src_epoch
    || receiver lsr 1 <> dst_epoch
    || receiver land 1 = 1
  then t.drop_crashed <- t.drop_crashed + 1
  else if cut then t.drop_partitioned <- t.drop_partitioned + 1
  else
    match decision with
    | Fault.Drop -> Metrics.incr (drop_pair_counter t ~src ~dst)
    | Fault.Deliver | Fault.Delay _ -> arrive t body ~src ~dst payload
    | Fault.Corrupt c ->
      arrive t body ~src ~dst (mutate_counted t body c payload)
    | Fault.Duplicate ->
      t.dup_injected <- t.dup_injected + 1;
      arrive t body ~src ~dst payload;
      arrive t body ~src ~dst payload

(* Store-and-forward over the hop path: at each hop the message
   FIFO-queues on the shared link, occupies it for its full wire image,
   then propagates to the next vertex. A hop whose queue is over the
   limit drops the message — to the layers above (and to
   [lib/reliability]) this is indistinguishable from wire loss. The
   message carries only the vertex [v] it has reached and the hops [i]
   taken so far: {!Router.next_link} names the next link from those, so
   no route is stored. Each hop executes on the shard owning the link's
   source vertex; advancing to a vertex owned elsewhere posts the rest of
   the journey, from that vertex, as plain data. *)
let rec hop_step :
    type p.
    t ->
    p body ->
    v:int ->
    src:Proc_id.t ->
    dst:Proc_id.t ->
    seq:int ->
    i:int ->
    wire_bytes:int ->
    decision:Fault.decision ->
    cut:bool ->
    src_epoch:int ->
    dst_epoch:int ->
    delay_by:Time_ns.t ->
    clamp:bool ->
    p ->
    unit =
 fun t body ~v ~src ~dst ~seq ~i ~wire_bytes ~decision ~cut ~src_epoch
     ~dst_epoch ~delay_by ~clamp payload ->
  if v = dst.Proc_id.nid then begin
    let now = Scheduler.now t.fabric_sched in
    let arrival = Time_ns.add now delay_by in
    let arrival = if clamp then clamp_arrival t ~src ~dst arrival else arrival in
    if Time_ns.compare arrival now = 0 then
      land_msg t body ~src ~dst ~decision ~cut ~src_epoch ~dst_epoch payload
    else
      Scheduler.at t.fabric_sched arrival (fun () ->
          land_msg t body ~src ~dst ~decision ~cut ~src_epoch ~dst_epoch
            payload)
  end
  else begin
    let payload =
      if i = 0 then payload
      else per_hop_corrupt t body ~src ~dst ~seq ~hop:i payload
    in
    let flow = (src.Proc_id.nid * node_count t) + dst.Proc_id.nid in
    let l = Router.next_link t.topo ~src:src.Proc_id.nid ~dst:dst.Proc_id.nid ~at:v in
    match Link.transmit t.hop_links.(l) ~flow ~bytes:wire_bytes () with
    | `Dropped -> t.drop_congested <- t.drop_congested + 1
    | `Accepted arrival ->
      let next_v = Topology.link_dst t.topo l in
      let dst_shard = elsewhere t next_v in
      if dst_shard >= 0 then
        t.post ~dst_shard ~time:arrival
          (R_hop
             {
               rh_body = body;
               rh_src = src;
               rh_dst = dst;
               rh_payload = payload;
               rh_v = next_v;
               rh_i = i + 1;
               rh_seq = seq;
               rh_wire_bytes = wire_bytes;
               rh_decision = decision;
               rh_cut = cut;
               rh_src_epoch = src_epoch;
               rh_dst_epoch = dst_epoch;
               rh_delay_by = delay_by;
               rh_clamp = clamp;
             })
      else
        Scheduler.at t.fabric_sched arrival (fun () ->
            hop_step t body ~v:next_v ~src ~dst ~seq ~i:(i + 1) ~wire_bytes
              ~decision ~cut ~src_epoch ~dst_epoch ~delay_by ~clamp payload)
  end

let exec_remote t = function
  | R_land
      { rl_body; rl_src; rl_dst; rl_payload; rl_decision; rl_cut;
        rl_src_epoch; rl_dst_epoch } ->
    land_msg t rl_body ~src:rl_src ~dst:rl_dst ~decision:rl_decision
      ~cut:rl_cut ~src_epoch:rl_src_epoch ~dst_epoch:rl_dst_epoch rl_payload
  | R_hop
      { rh_body; rh_src; rh_dst; rh_payload; rh_v; rh_i; rh_seq; rh_wire_bytes;
        rh_decision; rh_cut; rh_src_epoch; rh_dst_epoch; rh_delay_by;
        rh_clamp } ->
    hop_step t rh_body ~v:rh_v ~src:rh_src ~dst:rh_dst ~seq:rh_seq ~i:rh_i
      ~wire_bytes:rh_wire_bytes ~decision:rh_decision ~cut:rh_cut
      ~src_epoch:rh_src_epoch ~dst_epoch:rh_dst_epoch ~delay_by:rh_delay_by
      ~clamp:rh_clamp rh_payload

let receive_remote t ~time msg =
  Scheduler.at t.fabric_sched time (fun () -> exec_remote t msg)

let transmit : type p. t -> p body -> src:Proc_id.t -> dst:Proc_id.t -> p -> unit
    =
 fun t body ~src ~dst payload ->
  let len = body_length body payload in
  (* A message leaves from its sender's owner shard, and the receiver's
     crash epoch is read from this replica's status words. *)
  let sender = node t src.Proc_id.nid in
  let src_status = t.status.(src.Proc_id.nid) in
  let dst_status = status t ~what:"Fabric.send" dst.Proc_id.nid in
  if src_status land 1 = 1 then
    (* A dead node injects nothing; late scheduled callbacks acting on its
       behalf (retransmit timers, NIC engines) are silently fenced. *)
    t.drop_crashed <- t.drop_crashed + 1
  else begin
    t.sent <- t.sent + 1;
    t.sent_bytes <- t.sent_bytes + len;
    let decision =
      match t.fault with
      | None -> Fault.Deliver
      | Some f ->
        Fault.decide f ~now:(Scheduler.now t.fabric_sched) ~src ~dst ~len
    in
    (* A scheduled cut severs the pair outright — decided at send time
       (deterministic, no PRNG draw) but counted at landing like every
       other in-flight loss. *)
    let cut =
      t.partitions <> []
      && Fault.cut_now t.partitions
           ~now:(Scheduler.now t.fabric_sched)
           ~src:src.Proc_id.nid ~dst:dst.Proc_id.nid
    in
    let delay_by, delay_reorder =
      match decision with
      | Fault.Delay { by; reorder } ->
        t.delay_injected <- t.delay_injected + 1;
        if not reorder then t.fifo_clamp <- true;
        (by, reorder)
      | _ -> (Time_ns.zero, false)
    in
    (* The FIFO floor is decided at send time and rides with the message:
       a multi-hop landing may execute on another shard, whose own
       fifo_clamp flag only reflects traffic {e sent} from there. *)
    let clamp = t.fifo_clamp && not delay_reorder in
    (* Crash epochs captured at send time: if either end crashes while the
       message is in flight, it was sitting in a NIC pipeline that no
       longer exists, so it is lost even if the node is back up by
       arrival. The receiver's epoch reads this shard's replica, kept in
       lockstep by the replicated crash schedule. *)
    let src_epoch = src_status lsr 1 and dst_epoch = dst_status lsr 1 in
    let seq = next_send_seq t ~src ~dst in
    if Array.length t.hop_links = 0 || src.Proc_id.nid = dst.Proc_id.nid then begin
      (* Private-wire fast path: the seed model, kept bit-for-bit. Also
         taken for node-local traffic on every topology. *)
      let serialised =
        Link.occupy (Node.tx_link sender) (Profile.tx_time t.fabric_profile len)
      in
      let arrival =
        Time_ns.add
          (Time_ns.add serialised t.fabric_profile.Profile.wire_latency)
          delay_by
      in
      let arrival =
        if clamp then clamp_arrival t ~src ~dst arrival else arrival
      in
      let dst_shard = elsewhere t dst.Proc_id.nid in
      if dst_shard >= 0 then
        t.post ~dst_shard ~time:arrival
          (R_land
             {
               rl_body = body;
               rl_src = src;
               rl_dst = dst;
               rl_payload = payload;
               rl_decision = decision;
               rl_cut = cut;
               rl_src_epoch = src_epoch;
               rl_dst_epoch = dst_epoch;
             })
      else
        Scheduler.at t.fabric_sched arrival (fun () ->
            land_msg t body ~src ~dst ~decision ~cut ~src_epoch ~dst_epoch
              payload)
    end
    else begin
      let wire_bytes = Profile.wire_bytes_of_len t.fabric_profile len in
      hop_step t body ~v:src.Proc_id.nid ~src ~dst ~seq ~i:0 ~wire_bytes ~decision ~cut
        ~src_epoch ~dst_epoch ~delay_by ~clamp payload
    end
  end

let send_raw t ~src ~dst payload = transmit t Whole ~src ~dst payload
let send_framed t ~src ~dst frame = transmit t Shim ~src ~dst frame

let send t ~src ~dst payload =
  match t.shim with
  | Some shim -> shim.shim_tx ~src ~dst (Frame.of_bytes payload)
  | None -> send_raw t ~src ~dst payload

let send_frame t ~src ~dst frame =
  match t.shim with
  | Some shim -> shim.shim_tx ~src ~dst frame
  | None -> transmit t View ~src ~dst frame

let stats t =
  {
    messages_sent = t.sent;
    bytes_sent = t.sent_bytes;
    messages_delivered = t.delivered;
    drops_unregistered = t.drop_unregistered;
    drops_congested = t.drop_congested;
    drops_crashed = t.drop_crashed;
    drops_partitioned = t.drop_partitioned;
    corrupts_injected = t.corrupt_injected;
    delays_injected = t.delay_injected;
    drops_injected =
      Proc_id.Pair_tbl.fold
        (fun _ _ c acc -> acc + Metrics.counter_value c)
        t.drop_pairs 0;
    dups_injected = t.dup_injected;
  }
