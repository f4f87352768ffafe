(* The five workloads. Each is a pass function: build the pass's worlds
   (set-up), drive them (the timed phase), then check every output. Only
   public APIs of the simulator's libraries are called, and the calls into
   each layer are wrapped in {!Spans} so a traced run can time them. *)

open Sim_engine

type size = Full | Small

type counters = {
  simnet_msgs : int;  (** Frames offered to the bench's own fabrics. *)
  portals_received : int;  (** Messages received by the bench's own NIs. *)
  triggered_fired : int;
  portals_drops : int;
  checksum_drops : int;
  corrupt_drops : int;  (** Reliability-shim frames discarded on bad CRC. *)
  rounds : int;  (** Window-barrier rounds of the sharded engine. *)
}

let no_counters =
  {
    simnet_msgs = 0;
    portals_received = 0;
    triggered_fired = 0;
    portals_drops = 0;
    checksum_drops = 0;
    corrupt_drops = 0;
    rounds = 0;
  }

type pass = {
  setup_s : float;  (** Host seconds building worlds before the first event. *)
  wall_s : float;  (** Host seconds of the timed phase. *)
  cpu_s : float;  (** Process CPU seconds of the timed phase, all domains. *)
  alloc_words : float;  (** Words allocated in the timed phase. *)
  minor_gcs : int;
  major_gcs : int;
  events : int;
  fibers : int;  (** Fibers spawned, set-up included. *)
  attempted : int;  (** Checked operations. *)
  failed : int;
  digest : int;  (** Fold of every checked output; a function of the seed. *)
  counters : counters;
}

(* --- metering ----------------------------------------------------------- *)

type snap = {
  t : float;
  cpu : float;
  words : float;
  minor : int;
  major : int;
  ev : int;
}

(* Words allocated so far, after a forced minor collection (outside the
   timed interval). [Gc.counters] is exact for the calling domain.
   Domains a sharded run spawned have ended by the time it is read, and
   only [Gc.quick_stat] folds their counts in; it lags the calling
   domain's direct major-heap allocations slightly, so it is used only
   when other domains took part. *)
let gc_counts ~domains =
  Gc.minor ();
  let g = Gc.quick_stat () in
  let words =
    if domains > 1 then g.Gc.minor_words +. g.Gc.major_words -. g.Gc.promoted_words
    else
      let minor, promoted, major = Gc.counters () in
      minor +. major -. promoted
  in
  (words, g.Gc.minor_collections, g.Gc.major_collections)

let snap_before ~domains =
  let words, minor, major = gc_counts ~domains in
  let tot = Scheduler.global_totals () in
  let tm = Unix.times () in
  {
    t = Unix.gettimeofday ();
    cpu = tm.Unix.tms_utime +. tm.Unix.tms_stime;
    words;
    minor;
    major;
    ev = tot.Scheduler.t_events;
  }

let snap_after ~domains =
  let t = Unix.gettimeofday () in
  let tm = Unix.times () in
  let tot = Scheduler.global_totals () in
  let words, minor, major = gc_counts ~domains in
  {
    t;
    cpu = tm.Unix.tms_utime +. tm.Unix.tms_stime;
    words;
    minor = minor - 1 (* the forced one *);
    major;
    ev = tot.Scheduler.t_events;
  }

(* [metered ~setup ~run ~check ()]: [setup] builds the worlds, [run] drives
   them, [check] reads the outputs back and returns
   [(attempted, ok, digest, counters)]. An exception escaping [run] (a
   [Deadlock], say) leaves every operation not verified by then counted
   as failed; the pass still reports. *)
let metered ?(domains = 1) ~setup ~run ~check () =
  let t0 = Unix.gettimeofday () in
  let fib0 = (Scheduler.global_totals ()).Scheduler.t_fibers in
  let st = setup () in
  let s0 = snap_before ~domains in
  let raised = match run st with () -> None | exception e -> Some e in
  let s1 = snap_after ~domains in
  let fibers = (Scheduler.global_totals ()).Scheduler.t_fibers - fib0 in
  let attempted, ok, digest, counters = check st in
  (match raised with
  | Some e -> Printf.eprintf "perfbench: pass raised %s\n%!" (Printexc.to_string e)
  | None -> ());
  {
    setup_s = s0.t -. t0;
    wall_s = s1.t -. s0.t;
    cpu_s = s1.cpu -. s0.cpu;
    alloc_words = s1.words -. s0.words;
    minor_gcs = s1.minor - s0.minor;
    major_gcs = s1.major - s0.major;
    events = s1.ev - s0.ev;
    fibers;
    attempted;
    failed = attempted - ok;
    digest;
    counters;
  }

(* splitmix64's finalizer: per-item contributions are mixed and summed,
   so a digest does not depend on the order items were checked in. *)
let mix v =
  let z = Int64.of_int v in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL
  in
  Int64.to_int (Int64.logxor z (Int64.shift_right_logical z 31))

let mix_all = List.fold_left (fun acc v -> mix (acc lxor v)) 0

(* Integer-valued floats below 1000: a collective's sum of them is exact
   in any order, so the expected result does not depend on the tree. *)
let input_float ~seed a b c = float_of_int (abs (mix_all [ seed; a; b; c ]) mod 1000)

let create_world ?topology ?domains ~seed ~nodes () =
  Spans.time ~cat:"runtime.create_world" "Runtime.create_world" (fun () ->
      Runtime.create_world ?topology ?domains ~seed ~nodes ())

let ni_create transport pid =
  Spans.time ~cat:"portals.ni_create" "Portals.Ni.create" (fun () ->
      Portals.Ni.create transport ~id:pid ())

let coll_create name f = Spans.time ~cat:"collectives.create" name f

let run_world world =
  Spans.time ~cat:"runtime.run" "Runtime.run" (fun () -> Runtime.run world)

let ni_counters nis =
  Array.fold_left
    (fun c ni ->
      let k = Portals.Ni.counters ni in
      {
        c with
        portals_received = c.portals_received + k.Portals.Ni.messages_received;
        triggered_fired = c.triggered_fired + k.Portals.Ni.triggered_fired;
        portals_drops = c.portals_drops + Portals.Ni.dropped_total ni;
        checksum_drops =
          c.checksum_drops + Portals.Ni.dropped ni Portals.Ni.Checksum_failed;
      })
    no_counters nis

let fabric_msgs world =
  Array.fold_left
    (fun a f -> a + (Simnet.Fabric.stats f).Simnet.Fabric.messages_sent)
    0
    (Runtime.shard_fabrics world)

(* --- paper: the reproduction's own artifacts ---------------------------- *)

module E = Experiments

let render pp x = Format.asprintf "%a" pp x

(* Every artifact of the paper the reproduction regenerates, as the text a
   user reads. The experiments pin their own seeds, so each rendering is a
   constant that {!Paper_ref} records. *)
let artifacts =
  [
    ("T1-T4", fun () -> render E.Tables.pp (E.Tables.run ()));
    ("F1", fun () -> render E.Protocols.pp (E.Protocols.run_put ()));
    ("F2", fun () -> render E.Protocols.pp (E.Protocols.run_get ()));
    ("F3-F4", fun () -> render E.Translation.pp (E.Translation.run ()));
    ( "Fig5",
      fun () ->
        let r = E.Fig5.run E.Fig5.default_params in
        Printf.sprintf "%h %h %h" r.E.Fig5.mean_wait r.E.Fig5.max_wait
          r.E.Fig5.mean_work_elapsed );
    ("Fig6", fun () -> render E.Fig6.pp (E.Fig6.run ()));
    ("L1", fun () -> render E.Latency.pp (E.Latency.run ()));
    ("B1", fun () -> render E.Bandwidth.pp (E.Bandwidth.run ()));
    ("S1", fun () -> render E.Scaling.pp_memory (E.Scaling.run_memory ()));
    ( "S2",
      fun () ->
        render E.Scaling.pp_collectives
          (E.Scaling.run_collectives ~impl:Collectives.Host ()) );
    ("A1", fun () -> render E.Drops.pp (E.Drops.run ()));
    ( "A2",
      fun () ->
        render E.Ablation.pp_threshold (E.Ablation.run_threshold ())
        ^ render E.Ablation.pp_interrupts (E.Ablation.run_interrupts ()) );
  ]

let artifact_digests () =
  List.map (fun (name, f) -> (name, Digest.to_hex (Digest.string (f ())))) artifacts

let paper _size ~seed:_ =
  let found = ref [] in
  metered
    ~setup:(fun () -> ())
    ~run:(fun () ->
      List.iter
        (fun (name, f) ->
          let text = Spans.time ~cat:"experiments" name f in
          found := (name, Digest.to_hex (Digest.string text)) :: !found)
        artifacts)
    ~check:(fun () ->
      let ok =
        List.length
          (List.filter (fun nd -> List.mem nd Paper_ref.digests) !found)
      in
      let digest = mix_all (List.map (fun (_, d) -> Hashtbl.hash d) !found) in
      (List.length artifacts, ok, digest, no_counters))
    ()

(* --- gather: many-to-one puts into a pooled NI endpoint ----------------- *)

(* Shaped like Experiments.Scaling.run_perf: every round, each non-root
   rank puts [frags] small fragments into rank 0's Collectives.Pool, all
   ranks join an 8-float allreduce, then rank 0 claims every fragment by
   match bits. The shape stops at 1024 nodes: at 1200, run_perf
   deadlocks with the root blocked on its event queue (see README.md). *)
let gather_frags = 4

let gather size ~seed =
  let nodes, rounds = match size with Full -> (1024, 10) | Small -> (16, 2) in
  let root = 0 in
  let payload rank round frag =
    let b = Bytes.create 16 in
    Bytes.set_int32_le b 0 (Int32.of_int rank);
    Bytes.set_int32_le b 4 (Int32.of_int round);
    Bytes.set_int32_le b 8 (Int32.of_int frag);
    Bytes.set_int32_le b 12 (Int32.of_int (mix_all [ seed; rank; round; frag ]));
    b
  in
  let ok = ref 0 and digest = ref 0 in
  let accept v =
    incr ok;
    digest := !digest + mix v
  in
  let setup () =
    let world = create_world ~seed ~nodes () in
    let ranks = world.Runtime.ranks in
    let nis = Array.map (ni_create world.Runtime.transport) ranks in
    let colls =
      Array.mapi
        (fun rank ni ->
          coll_create "Collectives.create" (fun () ->
              Collectives.create ni ~ranks ~rank ()))
        nis
    in
    let pools =
      Array.map
        (fun ni ->
          coll_create "Collectives.Pool.create" (fun () ->
              Collectives.Pool.create ni ~portal_index:7 ()))
        nis
    in
    let expected =
      Array.init rounds (fun round ->
          Array.init 8 (fun j ->
              let s = ref 0. in
              for rank = 0 to nodes - 1 do
                s := !s +. input_float ~seed rank round j
              done;
              !s))
    in
    Array.iteri
      (fun rank coll ->
        Scheduler.spawn world.Runtime.sched (fun () ->
            for round = 0 to rounds - 1 do
              if rank <> root then
                for frag = 0 to gather_frags - 1 do
                  Collectives.Pool.send pools.(rank) ~dst:ranks.(root)
                    ~bits:(Portals.Match_bits.of_int rank)
                    (payload rank round frag)
                done;
              let sum =
                Collectives.allreduce_float_sum coll
                  (Array.init 8 (input_float ~seed rank round))
              in
              if sum = expected.(round) then accept (rank + (round * nodes));
              if rank = root then
                for k = 0 to nodes - 1 do
                  if k <> root then
                    for frag = 0 to gather_frags - 1 do
                      let b =
                        Collectives.Pool.recv pools.(root)
                          ~bits:(Portals.Match_bits.of_int k)
                      in
                      if Bytes.equal b (payload k round frag) then
                        accept (Hashtbl.hash (Bytes.to_string b))
                    done
                done
            done))
      colls;
    (world, nis)
  in
  metered ~setup
    ~run:(fun (world, _) -> run_world world)
    ~check:(fun (world, nis) ->
      let attempted = rounds * (((nodes - 1) * gather_frags) + nodes) in
      ( attempted,
        !ok,
        !digest,
        { (ni_counters nis) with simnet_msgs = fabric_msgs world } ))
    ()

(* --- halo: raw frames on a sharded torus -------------------------------- *)

(* Shaped like Experiments.Par.run: every node sends a payload to each
   torus neighbour at every step, straight onto the fabric, so neither
   the NI nor MPI nor the collectives take part. Each delivery folds
   (src, dst, step, arrival time) into an order-insensitive digest that
   must not depend on the domain count. *)
let halo_step = Time_ns.us 50.
let halo_payload_len = 32

let halo_byte ~seed ~src ~step j = ((src * 131) + (step * 17) + j + seed) land 0xFF

let halo ~domains size ~seed =
  let side, steps = match size with Full -> (32, 30) | Small -> (4, 3) in
  let nodes = side * side in
  let counts = Array.make nodes 0 in
  let digests = Array.make nodes 0 in
  let expected = ref 0 in
  let setup () =
    let topology =
      Simnet.Topology.of_spec ~nodes (Printf.sprintf "torus2d:%dx%d" side side)
    in
    let world = create_world ~topology ~domains ~seed ~nodes () in
    let topo = Simnet.Fabric.topology world.Runtime.fabric in
    let proc nid = world.Runtime.ranks.(nid) in
    for nid = 0 to nodes - 1 do
      (* A node's handler and its sends live on its owner shard, so only
         that domain touches slot [nid]. *)
      let sched = Runtime.sched_of_nid world nid in
      let fabric = Runtime.fabric_of_nid world nid in
      Simnet.Fabric.register fabric (proc nid) (fun ~src buf ->
          let s = Int32.to_int (Bytes.get_int32_le buf 0) in
          let step = Int32.to_int (Bytes.get_int32_le buf 4) in
          let intact = ref (Bytes.length buf = halo_payload_len) in
          if !intact then
            for j = 8 to halo_payload_len - 1 do
              if Bytes.get_uint8 buf j <> halo_byte ~seed ~src:s ~step j then
                intact := false
            done;
          if s = src.Simnet.Proc_id.nid && !intact then begin
            counts.(nid) <- counts.(nid) + 1;
            digests.(nid) <-
              digests.(nid)
              + mix_all [ (s * nodes) + nid; step; Scheduler.now sched ]
          end);
      List.iter
        (fun dst ->
          expected := !expected + steps;
          for step = 0 to steps - 1 do
            Scheduler.at sched
              (halo_step * (step + 1))
              (fun () ->
                let b = Bytes.create halo_payload_len in
                Bytes.set_int32_le b 0 (Int32.of_int nid);
                Bytes.set_int32_le b 4 (Int32.of_int step);
                for j = 8 to halo_payload_len - 1 do
                  Bytes.set_uint8 b j (halo_byte ~seed ~src:nid ~step j)
                done;
                Simnet.Fabric.send fabric ~src:(proc nid) ~dst:(proc dst) b)
          done)
        (List.filter (fun v -> v < nodes) (Simnet.Topology.neighbors topo nid))
    done;
    world
  in
  metered ~domains ~setup ~run:run_world
    ~check:(fun world ->
      let sum a = Array.fold_left ( + ) 0 a in
      ( !expected,
        sum counts,
        sum digests land max_int,
        {
          no_counters with
          simnet_msgs = fabric_msgs world;
          rounds = Runtime.window_rounds world;
        } ))
    ()

(* --- coll: host trees against NIC-resident triggered chains ------------- *)

(* Shaped like Experiments.Coll.with_world: one torus world per (engine,
   host load) pair. Every rank runs [iters] back-to-back barriers, then
   broadcasts, then allreduces; on a busy host a compute fiber keeps the
   rank's CPU occupied in 50 us slices. The two engines must return the
   same bytes on every rank, and the NIC engine's simulated latency must
   not notice the busy host. *)
let busy_slice = Time_ns.us 50.

let coll size ~seed =
  let side, iters = match size with Full -> (8, 12) | Small -> (4, 2) in
  let nodes = side * side in
  let topology =
    Simnet.Topology.of_spec ~nodes (Printf.sprintf "torus2d:%dx%d" side side)
  in
  let configs =
    [
      (Collectives.Host, false);
      (Collectives.Host, true);
      (Collectives.Nic_offload, false);
      (Collectives.Nic_offload, true);
    ]
  in
  let bcast_payload it =
    Bytes.of_string (Printf.sprintf "coll-%d-%d" seed it)
  in
  let expected_sum =
    Collectives.bytes_of_floats
      (Array.init 8 (fun i ->
           let s = ref 0. in
           for rank = 0 to nodes - 1 do
             s := !s +. input_float ~seed rank i 0
           done;
           !s))
  in
  let ok = ref 0 in
  let build (impl, busy) =
    let world = create_world ~topology ~seed ~nodes () in
    let ranks = world.Runtime.ranks in
    let out = Array.init nodes (fun _ -> Buffer.create 256) in
    let starts = Array.make 3 Time_ns.zero in
    let finishes = Array.make_matrix 3 nodes Time_ns.zero in
    let quit = Array.make nodes false in
    let colls =
      Array.init nodes (fun rank ->
          let ni = ni_create (Runtime.transport_of_rank world rank) ranks.(rank) in
          ( ni,
            coll_create "Collectives.create_impl" (fun () ->
                Collectives.create_impl impl ni ~ranks ~rank
                  ~host_cpu:(Runtime.host_cpu_of_rank world rank) ()) ))
    in
    if busy then
      Array.iteri
        (fun r _ ->
          let sched = Runtime.sched_of_rank world r in
          let cpu = Runtime.host_cpu_of_rank world r in
          Scheduler.spawn sched (fun () ->
              while not quit.(r) do
                Cpu.compute cpu busy_slice;
                (* Let a queued protocol charge take the CPU between
                   slices, or the loop starves the host engine. *)
                Scheduler.yield sched
              done))
        ranks;
    Runtime.spawn_ranks world (fun ~rank ->
        let coll = snd colls.(rank) in
        let sched = Runtime.sched_of_rank world rank in
        let mine =
          Collectives.bytes_of_floats
            (Array.init 8 (fun i -> input_float ~seed rank i 0))
        in
        let timed op f =
          Collectives.any_barrier coll;
          if rank = 0 then starts.(op) <- Scheduler.now sched;
          for it = 1 to iters do
            f it
          done;
          finishes.(op).(rank) <- Scheduler.now sched
        in
        timed 0 (fun _ -> Collectives.any_barrier coll);
        timed 1 (fun it ->
            let root = it mod nodes in
            let b =
              Collectives.any_bcast coll ~root
                (if rank = root then bcast_payload it else Bytes.empty)
            in
            if Bytes.equal b (bcast_payload it) then incr ok;
            Buffer.add_bytes out.(rank) b);
        timed 2 (fun _ ->
            let b = Collectives.any_allreduce coll ~op:Collectives.sum_floats mine in
            if Bytes.equal b expected_sum then incr ok;
            Buffer.add_bytes out.(rank) b);
        quit.(rank) <- true);
    let latency op =
      Array.fold_left max Time_ns.zero finishes.(op) - starts.(op)
    in
    (world, Array.map fst colls, out, latency)
  in
  metered
    ~setup:(fun () -> List.map build configs)
    ~run:(fun worlds -> List.iter (fun (w, _, _, _) -> run_world w) worlds)
    ~check:(fun worlds ->
      let outputs = List.map (fun (_, _, out, _) -> Array.map Buffer.contents out) worlds in
      let reference = List.hd outputs in
      (* Every rank's bytes agree with the idle host engine's, and the
         NIC engine's three latencies are the same idle and busy. *)
      let same =
        List.fold_left
          (fun acc o ->
            let n = ref 0 in
            Array.iteri (fun r s -> if s = reference.(r) then incr n) o;
            acc + !n)
          0 (List.tl outputs)
      in
      let nic_idle, nic_busy =
        match worlds with
        | [ _; _; (_, _, _, li); (_, _, _, lb) ] -> (li, lb)
        | _ -> assert false
      in
      let flat = List.length (List.filter (fun op -> nic_idle op = nic_busy op) [ 0; 1; 2 ]) in
      let digest =
        Array.fold_left (fun a s -> a + mix (Hashtbl.hash s)) 0 reference
        + mix_all (List.map nic_idle [ 0; 1; 2 ])
      in
      let per_world = 2 * nodes * iters in
      let attempted =
        (List.length configs * per_world) + ((List.length configs - 1) * nodes) + 3
      in
      let counters =
        List.fold_left
          (fun c (w, nis, _, _) ->
            let k = ni_counters nis in
            {
              c with
              simnet_msgs = c.simnet_msgs + fabric_msgs w;
              portals_received = c.portals_received + k.portals_received;
              triggered_fired = c.triggered_fired + k.triggered_fired;
              portals_drops = c.portals_drops + k.portals_drops;
              checksum_drops = c.checksum_drops + k.checksum_drops;
            })
          no_counters worlds
      in
      (attempted, !ok + same + flat, digest, counters))
    ()

(* --- faults: the chaos invariants under injected faults ----------------- *)

(* Experiments.Chaos.run_cell on every axis cell that has no corruption:
   a clean control, delay, partition, crash and loss, for [seeds]
   consecutive seeds starting at the run's seed. Corrupting cells are
   left out because they expose known defects (see README.md); the
   benchmark's workloads are ones on which no operation fails. *)
let fault_axes = [ "clean"; "delay"; "partition"; "crash"; "loss" ]

let faults size ~seed =
  let seeds = match size with Full -> 30 | Small -> 1 in
  let cells =
    List.concat_map
      (fun s ->
        List.filter_map
          (fun (axis, cell) -> if List.mem axis fault_axes then Some cell else None)
          (E.Chaos.axis_cells ~seed:s))
      (List.init seeds (fun i -> seed + i))
  in
  let reports = ref [] in
  metered
    ~setup:(fun () -> ())
    ~run:(fun () ->
      List.iter
        (fun cell ->
          match
            Spans.time ~cat:"experiments" "Experiments.Chaos.run_cell" (fun () ->
                E.Chaos.run_cell cell)
          with
          | r -> reports := r :: !reports
          | exception e ->
            Printf.eprintf "perfbench: %s raised %s\n%!"
              (Reliability.Chaos.describe cell) (Printexc.to_string e))
        cells)
    ~check:(fun () ->
      let rs = !reports in
      let ok = List.length (List.filter (fun r -> r.E.Chaos.violations = []) rs) in
      List.iter
        (fun r ->
          List.iter
            (fun v ->
              Printf.eprintf "perfbench: %s: %s\n%!"
                (Reliability.Chaos.describe r.E.Chaos.cell) v)
            r.E.Chaos.violations)
        rs;
      let digest =
        List.fold_left
          (fun a r ->
            a
            + mix_all
                [
                  r.E.Chaos.delivered;
                  r.E.Chaos.delays_injected;
                  r.E.Chaos.drops_partitioned;
                  r.E.Chaos.rel_corrupt_drops;
                  r.E.Chaos.checksum_drops;
                  Int64.to_int (Int64.bits_of_float r.E.Chaos.sim_time_us);
                ])
          0 rs
      in
      let sum f = List.fold_left (fun a r -> a + f r) 0 rs in
      ( List.length cells,
        ok,
        digest,
        {
          no_counters with
          corrupt_drops = sum (fun r -> r.E.Chaos.rel_corrupt_drops);
          checksum_drops = sum (fun r -> r.E.Chaos.checksum_drops);
        } ))
    ()

(* --- the registry -------------------------------------------------------- *)

type t = {
  name : string;
  domains : int;  (** Domains the world is sharded across. *)
  own_setup : bool;
      (** The bench builds the worlds itself; otherwise they are built
          inside Experiments calls and a warm-up pass stands in for
          set-up. *)
  pass : domains:int -> size -> seed:int -> pass;
}

let all =
  [
    {
      name = "paper";
      domains = 1;
      own_setup = false;
      pass = (fun ~domains:_ -> paper);
    };
    {
      name = "gather";
      domains = 1;
      own_setup = true;
      pass = (fun ~domains:_ -> gather);
    };
    {
      name = "halo";
      domains = 2;
      own_setup = true;
      pass = (fun ~domains -> halo ~domains);
    };
    {
      name = "coll";
      domains = 1;
      own_setup = true;
      pass = (fun ~domains:_ -> coll);
    };
    {
      name = "faults";
      domains = 1;
      own_setup = false;
      pass = (fun ~domains:_ -> faults);
    };
  ]

let names = List.map (fun w -> w.name) all
let find name = List.find_opt (fun w -> w.name = name) all
