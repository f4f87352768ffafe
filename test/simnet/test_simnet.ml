open Sim_engine
open Simnet

let proc_id_tests =
  [
    Alcotest.test_case "equality and ordering" `Quick (fun () ->
        let a = Proc_id.make ~nid:1 ~pid:2 in
        let b = Proc_id.make ~nid:1 ~pid:2 in
        let c = Proc_id.make ~nid:2 ~pid:0 in
        Alcotest.(check bool) "equal" true (Proc_id.equal a b);
        Alcotest.(check bool) "not equal" false (Proc_id.equal a c);
        Alcotest.(check bool) "nid dominates" true (Proc_id.compare a c < 0);
        Alcotest.(check string) "pp" "1:2" (Proc_id.to_string a));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"compare consistent with equal" ~count:300
         QCheck.(quad small_nat small_nat small_nat small_nat)
         (fun (n1, p1, n2, p2) ->
           let a = Proc_id.make ~nid:n1 ~pid:p1 in
           let b = Proc_id.make ~nid:n2 ~pid:p2 in
           Proc_id.equal a b = (Proc_id.compare a b = 0)));
    Alcotest.test_case "pair-table keys differing only in pid stay distinct"
      `Quick (fun () ->
        let tbl = Proc_id.Pair_tbl.create 1 in
        let p nid pid = Proc_id.make ~nid ~pid in
        Proc_id.Pair_tbl.add tbl (p 0 0) (p 1 0) "a";
        Proc_id.Pair_tbl.add tbl (p 0 1) (p 1 0) "b";
        Proc_id.Pair_tbl.add tbl (p 0 0) (p 1 1) "c";
        Proc_id.Pair_tbl.add tbl (p 1 0) (p 0 0) "d";
        let find a b = Proc_id.Pair_tbl.find tbl a b in
        Alcotest.(check (list string)) "each pair its own binding"
          [ "a"; "b"; "c"; "d" ]
          [
            find (p 0 0) (p 1 0);
            find (p 0 1) (p 1 0);
            find (p 0 0) (p 1 1);
            find (p 1 0) (p 0 0);
          ];
        Alcotest.(check int) "four bindings" 4
          (Proc_id.Pair_tbl.fold (fun _ _ _ n -> n + 1) tbl 0);
        Alcotest.check_raises "absent pair" Not_found (fun () ->
            ignore (find (p 0 1) (p 1 1)));
        (* Enough pids on one node pair that buckets must be shared. *)
        let many = Proc_id.Pair_tbl.create 1 in
        for i = 0 to 99 do
          Proc_id.Pair_tbl.add many (p 2 i) (p 3 0) i;
          Proc_id.Pair_tbl.add many (p 3 0) (p 2 i) (100 + i)
        done;
        for i = 0 to 99 do
          Alcotest.(check int) "src pid keys" i
            (Proc_id.Pair_tbl.find many (p 2 i) (p 3 0));
          Alcotest.(check int) "dst pid keys" (100 + i)
            (Proc_id.Pair_tbl.find many (p 3 0) (p 2 i))
        done);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"pair table agrees with an association list"
         ~count:200
         QCheck.(list (quad (int_bound 5) (int_bound 2) (int_bound 5) (int_bound 2)))
         (fun quads ->
           let tbl = Proc_id.Pair_tbl.create 1 in
           let model = ref [] in
           List.iteri
             (fun i (n1, p1, n2, p2) ->
               let k = (n1, p1, n2, p2) in
               if not (List.mem_assoc k !model) then begin
                 model := (k, i) :: !model;
                 Proc_id.Pair_tbl.add tbl
                   (Proc_id.make ~nid:n1 ~pid:p1)
                   (Proc_id.make ~nid:n2 ~pid:p2)
                   i
               end)
             quads;
           (* Drop the bindings out of node 0, as a peer reset does. *)
           Proc_id.Pair_tbl.filter_inplace
             (fun src _ _ -> src.Proc_id.nid <> 0)
             tbl;
           let model = List.filter (fun ((n1, _, _, _), _) -> n1 <> 0) !model in
           Proc_id.Pair_tbl.fold (fun _ _ _ n -> n + 1) tbl 0
           = List.length model
           && List.for_all
                (fun ((n1, p1, n2, p2), i) ->
                  Proc_id.Pair_tbl.find tbl
                    (Proc_id.make ~nid:n1 ~pid:p1)
                    (Proc_id.make ~nid:n2 ~pid:p2)
                  = i)
                model
           && Proc_id.Pair_tbl.fold (fun _ _ i acc -> acc + i) tbl 0
              = List.fold_left (fun acc (_, i) -> acc + i) 0 model));
  ]

(* The byte-at-a-time CRC-32C the slicing-by-8 code must agree with. *)
let crc32c_reference buf ~pos ~len =
  let crc = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    crc := !crc lxor Char.code (Bytes.get buf i);
    for _ = 0 to 7 do
      crc :=
        if !crc land 1 = 1 then 0x82F63B78 lxor (!crc lsr 1) else !crc lsr 1
    done
  done;
  !crc lxor 0xFFFFFFFF

let crc32c_tests =
  [
    Alcotest.test_case "known answer: \"123456789\"" `Quick (fun () ->
        Alcotest.(check int) "check value" 0xE3069283
          (Crc32c.digest_string "123456789");
        Alcotest.(check int) "empty" 0 (Crc32c.digest Bytes.empty));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"slicing-by-8 equals the bytewise reference"
         ~count:500
         QCheck.(triple (string_of_size Gen.(0 -- 300)) small_nat small_nat)
         (fun (s, a, b) ->
           let buf = Bytes.of_string s in
           let n = Bytes.length buf in
           let pos = if n = 0 then 0 else a mod (n + 1) in
           let len = if n - pos = 0 then 0 else b mod (n - pos + 1) in
           Crc32c.digest ~pos ~len buf = crc32c_reference buf ~pos ~len));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"update over two parts equals one digest"
         ~count:200
         QCheck.(pair (string_of_size Gen.(0 -- 100)) small_nat)
         (fun (s, cut) ->
           let buf = Bytes.of_string s in
           let n = Bytes.length buf in
           let cut = if n = 0 then 0 else cut mod (n + 1) in
           let first = Crc32c.update 0 buf ~pos:0 ~len:cut in
           Crc32c.update first buf ~pos:cut ~len:(n - cut) = Crc32c.digest buf));
  ]

(* A frame is a header plus a view; every accessor must agree with the
   flat bytes [to_bytes] gives, wherever the header ends. *)
let frame_gen =
  QCheck.Gen.(
    map3
      (fun h (pre, body, post) seed -> (h, pre, body, post, seed))
      (string_size (int_range 0 12))
      (triple (string_size (int_range 0 5)) (string_size (int_range 0 40))
         (string_size (int_range 0 5)))
      nat)

let frame_of (h, pre, body, post, _) =
  Frame.v ~hdr:(Bytes.of_string h)
    (Bytes.of_string (pre ^ body ^ post))
    ~off:(String.length pre) ~len:(String.length body)

let frame_arb =
  QCheck.make
    ~print:(fun (h, pre, body, post, _) ->
      Printf.sprintf "hdr=%S view of %S in %S" h body (pre ^ body ^ post))
    frame_gen

let frame_tests =
  [
    Alcotest.test_case "a whole buffer is its own bytes" `Quick (fun () ->
        let b = Bytes.of_string "raw" in
        let f = Frame.of_bytes b in
        Alcotest.(check bool) "no copy" true (Frame.to_bytes f == b);
        let v = Frame.v ~hdr:Bytes.empty b ~off:1 ~len:2 in
        Alcotest.(check string) "partial view flattens" "aw"
          (Bytes.to_string (Frame.to_bytes v));
        Alcotest.check_raises "view past the end"
          (Invalid_argument "Frame.v: view out of range") (fun () ->
            ignore (Frame.v ~hdr:Bytes.empty b ~off:2 ~len:2)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"accessors agree with the flat bytes" ~count:300
         frame_arb (fun ((_, _, _, _, seed) as spec) ->
           let f = frame_of spec in
           let flat = Frame.to_bytes f in
           let n = Bytes.length flat in
           let ok = ref (n = Frame.length f) in
           for k = 0 to n do
             if not (Bytes.equal (Bytes.sub (Frame.prefix f k) 0 k)
                       (Bytes.sub flat 0 k))
             then ok := false;
             if not (Bytes.equal (Frame.to_bytes (Frame.after f k))
                       (Bytes.sub flat k (n - k)))
             then ok := false;
             let pos = seed mod (k + 1) in
             if Frame.crc32c 0 f ~pos ~len:(k - pos)
                <> Crc32c.digest ~pos ~len:(k - pos) flat
             then ok := false
           done;
           !ok));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"flip and truncate act on the flat bytes"
         ~count:300 frame_arb (fun ((_, _, _, _, seed) as spec) ->
           let f = frame_of spec in
           let flat = Bytes.copy (Frame.to_bytes f) in
           let n = Bytes.length flat in
           let flipped = Frame.to_bytes (Frame.flip f ~bit:seed) in
           let expect =
             if n = 0 then flat
             else begin
               let e = Bytes.copy flat in
               let i = seed / 8 mod n in
               Bytes.set_uint8 e i (Bytes.get_uint8 e i lxor (1 lsl (seed mod 8)));
               e
             end
           in
           let keep = seed mod (n + 2) in
           Bytes.equal flipped expect
           && Bytes.equal
                (Frame.to_bytes (Frame.truncate f ~keep))
                (Bytes.sub flat 0 (min keep n))
           && Bytes.equal (Frame.to_bytes f) flat));
  ]

let profile_tests =
  [
    Alcotest.test_case "packet math" `Quick (fun () ->
        let p = Profile.myrinet_mcp in
        Alcotest.(check int) "zero-len still one packet" 1
          (Profile.packets_of_len p 0);
        Alcotest.(check int) "exact fit" 1 (Profile.packets_of_len p p.Profile.mtu);
        Alcotest.(check int) "one over" 2
          (Profile.packets_of_len p (p.Profile.mtu + 1));
        Alcotest.(check int) "wire bytes include headers"
          (50_000 + (13 * p.Profile.packet_header))
          (Profile.wire_bytes_of_len p 50_000));
    Alcotest.test_case "tx_time scales with length" `Quick (fun () ->
        let p = Profile.myrinet_mcp in
        Alcotest.(check bool) "monotone" true
          (Profile.tx_time p 100_000 > Profile.tx_time p 1_000));
    Alcotest.test_case "presets ordered by overhead" `Quick (fun () ->
        Alcotest.(check bool) "kernel interrupt cost visible" true
          (Profile.myrinet_kernel.Profile.host_interrupt_cost
          = Profile.myrinet_mcp.Profile.host_interrupt_cost);
        Alcotest.(check bool) "tcp slowest syscall" true
          (Profile.tcp_reference.Profile.host_syscall_cost
          > Profile.myrinet_mcp.Profile.host_syscall_cost));
  ]

let link_tests =
  [
    Alcotest.test_case "idle link starts now" `Quick (fun () ->
        let sched = Scheduler.create () in
        Scheduler.at sched 100 (fun () ->
            let link = Link.create sched in
            Alcotest.(check int) "completion" 150 (Link.occupy link 50));
        Scheduler.run sched);
    Alcotest.test_case "busy link serialises" `Quick (fun () ->
        let sched = Scheduler.create () in
        let link = Link.create sched in
        Alcotest.(check int) "first" 50 (Link.occupy link 50);
        Alcotest.(check int) "second queues" 80 (Link.occupy link 30);
        Alcotest.(check int) "busy time" 80 (Link.busy_time link));
    Alcotest.test_case "gap is skipped" `Quick (fun () ->
        let sched = Scheduler.create () in
        let link = Link.create sched in
        ignore (Link.occupy link 10);
        Scheduler.at sched 100 (fun () ->
            Alcotest.(check int) "starts at now" 105 (Link.occupy link 5));
        Scheduler.run sched;
        Alcotest.(check int) "busy excludes idle gap" 15 (Link.busy_time link));
  ]

(* In these tests bandwidth is 1e9 B/s so one byte costs one nanosecond:
   transmit times are readable integers. *)
let ns_per_byte = 1e9

let link_contention_tests =
  [
    Alcotest.test_case "saturated shared link serialises two flows" `Quick
      (fun () ->
        let sched = Scheduler.create () in
        let link = Link.create ~bandwidth:ns_per_byte ~tracked:true sched in
        (match Link.transmit link ~flow:1 ~bytes:1000 () with
        | `Accepted t -> Alcotest.(check int) "first owns the wire" 1000 t
        | `Dropped -> Alcotest.fail "first transmit dropped");
        (match Link.transmit link ~flow:2 ~bytes:1000 () with
        | `Accepted t -> Alcotest.(check int) "second queues behind" 2000 t
        | `Dropped -> Alcotest.fail "second transmit dropped");
        Alcotest.(check int) "both outstanding" 2 (Link.queue_depth link);
        Alcotest.(check int) "peak depth" 2 (Link.peak_queue_depth link);
        Alcotest.(check int) "two concurrent flows" 2 (Link.peak_flows link);
        Scheduler.run sched;
        Alcotest.(check int) "drained" 0 (Link.queue_depth link);
        Alcotest.(check int) "busy covers both" 2000 (Link.busy_time link));
    Alcotest.test_case "per-hop latency lands after serialisation" `Quick
      (fun () ->
        let sched = Scheduler.create () in
        let link =
          Link.create ~bandwidth:ns_per_byte ~latency:500 ~tracked:true sched
        in
        (match Link.transmit link ~bytes:1000 () with
        | `Accepted t -> Alcotest.(check int) "tx + latency" 1500 t
        | `Dropped -> Alcotest.fail "dropped");
        Scheduler.run sched);
    Alcotest.test_case "queue limit turns overload into drops" `Quick
      (fun () ->
        let sched = Scheduler.create () in
        let link =
          Link.create ~bandwidth:ns_per_byte ~queue_limit:2 ~tracked:true sched
        in
        let seen = ref None in
        Link.on_congestion link (fun c -> seen := Some c);
        let accepted = ref 0 and dropped = ref 0 in
        for _ = 1 to 3 do
          match Link.transmit link ~bytes:100 () with
          | `Accepted _ -> incr accepted
          | `Dropped -> incr dropped
        done;
        Alcotest.(check int) "two fit" 2 !accepted;
        Alcotest.(check int) "third dropped" 1 !dropped;
        Alcotest.(check int) "counted" 1 (Link.congestion_drops link);
        (match !seen with
        | Some c ->
          Alcotest.(check int) "hook saw the full queue" 2 c.Link.cong_depth;
          Alcotest.(check int) "hook saw the bytes" 100 c.Link.cong_bytes
        | None -> Alcotest.fail "congestion hook not called");
        Scheduler.run sched;
        (* Once the queue drains the link accepts again. *)
        match Link.transmit link ~bytes:100 () with
        | `Accepted _ -> ()
        | `Dropped -> Alcotest.fail "drained link still dropping");
    Alcotest.test_case "queue limit enforced without tracking" `Quick
      (fun () ->
        let sched = Scheduler.create () in
        let link = Link.create ~bandwidth:ns_per_byte ~queue_limit:1 sched in
        (match Link.transmit link ~bytes:10 () with
        | `Accepted _ -> ()
        | `Dropped -> Alcotest.fail "first dropped");
        (match Link.transmit link ~bytes:10 () with
        | `Accepted _ -> Alcotest.fail "limit ignored"
        | `Dropped -> ());
        Scheduler.run sched);
  ]

let topology_tests =
  let rejects name f =
    Alcotest.(check bool) name true
      (match f () with
      | _ -> false
      | exception Invalid_argument _ -> true)
  in
  [
    Alcotest.test_case "spec parsing round-trips through describe" `Quick
      (fun () ->
        let check spec nodes expect =
          Alcotest.(check string) spec expect
            (Topology.describe (Topology.of_spec ~nodes spec))
        in
        check "full" 16 "full";
        check "ring" 5 "ring";
        check "torus2d" 16 "torus2d:4x4";
        check "torus2d:2x8" 16 "torus2d:2x8";
        check "torus3d" 8 "torus3d:2x2x2";
        check "fattree" 16 "fattree:4";
        check "fattree:4" 16 "fattree:4");
    Alcotest.test_case "bad specs rejected" `Quick (fun () ->
        rejects "dims must match nodes" (fun () ->
            Topology.of_spec ~nodes:8 "torus2d:4x4");
        rejects "fat-tree needs k^3/4 hosts" (fun () ->
            Topology.of_spec ~nodes:6 "fattree");
        rejects "unknown shape" (fun () -> Topology.of_spec ~nodes:8 "mesh");
        rejects "ring of one" (fun () -> Topology.build Ring ~nodes:1));
    Alcotest.test_case "bad specs keep their messages" `Quick (fun () ->
        (* [of_spec] validates without building; the messages are the
           ones it gave when it built the graph to validate it. *)
        let expected = "; expected full|ring|torus2d[:AxB]|torus3d[:AxBxC]|fattree[:K]" in
        let message f =
          match f () with
          | _ -> "accepted"
          | exception Invalid_argument msg -> msg
        in
        List.iter
          (fun (nodes, spec, reason) ->
            Alcotest.(check string)
              (Printf.sprintf "%s on %d nodes" spec nodes)
              (Printf.sprintf "Topology.of_spec: bad topology %S (%s)%s" spec
                 reason expected)
              (message (fun () -> Topology.of_spec ~nodes spec)))
          [
            (8, "torus2d:4x4",
             "Topology.build: dimensions (4x4) do not multiply to 8 nodes");
            (8, "torus3d:2x2x3",
             "Topology.build: dimensions (2x2x3) do not multiply to 8 nodes");
            (8, "torus2d:0x8", "\"0\" is not a positive integer");
            (16, "fattree:3", "Topology.build: fat-tree arity must be even and >= 2");
            (16, "fattree:0", "Topology.build: fat-tree arity must be even and >= 2");
            (8, "fattree:4", "Topology.build: fattree:4 hosts 16 nodes, not 8");
            (6, "fattree", "Topology.build: fattree:4 hosts 16 nodes, not 6");
            (1, "ring", "Topology.build: ring needs >= 2 nodes");
            (0, "torus2d", "Topology.build: need at least one node");
            (8, "mesh", "unknown shape");
            (8, "torus2d:4", "expected 2 dimensions");
          ];
        List.iter
          (fun (kind, nodes, msg) ->
            Alcotest.(check string) (Topology.describe kind) msg
              (message (fun () -> Topology.build kind ~nodes)))
          [
            (Topology.Torus2d (0, 4), 4,
             "Topology.build: torus dimensions must be positive");
            (Topology.Torus3d (2, 0, 2), 4,
             "Topology.build: torus dimensions must be positive");
            (Topology.Full, 0, "Topology.build: need at least one node");
          ]);
    Alcotest.test_case "full keeps the seed's empty hop graph" `Quick
      (fun () ->
        let t = Topology.build Full ~nodes:8 in
        Alcotest.(check int) "no switches" 8 (Topology.vertex_count t);
        Alcotest.(check int) "no shared links" 0 (Topology.link_count t);
        Alcotest.(check int) "all nodes adjacent" 7
          (List.length (Topology.neighbors t 0)));
    Alcotest.test_case "4x4 torus structure" `Quick (fun () ->
        let t = Topology.build (Torus2d (4, 4)) ~nodes:16 in
        Alcotest.(check int) "hosts only" 16 (Topology.vertex_count t);
        Alcotest.(check int) "4 directed links per node" 64
          (Topology.link_count t);
        for v = 0 to 15 do
          Alcotest.(check int) "degree 4" 4
            (List.length (Topology.neighbors t v))
        done;
        (* Every link id agrees with the adjacency index. *)
        for l = 0 to Topology.link_count t - 1 do
          Alcotest.(check int) "find_link inverts" l
            (Topology.find_link t ~src_v:(Topology.link_src t l)
               ~dst_v:(Topology.link_dst t l))
        done);
    Alcotest.test_case "size-2 dimensions do not double links" `Quick
      (fun () ->
        let t = Topology.build (Torus2d (2, 2)) ~nodes:4 in
        Alcotest.(check int) "degree 2" 2 (List.length (Topology.neighbors t 0));
        Alcotest.(check int) "8 directed links" 8 (Topology.link_count t));
    Alcotest.test_case "coords round-trip" `Quick (fun () ->
        let t = Topology.build (Torus3d (2, 3, 4)) ~nodes:24 in
        Alcotest.(check (list int)) "dims" [ 2; 3; 4 ] (Topology.dims t);
        for v = 0 to 23 do
          Alcotest.(check int) "of_coords inverts coords" v
            (Topology.of_coords t (Topology.coords t v))
        done);
    Alcotest.test_case "4-ary fat-tree structure" `Quick (fun () ->
        let t = Topology.build (Fat_tree 4) ~nodes:16 in
        Alcotest.(check int) "hosts" 16 (Topology.nodes t);
        (* 16 hosts + 8 edge + 8 agg + 4 core switches. *)
        Alcotest.(check int) "vertices" 36 (Topology.vertex_count t);
        for h = 0 to 15 do
          match Topology.neighbors t h with
          | [ sw ] ->
            Alcotest.(check bool) "host hangs off one edge switch" true
              (sw >= 16)
          | l ->
            Alcotest.failf "host %d has %d neighbours" h (List.length l)
        done);
  ]

(* The changed coordinate between two adjacent torus path vertices; the
   step must move exactly one dimension by one (with wraparound). *)
let changed_dim topo a b =
  let ca = Topology.coords topo a and cb = Topology.coords topo b in
  let ds = Topology.dims topo in
  let changed =
    List.filteri (fun i _ -> List.nth ca i <> List.nth cb i) ds
    |> List.length
  in
  if changed <> 1 then None
  else
    let rec find i = function
      | [] -> assert false
      | (x, y) :: rest -> if x <> y then i else find (i + 1) rest
    in
    Some (find 0 (List.combine ca cb))

let router_tests =
  let torus = Topology.build (Torus2d (4, 4)) ~nodes:16 in
  let torus3 = Topology.build (Torus3d (2, 3, 4)) ~nodes:24 in
  let check_dimension_order topo (src, dst) =
    let path = Router.path_vertices topo ~src ~dst in
    let hops = Router.hop_count topo ~src ~dst in
    (* Minimal: matches the analytic shortest distance. *)
    hops = Router.min_torus_hops topo ~src ~dst
    (* Simple: no vertex visited twice (so no cycle, no livelock). *)
    && List.length (List.sort_uniq compare path) = List.length path
    (* Dimension-ordered: corrected dimensions never decrease, the
       acyclic-channel-dependency argument for deadlock freedom. *)
    &&
    let rec dims_of = function
      | a :: (b :: _ as rest) -> (
        match changed_dim topo a b with
        | Some d -> d :: dims_of rest
        | None -> [ max_int ] (* illegal step: fails the sorted check *))
      | _ -> []
    in
    let ds = dims_of path in
    List.sort compare ds = ds
  in
  let pair n =
    QCheck.(pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
  in
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:500
         ~name:"2-D torus routing is minimal, simple and dimension-ordered"
         (pair 16)
         (check_dimension_order torus));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:500
         ~name:"3-D torus routing is minimal, simple and dimension-ordered"
         (pair 24)
         (check_dimension_order torus3));
    Alcotest.test_case "ring takes the shorter way, ties positive" `Quick
      (fun () ->
        let ring = Topology.build Ring ~nodes:8 in
        Alcotest.(check int) "forward" 3 (Router.hop_count ring ~src:0 ~dst:3);
        Alcotest.(check int) "backward" 3 (Router.hop_count ring ~src:0 ~dst:5);
        Alcotest.(check (list int)) "tie breaks positive" [ 0; 1; 2; 3; 4 ]
          (Router.path_vertices ring ~src:0 ~dst:4));
    Alcotest.test_case "full topology routes have no hops" `Quick (fun () ->
        let full = Topology.build Full ~nodes:8 in
        Alcotest.(check int) "direct" 0 (Array.length (Router.route full ~src:0 ~dst:5));
        Alcotest.(check (list int)) "private wire, no shared hops" [ 0; 5 ]
          (Router.path_vertices full ~src:0 ~dst:5));
    Alcotest.test_case "fat-tree routes are valid and deterministic" `Quick
      (fun () ->
        let ft = Topology.build (Fat_tree 4) ~nodes:16 in
        for src = 0 to 15 do
          for dst = 0 to 15 do
            if src <> dst then begin
              let links = Router.route ft ~src ~dst in
              let verts = Router.path_vertices ft ~src ~dst in
              Alcotest.(check int) "one more vertex than hop"
                (Array.length links + 1)
                (List.length verts);
              Alcotest.(check int) "starts at src" src (List.hd verts);
              Alcotest.(check int) "ends at dst" dst
                (List.nth verts (List.length verts - 1));
              (* Each link really wires its two path vertices. *)
              Array.iteri
                (fun i l ->
                  Alcotest.(check int) "hop src" (List.nth verts i)
                    (Topology.link_src ft l);
                  Alcotest.(check int) "hop dst"
                    (List.nth verts (i + 1))
                    (Topology.link_dst ft l))
                links;
              Alcotest.(check bool) "at most host-edge-agg-core-agg-edge-host"
                true
                (Array.length links <= 6);
              Alcotest.(check bool) "same pair, same path" true
                (Router.route ft ~src ~dst = links)
            end
          done
        done);
  ]

(* The computed topology and router against the stored graph and
   list-based router they replaced ([Reference_topology]): the same link
   ids, ends, names, neighbour order, edge index and routes, on every
   vertex or node pair of each shape. *)
let reference_shapes =
  List.map (fun n -> (Topology.Ring, n)) [ 2; 3; 4; 5; 6; 7; 8; 9 ]
  @ List.map
      (fun (a, b) -> (Topology.Torus2d (a, b), a * b))
      [ (1, 4); (2, 2); (2, 3); (3, 4); (4, 4) ]
  @ List.map
      (fun (a, b, c) -> (Topology.Torus3d (a, b, c), a * b * c))
      [ (2, 2, 2); (2, 3, 4); (3, 3, 3) ]
  @ List.map (fun k -> (Topology.Fat_tree k, k * k * k / 4)) [ 2; 4; 6 ]

let reference_tests =
  List.map
    (fun (kind, nodes) ->
      Alcotest.test_case
        (Printf.sprintf "%s, %d nodes, matches the stored graph"
           (Topology.describe kind) nodes)
        `Quick (fun () ->
          let t = Topology.build kind ~nodes in
          let r = Reference_topology.build kind ~nodes in
          Alcotest.(check int) "link_count" (Reference_topology.link_count r)
            (Topology.link_count t);
          Array.iter
            (fun { Reference_topology.link_id; src_v; dst_v } ->
              Alcotest.(check int) "src" src_v (Topology.link_src t link_id);
              Alcotest.(check int) "dst" dst_v (Topology.link_dst t link_id);
              Alcotest.(check string) "name" r.Reference_topology.names.(link_id)
                (Topology.link_name t link_id))
            r.Reference_topology.links;
          let vertices = Topology.vertex_count t in
          for v = 0 to vertices - 1 do
            Alcotest.(check (list int)) "neighbors"
              (Reference_topology.neighbors r v) (Topology.neighbors t v);
            for u = 0 to vertices - 1 do
              Alcotest.(check int) "find_link"
                (Option.value ~default:(-1)
                   (Reference_topology.find_link r ~src_v:v ~dst_v:u))
                (Topology.find_link t ~src_v:v ~dst_v:u)
            done
          done;
          for src = 0 to nodes - 1 do
            for dst = 0 to nodes - 1 do
              Alcotest.(check (array int))
                (Printf.sprintf "route %d->%d" src dst)
                (Reference_topology.route r ~src ~dst)
                (Router.route t ~src ~dst)
            done
          done))
    reference_shapes

(* One next-hop walk from [src] to [dst]: the hops it took. *)
let rec walk_hops topo ~src ~dst ~at hops =
  let l = Router.next_link topo ~src ~dst ~at in
  if l < 0 then hops else walk_hops topo ~src ~dst ~at:(Topology.link_dst topo l) (hops + 1)

let walks topo ~count =
  let n = Topology.nodes topo in
  let hops = ref 0 in
  for i = 0 to count - 1 do
    let src = i mod n and dst = ((i * 7) + 3) mod n in
    hops := !hops + walk_hops topo ~src ~dst ~at:src 0
  done;
  !hops

let next_link_alloc_tests =
  List.map
    (fun spec ->
      Alcotest.test_case
        (Printf.sprintf "10000 next-hop walks on %s allocate nothing" spec)
        `Quick (fun () ->
          let nodes = match spec with "ring" -> 8 | "fattree:4" -> 16 | _ -> 27 in
          let topo = Topology.build (Topology.of_spec ~nodes spec) ~nodes in
          (* What reading the counter itself costs, to subtract. *)
          let w0 = Gc.minor_words () in
          let w1 = Gc.minor_words () in
          let hops = walks topo ~count:10_000 in
          let w2 = Gc.minor_words () in
          Alcotest.(check bool) "multi-hop walks" true (hops > 10_000);
          Alcotest.(check (float 0.)) "words" 0. (w2 -. w1 -. (w1 -. w0))))
    [ "torus3d:3x3x3"; "ring"; "fattree:4" ]

let mk_fabric ?(nodes = 4) ?(profile = Profile.myrinet_mcp) () =
  let sched = Scheduler.create () in
  (sched, Fabric.create sched ~profile ~nodes)

let pid nid p = Proc_id.make ~nid ~pid:p

let fabric_tests =
  [
    Alcotest.test_case "delivers payload to registered handler" `Quick (fun () ->
        let sched, fabric = mk_fabric () in
        let got = ref None in
        Fabric.register fabric (pid 1 0) (fun ~src payload ->
            got := Some (src, Bytes.to_string payload));
        Fabric.send fabric ~src:(pid 0 0) ~dst:(pid 1 0) (Bytes.of_string "hello");
        Scheduler.run sched;
        Alcotest.(check (option (pair string string)))
          "delivered"
          (Some ("0:0", "hello"))
          (Option.map (fun (s, d) -> (Proc_id.to_string s, d)) !got));
    Alcotest.test_case "delivery takes wire latency plus serialisation" `Quick
      (fun () ->
        let sched, fabric = mk_fabric () in
        let profile = Fabric.profile fabric in
        let arrival = ref 0 in
        Fabric.register fabric (pid 1 0) (fun ~src:_ _ ->
            arrival := Scheduler.now sched);
        let payload = Bytes.create 4096 in
        Fabric.send fabric ~src:(pid 0 0) ~dst:(pid 1 0) payload;
        Scheduler.run sched;
        let expect =
          Time_ns.add (Profile.tx_time profile 4096) profile.Profile.wire_latency
        in
        Alcotest.(check int) "arrival" expect !arrival);
    Alcotest.test_case "per-sender messages stay ordered" `Quick (fun () ->
        let sched, fabric = mk_fabric () in
        let got = ref [] in
        Fabric.register fabric (pid 1 0) (fun ~src:_ payload ->
            got := Bytes.to_string payload :: !got);
        (* Mix of sizes: a big message then small ones; serialisation on the
           sender link must preserve order. *)
        Fabric.send fabric ~src:(pid 0 0) ~dst:(pid 1 0) (Bytes.make 100_000 'a');
        Fabric.send fabric ~src:(pid 0 0) ~dst:(pid 1 0) (Bytes.of_string "b");
        Fabric.send fabric ~src:(pid 0 0) ~dst:(pid 1 0) (Bytes.of_string "c");
        Scheduler.run sched;
        Alcotest.(check (list string)) "order"
          [ String.make 100_000 'a'; "b"; "c" ]
          (List.rev !got));
    Alcotest.test_case "unregistered destination counts a drop" `Quick (fun () ->
        let sched, fabric = mk_fabric () in
        Fabric.send fabric ~src:(pid 0 0) ~dst:(pid 3 7) (Bytes.of_string "x");
        Scheduler.run sched;
        let s = Fabric.stats fabric in
        Alcotest.(check int) "sent" 1 s.Fabric.messages_sent;
        Alcotest.(check int) "dropped" 1 s.Fabric.drops_unregistered;
        Alcotest.(check int) "delivered" 0 s.Fabric.messages_delivered);
    Alcotest.test_case "custom fault model drops selected messages" `Quick
      (fun () ->
        let sched, fabric = mk_fabric () in
        let seen = ref 0 in
        Fabric.register fabric (pid 1 0) (fun ~src:_ _ -> incr seen);
        Fabric.set_fault_model fabric
          (Some
             (Fault.custom (fun ~now:_ ~src:_ ~dst:_ ~len ->
                  if len > 10 then Fault.Drop else Fault.Deliver)));
        Fabric.send fabric ~src:(pid 0 0) ~dst:(pid 1 0) (Bytes.make 100 'x');
        Fabric.send fabric ~src:(pid 0 0) ~dst:(pid 1 0) (Bytes.of_string "ok");
        Scheduler.run sched;
        Alcotest.(check int) "one survived" 1 !seen;
        Alcotest.(check int) "one dropped" 1 (Fabric.stats fabric).Fabric.drops_injected);
    Alcotest.test_case "duplicate registration rejected" `Quick (fun () ->
        let _sched, fabric = mk_fabric () in
        Fabric.register fabric (pid 0 0) (fun ~src:_ _ -> ());
        Alcotest.check_raises "dup"
          (Invalid_argument "Fabric.register: already registered: 0:0")
          (fun () -> Fabric.register fabric (pid 0 0) (fun ~src:_ _ -> ())));
    Alcotest.test_case "unregister then send drops" `Quick (fun () ->
        let sched, fabric = mk_fabric () in
        Fabric.register fabric (pid 1 0) (fun ~src:_ _ -> Alcotest.fail "gone");
        Fabric.unregister fabric (pid 1 0);
        Alcotest.(check bool) "unregistered" false
          (Fabric.is_registered fabric (pid 1 0));
        Fabric.send fabric ~src:(pid 0 0) ~dst:(pid 1 0) (Bytes.of_string "x");
        Scheduler.run sched;
        Alcotest.(check int) "drop" 1 (Fabric.stats fabric).Fabric.drops_unregistered);
    Alcotest.test_case "out of range node rejected" `Quick (fun () ->
        let _sched, fabric = mk_fabric ~nodes:2 () in
        Alcotest.check_raises "range"
          (Invalid_argument "Fabric.node: nid 5 out of range") (fun () ->
            ignore (Fabric.node fabric 5)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"all sent messages accounted for" ~count:100
         QCheck.(list_of_size Gen.(int_range 0 30) (int_range 0 5_000))
         (fun sizes ->
           let sched, fabric = mk_fabric () in
           let delivered = ref 0 in
           Fabric.register fabric (pid 1 0) (fun ~src:_ _ -> incr delivered);
           let send len =
             Fabric.send fabric ~src:(pid 0 0) ~dst:(pid 1 0) (Bytes.create len)
           in
           List.iter send sizes;
           Scheduler.run sched;
           let s = Fabric.stats fabric in
           !delivered = List.length sizes
           && s.Fabric.messages_sent = List.length sizes
           && s.Fabric.bytes_sent = List.fold_left ( + ) 0 sizes));
    Alcotest.test_case "frame class rides beside the bytes" `Quick (fun () ->
        (* Every frame is damaged in flight; the class still decides who
           gets it: shim frames reach the shim, raw datagrams the
           handler, whatever their bytes became. *)
        List.iter
          (fun topology ->
            let sched = Scheduler.create () in
            let fabric =
              Fabric.create
                ~topology:(Topology.build topology ~nodes:4)
                sched ~profile:Profile.myrinet_mcp ~nodes:4
            in
            Fabric.set_fault_model fabric
              (Some (Fault.corrupt ~seed:1 ~p:1.0 ()));
            let to_shim = ref 0 and to_handler = ref 0 in
            Fabric.install_shim fabric
              {
                Fabric.shim_tx = (fun ~src:_ ~dst:_ _ -> ());
                shim_rx = (fun ~src:_ ~dst:_ _ -> incr to_shim);
              };
            Fabric.register fabric (pid 3 0) (fun ~src:_ _ -> incr to_handler);
            for _ = 1 to 5 do
              Fabric.send_framed fabric ~src:(pid 0 0) ~dst:(pid 3 0)
                (Frame.of_bytes (Bytes.make 16 '\xA7'));
              Fabric.send_raw fabric ~src:(pid 0 0) ~dst:(pid 3 0)
                (Bytes.make 16 '\xA7')
            done;
            Scheduler.run sched;
            let name = Topology.describe topology in
            Alcotest.(check int) (name ^ ": shim frames to the shim") 5 !to_shim;
            Alcotest.(check int) (name ^ ": raw datagrams to the handler") 5
              !to_handler)
          [ Topology.Full; Topology.Ring ]);
  ]

let fabric_topology_tests =
  [
    Alcotest.test_case "explicit Full matches the seed fabric exactly" `Quick
      (fun () ->
        let arrival_on topology =
          let sched = Scheduler.create () in
          let fabric =
            match topology with
            | None -> Fabric.create sched ~profile:Profile.myrinet_mcp ~nodes:4
            | Some k ->
              Fabric.create
                ~topology:(Topology.build k ~nodes:4)
                sched ~profile:Profile.myrinet_mcp ~nodes:4
          in
          let arrival = ref 0 in
          Fabric.register fabric (pid 2 0) (fun ~src:_ _ ->
              arrival := Scheduler.now sched);
          Fabric.send fabric ~src:(pid 0 0) ~dst:(pid 2 0) (Bytes.create 4096);
          Scheduler.run sched;
          (!arrival, Fabric.peak_link_queue_depth fabric)
        in
        let seed = arrival_on None in
        let full = arrival_on (Some Topology.Full) in
        Alcotest.(check (pair int int)) "same timing, no hop links" seed full);
    Alcotest.test_case "multi-hop delivery pays store-and-forward per hop"
      `Quick (fun () ->
        let profile = Profile.myrinet_mcp in
        let arrival_on topology dst =
          let sched = Scheduler.create () in
          let fabric =
            Fabric.create
              ~topology:(Topology.build topology ~nodes:8)
              sched ~profile ~nodes:8
          in
          let arrival = ref 0 in
          Fabric.register fabric (pid dst 0) (fun ~src:_ _ ->
              arrival := Scheduler.now sched);
          Fabric.send fabric ~src:(pid 0 0) ~dst:(pid dst 0)
            (Bytes.create 4096);
          Scheduler.run sched;
          !arrival
        in
        let direct = arrival_on Topology.Full 2 in
        let one_hop = arrival_on Topology.Ring 1 in
        let two_hops = arrival_on Topology.Ring 2 in
        Alcotest.(check bool) "one ring hop = private wire" true
          (one_hop = direct);
        (* An uncontended store-and-forward path costs exactly one extra
           (serialisation + latency) per extra hop. *)
        Alcotest.(check int) "second hop repeats the cost" (2 * one_hop)
          two_hops);
    Alcotest.test_case "per-pair order survives shared contended hops" `Quick
      (fun () ->
        let sched = Scheduler.create () in
        let fabric =
          Fabric.create
            ~topology:(Topology.build (Topology.Torus2d (4, 4)) ~nodes:16)
            sched ~profile:Profile.myrinet_mcp ~nodes:16
        in
        let got = ref [] in
        Fabric.register fabric (pid 3 0) (fun ~src payload ->
            if Proc_id.equal src (pid 0 0) then
              got := Bytes.get payload 0 :: !got);
        (* Cross traffic fighting for the same row links. *)
        Fabric.register fabric (pid 0 0) (fun ~src:_ _ -> ());
        for nid = 1 to 15 do
          if nid <> 3 then Fabric.register fabric (pid nid 0) (fun ~src:_ _ -> ());
          Fabric.send fabric ~src:(pid nid 0) ~dst:(pid ((nid + 1) mod 16) 0)
            (Bytes.create 2000)
        done;
        for i = 0 to 9 do
          Fabric.send fabric ~src:(pid 0 0) ~dst:(pid 3 0)
            (Bytes.make 100 (Char.chr i))
        done;
        Scheduler.run sched;
        Alcotest.(check (list char)) "in order"
          (List.init 10 Char.chr)
          (List.rev !got);
        Alcotest.(check bool) "hops actually contended" true
          (Fabric.peak_link_queue_depth fabric > 1));
    Alcotest.test_case "queue limit surfaces as congestion drops" `Quick
      (fun () ->
        let sched = Scheduler.create () in
        let fabric =
          Fabric.create
            ~topology:(Topology.build Topology.Ring ~nodes:4)
            ~queue_limit:2 sched ~profile:Profile.myrinet_mcp ~nodes:4
        in
        let delivered = ref 0 in
        Fabric.register fabric (pid 2 0) (fun ~src:_ _ -> incr delivered);
        for _ = 1 to 20 do
          Fabric.send fabric ~src:(pid 0 0) ~dst:(pid 2 0) (Bytes.create 4096)
        done;
        Scheduler.run sched;
        let s = Fabric.stats fabric in
        Alcotest.(check int) "sent" 20 s.Fabric.messages_sent;
        Alcotest.(check bool) "overload dropped" true
          (s.Fabric.drops_congested > 0);
        Alcotest.(check int) "the rest got through"
          (20 - s.Fabric.drops_congested)
          !delivered;
        Alcotest.(check bool) "queue hit its bound" true
          (Fabric.peak_link_queue_depth fabric >= 2));
  ]

let transport_tests =
  [
    Alcotest.test_case "offload rx never touches host cpu" `Quick (fun () ->
        let sched, fabric = mk_fabric () in
        let transport = Transport.offload fabric in
        let handled = ref false in
        transport.Transport.register (pid 1 0) (fun ~src:_ _ ->
            transport.Transport.charge_rx 1 (Time_ns.us 5.0);
            handled := true);
        transport.Transport.send ~src:(pid 0 0) ~dst:(pid 1 0)
          (Bytes.of_string "msg");
        Scheduler.run sched;
        Alcotest.(check bool) "handled" true !handled;
        let cpu = Node.host_cpu (Fabric.node fabric 1) in
        Alcotest.(check int) "no host cycles" 0 (Cpu.stolen_total cpu));
    Alcotest.test_case "kernel rx interrupts the host cpu" `Quick (fun () ->
        let sched, fabric = mk_fabric ~profile:Profile.myrinet_kernel () in
        let transport = Transport.kernel_interrupt fabric in
        let handled = ref false in
        transport.Transport.register (pid 1 0) (fun ~src:_ _ ->
            transport.Transport.charge_rx 1 (Time_ns.us 5.0);
            handled := true);
        transport.Transport.send ~src:(pid 0 0) ~dst:(pid 1 0)
          (Bytes.of_string "msg");
        Scheduler.run sched;
        Alcotest.(check bool) "handled" true !handled;
        let cpu = Node.host_cpu (Fabric.node fabric 1) in
        let expected =
          Time_ns.add Profile.myrinet_kernel.Profile.host_interrupt_cost
            (Time_ns.add (Profile.copy_time Profile.myrinet_kernel 3) (Time_ns.us 5.0))
        in
        Alcotest.(check int) "interrupt + copy + charged cycles stolen" expected
          (Cpu.stolen_total cpu));
    Alcotest.test_case "kernel rx perturbs an in-flight compute" `Quick (fun () ->
        let sched, fabric = mk_fabric ~profile:Profile.myrinet_kernel () in
        let transport = Transport.kernel_interrupt fabric in
        transport.Transport.register (pid 1 0) (fun ~src:_ _ -> ());
        let cpu = Node.host_cpu (Fabric.node fabric 1) in
        let finished = ref 0 in
        Scheduler.spawn sched (fun () ->
            Cpu.compute cpu (Time_ns.ms 1.0);
            finished := Scheduler.now sched);
        transport.Transport.send ~src:(pid 0 0) ~dst:(pid 1 0)
          (Bytes.of_string "interrupting");
        Scheduler.run sched;
        Alcotest.(check bool) "compute extended past 1ms" true
          (!finished > Time_ns.ms 1.0));
    Alcotest.test_case "a message lands after its placement's receive cost"
      `Quick (fun () ->
        (* One [n]-byte message from node 0 to node 1, put on the wire at
           time 0. [deliver] registers the receiver; the result is the
           time its handler runs and the host cycles node 1 lost. *)
        let arrive profile deliver n =
          let sched, fabric = mk_fabric ~profile () in
          let at = ref (-1) in
          deliver fabric (pid 1 0) (fun ~src:_ _ -> at := Scheduler.now sched);
          Fabric.send fabric ~src:(pid 0 0) ~dst:(pid 1 0) (Bytes.create n);
          Scheduler.run sched;
          (!at, Cpu.stolen_total (Node.host_cpu (Fabric.node fabric 1)))
        in
        let check placement profile ~landing ~stolen n =
          let wire, _ = arrive profile Fabric.register n in
          let landed, lost =
            arrive profile
              (fun fabric -> (placement fabric).Transport.register)
              n
          in
          let what = Printf.sprintf "%s, %d bytes" profile.Profile.name n in
          Alcotest.(check int) (what ^ ": lands") (wire + landing) landed;
          Alcotest.(check int) (what ^ ": host stolen") stolen lost
        in
        List.iter
          (fun n ->
            let p = Profile.myrinet_mcp in
            check Transport.offload p n ~stolen:0
              ~landing:(p.Profile.nic_rx_cost + Profile.dma_time p n);
            let p = Profile.myrinet_kernel in
            let host = p.Profile.host_interrupt_cost + Profile.copy_time p n in
            check Transport.kernel_interrupt p n ~stolen:host
              ~landing:(p.Profile.nic_rx_cost + host))
          [ 0; 100_000 ]);
    Alcotest.test_case "small message cannot overtake a large one" `Quick
      (fun () ->
        (* The landing stage (DMA/copy) must serialise per node: a tiny
           message arriving right behind a large one stays behind it. *)
        let check kind profile =
          let sched, fabric = mk_fabric ~profile () in
          let transport =
            match kind with
            | `Offload -> Transport.offload fabric
            | `Kernel -> Transport.kernel_interrupt fabric
          in
          let order = ref [] in
          transport.Transport.register (pid 1 0) (fun ~src:_ payload ->
              order := Bytes.length payload :: !order);
          transport.Transport.send ~src:(pid 0 0) ~dst:(pid 1 0)
            (Bytes.create 100_000);
          transport.Transport.send ~src:(pid 0 0) ~dst:(pid 1 0)
            (Bytes.create 8);
          Scheduler.run sched;
          Alcotest.(check (list int)) "delivery order" [ 100_000; 8 ]
            (List.rev !order)
        in
        check `Offload Profile.myrinet_mcp;
        check `Kernel Profile.myrinet_kernel);
    Alcotest.test_case "offload delivery preserves payload bytes" `Quick
      (fun () ->
        let sched, fabric = mk_fabric () in
        let transport = Transport.offload fabric in
        let payload = Bytes.init 257 (fun i -> Char.chr (i mod 256)) in
        let got = ref Bytes.empty in
        transport.Transport.register (pid 2 1) (fun ~src:_ b -> got := b);
        transport.Transport.send ~src:(pid 0 0) ~dst:(pid 2 1) payload;
        Scheduler.run sched;
        Alcotest.(check bytes) "payload intact" payload !got);
  ]

let fault_model_tests =
  [
    Alcotest.test_case "bernoulli drops roughly its rate" `Quick (fun () ->
        let sched, fabric = mk_fabric () in
        Fabric.set_fault_model fabric (Some (Fault.bernoulli ~seed:1 ~p:0.2 ()));
        let seen = ref 0 in
        Fabric.register fabric (pid 1 0) (fun ~src:_ _ -> incr seen);
        for _ = 1 to 500 do
          Fabric.send fabric ~src:(pid 0 0) ~dst:(pid 1 0) (Bytes.create 8)
        done;
        Scheduler.run sched;
        let dropped = (Fabric.stats fabric).Fabric.drops_injected in
        Alcotest.(check int) "conservation" 500 (!seen + dropped);
        Alcotest.(check bool)
          (Printf.sprintf "dropped %d within [50, 150]" dropped)
          true
          (dropped >= 50 && dropped <= 150));
    Alcotest.test_case "bernoulli replays bit-exactly from its seed" `Quick
      (fun () ->
        let run () =
          let sched, fabric = mk_fabric () in
          Fabric.set_fault_model fabric
            (Some (Fault.bernoulli ~seed:7 ~p:0.3 ()));
          let survivors = ref [] in
          Fabric.register fabric (pid 1 0) (fun ~src:_ b ->
              survivors := Bytes.get b 0 :: !survivors);
          for i = 0 to 99 do
            Fabric.send fabric ~src:(pid 0 0) ~dst:(pid 1 0)
              (Bytes.make 4 (Char.chr i))
          done;
          Scheduler.run sched;
          List.rev !survivors
        in
        Alcotest.(check (list char)) "identical survivor set" (run ()) (run ()));
    Alcotest.test_case "gilbert produces burstier losses than bernoulli"
      `Quick (fun () ->
        (* Same long-run loss rate; the Gilbert chain must concentrate its
           drops into longer consecutive runs. *)
        let max_run fault =
          let sched, fabric = mk_fabric () in
          Fabric.set_fault_model fabric (Some fault);
          let n = 2000 in
          let arrived = Array.make n false in
          Fabric.register fabric (pid 1 0) (fun ~src:_ b ->
              arrived.(Bytes.get_uint16_le b 0) <- true);
          for i = 0 to n - 1 do
            let b = Bytes.create 8 in
            Bytes.set_uint16_le b 0 i;
            Fabric.send fabric ~src:(pid 0 0) ~dst:(pid 1 0) b
          done;
          Scheduler.run sched;
          let best = ref 0 and cur = ref 0 in
          Array.iter
            (fun ok ->
              if ok then cur := 0
              else begin
                incr cur;
                best := max !best !cur
              end)
            arrived;
          !best
        in
        let bernoulli_run = max_run (Fault.bernoulli ~seed:3 ~p:0.1 ()) in
        let gilbert_run =
          (* p_enter/(p_enter+p_exit) = 0.0217/(0.0217+0.2) ~ 0.098 steady
             state in Bad, ~5-message mean bursts. *)
          max_run (Fault.gilbert ~seed:3 ~p_enter:0.0217 ~p_exit:0.2 ())
        in
        Alcotest.(check bool)
          (Printf.sprintf "gilbert %d > bernoulli %d" gilbert_run bernoulli_run)
          true
          (gilbert_run > bernoulli_run));
    Alcotest.test_case "duplicator delivers extra copies" `Quick (fun () ->
        let sched, fabric = mk_fabric () in
        Fabric.set_fault_model fabric (Some (Fault.duplicator ~seed:2 ~p:0.5 ()));
        let seen = ref 0 in
        Fabric.register fabric (pid 1 0) (fun ~src:_ _ -> incr seen);
        for _ = 1 to 100 do
          Fabric.send fabric ~src:(pid 0 0) ~dst:(pid 1 0) (Bytes.create 8)
        done;
        Scheduler.run sched;
        let dups = (Fabric.stats fabric).Fabric.dups_injected in
        Alcotest.(check bool) "some duplicated" true (dups > 0);
        Alcotest.(check int) "each duplicate adds one arrival" (100 + dups)
          !seen);
    Alcotest.test_case "link flap drops exactly during downtime" `Quick
      (fun () ->
        let sched, fabric = mk_fabric () in
        (* 100 us period, last 40 us down. *)
        Fabric.set_fault_model fabric
          (Some
             (Fault.link_flap ~period:(Time_ns.us 100.)
                ~downtime:(Time_ns.us 40.) ()));
        let seen = ref [] in
        Fabric.register fabric (pid 1 0) (fun ~src:_ b ->
            seen := Bytes.get b 0 :: !seen);
        (* One tiny message every 25 us: phases 0, 25, 50 are up;
           75 is down; repeating. *)
        for i = 0 to 7 do
          Scheduler.after sched
            (Time_ns.us (25. *. float_of_int i))
            (fun () ->
              Fabric.send fabric ~src:(pid 0 0) ~dst:(pid 1 0)
                (Bytes.make 1 (Char.chr i)))
        done;
        Scheduler.run sched;
        Alcotest.(check (list int))
          "only the down-phase sends are lost"
          [ 0; 1; 2; 4; 5; 6 ]
          (List.rev_map Char.code !seen));
    Alcotest.test_case "flap validates downtime <= period" `Quick (fun () ->
        Alcotest.check_raises "invalid"
          (Invalid_argument "Fault.link_flap: downtime must lie within the period")
          (fun () ->
            ignore
              (Fault.link_flap ~period:(Time_ns.us 10.)
                 ~downtime:(Time_ns.us 20.) ())));
    Alcotest.test_case "compose: any drop wins over duplicate" `Quick
      (fun () ->
        let sched, fabric = mk_fabric () in
        Fabric.set_fault_model fabric
          (Some
             (Fault.compose
                [ Fault.duplicator ~seed:4 ~p:1.0 (); Fault.bernoulli ~seed:5 ~p:1.0 () ]));
        let seen = ref 0 in
        Fabric.register fabric (pid 1 0) (fun ~src:_ _ -> incr seen);
        Fabric.send fabric ~src:(pid 0 0) ~dst:(pid 1 0) (Bytes.create 8);
        Scheduler.run sched;
        Alcotest.(check int) "dropped, not duplicated" 0 !seen;
        Alcotest.(check int) "counted as drop" 1
          (Fabric.stats fabric).Fabric.drops_injected);
    Alcotest.test_case "injected drops are counted per (src, dst) pair"
      `Quick (fun () ->
        let sched, fabric = mk_fabric () in
        Fabric.set_fault_model fabric (Some (Fault.bernoulli ~seed:1 ~p:1.0 ()));
        for _ = 1 to 3 do
          Fabric.send fabric ~src:(pid 0 0) ~dst:(pid 1 0) (Bytes.create 8)
        done;
        Fabric.send fabric ~src:(pid 2 0) ~dst:(pid 1 0) (Bytes.create 8);
        Scheduler.run sched;
        let snap = Metrics.snapshot (Scheduler.metrics sched) in
        let count ~src ~dst =
          match
            Metrics.Snapshot.find snap
              ~labels:[ ("src", src); ("dst", dst) ]
              "fabric.drops_injected"
          with
          | Some (Metrics.Snapshot.Counter n) -> n
          | _ -> Alcotest.fail "per-pair counter missing"
        in
        Alcotest.(check int) "pair 0:0 -> 1:0" 3 (count ~src:"0:0" ~dst:"1:0");
        Alcotest.(check int) "pair 2:0 -> 1:0" 1 (count ~src:"2:0" ~dst:"1:0");
        (* The legacy total is derived from the labelled counters. *)
        Alcotest.(check int) "derived total" 4
          (Fabric.stats fabric).Fabric.drops_injected);
  ]

let corruption_delay_tests =
  [
    Alcotest.test_case "corrupt mutates roughly its rate, never loses" `Quick
      (fun () ->
        let sched, fabric = mk_fabric () in
        Fabric.set_fault_model fabric (Some (Fault.corrupt ~seed:1 ~p:0.2 ()));
        let clean = ref 0 and damaged = ref 0 in
        let original = Bytes.make 32 'a' in
        Fabric.register fabric (pid 1 0) (fun ~src:_ b ->
            if Bytes.equal b original then incr clean else incr damaged);
        for _ = 1 to 500 do
          Fabric.send fabric ~src:(pid 0 0) ~dst:(pid 1 0)
            (Bytes.copy original)
        done;
        Scheduler.run sched;
        Alcotest.(check int) "every frame still arrives" 500
          (!clean + !damaged);
        let injected = (Fabric.stats fabric).Fabric.corrupts_injected in
        Alcotest.(check bool)
          (Printf.sprintf "injected %d within [50, 150]" injected)
          true
          (injected >= 50 && injected <= 150);
        (* A truncation that keeps the whole frame is still counted as an
           injection, so damaged <= injected, and most injections show. *)
        Alcotest.(check bool) "damage observed" true (!damaged > 0);
        Alcotest.(check bool) "damaged <= injected" true
          (!damaged <= injected));
    Alcotest.test_case "mutate: flip wraps, truncate clamps, copy on write"
      `Quick (fun () ->
        let buf = Bytes.make 4 '\x00' in
        let frame = Frame.of_bytes buf in
        let flipped = Fault.mutate (Fault.Flip { bit = 32 }) frame in
        Alcotest.(check bool) "original untouched" true
          (Bytes.equal buf (Bytes.make 4 '\x00'));
        Alcotest.(check int) "bit 32 wraps to bit 0" 1
          (Bytes.get_uint8 (Frame.to_bytes flipped) 0);
        let cut = Fault.mutate (Fault.Truncate { keep = 2 }) frame in
        Alcotest.(check int) "truncated" 2 (Frame.length cut);
        Alcotest.(check bool) "a truncation only shortens the view" true
          (cut.Frame.buf == buf);
        let over = Fault.mutate (Fault.Truncate { keep = 9 }) frame in
        Alcotest.(check int) "overlong keep clamps" 4 (Frame.length over);
        (* A header plus a view: a flip copies only the part it lands in. *)
        let hdr = Bytes.make 2 '\x00' in
        let framed = Frame.v ~hdr buf ~off:1 ~len:3 in
        let in_hdr = Fault.mutate (Fault.Flip { bit = 9 }) framed in
        Alcotest.(check bool) "header flip shares the view" true
          (in_hdr.Frame.buf == buf && in_hdr.Frame.hdr != hdr);
        Alcotest.(check int) "header bit flipped" 2 (Bytes.get_uint8 (Frame.to_bytes in_hdr) 1);
        let in_view = Fault.mutate (Fault.Flip { bit = 16 }) framed in
        Alcotest.(check bool) "view flip shares the header" true
          (in_view.Frame.hdr == hdr && in_view.Frame.buf != buf);
        Alcotest.(check int) "view bit flipped" 1 (Bytes.get_uint8 (Frame.to_bytes in_view) 2);
        Alcotest.(check bool) "neither written" true
          (Bytes.equal buf (Bytes.make 4 '\x00')
          && Bytes.equal hdr (Bytes.make 2 '\x00')));
    Alcotest.test_case "delay adds latency but keeps per-pair FIFO" `Quick
      (fun () ->
        let sched, fabric = mk_fabric () in
        Fabric.set_fault_model fabric
          (Some
             (Fault.delay ~seed:3 ~mean:(Time_ns.us 30.)
                ~jitter:(Time_ns.us 30.) ()));
        let seen = ref [] in
        Fabric.register fabric (pid 1 0) (fun ~src:_ b ->
            seen := Bytes.get_uint8 b 0 :: !seen);
        for i = 0 to 49 do
          Scheduler.at sched
            (Time_ns.us (float_of_int i))
            (fun () ->
              Fabric.send fabric ~src:(pid 0 0) ~dst:(pid 1 0)
                (Bytes.make 1 (Char.chr i)))
        done;
        Scheduler.run sched;
        Alcotest.(check (list int)) "all arrive in send order"
          (List.init 50 Fun.id) (List.rev !seen);
        Alcotest.(check int) "every message counted delayed" 50
          (Fabric.stats fabric).Fabric.delays_injected);
    Alcotest.test_case "delay validates mean and jitter" `Quick (fun () ->
        Alcotest.check_raises "negative mean"
          (Invalid_argument "Fault.delay: mean must be >= 0") (fun () ->
            ignore (Fault.delay ~mean:(-5) ()));
        Alcotest.check_raises "jitter exceeds mean"
          (Invalid_argument
             "Fault.delay: jitter must not exceed the mean") (fun () ->
            ignore
              (Fault.delay ~mean:(Time_ns.us 10.) ~jitter:(Time_ns.us 20.) ())));
    Alcotest.test_case "compose: corrupt wins over delay, drop over both"
      `Quick (fun () ->
        let corrupt_always =
          Fault.custom (fun ~now:_ ~src:_ ~dst:_ ~len:_ ->
              Fault.Corrupt (Fault.Flip { bit = 0 }))
        in
        let delay_always =
          Fault.custom (fun ~now:_ ~src:_ ~dst:_ ~len:_ ->
              Fault.Delay { by = Time_ns.us 10.; reorder = false })
        in
        let pick models =
          Fault.decide (Fault.compose models) ~now:0 ~src:(pid 0 0)
            ~dst:(pid 1 0) ~len:8
        in
        (match pick [ delay_always; corrupt_always ] with
        | Fault.Corrupt _ -> ()
        | _ -> Alcotest.fail "corrupt should win over delay");
        match pick [ corrupt_always; Fault.bernoulli ~p:1.0 () ] with
        | Fault.Drop -> ()
        | _ -> Alcotest.fail "drop should win over corrupt");
    Alcotest.test_case "corrupting compose reports can_corrupt" `Quick
      (fun () ->
        Alcotest.(check bool) "corrupt alone" true
          (Fault.can_corrupt (Fault.corrupt ~p:0.5 ()));
        Alcotest.(check bool) "buried in a compose" true
          (Fault.can_corrupt
             (Fault.compose
                [ Fault.bernoulli ~p:0.1 (); Fault.corrupt ~p:0.5 () ]));
        Alcotest.(check bool) "loss-only compose" false
          (Fault.can_corrupt
             (Fault.compose
                [ Fault.bernoulli ~p:0.1 (); Fault.duplicator ~p:0.1 () ])));
  ]

let partition_tests =
  let cut ?(one_way = false) ?(heal_at = Some (Time_ns.us 100.)) () =
    Fault.partition_schedule
      [
        {
          Fault.group_a = [ 0; 1 ];
          group_b = [ 2; 3 ];
          one_way;
          cut_at = Time_ns.us 10.;
          heal_at;
        };
      ]
  in
  [
    Alcotest.test_case "cut severs cross-group traffic until the heal"
      `Quick (fun () ->
        let sched, fabric = mk_fabric () in
        Fabric.apply_partition_schedule fabric (cut ());
        let seen = ref [] in
        Fabric.register fabric (pid 2 0) (fun ~src:_ b ->
            seen := Bytes.get_uint8 b 0 :: !seen);
        List.iter
          (fun (t, tag) ->
            Scheduler.at sched (Time_ns.us t) (fun () ->
                Fabric.send fabric ~src:(pid 0 0) ~dst:(pid 2 0)
                  (Bytes.make 1 (Char.chr tag))))
          [ (0., 0); (50., 1); (120., 2) ];
        Scheduler.run sched;
        Alcotest.(check (list int)) "mid-cut send lost" [ 0; 2 ]
          (List.rev !seen);
        Alcotest.(check int) "counted partitioned" 1
          (Fabric.stats fabric).Fabric.drops_partitioned);
    Alcotest.test_case "intra-group traffic rides through the cut" `Quick
      (fun () ->
        let sched, fabric = mk_fabric () in
        Fabric.apply_partition_schedule fabric (cut ());
        let seen = ref 0 in
        Fabric.register fabric (pid 1 0) (fun ~src:_ _ -> incr seen);
        Scheduler.at sched (Time_ns.us 50.) (fun () ->
            Fabric.send fabric ~src:(pid 0 0) ~dst:(pid 1 0) (Bytes.create 4));
        Scheduler.run sched;
        Alcotest.(check int) "delivered" 1 !seen);
    Alcotest.test_case "one-way cut severs only group_a -> group_b" `Quick
      (fun () ->
        let sched, fabric = mk_fabric () in
        Fabric.apply_partition_schedule fabric (cut ~one_way:true ());
        let fwd = ref 0 and back = ref 0 in
        Fabric.register fabric (pid 2 0) (fun ~src:_ _ -> incr fwd);
        Fabric.register fabric (pid 0 0) (fun ~src:_ _ -> incr back);
        Scheduler.at sched (Time_ns.us 50.) (fun () ->
            Fabric.send fabric ~src:(pid 0 0) ~dst:(pid 2 0) (Bytes.create 4);
            Fabric.send fabric ~src:(pid 2 0) ~dst:(pid 0 0) (Bytes.create 4));
        Scheduler.run sched;
        Alcotest.(check int) "a -> b severed" 0 !fwd;
        Alcotest.(check int) "b -> a delivered" 1 !back);
    Alcotest.test_case "partitioned_now tracks the window; has_partitions \
                        is static"
      `Quick (fun () ->
        let sched, fabric = mk_fabric () in
        Fabric.apply_partition_schedule fabric (cut ());
        Alcotest.(check bool) "schedule visible" true
          (Fabric.has_partitions fabric);
        Alcotest.(check bool) "before the cut" false
          (Fabric.partitioned_now fabric ~src:0 ~dst:2);
        Scheduler.at sched (Time_ns.us 50.) (fun () ->
            Alcotest.(check bool) "mid-cut" true
              (Fabric.partitioned_now fabric ~src:0 ~dst:2);
            Alcotest.(check bool) "intra-group never" false
              (Fabric.partitioned_now fabric ~src:0 ~dst:1));
        Scheduler.at sched (Time_ns.us 150.) (fun () ->
            Alcotest.(check bool) "healed" false
              (Fabric.partitioned_now fabric ~src:0 ~dst:2));
        Scheduler.run sched);
    Alcotest.test_case "schedule validation" `Quick (fun () ->
        let event =
          {
            Fault.group_a = [ 0 ];
            group_b = [ 1 ];
            one_way = false;
            cut_at = Time_ns.us 10.;
            heal_at = None;
          }
        in
        Alcotest.check_raises "empty group"
          (Invalid_argument "Fault.partition_schedule: both groups must be non-empty")
          (fun () ->
            ignore (Fault.partition_schedule [ { event with Fault.group_a = [] } ]));
        Alcotest.check_raises "overlapping groups"
          (Invalid_argument
             "Fault.partition_schedule: node 1 appears on both sides of the cut")
          (fun () ->
            ignore
              (Fault.partition_schedule
                 [ { event with Fault.group_a = [ 1 ] } ]));
        Alcotest.check_raises "heal not after cut"
          (Invalid_argument
             "Fault.partition_schedule: heal_at must be after cut_at")
          (fun () ->
            ignore
              (Fault.partition_schedule
                 [ { event with Fault.heal_at = Some (Time_ns.us 10.) } ])));
    Alcotest.test_case "fabric rejects out-of-range nids" `Quick (fun () ->
        let _, fabric = mk_fabric ~nodes:2 () in
        Alcotest.check_raises "nid 3 on a 2-node fabric"
          (Invalid_argument
             "Fabric.apply_partition_schedule: unknown nid 3")
          (fun () ->
            Fabric.apply_partition_schedule fabric
              (Fault.partition_schedule
                 [
                   {
                     Fault.group_a = [ 0 ];
                     group_b = [ 3 ];
                     one_way = false;
                     cut_at = 0;
                     heal_at = None;
                   };
                 ])));
  ]

let crash_tests =
  [
    Alcotest.test_case "crash fences delivery and deregisters procs" `Quick
      (fun () ->
        let sched, fabric = mk_fabric () in
        let seen = ref 0 in
        Fabric.register fabric (pid 1 0) (fun ~src:_ _ -> incr seen);
        Scheduler.at sched (Time_ns.us 10.) (fun () -> Fabric.crash fabric 1);
        Scheduler.at sched (Time_ns.us 20.) (fun () ->
            Fabric.send fabric ~src:(pid 0 0) ~dst:(pid 1 0) (Bytes.create 8));
        Scheduler.run sched;
        Alcotest.(check int) "nothing delivered" 0 !seen;
        Alcotest.(check bool) "node down" false (Fabric.is_node_up fabric 1);
        Alcotest.(check bool) "proc deregistered" false
          (Fabric.is_registered fabric (pid 1 0));
        Alcotest.(check int) "counted as crash drop" 1
          (Fabric.stats fabric).Fabric.drops_crashed);
    Alcotest.test_case "in-flight traffic dies with the node" `Quick (fun () ->
        let sched, fabric = mk_fabric () in
        let seen = ref 0 in
        Fabric.register fabric (pid 1 0) (fun ~src:_ _ -> incr seen);
        (* The message is on the wire when the victim dies: sent at t=0,
           crash well before any profile's wire latency has elapsed. *)
        Fabric.send fabric ~src:(pid 0 0) ~dst:(pid 1 0) (Bytes.create 64);
        Scheduler.at sched (Time_ns.ns 1) (fun () -> Fabric.crash fabric 1);
        Scheduler.run sched;
        Alcotest.(check int) "in-flight message lost" 0 !seen;
        Alcotest.(check int) "counted as crash drop" 1
          (Fabric.stats fabric).Fabric.drops_crashed);
    Alcotest.test_case "restart bumps the incarnation and reopens the node"
      `Quick (fun () ->
        let sched, fabric = mk_fabric () in
        let seen = ref 0 in
        Alcotest.(check int) "first incarnation" 0 (Fabric.incarnation fabric 1);
        Fabric.apply_crash_schedule fabric
          (Fault.crash_schedule [ (1, Time_ns.us 10., Some (Time_ns.us 20.)) ]);
        (* A rebooted node must re-register its endpoints by hand. *)
        Scheduler.at sched (Time_ns.us 30.) (fun () ->
            Fabric.register fabric (pid 1 0) (fun ~src:_ _ -> incr seen));
        Scheduler.at sched (Time_ns.us 40.) (fun () ->
            Fabric.send fabric ~src:(pid 0 0) ~dst:(pid 1 0) (Bytes.create 8));
        Scheduler.run sched;
        Alcotest.(check bool) "node back up" true (Fabric.is_node_up fabric 1);
        Alcotest.(check int) "second incarnation" 1 (Fabric.incarnation fabric 1);
        Alcotest.(check int) "post-restart delivery works" 1 !seen);
    Alcotest.test_case "crash kills the node's resident fibers" `Quick
      (fun () ->
        let sched, fabric = mk_fabric () in
        let victim_done = ref false in
        let survivor_done = ref false in
        Scheduler.spawn sched ~name:"victim" ~domain:1 (fun () ->
            Scheduler.delay sched (Time_ns.us 100.);
            victim_done := true);
        Scheduler.spawn sched ~name:"survivor" ~domain:0 (fun () ->
            Scheduler.delay sched (Time_ns.us 100.);
            survivor_done := true);
        Scheduler.at sched (Time_ns.us 10.) (fun () -> Fabric.crash fabric 1);
        Scheduler.run sched;
        Alcotest.(check bool) "victim fiber killed" false !victim_done;
        Alcotest.(check bool) "survivor fiber unaffected" true !survivor_done);
    Alcotest.test_case "crash/restart state machine rejects bad transitions"
      `Quick (fun () ->
        let sched, fabric = mk_fabric () in
        Scheduler.at sched Time_ns.zero (fun () ->
            let raises f =
              try
                f ();
                false
              with Invalid_argument _ -> true
            in
            Alcotest.(check bool) "restart while up" true
              (raises (fun () -> Fabric.restart fabric 1));
            Fabric.crash fabric 1;
            Alcotest.(check bool) "double crash" true
              (raises (fun () -> Fabric.crash fabric 1));
            Fabric.restart fabric 1);
        Scheduler.run sched);
    Alcotest.test_case "crash_schedule validates the script" `Quick (fun () ->
        let rejects events =
          try
            ignore (Fault.crash_schedule events);
            false
          with Invalid_argument _ -> true
        in
        Alcotest.(check bool) "restart not after its crash" true
          (rejects [ (1, Time_ns.us 10., Some (Time_ns.us 10.)) ]);
        Alcotest.(check bool) "re-crash while still down" true
          (rejects
             [ (1, Time_ns.us 10., None); (1, Time_ns.us 20., Some (Time_ns.us 30.)) ]);
        Alcotest.(check bool) "valid script accepted" false
          (rejects
             [
               (1, Time_ns.us 10., Some (Time_ns.us 20.));
               (1, Time_ns.us 30., None);
               (2, Time_ns.us 5., Some (Time_ns.us 50.));
             ]));
    Alcotest.test_case "random_crash_schedule is deterministic and valid"
      `Quick (fun () ->
        let mk seed =
          Fault.random_crash_schedule ~seed ~nids:[ 0; 1; 2; 3 ] ~crashes:5
            ~horizon:(Time_ns.ms 10.) ()
        in
        Alcotest.(check int) "five events" 5 (List.length (mk 7));
        Alcotest.(check bool) "same seed replays" true (mk 7 = mk 7);
        List.iter
          (fun (e : Fault.crash_event) ->
            Alcotest.(check bool) "victim in range" true
              (e.Fault.victim >= 0 && e.Fault.victim < 4);
            match e.Fault.up_at with
            | None -> ()
            | Some up ->
              Alcotest.(check bool) "restart after crash" true
                (Time_ns.compare up e.Fault.down_at > 0))
          (mk 7));
    Alcotest.test_case "apply_crash_schedule fires kills, revives and hooks"
      `Quick (fun () ->
        let sched, fabric = mk_fabric () in
        let log = ref [] in
        Fabric.on_crash fabric (fun nid ->
            log := `Down (nid, Scheduler.now sched) :: !log);
        Fabric.on_restart fabric (fun nid ->
            log := `Up (nid, Scheduler.now sched) :: !log);
        Fabric.apply_crash_schedule fabric
          (Fault.crash_schedule [ (2, Time_ns.us 5., Some (Time_ns.us 9.)) ]);
        Scheduler.run sched;
        Alcotest.(check bool) "down then up, at schedule times" true
          (List.rev !log
          = [ `Down (2, Time_ns.us 5.); `Up (2, Time_ns.us 9.) ]);
        Alcotest.(check int) "incarnation bumped" 1 (Fabric.incarnation fabric 2));
    Alcotest.test_case "10k crash listeners fire once each, in order" `Quick
      (fun () ->
        let _, fabric = mk_fabric () in
        let n = 10_000 in
        let fired = Array.make n 0 and order = ref [] and late = ref [] in
        for i = 0 to n - 1 do
          Fabric.on_crash fabric (fun nid ->
              fired.(i) <- fired.(i) + 1;
              order := i :: !order;
              (* Added while listeners run: must wait for the next crash. *)
              if i = n - 1 && nid = 1 then
                Fabric.on_crash fabric (fun nid -> late := nid :: !late))
        done;
        Fabric.crash fabric 1;
        Alcotest.(check bool) "each fired once" true (Array.for_all (( = ) 1) fired);
        Alcotest.(check bool) "registration order" true
          (List.rev !order = List.init n Fun.id);
        Alcotest.(check (list int)) "late listener silent" [] !late;
        Fabric.crash fabric 2;
        Alcotest.(check (list int)) "late listener fires next crash" [ 2 ] !late;
        Alcotest.(check bool) "others fired twice" true (Array.for_all (( = ) 2) fired));
  ]

(* --- shard map --------------------------------------------------------- *)

let shard_map_tests =
  let profile = Profile.myrinet_mcp in
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"every node owned by exactly one shard, in contiguous blocks"
         ~count:200
         QCheck.(pair (int_range 1 64) (int_range 1 16))
         (fun (nodes, shards) ->
           let shards = min shards nodes in
           let owners =
             List.init nodes (Shard_map.node_owner ~nodes ~shards)
           in
           (* In range, uses every shard, non-decreasing (= contiguous
              blocks), and balanced to within one node. *)
           let counts = Array.make shards 0 in
           List.iter
             (fun o -> counts.(o) <- counts.(o) + 1)
             owners;
           List.for_all (fun o -> o >= 0 && o < shards) owners
           && Array.for_all (fun c -> c > 0) counts
           && List.sort compare owners = owners
           && Array.for_all
                (fun c -> abs (c - (nodes / shards)) <= 1)
                counts));
    Alcotest.test_case "torus stripes: cut links cross shards only" `Quick
      (fun () ->
        let topo = Topology.build (Topology.of_spec ~nodes:16 "torus2d") ~nodes:16 in
        let map = Shard_map.build topo ~profile ~shards:4 in
        Alcotest.(check int) "shards" 4 (Shard_map.shards map);
        (* Exactly one owner per node: shard node lists partition 0..15. *)
        let all =
          List.concat_map (Shard_map.nodes_of map) [ 0; 1; 2; 3 ]
        in
        Alcotest.(check (list int))
          "partition" (List.init 16 Fun.id) (List.sort compare all);
        let cuts = Shard_map.cut_links map topo in
        Alcotest.(check bool) "some cut links" true (cuts <> []);
        List.iter
          (fun id ->
            Alcotest.(check bool) "endpoints on different shards" true
              (Shard_map.owner map (Topology.link_src topo id)
              <> Shard_map.owner map (Topology.link_dst topo id)))
          cuts;
        (* Non-cut links stay inside one shard by definition; lookahead
           is the minimum cut-link latency — with uniform links, the
           profile wire latency. *)
        Alcotest.(check (option int))
          "lookahead = min cut-link latency"
          (Some profile.Profile.wire_latency) (Shard_map.lookahead map);
        Alcotest.(check (option int)) "one shard cuts nothing" None
          (Shard_map.lookahead (Shard_map.build topo ~profile ~shards:1)));
    Alcotest.test_case "full topology lookahead is the wire latency" `Quick
      (fun () ->
        let topo = Topology.build Topology.Full ~nodes:8 in
        let map = Shard_map.build topo ~profile ~shards:2 in
        Alcotest.(check (option int)) "lookahead"
          (Some profile.Profile.wire_latency) (Shard_map.lookahead map);
        Alcotest.(check (list int)) "no shared links to cut" []
          (Shard_map.cut_links map topo);
        Alcotest.(check (option int)) "one shard has none" None
          (Shard_map.lookahead (Shard_map.build topo ~profile ~shards:1)));
    Alcotest.test_case "validation" `Quick (fun () ->
        let topo = Topology.build Topology.Full ~nodes:4 in
        Alcotest.(check bool) "more shards than nodes" true
          (match Shard_map.build topo ~profile ~shards:5 with
          | _ -> false
          | exception Invalid_argument _ -> true);
        Alcotest.(check bool) "zero shards" true
          (match Shard_map.build topo ~profile ~shards:0 with
          | _ -> false
          | exception Invalid_argument _ -> true));
  ]

(* --- per-component probe families and world-build cost ---------------- *)

(* Words this domain allocates while [f] runs. The counters take in the
   minor heap's words only when it is emptied, so empty it on both
   sides. *)
let words_during f =
  Gc.minor ();
  let minor0, promoted0, major0 = Gc.counters () in
  let v = f () in
  Gc.minor ();
  let minor1, promoted1, major1 = Gc.counters () in
  (v, minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0))

let entry_key (e : Metrics.Snapshot.entry) =
  (e.Metrics.Snapshot.name, e.Metrics.Snapshot.labels)

let has_prefix p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

(* The snapshot entries under [prefix], as comparable tuples. *)
let entries_with_prefix prefix snap =
  List.filter_map
    (fun (e : Metrics.Snapshot.entry) ->
      if has_prefix prefix e.Metrics.Snapshot.name then
        Some (e.Metrics.Snapshot.name, e.Metrics.Snapshot.labels, e.Metrics.Snapshot.value)
      else None)
    snap

(* The probes a CPU or a link used to register for itself, one closure
   per component, built here as the reference the families must match. *)
let reference_cpu_probes m sched cpu =
  let labels = [ ("cpu", Cpu.name cpu) ] in
  Metrics.probe m ~labels "cpu.stolen_us" (fun () ->
      Time_ns.to_us (Cpu.stolen_total cpu));
  Metrics.probe m ~labels "cpu.compute_us" (fun () ->
      Time_ns.to_us (Cpu.compute_total cpu));
  Metrics.probe m ~labels "cpu.occupancy" (fun () ->
      let now = Time_ns.to_us (Scheduler.now sched) in
      if now <= 0. then 0.
      else
        (Time_ns.to_us (Cpu.compute_total cpu)
        +. Time_ns.to_us (Cpu.stolen_total cpu))
        /. now)

let reference_link_probes m sched ~tracked link =
  let labels = [ ("link", Link.name link) ] in
  let busy () = Link.busy_time link in
  Metrics.probe m ~labels "link.busy_us" (fun () -> Time_ns.to_us (busy ()));
  Metrics.probe m ~labels "link.utilization" (fun () ->
      let now = Time_ns.to_us (Scheduler.now sched) in
      if now <= 0. then 0. else Time_ns.to_us (busy ()) /. now);
  if tracked then begin
    Metrics.probe m ~labels "link.busy_ns" (fun () -> float_of_int (busy ()));
    Metrics.probe m ~labels "link.queue_depth" (fun () ->
        float_of_int (Link.peak_queue_depth link));
    Metrics.probe m ~labels "link.flows" (fun () ->
        float_of_int (Link.peak_flows link));
    Metrics.probe m ~labels "link.congestion_drops" (fun () ->
        float_of_int (Link.congestion_drops link))
  end

let probe_family_tests =
  [
    Alcotest.test_case "3x3 torus snapshots the per-component cpu/link entries"
      `Quick (fun () ->
        let sched = Scheduler.create () in
        let fabric =
          Fabric.create
            ~topology:(Topology.build (Topology.Torus2d (3, 3)) ~nodes:9)
            ~queue_limit:2 sched ~profile:Profile.myrinet_kernel ~nodes:9
        in
        let transport = Transport.kernel_interrupt fabric in
        for nid = 0 to 8 do
          transport.Transport.register (pid nid 0) (fun ~src:_ _ -> ())
        done;
        (* Compute on some CPUs while every node sends a burst to two
           peers, so CPUs, node links, hop links (queues, flows,
           congestion drops) and both engine arrays all move. *)
        Scheduler.spawn sched (fun () ->
            Cpu.compute (Node.host_cpu (Fabric.node fabric 4)) (Time_ns.us 40.));
        for nid = 0 to 8 do
          for k = 1 to 2 do
            for _ = 1 to 3 do
              transport.Transport.send ~src:(pid nid 0)
                ~dst:(pid ((nid + (3 * k)) mod 9) 0)
                (Bytes.create (500 * k))
            done
          done
        done;
        (* Raw bursts onto the hop links, past the queue limit. *)
        for nid = 1 to 8 do
          for _ = 1 to 4 do
            Fabric.send fabric ~src:(pid nid 0) ~dst:(pid 0 0) (Bytes.create 2000)
          done
        done;
        Scheduler.run sched;
        let snap = Metrics.snapshot (Scheduler.metrics sched) in
        let reference = Metrics.create () in
        for nid = 0 to 8 do
          let node = Fabric.node fabric nid in
          reference_cpu_probes reference sched (Node.host_cpu node);
          reference_link_probes reference sched ~tracked:false (Node.tx_link node)
        done;
        for id = 0 to Topology.link_count (Fabric.topology fabric) - 1 do
          reference_link_probes reference sched ~tracked:true
            (Fabric.hop_link fabric id)
        done;
        let want = Metrics.snapshot reference in
        Alcotest.(check int) "every cpu entry" 27
          (List.length (entries_with_prefix "cpu." snap));
        Alcotest.(check bool) "cpu.* identical to per-cpu probes" true
          (entries_with_prefix "cpu." snap = entries_with_prefix "cpu." want);
        Alcotest.(check bool) "some hop link dropped" true
          ((Fabric.stats fabric).Fabric.drops_congested > 0);
        (* Engine links are private to the transport: check each rx/ktx
           entry exists once and its utilisation is busy time over now. *)
        let is_engine (_, labels, _) =
          match labels with
          | [ ("link", l) ] -> has_prefix "rx" l || has_prefix "ktx" l
          | _ -> false
        in
        let links = entries_with_prefix "link." snap in
        let fabric_links = List.filter (fun e -> not (is_engine e)) links in
        Alcotest.(check bool) "link.* of fabric parts identical" true
          (fabric_links = entries_with_prefix "link." want);
        let engines = List.filter is_engine links in
        Alcotest.(check int) "busy_us + utilization per engine" (2 * 18)
          (List.length engines);
        let now = Time_ns.to_us (Scheduler.now sched) in
        List.iter
          (fun (name, labels, value) ->
            if name = "link.busy_us" then
              match
                ( value,
                  Metrics.Snapshot.find snap ~labels "link.utilization" )
              with
              | Metrics.Snapshot.Gauge busy, Some (Metrics.Snapshot.Gauge u) ->
                Alcotest.(check (float 1e-12)) "utilization" (busy /. now) u
              | _ -> Alcotest.fail "engine gauges missing")
          engines;
        Alcotest.(check bool) "rx engines did work" true
          (List.exists
             (fun (name, labels, value) ->
               name = "link.busy_us"
               && labels = [ ("link", "rx0") ]
               && value <> Metrics.Snapshot.Gauge 0.)
             engines));
    Alcotest.test_case "two transports over one fabric: one entry per key"
      `Quick (fun () ->
        let sched, fabric = mk_fabric ~nodes:2 () in
        let _first = Transport.offload fabric in
        let second = Transport.offload fabric in
        second.Transport.register (pid 1 0) (fun ~src:_ _ -> ());
        second.Transport.send ~src:(pid 0 0) ~dst:(pid 1 0) (Bytes.create 64);
        Scheduler.run sched;
        let snap = Metrics.snapshot (Scheduler.metrics sched) in
        let keys = List.map entry_key snap in
        Alcotest.(check int) "no duplicate keys" (List.length keys)
          (List.length (List.sort_uniq compare keys));
        match
          Metrics.Snapshot.filter snap "link.busy_us"
          |> List.filter (fun (e : Metrics.Snapshot.entry) ->
                 e.Metrics.Snapshot.labels = [ ("link", "rx1") ])
        with
        | [ { Metrics.Snapshot.value = Metrics.Snapshot.Gauge busy; _ } ] ->
          (* Only the second transport's engine landed the message. *)
          Alcotest.(check bool) "last registration wins" true (busy > 0.)
        | _ -> Alcotest.fail "expected exactly one rx1 entry");
    Alcotest.test_case "drop counters for pid-0 and nonzero-pid pairs" `Quick
      (fun () ->
        let sched, fabric = mk_fabric () in
        Fabric.set_fault_model fabric (Some (Fault.bernoulli ~seed:1 ~p:1.0 ()));
        let send src dst n =
          for _ = 1 to n do
            Fabric.send fabric ~src ~dst (Bytes.create 8)
          done
        in
        send (pid 0 0) (pid 1 0) 2;
        send (pid 0 1) (pid 1 0) 1;
        send (pid 2 0) (pid 3 5) 3;
        send (pid 3 2) (pid 3 2) 4;
        Scheduler.run sched;
        let snap = Metrics.snapshot (Scheduler.metrics sched) in
        let counts =
          List.map
            (fun (e : Metrics.Snapshot.entry) ->
              match e.Metrics.Snapshot.value with
              | Metrics.Snapshot.Counter n ->
                ( List.assoc "src" e.Metrics.Snapshot.labels,
                  List.assoc "dst" e.Metrics.Snapshot.labels,
                  n )
              | _ -> Alcotest.fail "not a counter")
            (Metrics.Snapshot.filter snap "fabric.drops_injected")
        in
        Alcotest.(check (list (triple string string int)))
          "one labelled counter per pair, sorted by (dst, src)"
          [
            ("0:0", "1:0", 2);
            ("0:1", "1:0", 1);
            ("3:2", "3:2", 4);
            ("2:0", "3:5", 3);
          ]
          counts;
        Alcotest.(check int) "stats total is their sum" 10
          (Fabric.stats fabric).Fabric.drops_injected);
    Alcotest.test_case "64x64 torus fabric builds within a per-node budget"
      `Quick (fun () ->
        (* Measured at 342 words per node (OCaml 5.1, 64-bit): 8 for the
           topology's two port arrays and 334 for the fabric, link names
           included. Before the topology was computed it took 575 (315
           for a stored hop graph). The budget leaves about 45% headroom.
           A nodes x nodes table alone would cost 4096 words per node
           here. *)
        let budget_per_node = 500. in
        let nodes = 64 * 64 in
        let sched = Scheduler.create () in
        let fabric, words =
          words_during (fun () ->
              Fabric.create
                ~topology:(Topology.build (Topology.Torus2d (64, 64)) ~nodes)
                sched ~profile:Profile.myrinet_mcp ~nodes)
        in
        Alcotest.(check int) "built" nodes (Fabric.node_count fabric);
        let per_node = words /. float_of_int nodes in
        if per_node > budget_per_node then
          Alcotest.failf "%.0f words per node, budget %.0f" per_node
            budget_per_node);
    Alcotest.test_case "a fabric over a built topology allocates none of it"
      `Quick (fun () ->
        (* What a sharded world's replicas pay: measured at 334 words per
           node, about 80 of them the names of the links it owns, which
           each replica formats once. The budget leaves about 20%
           headroom. *)
        let budget_per_node = 400. in
        let nodes = 64 * 64 in
        let topo = Topology.build (Topology.Torus2d (64, 64)) ~nodes in
        let sched = Scheduler.create () in
        let fabric, words =
          words_during (fun () ->
              Fabric.create ~topology:topo sched ~profile:Profile.myrinet_mcp
                ~nodes)
        in
        Alcotest.(check bool) "shares the topology" true
          (Fabric.topology fabric == topo);
        Alcotest.(check (list int)) "every hop link named as the topology says" []
          (List.filter
             (fun id ->
               Link.name (Fabric.hop_link fabric id) <> Topology.link_name topo id)
             (List.init (Topology.link_count topo) Fun.id));
        let per_node = words /. float_of_int nodes in
        if per_node > budget_per_node then
          Alcotest.failf "%.0f words per node, budget %.0f" per_node
            budget_per_node);
  ]

(* The raw send path's allocation: words per 32-byte [Fabric.send]
   (plain bytes, no shim) from injection to delivery, on warmed-up
   state. Raw sends carry their bytes unboxed — the whole-buffer frame —
   so frames with headers cost the raw path nothing. Measured on OCaml
   5.1.1: 12.0 words on a 2-node full graph (the landing closure) and
   29.0 over one 4x4-torus hop (41.0 before the hop links stopped
   allocating an option and a closure per flow update). The bounds are
   those figures plus one word. They guard the [alloc_mwords] of the
   benchmark's raw-traffic workloads (halo, gather, coll, faults), whose
   per-message cost is a few dozen words. *)
let raw_send_words ?topology ~nodes () =
  let sched = Scheduler.create () in
  let fabric = Fabric.create ?topology sched ~profile:Profile.myrinet_mcp ~nodes in
  let src = pid 0 0 and dst = pid 1 0 in
  let got = ref 0 in
  Fabric.register fabric dst (fun ~src:_ _ -> incr got);
  let payload = Bytes.make 32 'x' in
  let n = 1000 in
  let batch () =
    for _ = 1 to n do
      Fabric.send fabric ~src ~dst payload
    done;
    Scheduler.run sched
  in
  batch ();
  let (), words = words_during batch in
  Alcotest.(check int) "all delivered" (2 * n) !got;
  words /. float_of_int n

(* Words for each of [count] raw sends over multi-hop torus routes, each
   sent and delivered alone. Message 1 opens its pair; the last message
   repeats that pair. A route stored on first use would make message 1
   dearer than the last. *)
let multi_hop_send_words ~count =
  let nodes = 16 in
  let topology = Topology.build (Topology.of_spec ~nodes "torus2d:4x4") ~nodes in
  let sched = Scheduler.create () in
  let fabric = Fabric.create ~topology sched ~profile:Profile.myrinet_mcp ~nodes in
  for nid = 0 to nodes - 1 do
    Fabric.register fabric (pid nid 0) (fun ~src:_ _ -> ())
  done;
  let pairs =
    List.concat_map
      (fun src ->
        List.filter_map
          (fun dst ->
            if Router.hop_count topology ~src ~dst >= 2 then Some (src, dst) else None)
          (List.init nodes Fun.id))
      (List.init (nodes - 1) Fun.id)
    |> Array.of_list
  in
  let payload = Bytes.make 32 'x' in
  let send (src, dst) =
    snd
      (words_during (fun () ->
           Fabric.send_raw fabric ~src:(pid src 0) ~dst:(pid dst 0) payload;
           Scheduler.run sched))
  in
  (* Warm the scheduler on a pair the measured messages never use. *)
  for _ = 1 to 10 do
    ignore (send (15, 5))
  done;
  Array.init count (fun k ->
      send pairs.(if k = count - 1 then 0 else k mod Array.length pairs))

let raw_send_tests =
  let check name words budget =
    if words > budget then
      Alcotest.failf "%s: %.3f words per raw send, budget %.0f" name words
        budget
  in
  [
    Alcotest.test_case "raw send: at most 13 words on a 2-node full graph"
      `Quick (fun () -> check "full graph" (raw_send_words ~nodes:2 ()) 13.);
    Alcotest.test_case "raw send: at most 30 words over one torus hop" `Quick
      (fun () ->
        let topology =
          Topology.build (Topology.of_spec ~nodes:16 "torus2d:4x4") ~nodes:16
        in
        Alcotest.(check int) "one hop" 1
          (Array.length (Router.route topology ~src:0 ~dst:1));
        check "torus hop" (raw_send_words ~topology ~nodes:16 ()) 30.);
    Alcotest.test_case "multi-hop raw sends: message 1 costs what message 1000 does"
      `Quick (fun () ->
        let words = multi_hop_send_words ~count:1000 in
        Alcotest.(check (float 0.)) "words at message 1 and 1000" words.(0)
          words.(999));
    Alcotest.test_case "a 100 000-node torus2d holds at most 10 words a node"
      `Quick (fun () ->
        let nodes = 100_000 in
        let topo = Topology.build (Topology.of_spec ~nodes "torus2d") ~nodes in
        let per_node =
          float_of_int (Obj.reachable_words (Obj.repr topo)) /. float_of_int nodes
        in
        if per_node > 10. then
          Alcotest.failf "%.2f words per node, budget 10" per_node);
  ]

let () =
  Alcotest.run "simnet"
    [
      ("proc_id", proc_id_tests);
      ("profile", profile_tests);
      ("link", link_tests);
      ("link_contention", link_contention_tests);
      ("topology", topology_tests);
      ("router", router_tests);
      ("topology_reference", reference_tests);
      ("next_link_alloc", next_link_alloc_tests);
      ("fabric", fabric_tests);
      ("fabric_topology", fabric_topology_tests);
      ("fault_models", fault_model_tests);
      ("corruption_delay", corruption_delay_tests);
      ("partitions", partition_tests);
      ("crash", crash_tests);
      ("shard_map", shard_map_tests);
      ("transport", transport_tests);
      ("probe_families", probe_family_tests);
      ("crc32c", crc32c_tests);
      ("frame", frame_tests);
      ("raw_send", raw_send_tests);
    ]
