(* The transport conformance suite: one functor applied to all four
   stacks (portals, gm, rtscts, ibverbs), each an [Mpi.t] constructor over
   its wire, so a new stack inherits the whole behavioural contract by
   adding one line here:

     - per-pair in-order delivery, across the eager/rendezvous boundary
       (qcheck over random message ladders);
     - exactly-once delivery over a faulty fabric (Bernoulli loss +
       duplication under the reliability shim);
     - uniform peer-failure surfacing on node crash: wait raises
       Peer_failed, the callback fires, failed_ranks reports, and
       restart + reconnect clears the mark;
     - counters monotone non-decreasing over the endpoint's life;
     - a rendezvous header from a peer that has since crashed fails the
       receive that meets it instead of deadlocking;
     - an argument out of range raises Invalid_argument on isend and
       irecv, naming the argument.

   Plus one ibverbs-specific test: the RDMA-write fast path beats the
   same stack's own rendezvous on small messages (Liu et al.'s
   crossover, reproduced qualitatively). *)

open Sim_engine

let proc nid pid = Simnet.Proc_id.make ~nid ~pid

(* A stack: its endpoint constructor and the wire it runs over (the NIC
   placement of the paper's taxonomy). *)
module type STACK = sig
  val name : string

  val create :
    Simnet.Transport.t -> ranks:Simnet.Proc_id.t array -> rank:int -> Mpi.t

  val wire : Simnet.Fabric.t -> Simnet.Transport.t
  val profile : Simnet.Profile.t
end

module Conformance (T : STACK) = struct
  (* Build an [n]-rank world over [T]'s wire and run [body fabric ep rank]
     in one fiber per rank. *)
  let with_world ?(n = 2) ?fault ?(reliability = false) body =
    let sched = Scheduler.create () in
    let fabric = Simnet.Fabric.create sched ~profile:T.profile ~nodes:n in
    (match fault with
    | None -> ()
    | Some f -> Simnet.Fabric.set_fault_model fabric (Some f));
    if reliability then ignore (Reliability.attach fabric);
    let tp = T.wire fabric in
    let ranks = Array.init n (fun r -> proc r 0) in
    let eps = Array.init n (fun rank -> T.create tp ~ranks ~rank) in
    Array.iteri
      (fun rank ep ->
        Scheduler.spawn sched ~name:(Printf.sprintf "%s.r%d" T.name rank)
          (fun () -> body sched fabric ep rank))
      eps;
    Scheduler.run sched;
    eps

  (* Payload [i] of a ladder: first byte is the sequence number, the rest
     a size-dependent fill — enough to detect both reordering and
     corruption. *)
  let payload ~seq ~size =
    Bytes.init (max 1 size) (fun j ->
        if j = 0 then Char.chr (seq land 0xff)
        else Char.chr ((seq + (j * 31)) land 0xff))

  let seq_of b = Char.code (Bytes.get b 0)

  (* 1. Per-pair in-order delivery, sizes straddling every stack's
     eager/rendezvous threshold. qcheck generates the ladder. *)
  let inorder_prop sizes =
    let n = List.length sizes in
    let got = ref [] in
    ignore
      (with_world (fun _sched _fabric ep rank ->
           if rank = 0 then begin
             let reqs =
               List.mapi
                 (fun i size ->
                   Mpi.isend ep ~dst:1 ~tag:0 (payload ~seq:i ~size))
                 sizes
             in
             List.iter (fun r -> ignore (Mpi.wait ep r)) reqs
           end
           else
             (* Post everything up front with full wildcards: matching
                order must equal per-pair arrival order. *)
             let bufs = List.map (fun size -> Bytes.create (max 1 size)) sizes in
             let reqs = List.map (fun b -> Mpi.irecv ep b) bufs in
             got :=
               List.map2
                 (fun r b ->
                   let st = Mpi.wait ep r in
                   (seq_of b, st.Mpi.length))
                 reqs bufs));
    List.length !got = n
    && List.for_all2
         (fun i size -> List.nth !got i = (i, max 1 size))
         (List.init n (fun i -> i))
         sizes

  let inorder_qcheck =
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:(T.name ^ ": per-pair in-order delivery (random ladders)")
         ~count:12
         QCheck.(list_of_size Gen.(1 -- 8) (int_range 0 20_000))
         (fun sizes -> match sizes with [] -> true | _ -> inorder_prop sizes))

  (* 2. Exactly-once delivery over a faulty fabric: 5% Bernoulli loss
     composed with 5% duplication, reliability shim underneath. A lost
     message would stall the ladder; a duplicate leaking through would
     steal a posted receive and break the sequence. *)
  let faulty_fabric () =
    let msgs = 30 in
    let fault =
      Simnet.Fault.compose
        [
          Simnet.Fault.bernoulli ~seed:11 ~p:0.05 ();
          Simnet.Fault.duplicator ~seed:12 ~p:0.05 ();
        ]
    in
    let got = ref [] in
    ignore
      (with_world ~fault ~reliability:true
         (fun _sched _fabric ep rank ->
           if rank = 0 then
             List.init msgs (fun i ->
                 Mpi.isend ep ~dst:1 ~tag:i (payload ~seq:i ~size:512))
             |> List.iter (fun r -> ignore (Mpi.wait ep r))
           else
             let bufs = List.init msgs (fun _ -> Bytes.create 512) in
             let reqs = List.map (fun b -> Mpi.irecv ep ~source:0 b) bufs in
             got := List.map2 (fun r b ->
                 ignore (Mpi.wait ep r);
                 seq_of b) reqs bufs));
    Alcotest.(check (list int))
      "every message exactly once, in order"
      (List.init msgs (fun i -> i land 0xff))
      !got

  (* 3. Peer death surfaces uniformly: the blocked wait raises
     Peer_failed, the registered callback fires, failed_ranks reports
     the peer — and restart + reconnect clears the mark on every stack
     (pure bookkeeping on connectionless ones). *)
  let peer_failure () =
    let cb_ranks = ref [] in
    let observed = ref None in
    let after_reconnect = ref None in
    ignore
      (with_world (fun sched fabric ep rank ->
           if rank = 0 then begin
             Mpi.on_peer_failure ep (fun ~rank -> cb_ranks := rank :: !cb_ranks);
             Scheduler.after sched (Time_ns.us 50.) (fun () ->
                 Simnet.Fabric.crash fabric 1);
             (match Mpi.wait ep (Mpi.irecv ep ~source:1 (Bytes.create 64)) with
             | _ -> observed := Some `Completed
             | exception Mpi.Peer_failed r ->
               observed := Some (`Failed (r, Mpi.failed_ranks ep)));
             Simnet.Fabric.restart fabric 1;
             Mpi.reconnect ep ~rank:1;
             after_reconnect := Some (Mpi.failed_ranks ep)
           end));
    (match !observed with
    | Some (`Failed (r, failed)) ->
      Alcotest.(check int) "Peer_failed carries the rank" 1 r;
      Alcotest.(check (list int)) "failed_ranks reports it" [ 1 ] failed
    | Some `Completed -> Alcotest.fail "recv completed against a dead peer"
    | None -> Alcotest.fail "wait never returned");
    Alcotest.(check (list int)) "callback fired once" [ 1 ] !cb_ranks;
    Alcotest.(check (option (list int)))
      "restart + reconnect clears the mark" (Some []) !after_reconnect

  (* 4. Counters are monotone non-decreasing: sample after every
     operation of a mixed eager/rendezvous ping stream. *)
  let counters_monotone () =
    let violations = ref [] in
    ignore
      (with_world (fun _sched _fabric ep rank ->
           if rank = 0 then begin
             let prev = ref (Mpi.counters ep) in
             let step () =
               let now = Mpi.counters ep in
               List.iter
                 (fun (k, v) ->
                   match List.assoc_opt k !prev with
                   | Some v0 when v < v0 -> violations := (k, v0, v) :: !violations
                   | _ -> ())
                 now;
               prev := now
             in
             List.iter
               (fun size ->
                 ignore (Mpi.wait ep (Mpi.isend ep ~dst:1 ~tag:0 (payload ~seq:0 ~size)));
                 step ();
                 ignore (Mpi.wait ep (Mpi.irecv ep ~source:1 (Bytes.create 4)));
                 step ())
               [ 16; 256; 20_000; 16 ]
           end
           else
             List.iter
               (fun size ->
                 ignore (Mpi.wait ep (Mpi.irecv ep ~source:0 (Bytes.create (max 1 size))));
                 ignore (Mpi.wait ep (Mpi.isend ep ~dst:0 ~tag:0 (Bytes.create 4))))
               [ 16; 256; 20_000; 16 ]));
    List.iter
      (fun (k, v0, v) ->
        Alcotest.failf "counter %s decreased: %d -> %d" k v0 v)
      !violations

  (* 5. A rendezvous header whose sender then dies fails the wildcard
     receive that meets it, on each path between the two: the header
     drained into the library before the crash, still in the device
     after it, drained and then its sender restarted and reconnected,
     met by a receive posted before it arrived, or still in the device
     when its sender restarted and was reconnected. None may deadlock. *)
  let dead_rendezvous () =
    let run path =
      let outcome = ref `Hung in
      ignore
        (with_world (fun sched fabric ep rank ->
             if rank = 1 then
               ignore (Mpi.isend ep ~dst:0 ~tag:0 (Bytes.create 100_000))
             else begin
               Scheduler.after sched (Time_ns.us 60.) (fun () ->
                   Simnet.Fabric.crash fabric 1);
               let buf = Bytes.create 100_000 in
               let early =
                 if path = "posted" then Some (Mpi.irecv ep buf) else None
               in
               Scheduler.delay sched (Time_ns.us 30.);
               if path = "drained" || path = "reconnected" then Mpi.progress ep;
               Scheduler.delay sched (Time_ns.us 70.);
               if path = "reconnected" || path = "undrained, reconnected"
               then begin
                 Simnet.Fabric.restart fabric 1;
                 Mpi.reconnect ep ~rank:1
               end;
               let req =
                 match early with Some r -> r | None -> Mpi.irecv ep buf
               in
               outcome :=
                 match Mpi.wait ep req with
                 | _ -> `Completed
                 | exception Mpi.Peer_failed r -> `Failed r
             end));
      match !outcome with
      | `Failed 1 -> ()
      | `Failed r -> Alcotest.failf "%s: Peer_failed %d, want 1" path r
      | `Completed -> Alcotest.failf "%s: receive completed" path
      | `Hung -> Alcotest.failf "%s: wait never returned" path
    in
    List.iter run
      [
        "drained"; "undrained"; "reconnected"; "posted"; "undrained, reconnected";
      ]

  (* 6. One argument check on every stack: context, tag and peer out of
     range raise Invalid_argument naming the argument, and the wildcards
     are receive filters only. *)
  let bad_arguments () =
    let max_tag = Mpi.Envelope.max_tag
    and max_context = Mpi.Envelope.max_context in
    let send ?(context = 0) ?(dst = 1) ?(tag = 0) ep =
      Mpi.isend ep ~context ~dst ~tag (Bytes.create 4)
    and recv ?(context = 0) ?(source = 1) ?(tag = 0) ep =
      Mpi.irecv ep ~context ~source ~tag (Bytes.create 4)
    in
    let cases =
      [
        ("isend tag max_tag + 1", "tag", fun ep -> send ~tag:(max_tag + 1) ep);
        ("isend tag -5", "tag", fun ep -> send ~tag:(-5) ep);
        ("isend tag any_tag", "tag", fun ep -> send ~tag:Mpi.any_tag ep);
        ("isend context max_context + 1", "context",
          fun ep -> send ~context:(max_context + 1) ep);
        ("isend context -2", "context", fun ep -> send ~context:(-2) ep);
        ("isend dst 2", "rank", fun ep -> send ~dst:2 ep);
        ("isend dst any_source", "rank", fun ep -> send ~dst:Mpi.any_source ep);
        ("irecv tag max_tag + 1", "tag", fun ep -> recv ~tag:(max_tag + 1) ep);
        ("irecv tag -5", "tag", fun ep -> recv ~tag:(-5) ep);
        ("irecv context 20000", "context", fun ep -> recv ~context:20000 ep);
        ("irecv context -2", "context", fun ep -> recv ~context:(-2) ep);
        ("irecv source 2", "rank", fun ep -> recv ~source:2 ep);
        ("irecv source -5", "rank", fun ep -> recv ~source:(-5) ep);
      ]
    in
    let names word msg = List.mem word (String.split_on_char ' ' msg) in
    let accepted = ref [] in
    ignore
      (with_world (fun _sched _fabric ep rank ->
           if rank = 0 then
             List.iter
               (fun (what, word, call) ->
                 match call ep with
                 | _ -> accepted := what :: !accepted
                 | exception Invalid_argument msg when names word msg -> ()
                 | exception Invalid_argument msg ->
                   accepted := Printf.sprintf "%s (%S)" what msg :: !accepted)
               cases));
    Alcotest.(check (list string))
      "every bad argument raises Invalid_argument naming it" []
      (List.rev !accepted)

  (* 7. A posted receive that its peer's crash fails leaves nothing
     behind that could take the peer's later traffic: rank 1 crashes at
     10 us while rank 0 waits on it, restarts at 40 us, rank 0 reconnects
     and posts the same receive at 55 us, and the restarted rank sends at
     61 us. The second receive must complete with that message. *)
  let failed_recv_released () =
    let first = ref `Hung and second = ref `Hung in
    ignore
      (with_world (fun sched fabric ep rank ->
           if rank = 0 then begin
             Scheduler.after sched (Time_ns.us 10.) (fun () ->
                 Simnet.Fabric.crash fabric 1);
             Scheduler.after sched (Time_ns.us 40.) (fun () ->
                 Simnet.Fabric.restart fabric 1);
             let recv () =
               let buf = Bytes.make 64 '\000' in
               match Mpi.wait ep (Mpi.irecv ep ~source:1 ~tag:0 buf) with
               | _ -> `Completed (Bytes.get buf 0)
               | exception Mpi.Peer_failed r -> `Failed r
             in
             first := recv ();
             Scheduler.delay_until sched (Time_ns.us 55.);
             Mpi.reconnect ep ~rank:1;
             second := recv ()
           end
           else begin
             Scheduler.delay_until sched (Time_ns.us 61.);
             ignore (Mpi.wait ep (Mpi.isend ep ~dst:0 ~tag:0 (Bytes.make 64 'x')))
           end));
    (match !first with
    | `Failed 1 -> ()
    | `Failed r -> Alcotest.failf "first recv: Peer_failed %d, want 1" r
    | `Completed _ -> Alcotest.fail "first recv completed against a dead peer"
    | `Hung -> Alcotest.fail "first recv never returned");
    match !second with
    | `Completed 'x' -> ()
    | `Completed c -> Alcotest.failf "second recv got byte %C, want 'x'" c
    | `Failed r -> Alcotest.failf "second recv: Peer_failed %d" r
    | `Hung -> Alcotest.fail "second recv never returned"

  let tests =
    [
      inorder_qcheck;
      Alcotest.test_case
        (T.name ^ ": exactly-once over lossy+duplicating fabric")
        `Quick faulty_fabric;
      Alcotest.test_case (T.name ^ ": peer failure surfaces uniformly")
        `Quick peer_failure;
      Alcotest.test_case (T.name ^ ": counters monotone") `Quick
        counters_monotone;
      Alcotest.test_case (T.name ^ ": dead peer's rendezvous fails the recv")
        `Quick dead_rendezvous;
      Alcotest.test_case (T.name ^ ": bad arguments raise Invalid_argument")
        `Quick bad_arguments;
      Alcotest.test_case
        (T.name ^ ": a crash-failed recv leaves no match entry")
        `Quick failed_recv_released;
    ]
end

let create_portals tp ~ranks ~rank = Mpi.create_portals tp ~ranks ~rank ()

module Portals_c = Conformance (struct
  let name = "portals"
  let create = create_portals
  let wire = Simnet.Transport.offload
  let profile = Simnet.Profile.myrinet_mcp
end)

module Gm_c = Conformance (struct
  let name = "gm"
  let create tp ~ranks ~rank = Mpi.create_gm tp ~ranks ~rank ()
  let wire = Simnet.Transport.offload
  let profile = Simnet.Profile.myrinet_mcp
end)

(* The production Cplant stack: the Portals glue over the kernel RTS/CTS
   wire. *)
module Rtscts_c = Conformance (struct
  let name = "rtscts"
  let create = create_portals
  let wire fabric = Rtscts.transport (Rtscts.create fabric)
  let profile = Simnet.Profile.myrinet_kernel
end)

module Ibverbs_c = Conformance (struct
  let name = "ibverbs"
  let create tp ~ranks ~rank = Mpi.create_ibverbs tp ~ranks ~rank ()
  let wire = Simnet.Transport.offload
  let profile = Simnet.Profile.myrinet_mcp
end)

(* Liu et al.'s crossover: the same 64-byte ping-pong is faster through
   the ring fast path (default config) than when forced through
   rendezvous (eager_threshold = 0) — the reason the fast path exists. *)
let ibverbs_crossover () =
  let run config =
    let sched = Scheduler.create () in
    let fabric =
      Simnet.Fabric.create sched ~profile:Simnet.Profile.myrinet_mcp ~nodes:2
    in
    let tp = Simnet.Transport.offload fabric in
    let ranks = Array.init 2 (fun r -> proc r 0) in
    let eps =
      Array.init 2 (fun rank ->
          Mpi.Mpi_ibverbs.create tp ~ranks ~rank ~config ())
    in
    let finish = ref Time_ns.zero in
    Array.iteri
      (fun rank ep ->
        Scheduler.spawn sched ~name:(Printf.sprintf "xover.r%d" rank)
          (fun () ->
            let buf = Bytes.create 64 in
            for _ = 1 to 20 do
              if rank = 0 then begin
                ignore (Mpi.wait ep (Mpi.isend ep ~dst:1 ~tag:0 (Bytes.create 64)));
                ignore (Mpi.wait ep (Mpi.irecv ep ~source:1 buf))
              end
              else begin
                ignore (Mpi.wait ep (Mpi.irecv ep ~source:0 buf));
                ignore (Mpi.wait ep (Mpi.isend ep ~dst:0 ~tag:0 (Bytes.create 64)))
              end
            done;
            if rank = 0 then finish := Scheduler.now sched))
      eps;
    Scheduler.run sched;
    Time_ns.to_us !finish
  in
  let fast = run Mpi.Mpi_ibverbs.default_config in
  let rendezvous =
    run { Mpi.Mpi_ibverbs.default_config with eager_threshold = 0 }
  in
  if not (fast < rendezvous) then
    Alcotest.failf "fast path (%.1f us) not faster than rendezvous (%.1f us)"
      fast rendezvous

let () =
  Alcotest.run "transport conformance"
    [
      ("portals", Portals_c.tests);
      ("gm", Gm_c.tests);
      ("rtscts", Rtscts_c.tests);
      ("ibverbs", Ibverbs_c.tests);
      ( "ibverbs-crossover",
        [ Alcotest.test_case "fast path beats rendezvous at 64B" `Quick
            ibverbs_crossover ] );
    ]
