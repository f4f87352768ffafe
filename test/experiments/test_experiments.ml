(* Reproduction assertions: each experiment must exhibit the *shape* the
   paper reports — who wins, by roughly what factor, where the crossover
   falls. These are the tests that say "the reproduction reproduces". *)

let tables_tests =
  [
    Alcotest.test_case "six tables with the paper's distinguishing fields"
      `Quick (fun () ->
        let tables = Experiments.Tables.run () in
        Alcotest.(check int) "count" 6 (List.length tables);
        let by_number n = List.nth tables (n - 1) in
        (* Put and reply carry payload; ack and get do not. *)
        Alcotest.(check int) "put payload" 1_024 (by_number 1).Experiments.Tables.payload_bytes;
        Alcotest.(check int) "ack payload" 0 (by_number 2).Experiments.Tables.payload_bytes;
        Alcotest.(check int) "get payload" 0 (by_number 3).Experiments.Tables.payload_bytes;
        Alcotest.(check int) "reply payload" 1_024 (by_number 4).Experiments.Tables.payload_bytes;
        let has t name = List.mem_assoc name t.Experiments.Tables.fields in
        Alcotest.(check bool) "put carries md for the ack" true (has (by_number 1) "memory desc");
        Alcotest.(check bool) "ack has manipulated length" true
          (has (by_number 2) "manipulated length");
        Alcotest.(check bool) "get has no event queue" false
          (has (by_number 3) "event queue");
        Alcotest.(check bool) "reply carries data" true (has (by_number 4) "data");
        (* The atomic extension: request carries opcode/operand/compare,
           the reply the fetched value; neither carries payload. *)
        Alcotest.(check int) "atomic request payload" 0
          (by_number 5).Experiments.Tables.payload_bytes;
        Alcotest.(check bool) "request has opcode" true
          (has (by_number 5) "atomic opcode");
        Alcotest.(check bool) "request has compare" true
          (has (by_number 5) "compare");
        Alcotest.(check bool) "reply has fetched value" true
          (has (by_number 6) "fetched value"));
  ]

let protocol_tests =
  [
    Alcotest.test_case "figure 1: SENT then PUT then ACK" `Quick (fun () ->
        let t = Experiments.Protocols.run_put () in
        let kinds =
          List.map (fun e -> e.Experiments.Protocols.kind)
            t.Experiments.Protocols.entries
        in
        Alcotest.(check (list string)) "order" [ "SENT"; "PUT"; "ACK" ] kinds;
        let times =
          List.map (fun e -> e.Experiments.Protocols.time_us)
            t.Experiments.Protocols.entries
        in
        Alcotest.(check bool) "strictly increasing" true
          (List.sort compare times = times));
    Alcotest.test_case "figure 2: GET then REPLY" `Quick (fun () ->
        let t = Experiments.Protocols.run_get () in
        let kinds =
          List.map (fun e -> e.Experiments.Protocols.kind)
            t.Experiments.Protocols.entries
        in
        Alcotest.(check (list string)) "order" [ "GET"; "REPLY" ] kinds);
  ]

let translation_tests =
  [
    Alcotest.test_case "walk visits exactly depth+1 entries" `Quick (fun () ->
        let rows = Experiments.Translation.run ~depths:[ 0; 5; 40 ] () in
        List.iter
          (fun r ->
            Alcotest.(check int)
              (Printf.sprintf "depth %d" r.Experiments.Translation.depth)
              (r.Experiments.Translation.depth + 1)
              r.Experiments.Translation.entries_walked)
          rows);
    Alcotest.test_case "host cycles grow with list depth (kernel placement)"
      `Quick (fun () ->
        match Experiments.Translation.run ~depths:[ 0; 256 ] () with
        | [ shallow; deep ] ->
          Alcotest.(check bool) "deeper steals more" true
            (deep.Experiments.Translation.host_stolen_us
            > shallow.Experiments.Translation.host_stolen_us +. 10.0)
        | _ -> Alcotest.fail "two rows expected");
  ]

let latency_tests =
  [
    Alcotest.test_case "MCP zero-length ping-pong beats 20us (section 3)"
      `Quick (fun () ->
        let row = Experiments.Latency.run_one ~iterations:20 Runtime.Offload in
        Alcotest.(check bool)
          (Printf.sprintf "rtt %.2fus < 20us" row.Experiments.Latency.rtt_us)
          true
          (row.Experiments.Latency.rtt_us < 20.0));
    Alcotest.test_case "offload is the fastest placement" `Quick (fun () ->
        match Experiments.Latency.run ~iterations:10 () with
        | fastest :: _ ->
          Alcotest.(check string) "offload first" "offload"
            fastest.Experiments.Latency.placement
        | [] -> Alcotest.fail "no rows");
  ]

let bandwidth_tests =
  [
    Alcotest.test_case "pipelining keeps the kernel path near the wire" `Quick
      (fun () ->
        let sizes = [ 262_144; 1_048_576 ] in
        let find p =
          Experiments.Bandwidth.run_one ~sizes ~count:8 p
        in
        let offload = find Runtime.Offload and rtscts = find Runtime.Rtscts in
        List.iteri
          (fun i size ->
            let o = (List.nth offload.Experiments.Bandwidth.rows i).Experiments.Bandwidth.mb_per_s in
            let k = (List.nth rtscts.Experiments.Bandwidth.rows i).Experiments.Bandwidth.mb_per_s in
            Alcotest.(check bool)
              (Printf.sprintf "size %d: rtscts %.0f within 25%% of offload %.0f"
                 size k o)
              true
              (k > o *. 0.75))
          sizes);
    Alcotest.test_case "bandwidth grows with message size" `Quick (fun () ->
        let t =
          Experiments.Bandwidth.run_one ~sizes:[ 1_024; 262_144 ] ~count:8
            Runtime.Offload
        in
        match t.Experiments.Bandwidth.rows with
        | [ small; big ] ->
          Alcotest.(check bool) "monotone" true
            (big.Experiments.Bandwidth.mb_per_s
            >= small.Experiments.Bandwidth.mb_per_s)
        | _ -> Alcotest.fail "two rows");
  ]

let fig6_tests =
  [
    Alcotest.test_case "figure 6 reproduces the paper's shape" `Quick (fun () ->
        let t =
          Experiments.Fig6.run ~iterations:2 ~work_ms:[ 0.; 10.; 30. ] ()
        in
        let series label =
          match
            List.find_opt (fun s -> s.Experiments.Fig6.label = label)
              t.Experiments.Fig6.series
          with
          | Some s -> List.map snd s.Experiments.Fig6.points
          | None -> Alcotest.failf "missing series %s" label
        in
        (match series "MPICH/GM" with
        | [ _; at10; at30 ] ->
          (* Flat: no progress during work regardless of interval. *)
          Alcotest.(check bool) "gm flat" true
            (Float.abs (at30 -. at10) < 0.2 *. at10);
          Alcotest.(check bool) "gm pays full transfer" true (at30 > 1.0)
        | _ -> Alcotest.fail "three points");
        (match series "MPICH/Portals3.0" with
        | [ _; at10; at30 ] ->
          (* Declining to (near) zero: full application bypass. *)
          Alcotest.(check bool) "portals near zero at 10ms" true (at10 < 0.1);
          Alcotest.(check bool) "portals near zero at 30ms" true (at30 < 0.1)
        | _ -> Alcotest.fail "three points");
        let gm30 = List.nth (series "MPICH/GM") 2 in
        let tests30 = List.nth (series "MPICH/GM+3tests") 2 in
        Alcotest.(check bool) "sprinkled tests recover most progress" true
          (tests30 < gm30 /. 2.));
    Alcotest.test_case "registry series match the legacy points" `Quick
      (fun () ->
        (* The figure must be readable straight out of the metrics
           snapshot: the ["fig6.wait_ms"] series per configuration is the
           same curve as the [points] field, one point per work
           interval. *)
        let t = Experiments.Fig6.run ~iterations:1 ~work_ms:[ 0.; 10. ] () in
        List.iter
          (fun s ->
            match
              Sim_engine.Metrics.Snapshot.find t.Experiments.Fig6.metrics
                ~labels:[ ("config", s.Experiments.Fig6.label) ]
                "fig6.wait_ms"
            with
            | Some (Sim_engine.Metrics.Snapshot.Series pts) ->
              Alcotest.(check int) "one point per work interval" 2
                (List.length pts);
              Alcotest.(check (list (pair (float 1e-9) (float 1e-9))))
                s.Experiments.Fig6.label s.Experiments.Fig6.points pts
            | _ ->
              Alcotest.failf "no registry series for %s"
                s.Experiments.Fig6.label)
          t.Experiments.Fig6.series);
    Alcotest.test_case "aggregate snapshot and traces cover both backends"
      `Quick (fun () ->
        let t =
          Experiments.Fig6.run ~iterations:1 ~work_ms:[ 0.; 5. ]
            ~capture_trace:true ()
        in
        let has_labelled name config =
          List.exists
            (fun (e : Sim_engine.Metrics.Snapshot.entry) ->
              e.Sim_engine.Metrics.Snapshot.name = name
              && List.mem ("config", config) e.Sim_engine.Metrics.Snapshot.labels)
            t.Experiments.Fig6.metrics
        in
        (* Drop counters, occupancy, link utilisation and EQ depth for a GM
           and a Portals configuration, as absorbed from the world runs.
           The GM backend has no Portals NI, so its drop accounting comes
           from the port's token counter instead. *)
        List.iter
          (fun config ->
            List.iter
              (fun name ->
                Alcotest.(check bool)
                  (Printf.sprintf "%s for %s" name config)
                  true (has_labelled name config))
              [ "cpu.occupancy"; "link.utilization"; "eq.depth" ])
          [ "MPICH/GM"; "MPICH/Portals3.0" ];
        Alcotest.(check bool) "ni drop counters for the Portals config" true
          (has_labelled "ni.drops" "MPICH/Portals3.0");
        Alcotest.(check bool) "gm drop counter for the GM config" true
          (has_labelled "gm.drops_no_token" "MPICH/GM");
        (* One span group per configuration, none empty. *)
        Alcotest.(check int) "trace groups" 4
          (List.length t.Experiments.Fig6.traces);
        List.iter
          (fun (label, spans) ->
            Alcotest.(check bool)
              (Printf.sprintf "spans for %s" label)
              true (spans <> []))
          t.Experiments.Fig6.traces;
        (* The offload configurations carry NIC-track spans; the Chrome
           export of the whole set is one JSON document. *)
        let mcp_spans = List.assoc "Portals3.0-MCP" t.Experiments.Fig6.traces in
        Alcotest.(check bool) "nic-side spans in the MCP config" true
          (List.exists
             (fun (s : Sim_engine.Trace.span) ->
               match s.Sim_engine.Trace.proc with
               | Some p -> String.length p >= 3 && String.sub p 0 3 = "nic"
               | None -> false)
             mcp_spans);
        let json =
          String.trim (Sim_engine.Trace.Chrome.to_string t.Experiments.Fig6.traces)
        in
        Alcotest.(check bool) "chrome export non-trivial" true
          (String.length json > 2
          && json.[0] = '{'
          && json.[String.length json - 1] = '}'));
  ]

let scaling_tests =
  [
    Alcotest.test_case
      "portals reservation is job-size independent; via-like grows" `Quick
      (fun () ->
        let rows = Experiments.Scaling.run_memory ~job_sizes:[ 4; 16; 64 ] () in
        (match rows with
        | [ a; b; c ] ->
          Alcotest.(check int) "reserved constant ab"
            a.Experiments.Scaling.portals_reserved
            b.Experiments.Scaling.portals_reserved;
          Alcotest.(check int) "reserved constant bc"
            b.Experiments.Scaling.portals_reserved
            c.Experiments.Scaling.portals_reserved;
          Alcotest.(check bool) "via-like grows linearly" true
            (c.Experiments.Scaling.via_like_bytes
             > 10 * a.Experiments.Scaling.via_like_bytes);
          Alcotest.(check bool) "highwater within reservation" true
            (c.Experiments.Scaling.portals_highwater
            <= c.Experiments.Scaling.portals_reserved)
        | _ -> Alcotest.fail "three rows"));
    Alcotest.test_case "collectives scale logarithmically" `Quick (fun () ->
        let rows =
          Experiments.Scaling.run_collectives ~node_counts:[ 2; 64 ] ()
        in
        match rows with
        | [ small; big ] ->
          (* 64 nodes = 6 dissemination rounds vs 1: about 6x, far from
             the 32x a linear scheme would cost. *)
          let ratio =
            big.Experiments.Scaling.barrier_us
            /. small.Experiments.Scaling.barrier_us
          in
          Alcotest.(check bool)
            (Printf.sprintf "barrier ratio %.1f in [3,12]" ratio)
            true
            (ratio >= 3.0 && ratio <= 12.0)
        | _ -> Alcotest.fail "two rows");
    (* With a fixed 4096-entry root EQ, 1199 senders x 4 fragments
       overflowed it and the sweep hung in Deadlock. *)
    Alcotest.test_case "throughput sweep completes at 1200 nodes" `Quick
      (fun () ->
        match Experiments.Scaling.run_perf ~node_counts:[ 1200 ] ~rounds:2 () with
        | [ r ] ->
          Alcotest.(check int) "nodes" 1200 r.Experiments.Scaling.p_nodes;
          Alcotest.(check bool) "events processed" true
            (r.Experiments.Scaling.p_sim_events > 0)
        | _ -> Alcotest.fail "one row");
  ]

let drops_tests =
  [
    Alcotest.test_case "every documented drop reason fires exactly once"
      `Quick (fun () ->
        let rows = Experiments.Drops.run () in
        Alcotest.(check int) "seventeen reasons" 17 (List.length rows);
        List.iter
          (fun r ->
            Alcotest.(check int) r.Experiments.Drops.reason 1
              r.Experiments.Drops.count)
          rows);
  ]

let ablation_tests =
  [
    Alcotest.test_case "eager/rendezvous crossover at the threshold" `Quick
      (fun () ->
        let rows =
          Experiments.Ablation.run_threshold ~sizes:[ 32_768; 131_072 ] ()
        in
        match rows with
        | [ eager; rdvz ] ->
          Alcotest.(check bool) "below threshold" true
            eager.Experiments.Ablation.eager;
          Alcotest.(check bool) "eager bypasses" true
            (eager.Experiments.Ablation.wait_ms < 0.1);
          Alcotest.(check bool) "rendezvous pays at wait" true
            (rdvz.Experiments.Ablation.wait_ms > 1.0)
        | _ -> Alcotest.fail "two rows");
    Alcotest.test_case "interrupt coalescing reduces work inflation" `Quick
      (fun () ->
        match Experiments.Ablation.run_interrupts () with
        | [ per_packet; coalesced ] ->
          Alcotest.(check bool) "per-packet first" true
            per_packet.Experiments.Ablation.per_packet_interrupt;
          Alcotest.(check bool) "coalescing steals less" true
            (coalesced.Experiments.Ablation.host_stolen_ms
            < per_packet.Experiments.Ablation.host_stolen_ms);
          Alcotest.(check bool) "work inflated beyond nominal either way" true
            (coalesced.Experiments.Ablation.work_elapsed_ms > 20.0)
        | _ -> Alcotest.fail "two rows");
  ]

let rel_loss_sweep_tests =
  [
    Alcotest.test_case
      "reliable goodput degrades monotonically, zero visible loss" `Quick
      (fun () ->
        let rows =
          Experiments.Rel_loss_sweep.run ~seeds:[ 1; 2 ] ~msgs:120 ()
        in
        Alcotest.(check int) "one row per loss rate"
          (List.length Experiments.Rel_loss_sweep.default_losses)
          (List.length rows);
        let rec pairwise = function
          | a :: (b :: _ as rest) ->
            Alcotest.(check bool)
              (Printf.sprintf "goodput %.1f at %.2f >= %.1f at %.2f"
                 a.Experiments.Rel_loss_sweep.reliable
                   .Experiments.Rel_loss_sweep.goodput_mbps
                 a.Experiments.Rel_loss_sweep.loss
                 b.Experiments.Rel_loss_sweep.reliable
                   .Experiments.Rel_loss_sweep.goodput_mbps
                 b.Experiments.Rel_loss_sweep.loss)
              true
              (a.Experiments.Rel_loss_sweep.reliable
                 .Experiments.Rel_loss_sweep.goodput_mbps
              >= b.Experiments.Rel_loss_sweep.reliable
                   .Experiments.Rel_loss_sweep.goodput_mbps);
            pairwise rest
          | _ -> ()
        in
        pairwise rows;
        List.iter
          (fun r ->
            (* Below the retry budget, the application sees every message. *)
            Alcotest.(check int)
              (Printf.sprintf "all delivered at loss %.2f"
                 r.Experiments.Rel_loss_sweep.loss)
              120
              r.Experiments.Rel_loss_sweep.reliable
                .Experiments.Rel_loss_sweep.delivered;
            Alcotest.(check int) "no budget exhaustion" 0
              r.Experiments.Rel_loss_sweep.reliable
                .Experiments.Rel_loss_sweep.retries_exhausted;
            (* The raw fabric pays for its speed with silent loss. *)
            if r.Experiments.Rel_loss_sweep.loss > 0.02 then
              Alcotest.(check bool) "raw fabric loses messages" true
                (r.Experiments.Rel_loss_sweep.raw
                   .Experiments.Rel_loss_sweep.delivered
                < 120))
          rows);
    Alcotest.test_case "rows follow the given losses, in order" `Quick
      (fun () ->
        let rows =
          Experiments.Rel_loss_sweep.run ~losses:[ 0.1; 0. ] ~seeds:[ 1 ]
            ~msgs:40 ()
        in
        Alcotest.(check (list (float 0.)))
          "losses"
          [ 0.1; 0. ]
          (List.map (fun r -> r.Experiments.Rel_loss_sweep.loss) rows);
        match rows with
        | [ _; clean ] ->
          Alcotest.(check int) "clean raw fabric delivers all" 40
            clean.Experiments.Rel_loss_sweep.raw
              .Experiments.Rel_loss_sweep.delivered;
          Alcotest.(check int) "clean wire needs no retransmit" 0
            clean.Experiments.Rel_loss_sweep.reliable
              .Experiments.Rel_loss_sweep.retransmits
        | _ -> Alcotest.fail "two rows");
    Alcotest.test_case "same (loss, seed) replays bit-exactly" `Quick
      (fun () ->
        let run () =
          Experiments.Rel_loss_sweep.run ~losses:[ 0.05 ] ~seeds:[ 4 ]
            ~msgs:60 ()
        in
        Alcotest.(check bool) "identical rows" true (run () = run ()));
    Alcotest.test_case "a row averages its seeds" `Quick (fun () ->
        let completion seeds =
          match
            Experiments.Rel_loss_sweep.run ~losses:[ 0.1 ] ~seeds ~msgs:60 ()
          with
          | [ r ] ->
            r.Experiments.Rel_loss_sweep.reliable
              .Experiments.Rel_loss_sweep.completion_us
          | _ -> Alcotest.fail "one row"
        in
        let a = completion [ 1 ] and b = completion [ 2 ] in
        Alcotest.(check (float 1e-9)) "mean of the two seeds"
          ((a +. b) /. 2.)
          (completion [ 1; 2 ]));
    Alcotest.test_case "registry gets every (loss, seed, mode) point" `Quick
      (fun () ->
        let registry = Sim_engine.Metrics.create () in
        ignore
          (Experiments.Rel_loss_sweep.run ~losses:[ 0.; 0.1 ] ~seeds:[ 1; 2 ]
             ~msgs:20 ~registry ());
        let points =
          Sim_engine.Metrics.snapshot registry
          |> List.filter_map (fun e ->
                 let l k = List.assoc_opt k e.Sim_engine.Metrics.Snapshot.labels in
                 match (l "loss", l "seed", l "mode") with
                 | Some loss, Some seed, Some mode -> Some (loss, seed, mode)
                 | _ -> None)
          |> List.sort_uniq compare
        in
        Alcotest.(check int) "2 losses x 2 seeds x 2 modes" 8
          (List.length points));
  ]

let rma_tests =
  [
    Alcotest.test_case "run rejects an unknown workload, naming the valid"
      `Quick (fun () ->
        match Experiments.Rma.run ~workloads:[ "nope" ] ~quick:true () with
        | _ -> Alcotest.fail "accepted an unknown workload"
        | exception Invalid_argument msg ->
          Alcotest.(check string) "message"
            ("Rma: unknown workload \"nope\" (valid: "
            ^ String.concat ", " Experiments.Rma.workload_names
            ^ ")")
            msg);
  ]

let crash_restart_tests =
  [
    Alcotest.test_case "both backends survive the restart schedule" `Quick
      (fun () ->
        (* The whole point of the subsystem: a mid-run crash + restart
           must terminate cleanly (no Scheduler.Deadlock escaping run)
           and show the §3 asymmetry between the backends. *)
        let rows = Experiments.Crash_restart.run () in
        let find b =
          List.find
            (fun r -> r.Experiments.Crash_restart.backend = b)
            rows
        in
        let p = find "portals" and g = find "gm" in
        (* Portals: the survivor acted zero times — no send errors, no
           reconnects — and the fabric absorbed the downtime traffic. *)
        Alcotest.(check int) "portals: no send errors" 0
          p.Experiments.Crash_restart.send_errors;
        Alcotest.(check int) "portals: no reconnects" 0
          p.Experiments.Crash_restart.reconnects;
        Alcotest.(check bool) "portals: downtime loss is the fabric's" true
          (p.Experiments.Crash_restart.drops_crashed > 0);
        (* GM: the survivor's connection state died with the peer. *)
        Alcotest.(check bool) "gm: sends failed at the survivor" true
          (g.Experiments.Crash_restart.send_errors > 0);
        Alcotest.(check bool) "gm: needed at least one reconnect" true
          (g.Experiments.Crash_restart.reconnects >= 1);
        (* Both resumed: traffic reached the restarted incarnation. *)
        Alcotest.(check bool) "portals: post-restart delivery" true
          (p.Experiments.Crash_restart.recovery_us >= 0.);
        Alcotest.(check bool) "gm: post-restart delivery" true
          (g.Experiments.Crash_restart.recovery_us >= 0.);
        Alcotest.(check bool) "portals delivered at least as much" true
          (p.Experiments.Crash_restart.delivered
          >= g.Experiments.Crash_restart.delivered);
        List.iter
          (fun r ->
            Alcotest.(check int) "accounting: sent = delivered + lost"
              r.Experiments.Crash_restart.sent
              (r.Experiments.Crash_restart.delivered
              + r.Experiments.Crash_restart.lost))
          rows);
    Alcotest.test_case "same seed replays the same outcome" `Quick (fun () ->
        let strip rows =
          List.map
            (fun r ->
              ( r.Experiments.Crash_restart.backend,
                r.Experiments.Crash_restart.delivered,
                r.Experiments.Crash_restart.send_errors,
                r.Experiments.Crash_restart.recovery_us ))
            rows
        in
        Alcotest.(check bool) "bit-exact replay" true
          (let scenario = Runtime.Scenario.make ~seed:3 () in
           strip (Experiments.Crash_restart.run ~scenario ())
           = strip (Experiments.Crash_restart.run ~scenario ())));
  ]

(* Every registry entry's quick records, metered once for the tests
   that read them. *)
let bench_records () =
  List.concat_map
    (fun (e : Experiments.Registry.entry) ->
      (e.Experiments.Registry.default Runtime.Scenario.default ~quick:true)
        .Experiments.Registry.records ())
    Experiments.Registry.entries

let quick_records = lazy (bench_records ())

let perf_tests =
  let open Experiments.Perf in
  (* Synthetic records use values exactly representable at the JSON
     writer's printed precision, so round trips compare cleanly. *)
  let mk ?(events = 5000) id eps =
    {
      id;
      wall_s = 0.125;
      sim_events = events;
      fibers = 3;
      sim_time_us = 250.125;
      events_per_sec = eps;
      alloc_words = 4096;
    }
  in
  let baseline = [ mk "F5" 40_000.0; mk ~events:20_656 "S3" 1.65e6 ] in
  let drift_names drifts =
    List.map
      (function
        | Changed { id; field; _ } -> id ^ " " ^ field
        | Missing id -> "missing " ^ id
        | Extra id -> "extra " ^ id)
      drifts
  in
  [
    Alcotest.test_case "json round trip preserves every field" `Quick
      (fun () ->
        match of_json_string (to_json baseline) with
        | Error e -> Alcotest.failf "read failed: %s" e
        | Ok back ->
          Alcotest.(check int) "count" 2 (List.length back);
          List.iter2
            (fun a b ->
              Alcotest.(check string) "id" a.id b.id;
              Alcotest.(check int) "sim_events" a.sim_events b.sim_events;
              Alcotest.(check int) "fibers" a.fibers b.fibers;
              Alcotest.(check (float 1e-9)) "sim_time_us" a.sim_time_us
                b.sim_time_us;
              Alcotest.(check (float 1e-9)) "wall_s" a.wall_s b.wall_s;
              Alcotest.(check (float 0.11)) "events_per_sec" a.events_per_sec
                b.events_per_sec;
              Alcotest.(check int) "alloc_words" a.alloc_words b.alloc_words)
            baseline back;
          Alcotest.(check (list string)) "no drift after a round trip" []
            (drift_names (drift ~baseline:back ~current:baseline)));
    Alcotest.test_case "parser rejects malformed input" `Quick (fun () ->
        let text = to_json baseline in
        let lines = String.split_on_char '\n' text in
        (* Cut the first record line short, mid-field. *)
        let truncated =
          String.concat "\n"
            (List.mapi
               (fun i l -> if i = 4 then String.sub l 0 30 else l)
               lines)
        in
        let header = List.filteri (fun i _ -> i < 4) lines in
        let no_records = String.concat "\n" (header @ [ "  ]"; "}"; "" ]) in
        List.iter
          (fun s ->
            match of_json_string s with
            | Error _ -> ()
            | Ok _ -> Alcotest.failf "accepted %S" s)
          [
            "";
            "{";
            truncated;
            to_json [];
            no_records;
            String.sub text 0 (String.length text - 3);
            (* The previous schema, which had no "ocaml" line. *)
            "{\n  \"schema\": \"portals-bench/1\",\n  \"records\": [\n";
          ]);
    Alcotest.test_case "gate names each drifted field" `Quick (fun () ->
        let bumped f =
          drift_names
            (drift ~baseline
               ~current:
                 (List.map (fun r -> if r.id = "S3" then f r else r) baseline))
        in
        Alcotest.(check (list string)) "identical" [] (bumped Fun.id);
        (* Host-side fields are recorded, not gated. *)
        Alcotest.(check (list string)) "wall time and allocation" []
          (bumped (fun r ->
               { r with wall_s = 9.; events_per_sec = 1.; alloc_words = 1 }));
        Alcotest.(check (list string)) "sim_events + 1" [ "S3 sim_events" ]
          (bumped (fun r -> { r with sim_events = r.sim_events + 1 }));
        Alcotest.(check (list string)) "fibers + 1" [ "S3 fibers" ]
          (bumped (fun r -> { r with fibers = r.fibers + 1 }));
        Alcotest.(check (list string)) "sim_time_us + 0.001"
          [ "S3 sim_time_us" ]
          (bumped (fun r -> { r with sim_time_us = r.sim_time_us +. 0.001 })));
    Alcotest.test_case "gate flags missing and extra ids" `Quick (fun () ->
        Alcotest.(check (list string)) "missing" [ "missing S3" ]
          (drift_names (drift ~baseline ~current:[ List.hd baseline ]));
        Alcotest.(check (list string)) "extra" [ "extra NEW" ]
          (drift_names (drift ~baseline ~current:(baseline @ [ mk "NEW" 1. ]))));
    Alcotest.test_case "the meter counts every domain's words" `Quick
      (fun () ->
        (* A 2-domain world builds its second replica on a domain of its
           own, and that replica holds half the nodes. Every node is
           built once at any domain count, so a meter that saw only the
           calling domain would miss about half of what the 1-domain
           world costs beyond the topology, and read below the 1-domain
           world. One that sees every domain reads at least the 1-domain
           world, plus the second replica's fixed state: well under half
           a replica, which a full replica per domain would exceed.
           Measured on OCaml 5.1.1: 1 domain 2.38 M words (topology
           1.26 M), 2 domains 2.63 M, 0.22 of a replica above. *)
        let torus = Simnet.Topology.Torus2d (64, 64) in
        let words f = (meter ~id:"build" f).alloc_words in
        let world domains () =
          Runtime.create_world ~seed:0 ~topology:torus ~domains ~nodes:4096 ()
        in
        let topology = words (fun () -> Simnet.Topology.build torus ~nodes:4096) in
        let one = words (world 1) and two = words (world 2) in
        let replica = one - topology in
        if two < one || two - one > replica / 2 then
          Alcotest.failf
            "2 domains metered %d words, 1 domain %d (topology %d)" two one
            topology);
    Alcotest.test_case "same-seed runs agree on sim-side fields" `Slow
      (fun () ->
        let a = Lazy.force quick_records in
        let b = bench_records () in
        Alcotest.(check (list string)) "same ids"
          (List.map (fun r -> r.id) a)
          (List.map (fun r -> r.id) b);
        List.iter2
          (fun ra rb ->
            Alcotest.(check int) (ra.id ^ " sim_events") ra.sim_events
              rb.sim_events;
            Alcotest.(check int) (ra.id ^ " fibers") ra.fibers rb.fibers;
            Alcotest.(check (float 1e-6)) (ra.id ^ " sim_time_us")
              ra.sim_time_us rb.sim_time_us)
          a b);
    Alcotest.test_case "scaling sweep rows are well-formed" `Quick (fun () ->
        let rows =
          Experiments.Scaling.run_perf ~node_counts:[ 16; 32 ] ~rounds:2 ()
        in
        match rows with
        | [ small; big ] ->
          Alcotest.(check int) "nodes" 16 small.Experiments.Scaling.p_nodes;
          Alcotest.(check bool) "events grow with nodes" true
            (big.Experiments.Scaling.p_sim_events
            > small.Experiments.Scaling.p_sim_events);
          List.iter
            (fun r ->
              Alcotest.(check bool) "positive throughput" true
                (r.Experiments.Scaling.p_events_per_sec > 0.))
            rows
        | _ -> Alcotest.fail "two rows");
  ]

let chaos_tests =
  let open Experiments.Chaos in
  let module Time_ns = Sim_engine.Time_ns in
  [
    Alcotest.test_case "quick campaign holds every invariant" `Quick (fun () ->
        let t = run ~quick:true () in
        Alcotest.(check int) "one report per axis cell"
          (List.length (axis_cells ~seed:0))
          (List.length t.reports);
        List.iter
          (fun r ->
            Alcotest.(check (list string))
              (Reliability.Chaos.describe r.cell ^ ": no violations")
              [] r.violations;
            Alcotest.(check bool) "streams delivered" true (r.delivered > 0))
          t.reports;
        Alcotest.(check bool) "campaign verdict" true (zero_violations t);
        Alcotest.(check int) "violation count agrees" 0 (total_violations t));
    Alcotest.test_case "fault axes really injected their faults" `Quick
      (fun () ->
        let by_name = axis_cells ~seed:0 in
        let report name =
          run_cell ~quick:true (List.assoc name by_name)
        in
        let corrupt = report "corrupt" in
        Alcotest.(check bool) "corruption hit the wire" true
          (corrupt.corrupts_injected > 0);
        Alcotest.(check bool) "damage was caught, not absorbed" true
          (corrupt.rel_corrupt_drops + corrupt.checksum_drops > 0);
        let part = report "partition" in
        Alcotest.(check bool) "the cut severed frames" true
          (part.drops_partitioned > 0);
        let delayed = report "delay" in
        Alcotest.(check bool) "jitter was applied" true
          (delayed.delays_injected > 0));
    Alcotest.test_case "clean control cell stays on the legacy encoding"
      `Quick (fun () ->
        (* The control run must not silently switch the wire format:
           fig5/fig6 byte-identity depends on it. *)
        let clean = List.assoc "clean" (axis_cells ~seed:0) in
        Alcotest.(check bool) "cell is clean" false
          (Reliability.Chaos.faulty clean);
        let r = run_cell ~quick:true clean in
        Alcotest.(check (list string)) "no violations" [] r.violations;
        Alcotest.(check int) "no checksum drops possible" 0 r.checksum_drops);
    Alcotest.test_case "a truncated stream payload is a violation, not a crash"
      `Quick (fun () ->
        (* A payload shorter than the stream's 4-byte sequence number,
           raw on a fabric with no shim, reaches the stream checker. It
           must be tallied as a violation of that stream, and nothing
           else may go wrong. *)
        let world = Runtime.create_world ~nodes:2 () in
        let st = stream ~src:0 ~dst:1 ~msgs:1 in
        let proc nid = Simnet.Proc_id.make ~nid ~pid:0 in
        Alcotest.(check bool) "no shim below the stream" false
          (Simnet.Fabric.has_shim (Runtime.fabric_of_nid world 0));
        Simnet.Fabric.register (Runtime.fabric_of_nid world 1) (proc 1)
          (stream_receive st);
        Simnet.Fabric.send_raw (Runtime.fabric_of_nid world 0) ~src:(proc 0)
          ~dst:(proc 1) (Bytes.of_string "ab");
        Runtime.run world;
        Alcotest.(check (list string)) "tallied, not raised"
          [
            "stream 0->1: 0/1 delivered";
            "stream 0->1: 1 out-of-order/duplicate arrivals";
            "stream 0->1: 1 corrupted payloads surfaced";
          ]
          (stream_violations st));
    Alcotest.test_case "campaign is deterministic per seed" `Quick (fun () ->
        let digest t =
          List.map
            (fun r ->
              (Reliability.Chaos.describe r.cell, r.delivered,
               r.corrupts_injected, r.drops_partitioned))
            t.reports
        in
        let scenario = Runtime.Scenario.make ~seed:3 () in
        let a = run ~scenario ~quick:true () and b = run ~scenario ~quick:true () in
        Alcotest.(check bool) "bit-exact replay" true (digest a = digest b));
    Alcotest.test_case "world_scenarios: the cut halves the nids, then heals"
      `Quick (fun () ->
        let stream, rma =
          world_scenarios ~domains:1
            (Reliability.Chaos.cell ~partition:true ~seed:0 ())
        in
        List.iter
          (fun (world, scenario) ->
            match Runtime.Scenario.faults scenario ~seed:0 with
            | [], [ e ] ->
              Alcotest.(check (list int)) (world ^ ": first half") [ 0; 1; 2 ]
                e.Simnet.Fault.group_a;
              Alcotest.(check (list int)) (world ^ ": second half") [ 3; 4; 5 ]
                e.Simnet.Fault.group_b;
              Alcotest.(check int) (world ^ ": cut at horizon/4")
                (Time_ns.ms 2.) e.Simnet.Fault.cut_at;
              Alcotest.(check (option int)) (world ^ ": heal at 3/4")
                (Some (Time_ns.ms 6.)) e.Simnet.Fault.heal_at
            | _ -> Alcotest.failf "%s: expected one cut and no model" world)
          [ ("stream", stream); ("rma", rma) ]);
    Alcotest.test_case "world_scenarios: one crash per count, replays" `Quick
      (fun () ->
        let crashes ~crashes ~seed =
          let stream, rma =
            world_scenarios ~domains:1
              (Reliability.Chaos.cell ~crashes ~seed ())
          in
          Alcotest.(check bool) "the rma world has no crashes" true
            (rma.Runtime.Scenario.crashes = None);
          stream.Runtime.Scenario.crashes
        in
        (match crashes ~crashes:3 ~seed:5 with
        | None -> Alcotest.fail "no crash schedule"
        | Some s ->
          Alcotest.(check int) "three events" 3 (List.length s);
          List.iter
            (fun e ->
              Alcotest.(check bool) "a victim no stream uses" true
                (List.mem e.Simnet.Fault.victim [ 4; 5 ]);
              Alcotest.(check bool) "inside the horizon" true
                (e.Simnet.Fault.down_at >= 0
                && e.Simnet.Fault.down_at < Time_ns.ms 8.))
            s;
          (* Written in microseconds, read back to the nanosecond. *)
          Alcotest.(check bool) "the drawn schedule, exactly" true
            (s
            = Simnet.Fault.random_crash_schedule ~seed:((4 * 5) + 4)
                ~nids:[ 4; 5 ] ~crashes:3 ~horizon:(Time_ns.ms 8.) ()));
        Alcotest.(check bool) "same cell replays" true
          (crashes ~crashes:3 ~seed:5 = crashes ~crashes:3 ~seed:5);
        Alcotest.(check bool) "zero crashes is no schedule" true
          (crashes ~crashes:0 ~seed:1 = None));
    Alcotest.test_case "world_scenarios: each axis on its own seed, in order"
      `Quick (fun () ->
        let fault cell =
          (fst (world_scenarios ~domains:1 cell)).Runtime.Scenario.fault
        in
        Alcotest.(check (option string)) "the mixed cell at seed 2"
          (Some
             "corrupt:0.01@s9+delay:20.000@s10+bernoulli:0.01@s11+\
              partition:0.1.2|3.4.5@2000.000:6000.000")
          (fault
             (Reliability.Chaos.cell ~corrupt:0.01 ~delay:(Time_ns.us 20.)
                ~partition:true ~loss:0.01 ~seed:2 ()));
        Alcotest.(check (option string)) "crashes only" (Some "none")
          (fault (Reliability.Chaos.cell ~crashes:1 ~seed:0 ()));
        Alcotest.(check (option string)) "clean" None
          (fault (Reliability.Chaos.cell ~seed:0 ())));
    Alcotest.test_case "faulty cells build checksummed, shimmed worlds" `Quick
      (fun () ->
        List.iter
          (fun (name, cell) ->
            let faulty = Reliability.Chaos.faulty cell in
            let stream, rma = world_scenarios ~domains:2 cell in
            List.iter
              (fun scenario ->
                let world = Runtime.create_world ~scenario ~nodes:6 () in
                Array.iter
                  (fun fabric ->
                    Alcotest.(check bool) (name ^ ": integrity") faulty
                      (Simnet.Fabric.integrity fabric))
                  (Runtime.shard_fabrics world);
                Alcotest.(check int) (name ^ ": one shim a shard")
                  (if faulty then 2 else 0)
                  (List.length (Runtime.reliability_shims world)))
              [ stream; rma ])
          (axis_cells ~seed:0));
    Alcotest.test_case "quick cells at seed 0 report their pinned rows" `Quick
      (fun () ->
        (* Pinned so that drift between versions shows, not just between
           two runs of one version. The clean cell's worlds carry no shim,
           so its time is its own. *)
        let summary r =
          Printf.sprintf
            "[%s] delivered=%d corrupts=%d delays=%d parted=%d rel=%d \
             cksum=%d t=%h"
            (String.concat "; " r.violations)
            r.delivered r.corrupts_injected r.delays_injected
            r.drops_partitioned r.rel_corrupt_drops r.checksum_drops
            r.sim_time_us
        in
        let pinned =
          [
            ( "clean",
              "[] delivered=96 corrupts=0 delays=0 parted=0 rel=0 cksum=0 \
               t=0x1.fcb126e978d5p+12" );
            ( "corrupt",
              "[] delivered=96 corrupts=14 delays=0 parted=0 rel=3 cksum=0 \
               t=0x1.0ce3374bc6a7fp+13" );
            ( "delay",
              "[] delivered=96 corrupts=0 delays=592 parted=0 rel=0 cksum=0 \
               t=0x1.189410624dd2fp+13" );
            ( "partition",
              "[] delivered=96 corrupts=0 delays=0 parted=182 rel=0 cksum=0 \
               t=0x1.02edc083126e9p+13" );
            ( "crash",
              "[] delivered=96 corrupts=0 delays=0 parted=0 rel=0 cksum=0 \
               t=0x1.02edc083126e9p+13" );
            ( "loss",
              "[] delivered=96 corrupts=0 delays=0 parted=0 rel=0 cksum=0 \
               t=0x1.102ed70a3d70ap+13" );
            ( "mix",
              "[] delivered=96 corrupts=5 delays=639 parted=182 rel=1 cksum=0 \
               t=0x1.2cc072b020c4ap+13" );
          ]
        in
        List.iter
          (fun (name, cell) ->
            Alcotest.(check string) name (List.assoc name pinned)
              (summary (run_cell ~quick:true cell)))
          (axis_cells ~seed:0));
    Alcotest.test_case "corrupt seed 12 is clean" `Quick (fun () ->
        (* Until shim frames carried their class beside the payload, this
           cell handed the stream handler a damaged frame whose magic
           byte was hit: the shim passed it up as foreign traffic. Now it
           is a counted corrupt drop and is retransmitted. *)
        let r = run_cell ~quick:true (List.assoc "corrupt" (axis_cells ~seed:12)) in
        Alcotest.(check (list string)) "no violations" [] r.violations;
        Alcotest.(check int) "every stream payload accepted" 96 r.delivered;
        Alcotest.(check bool) "damage was caught" true
          (r.rel_corrupt_drops > 0));
  ]

(* No cell touches state outside its own worlds, so a corrupting cell
   and the clean control cell may run at once on separate domains and
   must report exactly what they report when run one after the other.
   CI also runs this case alone under ThreadSanitizer. *)
let chaos_concurrency_tests =
  let open Experiments.Chaos in
  [
    Alcotest.test_case "corrupt and clean cells on two domains" `Quick
      (fun () ->
        let cells = axis_cells ~seed:0 in
        let corrupt = List.assoc "corrupt" cells
        and clean = List.assoc "clean" cells in
        let summary r =
          Printf.sprintf
            "%s [%s] delivered=%d corrupts=%d delays=%d parted=%d rel=%d \
             cksum=%d t=%h"
            (Reliability.Chaos.describe r.cell)
            (String.concat "; " r.violations)
            r.delivered r.corrupts_injected r.delays_injected
            r.drops_partitioned r.rel_corrupt_drops r.checksum_drops
            r.sim_time_us
        in
        let alone = run_cell ~quick:true corrupt in
        Alcotest.(check bool) "the corrupt cell caught damage" true
          (alone.corrupts_injected > 0
          && alone.rel_corrupt_drops + alone.checksum_drops > 0);
        let sequential = [ summary alone; summary (run_cell ~quick:true clean) ] in
        let concurrent =
          List.map
            (fun c -> Domain.spawn (fun () -> run_cell ~quick:true c))
            [ corrupt; clean ]
          |> List.map (fun d -> summary (Domain.join d))
        in
        Alcotest.(check (list string))
          "same reports as sequential runs" sequential concurrent);
  ]

let congestion_tests =
  let open Experiments.Congestion in
  [
    Alcotest.test_case "sweep rows are well-formed and deterministic" `Quick
      (fun () ->
        let go () =
          run ~nodes:16 ~topologies:[ "full"; "torus2d" ] ~msgs_per_peer:2 ()
        in
        let rows = go () in
        Alcotest.(check int) "2 topologies x 2 patterns" 4 (List.length rows);
        List.iter
          (fun r ->
            Alcotest.(check bool) "goodput positive" true (r.c_goodput_mbs > 0.);
            Alcotest.(check bool) "something delivered" true (r.c_messages > 0);
            Alcotest.(check int) "no drops without a queue limit" 0 r.c_drops)
          rows;
        (* All-to-all on 16 nodes delivers 16*15 messages per round; the
           4x4 torus halo delivers 16*4. *)
        let find topo pat =
          List.find (fun r -> r.c_topology = topo && r.c_pattern = pat) rows
        in
        Alcotest.(check int) "all-to-all count" (16 * 15 * 2)
          (find "torus2d:4x4" "all-to-all").c_messages;
        Alcotest.(check int) "halo count" (16 * 4 * 2)
          (find "torus2d:4x4" "nearest-neighbor").c_messages;
        Alcotest.(check bool) "same seed, same rows" true (go () = rows));
    Alcotest.test_case
      "4x4 torus: all-to-all congests below nearest-neighbor" `Quick
      (fun () ->
        let registry = Sim_engine.Metrics.create () in
        let rows = run ~nodes:16 ~topologies:[ "torus2d:4x4" ] ~registry () in
        let find pat = List.find (fun r -> r.c_pattern = pat) rows in
        let a2a = find "all-to-all" and nn = find "nearest-neighbor" in
        Alcotest.(check bool) "goodput strictly below" true
          (a2a.c_goodput_mbs < nn.c_goodput_mbs);
        Alcotest.(check bool) "shared links queued" true (a2a.c_peak_queue > 0);
        (* The per-link instruments land in the registry under the
           sweep's labels. *)
        let snap = Sim_engine.Metrics.snapshot registry in
        Alcotest.(check bool) "nonzero link.queue_depth recorded" true
          (List.exists
             (fun e ->
               e.Sim_engine.Metrics.Snapshot.name = "link.queue_depth"
               && List.mem ("pattern", "all-to-all")
                    e.Sim_engine.Metrics.Snapshot.labels
               &&
               match e.Sim_engine.Metrics.Snapshot.value with
               | Sim_engine.Metrics.Snapshot.Gauge g -> g > 0.
               | _ -> false)
             snap));
    Alcotest.test_case "full topology leaves every pattern uncontended" `Quick
      (fun () ->
        let rows = run ~nodes:16 ~topologies:[ "full" ] () in
        List.iter
          (fun r ->
            Alcotest.(check int) (r.c_pattern ^ " no queueing") 0
              r.c_peak_queue)
          rows);
    Alcotest.test_case "the subcommand bounds hop queues at the scenario's limit"
      `Quick (fun () ->
        let entry =
          List.find
            (fun e -> e.Experiments.Registry.name = "congestion")
            Experiments.Registry.entries
        in
        (* The drops column of each printed ring row. *)
        let ring_drops scenario =
          let buf = Buffer.create 1024 in
          let ppf = Format.formatter_of_buffer buf in
          ignore
            ((entry.Experiments.Registry.default scenario ~quick:false)
               .Experiments.Registry.print ~trace:false ppf);
          Format.pp_print_flush ppf ();
          String.split_on_char '\n' (Buffer.contents buf)
          |> List.filter (fun l -> String.starts_with ~prefix:"ring " l)
          |> List.map (fun l ->
                 String.split_on_char ' ' l
                 |> List.filter (( <> ) "")
                 |> List.rev |> List.hd |> int_of_string)
        in
        Alcotest.(check (list int)) "unbounded: no ring drops" [ 0; 0 ]
          (ring_drops Runtime.Scenario.default);
        List.iter
          (fun d -> Alcotest.(check bool) "limit 2: ring drops" true (d > 0))
          (ring_drops (Runtime.Scenario.make ~queue_limit:2 ())));
    Alcotest.test_case "explicit full topology reproduces seed fig5/fig6"
      `Slow (fun () ->
        let fig5 ?scenario () =
          Experiments.Fig5.run ?scenario Experiments.Fig5.default_params
        in
        let fig6 ?scenario () =
          let t =
            Experiments.Fig6.run ?scenario ~iterations:1 ~work_ms:[ 0.; 10. ]
              ()
          in
          List.map
            (fun s -> (s.Experiments.Fig6.label, s.Experiments.Fig6.points))
            t.Experiments.Fig6.series
        in
        let seed5 = fig5 () and seed6 = fig6 () in
        let scenario = Runtime.Scenario.make ~topology:"full" () in
        let full5 = fig5 ~scenario () and full6 = fig6 ~scenario () in
        Alcotest.(check bool) "fig5 identical" true (seed5 = full5);
        Alcotest.(check bool) "fig6 identical" true (seed6 = full6));
  ]

let registry_tests =
  let open Experiments.Registry in
  (* [par] prints wall times; [par --check] holds it to the contract. *)
  let unchecked = [ "par" ] in
  (* Entries whose output moves with the domain count, and why. A sharded
     world runs same-time events in a different order than the
     sequential one: an event posted from another shard is merged into
     its destination's heap at the window barrier, after that shard's
     own events at the same instant, while the sequential heap keeps
     every same-time event in insertion order. Two collective frames
     landing at one NIC at the same nanosecond then queue the other way
     round. *)
  let known_divergent = [ "coll" ] in
  let output ~domains e =
    let buf = Buffer.create 4096 in
    let ppf = Format.formatter_of_buffer buf in
    (match
       (e.default (Runtime.Scenario.make ~domains ()) ~quick:true).print
         ~trace:false ppf
     with
    | _ -> ()
    | exception exn -> Format.fprintf ppf "raised %s" (Printexc.to_string exn));
    Format.pp_print_flush ppf ();
    Buffer.contents buf
  in
  [
    Alcotest.test_case "every experiment prints the same at 1 and 2 domains"
      `Quick (fun () ->
        let divergent =
          List.filter_map
            (fun e ->
              if List.mem e.name unchecked then None
              else if output ~domains:1 e = output ~domains:2 e then None
              else Some e.name)
            entries
        in
        Alcotest.(check (list string)) "entries that diverge" known_divergent
          divergent);
    Alcotest.test_case "every experiment is named once" `Quick (fun () ->
        let names = List.map (fun e -> e.name) entries in
        Alcotest.(check (list string)) "unique names"
          (List.sort_uniq compare names) (List.sort compare names));
    Alcotest.test_case "the records are the committed baseline's ids" `Quick
      (fun () ->
        (* From the test's build directory under [dune runtest], from the
           repository root under [dune exec]. *)
        let path =
          List.find Sys.file_exists
            [ "../../bench/baseline.json"; "bench/baseline.json" ]
        in
        match Experiments.Perf.read_json ~path with
        | Error msg -> Alcotest.fail msg
        | Ok baseline ->
          let ids l = List.sort compare (List.map (fun r -> r.Experiments.Perf.id) l) in
          Alcotest.(check (list string)) "ids" (ids baseline)
            (ids (Lazy.force quick_records)));
  ]

let () =
  Alcotest.run "experiments"
    [
      ("registry", registry_tests);
      ("perf", perf_tests);
      ("tables", tables_tests);
      ("protocols", protocol_tests);
      ("translation", translation_tests);
      ("latency", latency_tests);
      ("bandwidth", bandwidth_tests);
      ("fig6", fig6_tests);
      ("scaling", scaling_tests);
      ("drops", drops_tests);
      ("ablation", ablation_tests);
      ("rel_loss_sweep", rel_loss_sweep_tests);
      ("rma", rma_tests);
      ("crash_restart", crash_restart_tests);
      ("congestion", congestion_tests);
      ("chaos", chaos_tests);
      ("chaos_domains", chaos_concurrency_tests);
    ]
