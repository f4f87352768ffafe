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
          (strip (Experiments.Crash_restart.run ~seed:3 ())
          = strip (Experiments.Crash_restart.run ~seed:3 ())));
  ]

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
    Alcotest.test_case "same-seed runs agree on sim-side fields" `Slow
      (fun () ->
        let a = all ~quick:true () in
        let b = all ~quick:true () in
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
  [
    Alcotest.test_case "quick campaign holds every invariant" `Quick (fun () ->
        let t = run ~quick:true ~seed:0 () in
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
        (* At seed 12 the corrupt cell hands the stream handler a payload
           shorter than its 4-byte sequence number. It must be tallied as
           a corrupted stream payload, and nothing else may go wrong. *)
        let r = run_cell ~quick:true (List.assoc "corrupt" (axis_cells ~seed:12)) in
        Alcotest.(check int) "every stream payload accepted" 96 r.delivered;
        Alcotest.(check bool) "a corrupted payload was tallied" true
          (List.exists
             (String.ends_with ~suffix:" corrupted payloads surfaced")
             r.violations);
        List.iter
          (fun v ->
            Alcotest.(check bool) ("stream-level violation: " ^ v) true
              (String.starts_with ~prefix:"stream " v))
          r.violations);
    Alcotest.test_case "campaign is deterministic per seed" `Quick (fun () ->
        let digest t =
          List.map
            (fun r ->
              (Reliability.Chaos.describe r.cell, r.delivered,
               r.corrupts_injected, r.drops_partitioned))
            t.reports
        in
        let a = run ~quick:true ~seed:3 () and b = run ~quick:true ~seed:3 () in
        Alcotest.(check bool) "bit-exact replay" true (digest a = digest b));
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
    Alcotest.test_case "explicit full topology reproduces seed fig5/fig6"
      `Slow (fun () ->
        let fig5 () = Experiments.Fig5.run Experiments.Fig5.default_params in
        let fig6 () =
          let t = Experiments.Fig6.run ~iterations:1 ~work_ms:[ 0.; 10. ] () in
          List.map
            (fun s -> (s.Experiments.Fig6.label, s.Experiments.Fig6.points))
            t.Experiments.Fig6.series
        in
        let seed5 = fig5 () and seed6 = fig6 () in
        Runtime.set_run_env ~topology:"full" ();
        let full5 = fig5 () and full6 = fig6 () in
        Runtime.set_run_env ~topology:"" ();
        Alcotest.(check bool) "fig5 identical" true (seed5 = full5);
        Alcotest.(check bool) "fig6 identical" true (seed6 = full6));
  ]

let () =
  Alcotest.run "experiments"
    [
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
    ]
