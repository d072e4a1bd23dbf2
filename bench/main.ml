(* Benchmark & reproduction harness.

   One entry point per table/figure of the paper plus the ablations listed
   in DESIGN.md. With no argument every experiment runs in sequence:

     dune exec bench/main.exe              # everything
     dune exec bench/main.exe -- fig3      # one experiment
     dune exec bench/main.exe -- micro     # Bechamel micro-benchmarks

   Experiments: fig1 fig2 fig3 abl-te abl-probe abl-sharing abl-fec
                abl-scaling chaos micro perf

   [perf] is the allocation and determinism gate (speed is measured by
   perfbench/); it exits non-zero when a bound breaks. *)

module T = Ff_topology.Topology
module Scenario = Fastflex.Scenario
module Orchestrator = Fastflex.Orchestrator
module Report = Fastflex.Report
module Series = Ff_util.Series
module Table = Ff_util.Table

(* a report's metric as a table cell: 2 decimals, or an integer count *)
let cell r key = Printf.sprintf "%.2f" (Report.metric r key)
let icell r key = string_of_int (Report.count r key)

let banner name description =
  Printf.printf "\n==================================================================\n";
  Printf.printf "%s — %s\n" name description;
  Printf.printf "==================================================================\n%!"

(* ------------------------------------------------------------------ *)
(* fig1: module table, sharing, packing (paper Figure 1 a-c)           *)
(* ------------------------------------------------------------------ *)

let fig1 () =
  banner "fig1" "booster decomposition, module sharing, switch packing";
  let compiled = Fastflex.Compile.boosters () in
  print_endline "Merged module table (paper Figure 1, 'Module | Stages | SRAM | TCAM'):";
  Table.print
    ~header:[ "module"; "shared-by"; "stages"; "SRAM(KB)"; "TCAM"; "ALUs"; "hash" ]
    ~rows:
      (List.map
         (fun (name, boosters, res) ->
           name :: string_of_int (List.length boosters) :: Ff_dataplane.Resource.to_row res)
         (Fastflex.Compile.module_rows compiled));
  Printf.printf "\nPPMs before merging: %d   after: %d   stage savings: %.0f%%\n"
    (List.fold_left
       (fun acc (_, g) -> acc + Ff_dataflow.Graph.num_vertices g)
       0 compiled.Fastflex.Compile.graphs)
    (Ff_dataflow.Graph.num_vertices compiled.Fastflex.Compile.merged)
    (100. *. compiled.Fastflex.Compile.savings);
  (* packing the whole catalogue *)
  print_endline "\nPacking the merged catalogue onto Tofino-class switches:";
  let rows =
    List.map
      (fun pool ->
        let switches = List.init pool Fun.id in
        match Fastflex.Compile.pack_onto compiled ~switches () with
        | Ok bins ->
          [ string_of_int pool;
            string_of_int (Ff_placement.Pack.bins_used bins);
            (if Ff_placement.Pack.respects_capacity bins then "yes" else "NO") ]
        | Error e -> [ string_of_int pool; "-"; "infeasible: " ^ e ])
      [ 1; 2; 4; 8 ]
  in
  Table.print ~header:[ "switch pool"; "switches used"; "capacity ok" ] ~rows

(* ------------------------------------------------------------------ *)
(* fig2: the multimode timeline (paper Figure 2 a-d)                   *)
(* ------------------------------------------------------------------ *)

let fig2 () =
  banner "fig2" "multimode data plane timeline: default -> detect -> mitigate -> rolling";
  let attack = { Scenario.default_attack with start = 10.; roll_schedule = [ 30. ] } in
  let r =
    Scenario.run
      (Scenario.lfa ~defense:(Scenario.Fastflex Orchestrator.default_config)
         ~attack:(Some attack) ~duration:50. ())
  in
  print_endline "Mode-change log (probe-driven, no controller in the loop):";
  List.iter
    (fun (t, sw, attack, up) ->
      Printf.printf "  t=%6.2fs  switch %-2d %s %s mode set\n" t sw
        (if up then "activates" else "deactivates")
        (Ff_dataplane.Packet.attack_kind_to_string attack))
    r.Report.mode_log;
  let activation_times =
    List.filter_map (fun (t, _, _, up) -> if up then Some t else None) r.Report.mode_log
  in
  (match activation_times with
  | t0 :: _ ->
    let tn = List.fold_left Float.max t0 activation_times in
    Printf.printf
      "\n(a) default mode until t=%.1fs (defenses off, TE-optimal routing)\n\
       (b) LFA detected at t=%.2fs; activation probes flooded the region\n\
      \    in %.0f ms (every switch in defense mode by t=%.2fs)\n\
       (c) mitigation: %d packets classified suspicious, %d rerouting probes,\n\
      \    %d suspicious packets dropped (rate-limit + illusion-of-success)\n\
       (d) forced re-target at t=30s absorbed at data plane timescale:\n"
      attack.Scenario.start t0
      ((tn -. t0) *. 1000.)
      tn (Report.count r "marked") (Report.count r "probes")
      (List.fold_left
         (fun acc (reason, n) ->
           if reason = "suspicious-rate-limit" || reason = "illusion-of-success" then acc + n
           else acc)
         0 r.Report.drops)
  | [] -> print_endline "no activations?!");
  List.iter
    (fun (ev, rt) -> Printf.printf "    event t=%.1fs -> back to 80%% in %.1fs\n" ev rt)
    r.Report.recovery_times;
  print_endline "\nNormalized goodput during the timeline:";
  Series.pp_ascii ~height:10 Format.std_formatter [ r.Report.normalized ]

(* ------------------------------------------------------------------ *)
(* fig3: the headline result (paper Figure 3)                          *)
(* ------------------------------------------------------------------ *)

let rename s name =
  let out = Series.create ~name in
  List.iter (fun (t, v) -> Series.add out ~time:t v) (Series.points s);
  out

let fig3 () =
  banner "fig3" "normalized throughput under a 3-round rolling LFA (the paper's evaluation)";
  let run name defense =
    Printf.printf "  running %-14s ...%!" name;
    let r = Scenario.run (Scenario.lfa ~defense ~duration:120. ()) in
    Printf.printf " mean %s  min %s  rolls %d  reconfigs %d\n%!" (cell r "goodput_mean")
      (cell r "goodput_min") (Report.count r "rolls") (Report.count r "reconfigs");
    r
  in
  let none = run "no-defense" Scenario.No_defense in
  let sdn = run "baseline-sdn" (Scenario.Baseline_sdn { period = 30.; delay = 0.5 }) in
  let ff = run "fastflex" (Scenario.Fastflex Orchestrator.default_config) in
  print_endline "\nFigure 3 series (normalized throughput, 5 s grid):";
  let grid s = Series.resample s ~step:5. ~until:120. in
  let cells s = List.map (fun (_, v) -> Printf.sprintf "%.2f" v) (grid s) in
  let times = List.map (fun (t, _) -> Printf.sprintf "%.0f" t) (grid none.Report.normalized) in
  Table.print
    ~header:("time(s)" :: times)
    ~rows:
      [ "baseline-sdn" :: cells sdn.Report.normalized;
        "fastflex" :: cells ff.Report.normalized;
        "no-defense" :: cells none.Report.normalized ];
  print_endline "";
  Series.pp_ascii ~height:14 Format.std_formatter
    [ rename sdn.Report.normalized "Baseline (SDN)";
      rename ff.Report.normalized "FastFlex" ];
  print_endline "\nSummary (paper claim: baseline constantly falls behind rolling attacks;";
  print_endline "FastFlex disperses traffic almost instantaneously by data plane mode changes):";
  let row name r latency =
    let finite = List.filter (fun x -> x < infinity) (List.map snd r.Report.recovery_times) in
    [ name; cell r "goodput_mean"; cell r "goodput_min";
      (if finite = [] then "never" else Printf.sprintf "%.1fs" (Ff_util.Stats.median finite));
      latency ]
  in
  Table.print
    ~header:[ "defense"; "mean goodput"; "min"; "median recovery"; "mechanism latency" ]
    ~rows:
      [ row "no-defense" none "-"; row "baseline-sdn" sdn "30s TE period";
        row "fastflex" ff "RTT-scale probes" ]

(* ------------------------------------------------------------------ *)
(* abl-te: baseline TE period sweep                                    *)
(* ------------------------------------------------------------------ *)

let abl_te () =
  banner "abl-te" "how fast must centralized TE be to keep up with a rolling attack?";
  let row label defense =
    let r = Scenario.run (Scenario.lfa ~defense ~duration:120. ()) in
    [ label; cell r "goodput_mean"; cell r "goodput_min"; icell r "rolls"; icell r "reconfigs" ]
  in
  let rows =
    List.map
      (fun period ->
        row (Printf.sprintf "%.0f" period) (Scenario.Baseline_sdn { period; delay = 0.5 }))
      [ 5.; 10.; 30.; 60. ]
  in
  Table.print
    ~header:[ "TE period (s)"; "mean goodput"; "min"; "attacker rolls"; "reconfigs" ]
    ~rows:(rows @ [ row "fastflex" (Scenario.Fastflex Orchestrator.default_config) ]);
  print_endline "\n(the attacker re-targets within seconds of each reconfiguration, so even";
  print_endline " aggressive controller periods trail the attack; the data plane does not)"

(* ------------------------------------------------------------------ *)
(* abl-probe: mode/probe timescale sweep                               *)
(* ------------------------------------------------------------------ *)

let abl_probe () =
  banner "abl-probe" "reaction-time knobs: rerouting probe interval and classification age";
  let attack = Some { Scenario.default_attack with start = 10.; roll_schedule = [] } in
  let row label config extra =
    let r =
      Scenario.run (Scenario.lfa ~defense:(Scenario.Fastflex config) ~attack ~duration:60. ())
    in
    [ label; cell r "goodput_mean";
      (match r.Report.recovery_times with
      | (_, rt) :: _ when rt < infinity -> Printf.sprintf "%.1f" rt
      | _ -> "never");
      icell r extra ]
  in
  let rows =
    List.map
      (fun probe_interval ->
        row (Printf.sprintf "%.0f" (probe_interval *. 1000.))
          { Orchestrator.default_config with probe_interval } "probes")
      [ 0.01; 0.05; 0.2; 0.5 ]
  in
  Table.print
    ~header:[ "probe interval (ms)"; "mean goodput"; "recovery (s)"; "probes sent" ]
    ~rows;
  print_endline "";
  let rows =
    List.map
      (fun min_age ->
        row (Printf.sprintf "%.1f" min_age) { Orchestrator.default_config with min_age } "marked")
      [ 0.5; 1.0; 2.0; 4.0 ]
  in
  Table.print
    ~header:[ "classification age (s)"; "mean goodput"; "recovery (s)"; "marked packets" ]
    ~rows;
  print_endline "\n(probe interval moves reaction time by milliseconds; the classification";
  print_endline " age dominates recovery — the indistinguishability cost of Crossfire)"

(* ------------------------------------------------------------------ *)
(* abl-sharing: packing with/without module sharing across topologies  *)
(* ------------------------------------------------------------------ *)

let abl_sharing () =
  banner "abl-sharing" "module sharing vs. naive per-booster deployment";
  let compiled = Fastflex.Compile.boosters () in
  let topologies =
    [ ("fig2", (T.Fig2.build ()).T.Fig2.topo);
      ("fat-tree(4)", T.fat_tree ~k:4 ());
      ("abilene", T.abilene ());
      ("waxman(12)", T.waxman ~n:12 ~seed:3 ()) ]
  in
  let rows =
    List.map
      (fun (name, topo) ->
        let capacities =
          List.map (fun (s : T.node) -> (s.T.id, Ff_dataplane.Resource.tofino_like))
            (T.switches topo)
        in
        let merged =
          match
            Ff_placement.Pack.first_fit_decreasing ~capacities compiled.Fastflex.Compile.merged
          with
          | Ok bins -> Ff_placement.Pack.bins_used bins
          | Error _ -> -1
        in
        let unmerged =
          List.fold_left
            (fun acc (_, g) ->
              match Ff_placement.Pack.first_fit_decreasing ~capacities g with
              | Ok bins -> acc + Ff_placement.Pack.bins_used bins
              | Error _ -> acc)
            0 compiled.Fastflex.Compile.graphs
        in
        [ name;
          string_of_int (List.length (T.switches topo));
          string_of_int unmerged;
          string_of_int merged;
          Printf.sprintf "%.1fx" (float_of_int unmerged /. float_of_int (max 1 merged)) ])
      topologies
  in
  Table.print
    ~header:[ "topology"; "switches"; "slots no-sharing"; "slots shared"; "reduction" ]
    ~rows;
  Printf.printf "\n(resource stages saved by the analyzer: %.0f%%; %d PPM pairs deduplicated)\n"
    (100. *. compiled.Fastflex.Compile.savings)
    (List.length compiled.Fastflex.Compile.sharing)

(* ------------------------------------------------------------------ *)
(* abl-fec: state-transfer FEC vs. loss                                *)
(* ------------------------------------------------------------------ *)

let abl_fec () =
  banner "abl-fec" "in-band state transfer under loss: FEC vs. retransmission alone";
  let entries = List.init 400 (fun i -> (Printf.sprintf "reg[%d]" i, float_of_int i)) in
  let run ~loss ~fec ~seed =
    let topo = T.linear ~n:4 () in
    let engine = Ff_netsim.Engine.create () in
    let net = Ff_netsim.Net.create engine topo in
    let s0 = (T.node_by_name topo "s0").T.id in
    let s3 = (T.node_by_name topo "s3").T.id in
    if loss > 0. then
      ignore
        (Ff_scaling.Loss.install net ~sw:(s0 + 1) ~prob:loss ~seed
           ~classes:Ff_scaling.Loss.State_chunks_only ());
    let done_at = ref infinity in
    let x =
      Ff_scaling.Transfer.send net ~src_sw:s0 ~dst_sw:s3 ~entries ~fec
        ~on_complete:(fun _ -> done_at := Ff_netsim.Engine.now engine)
        ()
    in
    Ff_netsim.Engine.run engine ~until:30.;
    ( Ff_scaling.Transfer.complete x, !done_at, Ff_scaling.Transfer.chunks_sent x,
      Ff_scaling.Transfer.retransmitted_groups x, Ff_scaling.Transfer.fec_recoveries x )
  in
  let average ~loss ~fec =
    let seeds = [ 11; 22; 33; 44; 55 ] in
    let ok, time, chunks, retx, recov =
      List.fold_left
        (fun (ok, time, chunks, retx, recov) seed ->
          let o, t, c, r, v = run ~loss ~fec ~seed in
          ((if o then ok + 1 else ok), time +. t, chunks + c, retx + r, recov + v))
        (0, 0., 0, 0, 0) seeds
    in
    let n = float_of_int (List.length seeds) in
    (ok, time /. n, float_of_int chunks /. n, float_of_int retx /. n, float_of_int recov /. n)
  in
  let rows =
    List.concat_map
      (fun loss ->
        List.map
          (fun fec ->
            let ok, time, chunks, retx, recov = average ~loss ~fec in
            [ Printf.sprintf "%.0f%%" (loss *. 100.);
              (if fec then "on" else "off");
              Printf.sprintf "%d/5" ok;
              (if time = infinity then "-" else Printf.sprintf "%.0f" (time *. 1000.));
              Printf.sprintf "%.0f" chunks;
              Printf.sprintf "%.1f" retx;
              Printf.sprintf "%.1f" recov ])
          [ true; false ])
      [ 0.; 0.05; 0.1; 0.2; 0.3 ]
  in
  Table.print
    ~header:
      [ "loss"; "FEC"; "completed"; "time (ms)"; "chunks sent"; "retx groups";
        "FEC recoveries" ]
    ~rows;
  print_endline "\n(parity lets a group survive one lost chunk without waiting out the";
  print_endline " retransmission timer: completion time stays near-flat under moderate loss)"

(* ------------------------------------------------------------------ *)
(* abl-scaling: repurposing downtime vs. fast-reroute                  *)
(* ------------------------------------------------------------------ *)

let abl_scaling () =
  banner "abl-scaling" "switch repurposing: downtime model vs. traffic continuity";
  let run ~downtime ~fast_reroute =
    let lm = T.Fig2.build () in
    let topo = lm.T.Fig2.topo in
    let engine = Ff_netsim.Engine.create () in
    let net = Ff_netsim.Net.create engine topo in
    let hosts = T.hosts topo in
    List.iter
      (fun (h1 : T.node) ->
        List.iter
          (fun (h2 : T.node) ->
            if h1.T.id <> h2.T.id then
              match T.shortest_path topo ~src:h1.T.id ~dst:h2.T.id with
              | Some p -> Ff_netsim.Net.install_path net ~dst:h2.T.id p
              | None -> ())
          hosts)
      hosts;
    let mid_of (l : T.link) = if l.T.a = lm.T.Fig2.agg then l.T.b else l.T.a in
    let m1 = mid_of (List.hd lm.T.Fig2.critical) in
    let src = List.hd lm.T.Fig2.normal_sources in
    Ff_netsim.Net.set_route net ~sw:lm.T.Fig2.agg ~dst:lm.T.Fig2.victim ~next_hop:m1;
    Ff_netsim.Net.set_route net ~sw:m1 ~dst:lm.T.Fig2.victim ~next_hop:lm.T.Fig2.victim_agg;
    let flow = Ff_netsim.Flow.Cbr.start net ~src ~dst:lm.T.Fig2.victim ~rate_pps:200. () in
    Ff_netsim.Engine.schedule engine ~at:2. (fun () ->
        if fast_reroute then
          Ff_scaling.Repurpose.repurpose net ~sw:m1 ~downtime
            ~install:(fun () -> ())
            ~on_done:(fun _ -> ())
            ()
        else begin
          (* no neighbor notification: the switch just goes dark *)
          Ff_netsim.Net.set_switch_up net ~sw:m1 false;
          Ff_netsim.Engine.after engine ~delay:downtime (fun () ->
              Ff_netsim.Net.set_switch_up net ~sw:m1 true)
        end);
    Ff_netsim.Engine.run engine ~until:10.;
    Ff_netsim.Flow.Cbr.delivered_bytes flow
    /. float_of_int (Ff_netsim.Flow.Cbr.sent_packets flow * 1000)
  in
  let rows =
    List.map
      (fun downtime ->
        let with_frr = run ~downtime ~fast_reroute:true in
        let without = run ~downtime ~fast_reroute:false in
        [ (if downtime = 0. then "0 (Trident-style)" else Printf.sprintf "%.1f" downtime);
          Printf.sprintf "%.1f%%" (100. *. with_frr);
          Printf.sprintf "%.1f%%" (100. *. without) ])
      [ 0.; 0.5; 2.; 5. ]
  in
  Table.print
    ~header:[ "downtime (s)"; "delivery w/ fast reroute"; "delivery w/o notification" ]
    ~rows;
  print_endline "\n(with neighbor notification the reconfiguration is invisible even for";
  print_endline " Tofino-style multi-second installs; without it, downtime = loss)"


(* ------------------------------------------------------------------ *)
(* abl-pulse: short-lived pulsing attacks (paper Fig. 2 caption)       *)
(* ------------------------------------------------------------------ *)

let abl_pulse () =
  banner "abl-pulse" "pulsing (shrew-style) attacks against the multimode data plane";
  let run ~defend ~duty =
    let lm = T.Fig2.build ~bots:8 ~normals:4 () in
    let topo = lm.T.Fig2.topo in
    let engine = Ff_netsim.Engine.create () in
    let net = Ff_netsim.Net.create engine topo in
    let hosts = T.hosts topo in
    List.iter
      (fun (h1 : T.node) ->
        List.iter
          (fun (h2 : T.node) ->
            if h1.T.id <> h2.T.id then
              match T.shortest_path topo ~src:h1.T.id ~dst:h2.T.id with
              | Some p -> Ff_netsim.Net.install_path net ~dst:h2.T.id p
              | None -> ())
          hosts)
      hosts;
    let matrix = Ff_te.Traffic_matrix.empty () in
    List.iter
      (fun n -> Ff_te.Traffic_matrix.set matrix ~src:n ~dst:lm.T.Fig2.victim 2_300_000.)
      lm.T.Fig2.normal_sources;
    let plan = Ff_te.Solver.solve ~k:2 topo matrix in
    Ff_te.Solver.install net plan;
    let normal_flows =
      List.map
        (fun n ->
          Ff_netsim.Flow.Tcp.start net ~src:n ~dst:lm.T.Fig2.victim ~at:0.5 ~max_cwnd:4. ())
        lm.T.Fig2.normal_sources
    in
    if defend then
      ignore (Orchestrator.deploy net ~landmarks:lm ~default_plan:plan ());
    let _atk =
      Ff_attacks.Pulsing.launch net ~bots:lm.T.Fig2.bot_sources ~victim:lm.T.Fig2.victim
        ~burst_pps:250. ~period:1.0 ~duty ~start:10. ()
    in
    let goodput =
      Ff_netsim.Monitor.aggregate_goodput net ~flows:normal_flows ~period:0.5 ~name:"g" ()
    in
    Ff_netsim.Engine.run engine ~until:60.;
    let vals t0 t1 =
      List.filter_map
        (fun (t, v) -> if t >= t0 && t <= t1 then Some v else None)
        (Series.points goodput)
    in
    let baseline = Ff_util.Stats.mean (vals 4. 9.) in
    Ff_util.Stats.mean (vals 12. 60.) /. Float.max 1. baseline
  in
  let rows =
    List.map
      (fun duty ->
        [ Printf.sprintf "%.0f%%" (duty *. 100.);
          Printf.sprintf "%.2f" (run ~defend:false ~duty);
          Printf.sprintf "%.2f" (run ~defend:true ~duty) ])
      [ 0.1; 0.2; 0.5 ]
  in
  Table.print ~header:[ "duty cycle"; "undefended goodput"; "fastflex goodput" ] ~rows;
  print_endline "\n(low/medium duty: classification catches the persistent senders and the";
  print_endline " multimode defense absorbs the pulses. At 50% duty the sustained congestion";
  print_endline " depresses normal flows below the suspicion threshold too - classification";
  print_endline " collateral, the false-positive risk the paper's indistinguishability";
  print_endline " discussion warns about; see abl-probe for the threshold sensitivity)"

(* ------------------------------------------------------------------ *)
(* abl-sync: local vs network-wide detection (paper section 3.3)       *)
(* ------------------------------------------------------------------ *)

let abl_sync () =
  banner "abl-sync" "distributed floods: local detection vs synchronized network-wide views";
  let run ~rate_pps_per_bot =
    let lm = T.Fig2.build ~bots:8 ~normals:4 () in
    let topo = lm.T.Fig2.topo in
    let engine = Ff_netsim.Engine.create () in
    let net = Ff_netsim.Net.create engine topo in
    let hosts = T.hosts topo in
    List.iter
      (fun (h1 : T.node) ->
        List.iter
          (fun (h2 : T.node) ->
            if h1.T.id <> h2.T.id then
              match T.shortest_path topo ~src:h1.T.id ~dst:h2.T.id with
              | Some p -> Ff_netsim.Net.install_path net ~dst:h2.T.id p
              | None -> ())
          hosts)
      hosts;
    let e1 = (T.node_by_name topo "e1").T.id and e2 = (T.node_by_name topo "e2").T.id in
    let threshold = 6_000_000. in
    (* local-only detector: the same per-destination logic but with a view
       limited to one ingress (no synchronization) *)
    let local_alarm = ref false in
    let _local =
      Ff_boosters.Network_wide_hh.install net ~ingresses:[ e1 ] ~threshold_bps:threshold
        ~on_alarm:(fun _ -> local_alarm := true)
        ~on_clear:(fun _ -> ())
        ()
    in
    (* network-wide detector across both ingresses *)
    let nw_alarm = ref false in
    let nw =
      Ff_boosters.Network_wide_hh.install net ~ingresses:[ e1; e2 ] ~threshold_bps:threshold
        ~on_alarm:(fun _ -> nw_alarm := true)
        ~on_clear:(fun _ -> ())
        ()
    in
    List.iter
      (fun bot ->
        ignore
          (Ff_netsim.Flow.Cbr.start net ~src:bot ~dst:lm.T.Fig2.victim
             ~rate_pps:rate_pps_per_bot ~at:1. ()))
      lm.T.Fig2.bot_sources;
    Ff_netsim.Engine.run engine ~until:8.;
    (!local_alarm, !nw_alarm, Ff_boosters.Network_wide_hh.sync_probes nw)
  in
  let rows =
    List.map
      (fun rate_pps_per_bot ->
        let total_mbps = rate_pps_per_bot *. 8. *. 8000. /. 1e6 in
        let local, nw, probes = run ~rate_pps_per_bot in
        [ Printf.sprintf "%.1f" total_mbps;
          (if local then "yes" else "no");
          (if nw then "yes" else "no");
          string_of_int probes ])
      [ 40.; 80.; 125.; 250. ]
  in
  Table.print
    ~header:
      [ "aggregate flood (Mb/s)"; "local detector fires"; "network-wide fires"; "sync probes" ]
    ~rows;
  print_endline "\n(between ~6 and ~12 Mb/s aggregate, each ingress sees under the threshold:";
  print_endline " only the synchronized network-wide view catches the attack)"


(* ------------------------------------------------------------------ *)
(* abl-topo: the architecture beyond the case-study topology           *)
(* ------------------------------------------------------------------ *)

let abl_topo () =
  banner "abl-topo" "pervasive deployment on a fat-tree(4): same defense, bigger network";
  (* victim in pod 0 edge 0; decoys on pod 0 edge 1; the two critical
     cuts are the core->agg0_0 and core->agg0_1 downlinks into the pod *)
  let run ~defend =
    let topo = T.fat_tree ~k:4 () in
    let engine = Ff_netsim.Engine.create () in
    let net = Ff_netsim.Net.create engine topo in
    let id name = (T.node_by_name topo name).T.id in
    let hosts = T.hosts topo in
    List.iter
      (fun (h1 : T.node) ->
        List.iter
          (fun (h2 : T.node) ->
            if h1.T.id <> h2.T.id then
              match T.shortest_path topo ~src:h1.T.id ~dst:h2.T.id with
              | Some p -> Ff_netsim.Net.install_path net ~dst:h2.T.id p
              | None -> ())
          hosts)
      hosts;
    let victim = id "h0_0_0" in
    let decoy1 = id "h0_1_0" and decoy2 = id "h0_1_1" in
    (* pin each decoy behind a different aggregation path into pod 0
       (agg0_0 reachable via core0/core1, agg0_1 via core2/core3), giving
       the attacker its two rollable targets *)
    List.iter
      (fun pod ->
        List.iter
          (fun e ->
            let edge = id (Printf.sprintf "edge%d_%d" pod e) in
            Ff_netsim.Net.set_route net ~sw:edge ~dst:decoy1
              ~next_hop:(id (Printf.sprintf "agg%d_0" pod));
            Ff_netsim.Net.set_route net ~sw:edge ~dst:decoy2
              ~next_hop:(id (Printf.sprintf "agg%d_1" pod));
            (* concentrate each decoy's traffic through one core: the
               attacker's target link is that core's downlink into pod 0 *)
            Ff_netsim.Net.set_route net
              ~sw:(id (Printf.sprintf "agg%d_0" pod))
              ~dst:decoy1 ~next_hop:(id "core0");
            Ff_netsim.Net.set_route net
              ~sw:(id (Printf.sprintf "agg%d_1" pod))
              ~dst:decoy2 ~next_hop:(id "core2"))
          [ 0; 1 ])
      [ 1; 2; 3 ];
    Ff_netsim.Net.set_route net ~sw:(id "core0") ~dst:decoy1 ~next_hop:(id "agg0_0");
    Ff_netsim.Net.set_route net ~sw:(id "core1") ~dst:decoy1 ~next_hop:(id "agg0_0");
    Ff_netsim.Net.set_route net ~sw:(id "core2") ~dst:decoy2 ~next_hop:(id "agg0_1");
    Ff_netsim.Net.set_route net ~sw:(id "core3") ~dst:decoy2 ~next_hop:(id "agg0_1");
    Ff_netsim.Net.set_route net ~sw:(id "agg0_0") ~dst:decoy1 ~next_hop:(id "edge0_1");
    Ff_netsim.Net.set_route net ~sw:(id "agg0_1") ~dst:decoy2 ~next_hop:(id "edge0_1");
    Ff_netsim.Net.set_route net ~sw:(id "agg0_0") ~dst:decoy1 ~next_hop:(id "edge0_1");
    Ff_netsim.Net.set_route net ~sw:(id "agg0_1") ~dst:decoy2 ~next_hop:(id "edge0_1");
    (* normal flows from pods 1-2, split over the two agg paths into pod 0 *)
    let normal_specs =
      (* one flow through each targeted core downlink, two on untouched
         cores: each attack round cuts a quarter of the normal traffic *)
      [ ("h1_0_0", "agg1_0", "core0", "agg0_0"); ("h1_1_0", "agg1_1", "core2", "agg0_1");
        ("h2_0_0", "agg2_0", "core1", "agg0_0"); ("h2_1_0", "agg2_1", "core3", "agg0_1") ]
    in
    let normal_flows =
      List.map
        (fun (src_name, agg_src, core, agg_dst) ->
          let src = id src_name in
          let src_edge = Ff_netsim.Net.access_switch net ~host:src in
          Ff_netsim.Net.install_pair_path net ~src ~dst:victim
            [ src; src_edge; id agg_src; id core; id agg_dst; id "edge0_0"; victim ];
          Ff_netsim.Flow.Tcp.start net ~src ~dst:victim ~at:0.5 ~max_cwnd:3. ())
        normal_specs
    in
    if defend then begin
      (* tighter suspicious-flow budget than the fig2 scenario: the
         fat-tree pod has no spare detour capacity, so mitigation leans on
         policing (24 suspicious flows x 150 kb/s = 3.6 Mb/s residual) *)
      let config =
        { Fastflex.Orchestrator.default_config with drop_rate_limit = 150_000. }
      in
      ignore
        (Fastflex.Orchestrator.deploy_wide net ~protect:[ victim; decoy1; decoy2 ] ~config ())
    end;
    (* rolling Crossfire from 8 bots spread over pods 1-3 *)
    let bots =
      List.map id
        [ "h1_0_1"; "h1_1_1"; "h2_0_1"; "h2_1_1"; "h3_0_0"; "h3_0_1"; "h3_1_0"; "h3_1_1" ]
    in
    let _atk =
      Ff_attacks.Lfa.launch net ~bots ~decoy_groups:[ [ decoy1 ]; [ decoy2 ] ] ~start:10.
        ~roll_schedule:[ 35. ] ()
    in
    let goodput =
      Ff_netsim.Monitor.aggregate_goodput net ~flows:normal_flows ~period:0.5 ~name:"g" ()
    in
    Ff_netsim.Engine.run engine ~until:60.;
    let vals t0 t1 =
      List.filter_map
        (fun (t, v) -> if t >= t0 && t <= t1 then Some v else None)
        (Series.points goodput)
    in
    let baseline = Float.max 1. (Ff_util.Stats.mean (vals 4. 9.)) in
    ( Ff_util.Stats.mean (vals 11. 60.) /. baseline,
      List.fold_left Float.min infinity (List.map (fun v -> v /. baseline) (vals 11. 60.)) )
  in
  let mean_u, min_u = run ~defend:false in
  let mean_d, min_d = run ~defend:true in
  Table.print
    ~header:[ "defense"; "mean goodput under attack"; "min" ]
    ~rows:
      [ [ "none"; Printf.sprintf "%.2f" mean_u; Printf.sprintf "%.2f" min_u ];
        [ "fastflex (deploy_wide)"; Printf.sprintf "%.2f" mean_d; Printf.sprintf "%.2f" min_d ] ];
  print_endline "\n(20 switches, detectors everywhere, alarms from whichever switch sees the";
  print_endline " congestion, classification activated network-wide by mode probes: the";
  print_endline " same multimode machinery generalizes beyond the paper's sketch topology)"


(* ------------------------------------------------------------------ *)
(* abl-vol: the volumetric scenario (HH -> modes -> police + HCF)      *)
(* ------------------------------------------------------------------ *)

let abl_vol () =
  banner "abl-vol" "volumetric DDoS with spoofing: heavy-hitter detection through the modes";
  let rows =
    List.concat_map
      (fun spoof ->
        List.map
          (fun defended ->
            let r = Scenario.run (Scenario.volumetric ~defended ~spoof ()) in
            [ (if spoof then "yes" else "no");
              (if defended then "yes" else "no");
              cell r "goodput_mean"; icell r "hcf_filtered"; icell r "offender_drops" ])
          [ false; true ])
      [ true; false ]
  in
  Table.print
    ~header:[ "spoofed"; "defended"; "normal goodput"; "hcf filtered"; "offenders policed" ]
    ~rows;
  print_endline "\n(HashPipe flags the 4.8 Mb/s offender flows, the mode probes light the";
  print_endline " drop + hcf modes, policing removes the volume and the hop-count filter";
  print_endline " discards the spoofed packets without touching the real address owners)"

(* ------------------------------------------------------------------ *)
(* synflood: the split-proxy SYN defense (cookies + cuckoo tracker)    *)
(* ------------------------------------------------------------------ *)

let synflood_exp () =
  banner "synflood"
    "SYN flood vs the split-proxy booster: SYN cookies at the edge, cuckoo tracker";
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  let row ~label r =
    [ label; cell r "goodput_mean"; cell r "peak_backlog"; icell r "backlog_drops";
      icell r "completed"; icell r "failed"; icell r "cookies_sent"; icell r "validated";
      Printf.sprintf "%.3f" (Report.metric r "tracker_occupancy") ]
  in
  let run ?hardened defended = Scenario.run (Scenario.synflood ~defended ?hardened ()) in
  let undefended = run false in
  let armed = run true in
  let hardened = run ~hardened:true true in
  Table.print
    ~header:
      [ "defense"; "goodput"; "peak backlog"; "backlog drops"; "completed";
        "failed"; "cookies"; "validated"; "cuckoo load" ]
    ~rows:
      [ row ~label:"none" undefended;
        row ~label:"armed" armed;
        row ~label:"armed+hardening" hardened ];
  print_endline "\n(3200 SYNs/s of spoofed half-opens against a 64-slot backlog: undefended,";
  print_endline " every slot is a flood entry and clients time out; armed, the edge switch";
  print_endline " answers SYNs with stateless cookies, validated flows enter the cuckoo";
  print_endline " tracker, and the server accepts edge-validated handshakes backlog-free)";
  (* hard floors (ISSUE 10): the undefended flood must actually kill the
     server, and the booster must actually bring it back *)
  let m = Report.metric in
  if m undefended "peak_backlog" < 1.0 then
    fail "undefended peak backlog occupancy %.2f, expected 1.0 (flood never filled it)"
      (m undefended "peak_backlog");
  if m undefended "goodput_mean" >= 0.20 then
    fail "undefended goodput %.2f, floor requires < 0.20" (m undefended "goodput_mean");
  List.iter
    (fun (label, r) ->
      if m r "goodput_mean" < 0.90 then
        fail "%s goodput %.2f, floor requires >= 0.90" label (m r "goodput_mean");
      if m r "tracker_occupancy" >= Ff_dataplane.Cuckoo.occupancy_threshold then
        fail "%s cuckoo occupancy %.3f breached the %.2f threshold" label
          (m r "tracker_occupancy") Ff_dataplane.Cuckoo.occupancy_threshold;
      if m r "alarmed" = 0. then fail "%s guard never alarmed under a 16x-threshold flood" label;
      if m r "tracker_failed_inserts" > 0. then
        fail "%s tracker rejected %d validated flows" label
          (Report.count r "tracker_failed_inserts"))
    [ ("armed", armed); ("armed+hardening", hardened) ];
  match !failures with
  | [] -> print_endline "[synflood] all goodput and occupancy floors hold"
  | fs ->
    List.iter (fun f -> Printf.eprintf "[synflood] FAIL %s\n" f) fs;
    exit 1

(* ------------------------------------------------------------------ *)
(* chaos: self-healing control channels under injected faults          *)
(* ------------------------------------------------------------------ *)

let chaos_exp () =
  banner "chaos"
    "control channels under the conditions they exist for: probe loss, flaps, crashes";
  let module Chaos = Ff_chaos.Chaos in
  let modes_for = function
    | Ff_dataplane.Packet.Lfa -> [ "reroute"; "obfuscate" ]
    | Ff_dataplane.Packet.Volumetric -> [ "drop" ]
    | Ff_dataplane.Packet.Pulsing -> [ "reroute" ]
    | Ff_dataplane.Packet.Recon -> [ "obfuscate" ]
    | Ff_dataplane.Packet.Synflood -> [ "syn_guard" ]
  in
  (* part 1: mode convergence across a linear-8 chain whose middle link
     eats the first probe of every epoch (the cut-vertex failure
     fire-and-forget flooding cannot survive), plus 30% bursty loss on
     every control channel — without anti-entropy the far half of the
     chain never hears about the mode change *)
  print_endline
    "Mode convergence, linear-8 chain: middle link eats every first probe,\n\
     plus 30% bursty control-packet loss at every switch:";
  let converge ~anti_entropy ~seed =
    let topo = T.linear ~n:8 () in
    let engine = Ff_netsim.Engine.create () in
    let net = Ff_netsim.Net.create engine topo in
    let id name = (T.node_by_name topo name).T.id in
    let h = Chaos.create ~seed net in
    Chaos.drop_first_probe_per_epoch h ~a:(id "s3") ~b:(id "s4");
    List.iter
      (fun sw ->
        ignore
          (Chaos.burst_loss h ~sw ~start:0. ~until:infinity ~loss:0.3 ~mean_burst:2.
             ~classes:Ff_scaling.Loss.Control_only ()))
      (Ff_netsim.Net.switch_ids net);
    let p = Ff_modes.Protocol.create net ~modes_for ~anti_entropy ~seed () in
    Ff_modes.Protocol.raise_alarm p ~sw:(id "s0") Ff_dataplane.Packet.Lfa;
    Ff_netsim.Engine.run engine ~until:8.;
    let active =
      List.filter (fun sw -> Ff_modes.Protocol.active p ~sw "reroute")
        (Ff_netsim.Net.switch_ids net)
    in
    let converged_at =
      if List.length active = 8 then
        List.fold_left (fun acc (t, _, _, up) -> if up then Float.max acc t else acc) 0.
          (Ff_modes.Protocol.log p)
      else infinity
    in
    (List.length active, converged_at, Ff_modes.Protocol.readverts p,
     Ff_modes.Protocol.repairs p)
  in
  let rows =
    List.concat_map
      (fun seed ->
        List.map
          (fun anti_entropy ->
            let n, at, readv, rep = converge ~anti_entropy ~seed in
            [ string_of_int seed;
              (if anti_entropy > 0. then Printf.sprintf "%.2fs" anti_entropy else "off");
              Printf.sprintf "%d/8" n;
              (if at = infinity then "never" else Printf.sprintf "%.2fs" at);
              string_of_int readv; string_of_int rep ])
          [ 0.; 0.25 ])
      [ 1; 2; 3 ]
  in
  Table.print
    ~header:[ "seed"; "anti-entropy"; "converged"; "by"; "readverts"; "repairs" ]
    ~rows;
  (* part 2: state transfer across a ring while its chunk path flaps —
     the live-path recompute should fail over to the other arc *)
  print_endline "\nState transfer s0->s3 on a ring-6, shortest-path link flapping:";
  let entries = List.init 400 (fun i -> (Printf.sprintf "reg[%d]" i, float_of_int i)) in
  let xfer_run ~seed ~fault =
    let topo = T.ring ~n:6 () in
    let engine = Ff_netsim.Engine.create () in
    let net = Ff_netsim.Net.create engine topo in
    let h = Chaos.create ~seed net in
    Chaos.watch h;
    let done_at = ref infinity in
    let x =
      Ff_scaling.Transfer.send net ~src_sw:0 ~dst_sw:3 ~entries ~seed
        ~on_complete:(fun _ -> done_at := Ff_netsim.Engine.now engine)
        ()
    in
    fault h;
    Ff_netsim.Engine.run engine ~until:10.;
    let violations = Chaos.check_quiescence h ~transfers:[ x ] () in
    (x, !done_at, violations)
  in
  let rows =
    List.map
      (fun seed ->
        let x, done_at, violations =
          xfer_run ~seed ~fault:(fun h ->
              Chaos.flap_link h ~a:1 ~b:2 ~start:0.004 ~until:2.0 ~down_dwell:0.5
                ~up_dwell:0.2)
        in
        [ string_of_int seed;
          (if Ff_scaling.Transfer.complete x then "yes" else "NO");
          (if done_at = infinity then "-" else Printf.sprintf "%.0fms" (done_at *. 1000.));
          string_of_int (Ff_scaling.Transfer.reroutes x);
          (match violations with [] -> "ok" | v -> String.concat "; " v) ])
      [ 1; 2; 3 ]
  in
  Table.print ~header:[ "seed"; "completed"; "time"; "reroutes"; "invariants" ] ~rows;
  (* part 3: no surviving path at all — the transfer must fail promptly
     with a reason instead of burning every retry *)
  print_endline "\nSame transfer when the destination crashes for good:";
  let x, _, _ =
    xfer_run ~seed:1 ~fault:(fun h ->
        Chaos.at h ~time:0.001 (Chaos.Switch_down 3))
  in
  Printf.printf "  failed=%b reason=%s (well before the %d-retry budget)\n"
    (Ff_scaling.Transfer.failed x)
    (Option.value ~default:"-" (Ff_scaling.Transfer.failure_reason x))
    10

(* ------------------------------------------------------------------ *)
(* perf: allocation, determinism and hybrid-tier gates                 *)
(* ------------------------------------------------------------------ *)

(* Speed is measured by perfbench/ (medians over repeated seeded runs).
   This experiment takes no options and checks only bounds a healthy
   build meets on any machine, printing one line per gate and exiting 1
   on a breach:

     alloc words/packet on [perf_scenario]     <= bench/ALLOC_BUDGET
     2-shard run bit-identical to 1 shard      (and words/packet <= shard:)
     10^6-flow hybrid run                      words/equiv <= fluid:,
                                               equiv/s >= 5e6,
                                               touched_frac <= 0.5
     incremental solver                        words/recompute <= fluid-solver: *)

(* A fixed, deterministic scenario that saturates the per-packet path:
   fat-tree(4), pervasive FastFlex deployment (so every packet crosses the
   booster stage pipeline), heavy CBR load plus TCP normal flows, and a
   rolling LFA. *)
let perf_scenario () =
  let topo = T.fat_tree ~k:4 () in
  let engine = Ff_netsim.Engine.create () in
  let net = Ff_netsim.Net.create engine topo in
  let id name = (T.node_by_name topo name).T.id in
  let hosts = T.hosts topo in
  List.iter
    (fun (h1 : T.node) ->
      List.iter
        (fun (h2 : T.node) ->
          if h1.T.id <> h2.T.id then
            match T.shortest_path topo ~src:h1.T.id ~dst:h2.T.id with
            | Some p -> Ff_netsim.Net.install_path net ~dst:h2.T.id p
            | None -> ())
        hosts)
    hosts;
  let victim = id "h0_0_0" in
  let decoy1 = id "h0_1_0" and decoy2 = id "h0_1_1" in
  ignore (Orchestrator.deploy_wide net ~protect:[ victim; decoy1; decoy2 ] ());
  (* open-loop load from every other pod: the constant-rate senders that
     exercise the batched emission path *)
  List.iteri
    (fun i src_name ->
      ignore
        (Ff_netsim.Flow.Cbr.start net ~src:(id src_name) ~dst:victim ~rate_pps:1200.
           ~packet_size:(400 + (100 * (i mod 3))) ~at:0.1 ()))
    [ "h1_0_0"; "h1_1_0"; "h2_0_0"; "h2_1_0"; "h3_0_0"; "h3_1_0" ];
  (* closed-loop normal flows (ack traffic doubles the hop count) *)
  let _tcp =
    List.map
      (fun src_name -> Ff_netsim.Flow.Tcp.start net ~src:(id src_name) ~dst:victim ~at:0.5 ())
      [ "h1_0_1"; "h2_0_1"; "h3_0_1" ]
  in
  let bots =
    List.map id [ "h1_1_1"; "h2_1_1"; "h3_1_1"; "h1_0_1"; "h2_0_1"; "h3_0_1" ]
  in
  let _atk =
    Ff_attacks.Lfa.launch net ~bots ~decoy_groups:[ [ decoy1 ]; [ decoy2 ] ] ~start:5.
      ~roll_schedule:[ 12.; 19.; 26. ] ()
  in
  Ff_netsim.Engine.run engine ~until:30.;
  net

let words_since bytes0 = (Gc.allocated_bytes () -. bytes0) /. float_of_int (Sys.word_size / 8)

(* bench/ALLOC_BUDGET: the number after [prefix] on the first non-comment
   line that starts with it (the per-packet budget has the empty prefix) *)
let budget prefix =
  let file = "bench/ALLOC_BUDGET" in
  let plen = String.length prefix in
  In_channel.with_open_text file In_channel.input_all
  |> String.split_on_char '\n'
  |> List.find_map (fun line ->
         let line = String.trim line in
         if String.starts_with ~prefix line && not (String.starts_with ~prefix:"#" line) then
           float_of_string_opt (String.trim (String.sub line plen (String.length line - plen)))
         else None)
  |> function
  | Some b -> b
  | None -> failwith (Printf.sprintf "%s has no %S budget line" file prefix)

(* Steady-state solver allocation, isolated from the scenario: build a
   mid-size population once, then hammer single-link-dirty incremental
   re-solves and count GC words per recompute. The solver's scratch is all
   dense pre-sized arrays, so growth here means a per-solve allocation
   (list, closure, tuple key) crept back into the fill path. *)
let measure_solver_alloc () =
  let module Engine = Ff_netsim.Engine in
  let module Net = Ff_netsim.Net in
  let module Fluid = Ff_fluid.Fluid in
  let topo = T.isp ~cores:4 ~access_per_core:2 ~hosts_per_access:4 () in
  let engine = Engine.create () in
  let net = Net.create engine topo in
  Scenario.install_all_routes net;
  let hosts = Array.of_list (List.map (fun (n : T.node) -> n.T.id) (T.hosts topo)) in
  let nh = Array.length hosts in
  let fl = Fluid.create net () in
  for i = 0 to 499 do
    let src = hosts.(i mod nh) in
    let dst = hosts.((i * 7 + 1) mod nh) in
    if src <> dst then
      ignore
        (Fluid.add fl ~src ~dst
           (if i mod 3 = 0 then Fluid.Adaptive { rtt = 0.02; max_rate = 1e6 }
            else Fluid.Constant { rate = 25_000. }))
  done;
  Fluid.recompute fl;
  let li = Net.link_index net ~from_:hosts.(0) ~to_:(List.hd (Net.neighbors_of net hosts.(0))) in
  let iters = 2_000 in
  Gc.compact ();
  let bytes0 = Gc.allocated_bytes () in
  for _ = 1 to iters do
    Fluid.mark_link_dirty fl li;
    Fluid.recompute fl
  done;
  words_since bytes0 /. float_of_int iters

(* Floors for the 10^6-flow hybrid point: the incremental solver must hold
   >= 5M packet-equivalents/s (far under what it measures, so slow
   machines pass) and must stay local. The attack window's mass
   demote/promote batches legitimately fall back to full solves (~0.4
   touched fraction); losing incremental locality shows up as >= 1.0, so
   0.5 separates the two regimes. *)
let fluid_equiv_floor = 5e6
let fluid_touched_frac_max = 0.5

let perf () =
  banner "perf" "allocation, determinism and hybrid-tier gates";
  let failed = ref false in
  let gate name ok measured =
    if not ok then failed := true;
    Printf.printf "[perf] %-36s %-28s %s\n%!" name measured (if ok then "ok" else "FAIL")
  in
  let at_most name v bound = gate name (v <= bound) (Printf.sprintf "%-10.4g bound <= %g" v bound) in
  let at_least name v bound = gate name (v >= bound) (Printf.sprintf "%-10.4g bound >= %g" v bound) in
  (* the per-packet hot path *)
  Gc.compact ();
  let bytes0 = Gc.allocated_bytes () and steps0 = Ff_netsim.Engine.total_steps () in
  let net = perf_scenario () in
  let words = words_since bytes0 in
  let hops = Ff_netsim.Net.total_tx_packets net in
  let drops =
    List.fold_left (fun acc (_, n) -> acc + n) 0 (Ff_netsim.Net.drops_by_reason net)
  in
  Printf.printf "[perf] perf scenario: %d hops, %d events, %d drops\n" hops
    (Ff_netsim.Engine.total_steps () - steps0) drops;
  at_most "alloc words/packet" (words /. float_of_int (max 1 hops)) (budget "");
  (* the sharded engine on fat-tree(8): 2 shards must change nothing but
     wall time, so the 1-shard run's counters are the oracle *)
  let module P = Ff_parallel.Psim in
  let module W = Ff_parallel.Workload in
  let w = W.fat_tree ~k:8 ~rate_pps:500. ~duration:2.0 () in
  let run ~shards ~mode =
    let c = W.fresh_counters w in
    (P.run ~mode ~shards ~topo:(W.topo w) ~setup:(W.setup w c) ~until:(W.until w) (), c)
  in
  let r1, c1 = run ~shards:1 ~mode:P.Sequential in
  let r2, c2 = run ~shards:2 ~mode:P.Auto in
  let tx2 = P.total_tx r2 in
  Printf.printf "[perf] sharded run: %d hops, %d events (1 shard: %d hops, %d events)\n" tx2
    r2.P.events (P.total_tx r1) r1.P.events;
  let identical =
    P.total_tx r1 = tx2
    && r1.P.events = r2.P.events
    && P.drops_by_reason r1 = P.drops_by_reason r2
    && c1.W.delivered = c2.W.delivered
    && c1.W.time_sum = c2.W.time_sum
  in
  gate "2 shards bit-identical to 1 shard" identical
    (if identical then "identical" else "diverged");
  at_most "shard: alloc words/packet"
    (r2.P.alloc_bytes /. float_of_int (Sys.word_size / 8) /. float_of_int (max 1 tx2))
    (budget "shard:");
  (* the hybrid fluid/packet tier at 10^6 flows (Scenario.lfa_fluid): the
     per-flow rate scales down so the aggregate benign offer stays ~4 Gb/s,
     the demote budget caps packet-tier churn, and the goodput probe backs
     off to keep measurement out of the measured number *)
  let flows = 1_000_000 in
  Gc.compact ();
  let bytes0 = Gc.allocated_bytes () and t0 = Unix.gettimeofday () in
  let r =
    Scenario.run
      (Scenario.lfa_fluid ~flows ~duration:40. ~flow_rate_bps:(4e9 /. float_of_int flows)
         ~demote_budget:100_000 ~goodput_period:4.0 ())
  in
  let wall_s = Float.max 1e-9 (Unix.gettimeofday () -. t0) in
  let equivalents = Report.metric r "packet_equivalents" in
  at_most "fluid: alloc words/equiv"
    (words_since bytes0 /. Float.max 1. equivalents)
    (budget "fluid:");
  at_least "fluid: equiv/s" (equivalents /. wall_s) fluid_equiv_floor;
  at_most "fluid: touched_frac" (Report.metric r "touched_frac") fluid_touched_frac_max;
  at_most "fluid-solver: words/recompute" (measure_solver_alloc ()) (budget "fluid-solver:");
  if !failed then exit 1

(* ------------------------------------------------------------------ *)
(* micro: Bechamel micro-benchmarks of the primitives                  *)
(* ------------------------------------------------------------------ *)

let micro () =
  banner "micro" "per-operation cost of the data plane primitives (Bechamel OLS)";
  let open Bechamel in
  let open Toolkit in
  let sketch = Ff_dataplane.Sketch.create ~rows:4 ~cols:1024 () in
  let bloom = Ff_dataplane.Bloom.create ~bits:8192 ~hashes:4 () in
  let hashpipe = Ff_dataplane.Hashpipe.create ~stages:4 ~slots_per_stage:64 () in
  (* Steady-state event queue ("hold" model): [pending] events at random
     future times; each op pops the earliest and schedules a new one a
     random delay after it, so the size stays put and every op pays the
     sift depth of that size. 300 and 90,000 are the engine's pending
     peaks on the lfa fat-tree and the 100k-flow hybrid ISP workloads. *)
  let event_heap_hold pending =
    let rng = Ff_util.Prng.create ~seed:13 in
    let delays = Array.init 4096 (fun _ -> Ff_util.Prng.exponential rng ~mean:1.) in
    let heap = Ff_util.Heap.create () in
    for i = 0 to pending - 1 do
      Ff_util.Heap.push heap ~prio:(float_of_int pending *. delays.(i land 4095)) ()
    done;
    let k = ref 0 in
    Test.make
      ~name:(Printf.sprintf "event-heap-pop-push-%d" pending)
      (Staged.stage (fun () ->
           let now = Ff_util.Heap.min_prio heap in
           Ff_util.Heap.pop_min heap;
           incr k;
           Ff_util.Heap.push heap ~prio:(now +. delays.(!k land 4095)) ()))
  in
  let lm = T.Fig2.build () in
  let key = ref 0 in
  let lfa_parser = List.hd (Ff_boosters.Specs.specs_of "lfa-detector") in
  let fec_entries = List.init 64 (fun i -> (Printf.sprintf "r[%d]" i, float_of_int i)) in
  let fec_chunks = Ff_scaling.Fec.encode fec_entries in
  let tests =
    [
      Test.make ~name:"sketch-add"
        (Staged.stage (fun () ->
             incr key;
             Ff_dataplane.Sketch.add sketch !key 1.));
      Test.make ~name:"sketch-estimate"
        (Staged.stage (fun () -> ignore (Ff_dataplane.Sketch.estimate sketch 42)));
      Test.make ~name:"bloom-add"
        (Staged.stage (fun () ->
             incr key;
             Ff_dataplane.Bloom.add bloom !key));
      Test.make ~name:"bloom-mem"
        (Staged.stage (fun () -> ignore (Ff_dataplane.Bloom.mem bloom 42)));
      Test.make ~name:"hashpipe-update"
        (Staged.stage (fun () ->
             incr key;
             Ff_dataplane.Hashpipe.update hashpipe ~key:(!key mod 512) ~weight:1.));
      event_heap_hold 300;
      event_heap_hold 90_000;
      Test.make ~name:"equiv-canonicalize"
        (Staged.stage (fun () -> ignore (Ff_dataflow.Equiv.canonical lfa_parser)));
      Test.make ~name:"yen-4-paths-fig2"
        (Staged.stage (fun () ->
             ignore
               (T.k_shortest_paths ~k:4 lm.T.Fig2.topo
                  ~src:(List.hd lm.T.Fig2.normal_sources) ~dst:lm.T.Fig2.victim)));
      Test.make ~name:"fec-encode-64"
        (Staged.stage (fun () -> ignore (Ff_scaling.Fec.encode fec_entries)));
      Test.make ~name:"fec-decode-64"
        (Staged.stage (fun () -> ignore (Ff_scaling.Fec.decode fec_chunks)));
    ]
  in
  let grouped = Test.make_grouped ~name:"fastflex" tests in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:None () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] grouped in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let ns = match Analyze.OLS.estimates ols with Some (x :: _) -> x | _ -> nan in
        (name, ns) :: acc)
      results []
    |> List.sort compare
    |> List.map (fun (name, ns) -> [ name; Printf.sprintf "%.1f" ns ])
  in
  Table.print ~header:[ "operation"; "ns/op" ] ~rows

(* ------------------------------------------------------------------ *)
(* adversarial: closed-loop adaptive attackers vs hardened defenses     *)
(* ------------------------------------------------------------------ *)

(* bench/ADVERSARIAL_BASELINE holds the pre-hardening (unhardened,
   closed-loop) work factor per strategy and seed:
     <strategy> <seed> <work_factor>
   The hardened run must post a work factor at least
   [wf_floor_factor] x that baseline — the "evasion resistance raised
   the attacker's cost" assertion. Re-record after an intentional
   defense change with ADVERSARIAL_RECORD=1. *)
(* invoked both from the repo root (dune exec bench/main.exe) and from
   bench/ itself (the @adversarial alias action runs there) *)
let adversarial_baseline_file =
  if Sys.file_exists "ADVERSARIAL_BASELINE" then "ADVERSARIAL_BASELINE"
  else "bench/ADVERSARIAL_BASELINE"
let adversarial_wf_floor = 3.0
let adversarial_damage_gain = 2.0 (* adaptive must beat open-loop by this *)
let adversarial_damage_residual = 1.25 (* hardened adaptive vs open-loop *)

let read_adversarial_baseline () =
  if not (Sys.file_exists adversarial_baseline_file) then []
  else
    let ic = open_in adversarial_baseline_file in
    let rec go acc =
      match input_line ic with
      | exception End_of_file -> acc
      | line ->
        let line = String.trim line in
        if line = "" || line.[0] = '#' then go acc
        else begin
          match String.split_on_char ' ' line with
          | [ strat; seed; wf ] ->
            go (((strat, int_of_string seed), float_of_string wf) :: acc)
          | _ -> go acc
        end
    in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () -> go [])

let adversarial_seeds () =
  match Sys.getenv_opt "ADVERSARIAL_SEEDS" with
  | Some s -> List.filter_map int_of_string_opt (String.split_on_char ',' s)
  | None -> [ 1; 2 ]

let adversarial () =
  banner "adversarial"
    "closed-loop adaptive attackers vs evasion-hardened defenses (attacker work factor)";
  let module A = Ff_attacks.Adaptive in
  let record = Sys.getenv_opt "ADVERSARIAL_RECORD" <> None in
  let baseline = read_adversarial_baseline () in
  let seeds = adversarial_seeds () in
  let failures = ref [] in
  let recorded = ref [] in
  let check name ok detail =
    if not ok then failures := Printf.sprintf "%s: %s" name detail :: !failures
  in
  let rows =
    List.concat_map
      (fun strategy ->
        let sname = A.strategy_name strategy in
        List.concat_map
          (fun seed ->
            Printf.printf "  %-15s seed %d ...%!" sname seed;
            let t0 = Unix.gettimeofday () in
            let run ?hardened adversary =
              Scenario.run (Scenario.adversarial ~strategy ~adversary ?hardened ~seed ())
            in
            let open_loop = run Scenario.Open_loop in
            let adaptive = run Scenario.Closed_loop in
            let hardened = run ~hardened:true Scenario.Closed_loop in
            Printf.printf " %.1fs\n%!" (Unix.gettimeofday () -. t0);
            let tag = Printf.sprintf "%s/seed=%d" sname seed in
            let damage r = Report.metric r "damage" in
            (* the adaptive loop must beat the defense the blast cannot *)
            check tag
              (damage adaptive >= adversarial_damage_gain *. damage open_loop)
              (Printf.sprintf "adaptive damage %.2f < %.1fx open-loop %.2f" (damage adaptive)
                 adversarial_damage_gain (damage open_loop));
            (* hardening must blunt it back to (near) open-loop damage *)
            check tag
              (damage hardened
              <= adversarial_damage_residual *. Float.max 0.5 (damage open_loop))
              (Printf.sprintf "hardened damage %.2f > %.2fx open-loop %.2f" (damage hardened)
                 adversarial_damage_residual (damage open_loop));
            (* ... and raise the attacker's cost against the committed
               pre-hardening baseline *)
            (match List.assoc_opt (sname, seed) baseline with
            | Some base_wf when not record ->
              let wf = Report.metric hardened "work_factor" in
              check tag
                (wf >= adversarial_wf_floor *. base_wf)
                (Printf.sprintf "hardened work factor %.0f < %.1fx baseline %.0f" wf
                   adversarial_wf_floor base_wf)
            | _ ->
              if not record then
                failures :=
                  Printf.sprintf "%s: no baseline in %s (run with ADVERSARIAL_RECORD=1)"
                    tag adversarial_baseline_file
                  :: !failures);
            recorded := (sname, seed, Report.metric adaptive "work_factor") :: !recorded;
            let row r which =
              [ sname; string_of_int seed; which; icell r "probes"; cell r "damage";
                cell r "peak_util";
                (if Report.metric r "effective" = 1. then
                   Printf.sprintf "%.1f" (Report.metric r "time_to_effective")
                 else "never");
                Printf.sprintf "%.0f" (Report.metric r "work_factor");
                icell r "alarms"; icell r "drops" ]
            in
            [ row open_loop "open-loop";
              row adaptive "adaptive";
              row hardened "adaptive+hard" ])
          seeds)
      [ A.Threshold_hug; A.Collision_probe; A.Epoch_time ]
  in
  Table.print
    ~header:
      [ "strategy"; "seed"; "adversary"; "probes"; "damage"; "peak"; "tte"; "wf";
        "alarms"; "drops" ]
    ~rows;
  if record then begin
    let oc = open_out adversarial_baseline_file in
    output_string oc
      "# pre-hardening (unhardened, closed-loop) work factors: <strategy> <seed> <wf>\n\
       # regenerate with: ADVERSARIAL_RECORD=1 dune exec bench/main.exe -- adversarial\n";
    List.iter
      (fun (s, seed, wf) -> Printf.fprintf oc "%s %d %.1f\n" s seed wf)
      (List.rev !recorded);
    close_out oc;
    Printf.printf "[adversarial] baselines -> %s\n" adversarial_baseline_file
  end;
  match !failures with
  | [] -> print_endline "[adversarial] all work-factor and damage floors hold"
  | fs ->
    List.iter (fun f -> Printf.eprintf "[adversarial] FAIL %s\n" f) fs;
    exit 1

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("fig1", fig1);
    ("fig2", fig2);
    ("fig3", fig3);
    ("abl-te", abl_te);
    ("abl-probe", abl_probe);
    ("abl-sharing", abl_sharing);
    ("abl-fec", abl_fec);
    ("abl-scaling", abl_scaling);
    ("abl-pulse", abl_pulse);
    ("abl-sync", abl_sync);
    ("abl-topo", abl_topo);
    ("abl-vol", abl_vol);
    ("synflood", synflood_exp);
    ("chaos", chaos_exp);
    ("adversarial", adversarial);
    ("perf", perf);
    ("micro", micro);
  ]

let run_experiment name f =
  let trace_events () =
    match Ff_obs.Trace.ambient () with Some tr -> Ff_obs.Trace.count tr | None -> 0
  in
  let span =
    Ff_obs.Profile.start ~events:(Ff_netsim.Engine.total_steps ())
      ~trace_events:(trace_events ()) name
  in
  f ();
  let report =
    Ff_obs.Profile.finish span ~events:(Ff_netsim.Engine.total_steps ())
      ~trace_events:(trace_events ()) ()
  in
  Format.printf "%a@." Ff_obs.Profile.pp_report report

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  (* --trace FILE          write the telemetry event log (JSONL, or CSV if
                           FILE ends in .csv) after the experiments run
     --trace-filter KINDS  with --trace: keep only these comma-separated
                           event kinds (original seq numbers retained) and
                           append one drop-proof per-kind summary line —
                           the format of the committed golden traces
     --metrics FILE        write the metrics registry as CSV *)
  let rec split_opts trace filter metrics acc = function
    | "--trace" :: file :: rest -> split_opts (Some file) filter metrics acc rest
    | "--trace-filter" :: kinds :: rest ->
      split_opts trace (Some (String.split_on_char ',' kinds)) metrics acc rest
    | "--metrics" :: file :: rest -> split_opts trace filter (Some file) acc rest
    | a :: rest -> split_opts trace filter metrics (a :: acc) rest
    | [] -> (trace, filter, metrics, List.rev acc)
  in
  let trace_file, trace_filter, metrics_file, names = split_opts None None None [] args in
  let trace =
    match trace_file with
    | None -> None
    | Some _ ->
      let tr = Ff_obs.Trace.create () in
      Ff_obs.Trace.set_ambient (Some tr);
      Some tr
  in
  let metrics =
    let m = Ff_obs.Metrics.create () in
    Ff_obs.Metrics.set_ambient (Some m);
    m
  in
  (match names with
  | [] | [ "all" ] -> List.iter (fun (name, f) -> run_experiment name f) experiments
  | names ->
    List.iter
      (fun name ->
        match List.assoc_opt name experiments with
        | Some f -> run_experiment name f
        | None ->
          Printf.eprintf "unknown experiment %S; available: %s\n" name
            (String.concat " " (List.map fst experiments));
          exit 1)
      names);
  (match (trace_file, trace) with
  | Some file, Some tr ->
    (match trace_filter with
    | None ->
      if Filename.check_suffix file ".csv" then Ff_obs.Trace.write_csv tr file
      else Ff_obs.Trace.write_jsonl tr file
    | Some keep ->
      (* the golden-trace format: filtered JSONL keeping original seq
         numbers, closed by a summary object whose per-kind totals come
         from the drop-proof counters (they cover the whole run even if
         the buffer overflowed) *)
      let oc = open_out file in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          Ff_obs.Trace.iter tr (fun e ->
              if List.mem (Ff_obs.Event.kind e.Ff_obs.Trace.event) keep then begin
                output_string oc (Ff_obs.Trace.entry_to_json e);
                output_char oc '\n'
              end);
          let all_kinds =
            [ "mode_transition"; "reroute"; "state_transfer"; "fec_recovery"; "drop";
              "probe"; "fault"; "repair" ]
          in
          let counts =
            List.map
              (fun k -> Printf.sprintf "%S: %d" k (Ff_obs.Trace.count_kind tr k))
              all_kinds
          in
          Printf.fprintf oc "{\"summary\": {%s}, \"total\": %d}\n"
            (String.concat ", " counts) (Ff_obs.Trace.count tr)));
    Printf.printf "[trace] %d events (%d buffered, %d dropped) -> %s\n" (Ff_obs.Trace.count tr)
      (Ff_obs.Trace.length tr) (Ff_obs.Trace.dropped tr) file
  | _ -> ());
  match metrics_file with
  | Some file ->
    Ff_obs.Metrics.write_csv metrics ~now:infinity file;
    Printf.printf "[metrics] -> %s\n" file
  | None -> ()
