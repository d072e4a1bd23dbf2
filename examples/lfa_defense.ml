(* The paper's case study (section 4.3, Figure 3): normal flows toward a
   victim under a 3-round rolling Crossfire LFA, defended by

     - nothing (static default TE),
     - the baseline SDN defense (centralized TE every 30 s), and
     - FastFlex (multimode data plane).

   Prints the normalized-throughput series of all three side by side as an
   ASCII chart and as CSV.

   Run with: dune exec examples/lfa_defense.exe *)

module Scenario = Fastflex.Scenario
module Report = Fastflex.Report
module Series = Ff_util.Series

let run name defense =
  Printf.printf "running %-14s ... %!" name;
  let r = Scenario.run (Scenario.lfa ~defense ~duration:120. ()) in
  Printf.printf "mean %.2f, min %.2f, %d rolls, %d reconfigs\n%!"
    (Report.metric r "goodput_mean") (Report.metric r "goodput_min")
    (Report.count r "rolls") (Report.count r "reconfigs");
  r

let rename s name =
  let out = Series.create ~name in
  List.iter (fun (t, v) -> Series.add out ~time:t v) (Series.points s);
  out

let () =
  print_endline "FastFlex case study: rolling link-flooding attack (120 s, 3 rounds)";
  print_endline "attack starts at t=10s; forced re-targets at t=45s and t=80s\n";
  let none = run "no-defense" Scenario.No_defense in
  let sdn = run "baseline-sdn" (Scenario.Baseline_sdn { period = 30.; delay = 0.5 }) in
  let ff = run "fastflex" (Scenario.Fastflex Fastflex.Orchestrator.default_config) in

  print_endline "\nNormalized throughput of normal flows (paper Figure 3):";
  let series =
    [ rename sdn.Report.normalized "Baseline (SDN)";
      rename ff.Report.normalized "FastFlex";
      rename none.Report.normalized "No defense" ]
  in
  Series.pp_ascii ~height:14 Format.std_formatter series;

  print_endline "\nRecovery after each attack event (time back to 80% of baseline):";
  let show name (r : Report.t) =
    List.iter
      (fun (ev, rt) ->
        if rt = infinity then Printf.printf "  %-14s event %5.1fs: never\n" name ev
        else Printf.printf "  %-14s event %5.1fs: %.1fs\n" name ev rt)
      r.Report.recovery_times
  in
  show "baseline-sdn" sdn;
  show "fastflex" ff;

  Printf.printf "\nFastFlex internals: %d packets marked suspicious, %d probes, %d drops\n"
    (Report.count ff "marked") (Report.count ff "probes")
    (List.fold_left (fun acc (_, n) -> acc + n) 0 ff.Report.drops);

  print_endline "\nCSV (time, baseline, fastflex, none):";
  Series.pp_csv Format.std_formatter series
