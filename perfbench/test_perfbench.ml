(* The benchmark's own tests: the stage wrapper and sliced engine runs
   leave a simulation bit-identical, and every metric name and unit
   fits the benchmark's naming rules. *)

open Perfbench
module W = Workloads
module Net = Ff_netsim.Net
module Engine = Ff_netsim.Engine

let no_step = { W.step = (fun _ f -> f ()) }

(* Simulated state a run must reproduce exactly. *)
let counts (ps : W.packet_sim) =
  let net = ps.W.net in
  ( Net.total_tx_packets net,
    Engine.steps (Net.engine net),
    Net.drops_by_reason net,
    Printf.sprintf "%.17g" (ps.W.benign ()) )

let run_to ?(slices = []) ?(wrap = false) build ~seed ~until =
  let ps = build ~seed no_step in
  if wrap then begin
    (* wrapped, and with the double-wrapped calibration stage in front *)
    let w = Stagewrap.create () in
    Stagewrap.install w ps.W.net;
    Stagewrap.install_calibration w ps.W.net
  end;
  let engine = Net.engine ps.W.net in
  List.iter (fun t -> Engine.run engine ~until:t) (slices @ [ until ]);
  ps

let same_counts what a b =
  let hops, steps, drops, benign = counts a and hops', steps', drops', benign' = counts b in
  Alcotest.(check int) (what ^ ": hops") hops hops';
  Alcotest.(check int) (what ^ ": events") steps steps';
  Alcotest.(check (list (pair string int))) (what ^ ": drops") drops drops';
  Alcotest.(check string) (what ^ ": benign delivered") benign benign'

let stage_names net =
  List.map
    (fun sw -> List.map (fun (s : Net.stage) -> s.Net.stage_name) (Net.switch net sw).Net.stages)
    (Net.switch_ids net)

(* LFA past the attack onset and a SYN-flood wave: every booster stage of
   both deployments runs, and drops it decides must come out the same *)
let scenarios = [ ("lfa_fattree", W.lfa_fattree, 9.); ("synflood_proxy", W.synflood_proxy, 14.) ]

let test_wrapper_transparent () =
  List.iter
    (fun (name, build, until) ->
      let plain = run_to build ~seed:3 ~until in
      let wrapped = run_to ~wrap:true build ~seed:3 ~until in
      Alcotest.(check bool) (name ^ ": simulation did work") true (Net.total_tx_packets plain.W.net > 0);
      same_counts (name ^ " wrapped") plain wrapped)
    scenarios

let test_wrapper_keeps_pipeline () =
  let ps = W.lfa_fattree ~seed:5 no_step in
  let before = stage_names ps.W.net in
  let w = Stagewrap.create () in
  Stagewrap.install w ps.W.net;
  Alcotest.(check (list (list string))) "names and order kept" before (stage_names ps.W.net);
  Engine.run (Net.engine ps.W.net) ~until:1.;
  (* the detector's instance-suffixed sync stage reports under its base name *)
  let calls name =
    match List.assoc_opt name (Stagewrap.snapshot w) with
    | Some c -> c.Stagewrap.s_calls
    | None -> 0
  in
  Alcotest.(check bool) "view-sync timed" true (calls "view-sync" > 0);
  Alcotest.(check bool) "ttl timed" true (calls "ttl" > 0)

let test_slices_transparent () =
  List.iter
    (fun (name, build, until) ->
      let whole = run_to build ~seed:4 ~until in
      let sliced = run_to ~slices:[ 0.5; 1.; 2.25; 5.; 5.0001; 7.3 ] build ~seed:4 ~until in
      same_counts (name ^ " sliced") whole sliced)
    scenarios

let test_base_name () =
  List.iter
    (fun (raw, base) -> Alcotest.(check string) raw base (Stagewrap.base_name raw))
    [ ("view-sync-9", "view-sync"); ("ttl", "ttl"); ("lfa-detector", "lfa-detector");
      ("nw-hh-counter-3", "nw-hh-counter"); ("x-1-2", "x"); ("-5", "-5") ]

let test_calibration () =
  let ps = W.lfa_fattree ~seed:2 no_step in
  let w = Stagewrap.create () in
  Stagewrap.install w ps.W.net;
  Stagewrap.install_calibration w ps.W.net;
  Engine.run (Net.engine ps.W.net) ~until:2.;
  let c = Stagewrap.calibration w in
  Alcotest.(check bool) "inside cost > 0" true (c.Stagewrap.inside_ns > 0.);
  Alcotest.(check bool) "full cost > inside cost" true (c.Stagewrap.full_ns > c.Stagewrap.inside_ns)

(* The benchmark's naming rules: a letter or digit first, then at most
   63 more letters, digits, '_', '.' or '-'. *)
let valid_name s =
  let ok c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
    || c = '_' || c = '.' || c = '-'
  in
  let first c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') in
  String.length s >= 1 && String.length s <= 64 && first s.[0] && String.for_all ok s

let valid_unit s =
  let ok c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
    || c = '_' || c = '/' || c = '%' || c = '.' || c = '-'
  in
  String.length s >= 1 && String.length s <= 16 && String.for_all ok s

let test_metric_names () =
  let all = Report.end_to_end @ Report.per_layer in
  List.iter
    (fun (m : Report.metric) ->
      Alcotest.(check bool) ("name " ^ m.Report.name) true (valid_name m.Report.name);
      Alcotest.(check bool) ("unit " ^ m.Report.unit) true (valid_unit m.Report.unit))
    all;
  let names = List.map (fun (m : Report.metric) -> m.Report.name) all in
  Alcotest.(check int) "names unique" (List.length names)
    (List.length (List.sort_uniq compare names));
  Alcotest.(check bool) "setup_s is end-to-end" true
    (List.exists (fun (m : Report.metric) -> m.Report.name = "setup_s") Report.end_to_end);
  Alcotest.(check bool) "per-layer list fits" true (List.length Report.per_layer <= 128);
  List.iter
    (fun bad -> Alcotest.(check bool) ("rejects " ^ bad) false (valid_name bad))
    [ ""; "_x"; "a b"; "a/b"; "stage.x:y"; String.make 65 'a' ]

let test_json () =
  let line =
    Report.result_json ~correct:true ~attempted:3 ~failed:0
      [ (List.hd Report.end_to_end, 1.25); (List.nth Report.end_to_end 1, nan) ]
  in
  Alcotest.(check string) "result line"
    "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"hop_rate\": \
     {\"value\": 1.25, \"unit\": \"hops/s\"}, \"equiv_rate\": {\"value\": 0, \"unit\": \
     \"equiv/s\"}}}"
    line

let () =
  Alcotest.run "perfbench"
    [ ( "transparency",
        [ Alcotest.test_case "wrapped stages change nothing" `Quick test_wrapper_transparent;
          Alcotest.test_case "wrapper keeps the pipeline" `Quick test_wrapper_keeps_pipeline;
          Alcotest.test_case "sliced Engine.run changes nothing" `Quick test_slices_transparent ] );
      ( "wrapper",
        [ Alcotest.test_case "base names" `Quick test_base_name;
          Alcotest.test_case "calibration" `Quick test_calibration ] );
      ( "report",
        [ Alcotest.test_case "metric names and units" `Quick test_metric_names;
          Alcotest.test_case "result line" `Quick test_json ] ) ]
