(* Tests for the closed-loop adaptive-adversary arena: seeded
   determinism of the full attacker-vs-defense runs, the offered-load
   hysteresis flap regression, exact-totals hash rotation, and the
   strategic chaos hook. *)

module T = Ff_topology.Topology
module Engine = Ff_netsim.Engine
module Net = Ff_netsim.Net
module Flow = Ff_netsim.Flow
module Hashpipe = Ff_dataplane.Hashpipe
module B = Ff_boosters
module Scenario = Fastflex.Scenario
module Report = Fastflex.Report
module Adaptive = Ff_attacks.Adaptive

(* ---------------- seeded determinism ---------------- *)

(* The whole adversarial arena — attacker decisions, defense draws,
   damage integral — must replay bit-for-bit from the seed. Float
   results are compared by bit pattern, not tolerance. *)
let check_replay ~strategy ~hardened () =
  let run () =
    Scenario.run
      (Scenario.adversarial ~strategy ~adversary:Scenario.Closed_loop ~hardened ~seed:5
         ~duration:30. ())
  in
  let a = run () and b = run () in
  let bits r k = Int64.bits_of_float (Report.metric r k) in
  List.iter
    (fun k -> Alcotest.(check int64) (k ^ " bits") (bits a k) (bits b k))
    [ "fingerprint"; "probes"; "drops"; "damage"; "work_factor" ]

let test_replay_collision_probe () =
  check_replay ~strategy:Adaptive.Collision_probe ~hardened:false ()

let test_replay_epoch_time_hardened () =
  check_replay ~strategy:Adaptive.Epoch_time ~hardened:true ()

(* ---------------- offered-load hysteresis flap regression -------- *)

(* A demand oscillating +-1% around the alarm threshold must produce at
   most one alarm and no clears: the alarm rises on the first upward
   crossing, and clearing requires the *offered* load to subside below
   the low threshold (high - 0.05), which a 1% dip never reaches. A
   detector without hysteresis (or one clearing on transmitted
   utilization once mitigation sheds load) flaps an alarm/clear pair on
   every crossing. *)
let test_hysteresis_no_flap () =
  let lm = T.Fig2.build ~bots:8 ~normals:4 () in
  let engine = Engine.create () in
  let net = Net.create engine lm.T.Fig2.topo in
  let hosts = T.hosts lm.T.Fig2.topo in
  List.iter
    (fun (h1 : T.node) ->
      List.iter
        (fun (h2 : T.node) ->
          if h1.T.id <> h2.T.id then
            match T.shortest_path lm.T.Fig2.topo ~src:h1.T.id ~dst:h2.T.id with
            | Some p -> Net.install_path net ~dst:h2.T.id p
            | None -> ())
        hosts)
    hosts;
  let watched =
    List.map
      (fun (l : T.link) ->
        if l.T.a = lm.T.Fig2.agg then (l.T.a, l.T.b) else (l.T.b, l.T.a))
      lm.T.Fig2.critical
  in
  let alarms = ref 0 and clears = ref 0 in
  let (_ : B.Lfa_detector.t) =
    B.Lfa_detector.install net ~sw:lm.T.Fig2.agg ~watched
      ~on_alarm:(fun _ -> incr alarms)
      ~on_clear:(fun _ -> incr clears)
      ()
  in
  let bot = List.hd lm.T.Fig2.bot_sources in
  let decoy = List.hd lm.T.Fig2.decoys in
  (* 10 Mb/s critical link: 8.4 Mb/s steady + a 0.2 Mb/s square wave
     oscillates the load 0.84 <-> 0.86 across the 0.85 threshold every
     second for ten seconds *)
  ignore (Flow.Cbr.start net ~src:bot ~dst:decoy ~rate_pps:1050. ~at:0.1 ());
  ignore
    (Flow.Cbr.start net ~src:bot ~dst:decoy ~rate_pps:25. ~at:0.1 ~pulse_period:1.0
       ~pulse_duty:0.5 ());
  Engine.run engine ~until:12.;
  Alcotest.(check int) "one alarm" 1 !alarms;
  Alcotest.(check int) "no clears" 0 !clears

(* ---------------- hash rotation preserves totals ---------------- *)

(* Re-salting the HashPipe mid-epoch must not disturb the resident
   accounting: the full-scan views (heavy_hitters, resident_keys) must
   be exactly identical across a reseed, whatever was inserted before
   it. (Only [count]'s point probe may miss, which is why the booster
   rotates at epoch boundaries.) *)
let rotation_totals_exact =
  QCheck2.Test.make ~count:200 ~name:"hashpipe reseed preserves resident totals"
    QCheck2.Gen.(
      triple
        (list_size (int_range 0 300) (pair (int_range 0 50) (int_range 1 10)))
        small_int small_int)
    (fun (updates, pipe_seed, new_salt) ->
      let pipe = Hashpipe.create ~seed:pipe_seed ~stages:2 ~slots_per_stage:8 () in
      List.iter
        (fun (key, w) -> Hashpipe.update pipe ~key ~weight:(float_of_int w))
        updates;
      let snapshot p =
        ( List.sort compare (Hashpipe.heavy_hitters p ~threshold:0.),
          List.sort compare (Hashpipe.resident_keys p) )
      in
      let before = snapshot pipe in
      Hashpipe.reseed pipe new_salt;
      let after = snapshot pipe in
      before = after)

(* ---------------- strategic chaos hook ---------------- *)

(* Chaos.strategic polls a decision function and applies what it
   returns: faults land when the attacker's belief state says so, not
   on a prescheduled clock. *)
let test_strategic_hook () =
  let lm = T.Fig2.build () in
  let engine = Engine.create () in
  let net = Net.create engine lm.T.Fig2.topo in
  let chaos = Ff_chaos.Chaos.create net in
  let d = List.hd lm.T.Fig2.detour in
  let trigger = ref false in
  Ff_chaos.Chaos.strategic chaos ~period:0.5 ~start:1.0 ~until:6.0 ~decide:(fun () ->
      if !trigger then begin
        trigger := false;
        [ Ff_chaos.Chaos.Switch_down d ]
      end
      else []);
  Engine.after engine ~delay:2.2 (fun () -> trigger := true);
  Engine.run engine ~until:8.;
  Alcotest.(check int) "one action applied" 1 (Ff_chaos.Chaos.injected chaos);
  (match Ff_chaos.Chaos.log chaos with
  | [ (at, Ff_chaos.Chaos.Switch_down sw) ] ->
    Alcotest.(check int) "targeted switch" d sw;
    Alcotest.(check bool) "after the trigger, on the poll grid" true (at >= 2.2 && at <= 3.0)
  | l -> Alcotest.failf "unexpected log (%d entries)" (List.length l));
  Alcotest.(check bool) "switch is down" false (Net.switch_is_up net ~sw:d)

let () =
  Alcotest.run "ff_adversarial"
    [
      ( "determinism",
        [
          Alcotest.test_case "collision-probe replays bit-for-bit" `Quick
            test_replay_collision_probe;
          Alcotest.test_case "hardened epoch-time replays bit-for-bit" `Quick
            test_replay_epoch_time_hardened;
        ] );
      ( "hysteresis",
        [ Alcotest.test_case "threshold oscillation does not flap" `Quick
            test_hysteresis_no_flap ] );
      ("rotation", [ Test_seed.to_alcotest rotation_totals_exact ]);
      ("chaos", [ Alcotest.test_case "strategic hook" `Quick test_strategic_hook ]);
    ]
