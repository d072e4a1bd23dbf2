(* The SYN-flood proof ring: bit-for-bit replay determinism of every
   end-to-end scenario setup and the metric names each reports,
   exact-member state transfer under chaos loss, and the accept-backlog
   regression — the cap holds and an uncompleted handshake times out and
   frees its slot. *)

module T = Ff_topology.Topology
module Engine = Ff_netsim.Engine
module Net = Ff_netsim.Net
module Flow = Ff_netsim.Flow
module Packet = Ff_dataplane.Packet
module Cuckoo = Ff_dataplane.Cuckoo
module Transfer = Ff_scaling.Transfer
module Chaos = Ff_chaos.Chaos
module Loss = Ff_scaling.Loss
module Scenario = Fastflex.Scenario
module Report = Fastflex.Report

let ck_count n = if Test_seed.deep then 5 * n else n

(* ---------------- replay determinism ---------------- *)

(* Every scenario setup, shortened. Each draws only from seeded PRNGs and
   per-net counters, so two runs of the same setup in one process must
   produce equal reports, floats and series included. *)
let setups =
  let ff = Scenario.Fastflex Fastflex.Orchestrator.default_config in
  let adversarial ?hardened strategy =
    Scenario.adversarial ~strategy ~adversary:Scenario.Closed_loop ?hardened ~duration:20. ()
  in
  [ ("lfa fastflex", fun () -> Scenario.lfa ~defense:ff ~duration:25. ());
    ( "lfa baseline-sdn",
      fun () ->
        Scenario.lfa ~defense:(Scenario.Baseline_sdn { period = 10.; delay = 0.5 })
          ~duration:25. () );
    ("volumetric defended", fun () -> Scenario.volumetric ~defended:true ~duration:25. ());
    ("volumetric undefended", fun () -> Scenario.volumetric ~defended:false ~duration:25. ());
    ("synflood armed", fun () -> Scenario.synflood ~defended:true ~duration:25. ());
    ("synflood none", fun () -> Scenario.synflood ~defended:false ~duration:25. ());
    ("adversarial hug", fun () -> adversarial Ff_attacks.Adaptive.Threshold_hug);
    ( "adversarial open-loop",
      fun () ->
        Scenario.adversarial ~strategy:Ff_attacks.Adaptive.Collision_probe
          ~adversary:Scenario.Open_loop ~duration:20. () );
    ( "lfa-fluid",
      fun () ->
        Scenario.lfa_fluid ~flows:1_000 ~duration:8. ~cores:6 ~attack_start:2. ~attack_stop:6.
          ~roll_at:4. ~attack_bps_per_flow:150_000_000. () ) ]

let hardened_setups =
  [ ( "synflood armed+hardening",
      fun () -> Scenario.synflood ~defended:true ~hardened:true ~duration:25. () );
    ( "adversarial epoch-time hardened",
      fun () ->
        Scenario.adversarial ~strategy:Ff_attacks.Adaptive.Epoch_time
          ~adversary:Scenario.Closed_loop ~hardened:true ~duration:20. () ) ]

(* one run of every setup, shared by the replay and metric-name checks *)
let first_runs =
  lazy (List.map (fun (name, setup) -> (name, Scenario.run (setup ()))) (setups @ hardened_setups))

let check_replays setups () =
  List.iter
    (fun (name, setup) ->
      let again = Scenario.run (setup ()) in
      Alcotest.(check bool)
        (name ^ " replays bit-for-bit")
        true
        (compare (List.assoc name (Lazy.force first_runs)) again = 0))
    setups

let test_replay_determinism = check_replays setups
let test_hardened_replay_determinism = check_replays hardened_setups

(* The metric names report.mli documents, per scenario: a renamed or
   dropped key fails here rather than in a bench table or the CLI. *)
let documented_metrics =
  let goodput = [ "goodput_baseline"; "goodput_mean"; "goodput_min" ] in
  [ ("lfa", goodput @ [ "rolls"; "reconfigs"; "marked"; "probes" ]);
    ("volumetric", goodput @ [ "hcf_filtered"; "offender_drops"; "alarmed" ]);
    ( "synflood",
      goodput
      @ [ "peak_backlog"; "backlog_drops"; "timeouts"; "established"; "completed"; "failed";
          "syns_sent"; "cookies_sent"; "validated"; "rejected"; "unverified_drops";
          "tracker_occupancy"; "tracker_failed_inserts"; "alarmed" ] );
    ( "adversarial",
      [ "probes"; "damage"; "peak_util"; "effective"; "time_to_effective"; "work_factor";
        "alarms"; "drops"; "rotations"; "fingerprint" ] );
    ( "lfa-fluid",
      goodput
      @ [ "flows"; "classes"; "packet_tx"; "fluid_hop_bytes"; "packet_equivalents";
          "delivered_bytes"; "demoted_peak"; "demoted_frac_peak"; "demotions"; "promotions";
          "demote_denied"; "rolls"; "rate_events"; "solves"; "skipped"; "full_solves";
          "touched_frac"; "loss_cuts"; "max_component" ] ) ]

let test_documented_metrics () =
  List.iter
    (fun (name, (r : Report.t)) ->
      match List.assoc_opt r.Report.scenario documented_metrics with
      | None -> Alcotest.failf "%s: undocumented scenario %S" name r.Report.scenario
      | Some keys ->
        Alcotest.(check (list string))
          (name ^ " metric names")
          (List.sort compare keys)
          (List.sort compare (List.map fst r.Report.metrics)))
    (Lazy.force first_runs)

(* ---------------- listener backlog regression ---------------- *)

let two_hosts () =
  let topo = T.linear ~n:1 () in
  let engine = Engine.create () in
  let net = Net.create engine topo in
  let h0 = (T.node_by_name topo "h0").T.id in
  let h1 = (T.node_by_name topo "h1").T.id in
  let s0 = (T.node_by_name topo "s0").T.id in
  Net.set_route net ~sw:s0 ~dst:h1 ~next_hop:h1;
  Net.set_route net ~sw:s0 ~dst:h0 ~next_hop:h0;
  (engine, net, h0, h1)

let syn net ~src ~dst ~flow =
  Net.send_from_host net
    (Packet.make ~src ~dst ~flow ~birth:(Net.now net) ~payload:Packet.Syn ())

(* The small fix under test: the backlog is a hard cap (SYNs past it are
   refused, not queued), and a half-open entry that never completes its
   handshake expires after [syn_timeout] and frees its slot for reuse. *)
let test_backlog_cap_and_timeout () =
  let engine, net, h0, h1 = two_hosts () in
  let l = Flow.Listener.install net ~host:h1 ~backlog:4 ~syn_timeout:0.5 () in
  Engine.schedule engine ~at:0. (fun () ->
      for flow = 1 to 10 do
        syn net ~src:h0 ~dst:h1 ~flow
      done);
  Engine.run engine ~until:0.3;
  Alcotest.(check int) "backlog capped" 4 (Flow.Listener.half_open_count l);
  Alcotest.(check int) "excess SYNs refused" 6 (Flow.Listener.backlog_drops l);
  Alcotest.(check (float 0.)) "occupancy pegged" 1.0 (Flow.Listener.occupancy l);
  Engine.run engine ~until:2.0;
  Alcotest.(check int) "uncompleted handshakes timed out" 4 (Flow.Listener.timeouts l);
  Alcotest.(check int) "slots freed" 0 (Flow.Listener.half_open_count l);
  Alcotest.(check int) "nothing established" 0 (Flow.Listener.established l);
  (* the freed slots must be reusable *)
  Engine.schedule engine ~at:2.0 (fun () -> syn net ~src:h0 ~dst:h1 ~flow:99);
  Engine.run engine ~until:2.3;
  Alcotest.(check int) "freed slot accepted a new SYN" 1 (Flow.Listener.half_open_count l);
  Alcotest.(check int) "no new refusals" 6 (Flow.Listener.backlog_drops l)

(* A completed handshake must release its half-open slot into
   [established] rather than leaking it until timeout. *)
let test_completed_handshake_frees_slot () =
  let engine, net, h0, h1 = two_hosts () in
  let l = Flow.Listener.install net ~host:h1 ~backlog:4 ~syn_timeout:5.0 () in
  let hs = Flow.Handshake.start net ~src:h0 ~dst:h1 ~conn_interval:100. () in
  Engine.run engine ~until:1.0;
  Alcotest.(check int) "client completed" 1 (Flow.Handshake.completed hs);
  Alcotest.(check int) "server established" 1 (Flow.Listener.established l);
  Alcotest.(check int) "no lingering half-open entry" 0 (Flow.Listener.half_open_count l);
  Alcotest.(check int) "no timeout charged" 0 (Flow.Listener.timeouts l)

(* ---------------- exact-member transfer under chaos ---------------- *)

(* The migration correctness rule: after [send_cuckoo] completes — here
   across a ring whose every switch suffers 30% bursty control-packet
   loss — every member of the source filter answers [member] at the
   destination, and members the destination already held survive the
   union. FEC plus per-group retransmission is what makes "completes"
   reachable under that loss. *)
let prop_transfer_no_false_negatives =
  QCheck2.Test.make ~count:(ck_count 15)
    ~name:"cuckoo state transfer under chaos loss: no false negatives"
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 150) (int_range 1 1_000_000))
        (int_range 1 10_000))
    (fun (keys, seed) ->
      let topo = T.ring ~n:6 () in
      let engine = Engine.create () in
      let net = Net.create engine topo in
      let h = Chaos.create ~seed net in
      List.iter
        (fun sw ->
          ignore
            (Chaos.burst_loss h ~sw ~start:0. ~until:infinity ~loss:0.3 ~mean_burst:2.
               ~classes:Loss.Control_only ()))
        (Net.switch_ids net);
      let src = Cuckoo.create ~capacity:512 () in
      let dst = Cuckoo.create ~capacity:512 () in
      let pre = [ 0x5A5A5A; 0xA5A5A5 ] in
      List.iter (fun k -> ignore (Cuckoo.insert dst k)) pre;
      List.iter (fun k -> ignore (Cuckoo.insert src k)) keys;
      let complete = ref false in
      (* 30% bursty loss at every one of the 4-5 switches a chunk+ack
         round-trip crosses defeats the default 10-retry budget a few
         percent of the time; the property under test is the union rule,
         not the retry budget, so give the transfer room to finish *)
      let _x =
        Transfer.send_cuckoo net ~src_sw:0 ~dst_sw:3 ~cuckoo:src ~into:dst ~seed
          ~max_retries:40
          ~on_complete:(fun () -> complete := true)
          ()
      in
      Engine.run engine ~until:240.;
      !complete
      && List.for_all (Cuckoo.member dst) keys
      && List.for_all (Cuckoo.member dst) pre)

(* The wire encoding itself is lossless, chaos or not. *)
let prop_wire_roundtrip =
  QCheck2.Test.make ~count:(ck_count 50)
    ~name:"cuckoo wire entries round-trip the snapshot"
    QCheck2.Gen.(list_size (int_range 0 200) (int_range 1 1_000_000))
    (fun keys ->
      let c = Cuckoo.create ~capacity:512 () in
      List.iter (fun k -> ignore (Cuckoo.insert c k)) keys;
      let snap = Cuckoo.serialize c in
      Transfer.cuckoo_snapshot_of_entries (Transfer.cuckoo_wire_entries snap) = snap)

let () =
  Alcotest.run "synflood"
    [
      ( "scenario",
        [
          Alcotest.test_case "replay determinism" `Slow test_replay_determinism;
          Alcotest.test_case "hardened replay determinism" `Slow
            test_hardened_replay_determinism;
          Alcotest.test_case "documented metric names" `Slow test_documented_metrics;
        ] );
      ( "listener",
        [
          Alcotest.test_case "backlog cap + half-open timeout" `Quick
            test_backlog_cap_and_timeout;
          Alcotest.test_case "completed handshake frees its slot" `Quick
            test_completed_handshake_frees_slot;
        ] );
      ( "transfer",
        List.map Test_seed.to_alcotest
          [ prop_transfer_no_false_negatives; prop_wire_roundtrip ] );
    ]
