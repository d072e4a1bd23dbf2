(* Tests for Ff_boosters: each defense app exercised on a live simulated
   network. *)

module T = Ff_topology.Topology
module Engine = Ff_netsim.Engine
module Net = Ff_netsim.Net
module Flow = Ff_netsim.Flow
module Packet = Ff_dataplane.Packet
module B = Ff_boosters

let install_all_routes net topo =
  let hosts = T.hosts topo in
  List.iter
    (fun (h1 : T.node) ->
      List.iter
        (fun (h2 : T.node) ->
          if h1.T.id <> h2.T.id then
            match T.shortest_path topo ~src:h1.T.id ~dst:h2.T.id with
            | Some p -> Net.install_path net ~dst:h2.T.id p
            | None -> ())
        hosts)
    hosts

let fig2_net () =
  let lm = T.Fig2.build ~bots:8 ~normals:4 () in
  let engine = Engine.create () in
  let net = Net.create engine lm.T.Fig2.topo in
  install_all_routes net lm.T.Fig2.topo;
  (lm, engine, net)

(* ---------------- Common ---------------- *)

let test_mode_vars () =
  let _, _, net = fig2_net () in
  let sw = Net.switch net (List.hd (Net.switch_ids net)) in
  Alcotest.(check bool) "off by default" false (B.Common.mode_active sw "reroute");
  B.Common.set_mode sw "reroute" true;
  Alcotest.(check bool) "on" true (B.Common.mode_active sw "reroute");
  B.Common.set_mode sw "reroute" false;
  Alcotest.(check bool) "off" false (B.Common.mode_active sw "reroute");
  (* each mode is its own bit: clearing one leaves another set *)
  B.Common.set_mode sw "reroute" true;
  B.Common.set_mode sw "drop" true;
  B.Common.set_mode sw "reroute" false;
  Alcotest.(check bool) "others stay on" true (B.Common.mode_active sw "drop")

(* ---------------- LFA detector ---------------- *)

let detector_on_fig2 ?(suspicious_rate = 1_500_000.) ?(min_age = 0.5) (lm : T.Fig2.landmarks)
    net =
  let watched =
    List.map
      (fun (l : T.link) ->
        if l.T.a = lm.T.Fig2.agg then (l.T.a, l.T.b) else (l.T.b, l.T.a))
      lm.T.Fig2.critical
  in
  let alarms = ref [] and clears = ref [] in
  let det =
    B.Lfa_detector.install net ~sw:lm.T.Fig2.agg ~watched ~suspicious_rate ~min_age
      ~dst_flows_min:8
      ~on_alarm:(fun a -> alarms := a :: !alarms)
      ~on_clear:(fun a -> clears := a :: !clears)
      ()
  in
  (det, alarms, clears)

let test_detector_alarms_on_flood () =
  let lm, engine, net = fig2_net () in
  let det, alarms, _ = detector_on_fig2 lm net in
  (* bots flood decoy1 through agg->m1 *)
  let decoy = List.hd lm.T.Fig2.decoys in
  List.iter
    (fun bot -> ignore (Flow.Cbr.start net ~src:bot ~dst:decoy ~rate_pps:200. ()))
    lm.T.Fig2.bot_sources;
  Engine.run engine ~until:5.;
  Alcotest.(check bool) "alarmed" true (B.Lfa_detector.alarmed det);
  (match !alarms with
  | { B.Lfa_detector.switch; attack } :: _ ->
    Alcotest.(check int) "at agg" lm.T.Fig2.agg switch;
    Alcotest.(check bool) "lfa kind" true (attack = Packet.Lfa)
  | [] -> Alcotest.fail "no alarm");
  Alcotest.(check bool) "tracks flows" true (B.Lfa_detector.tracked_flows det >= 8)

let test_detector_quiet_without_attack () =
  let lm, engine, net = fig2_net () in
  let det, alarms, _ = detector_on_fig2 lm net in
  List.iter
    (fun n -> ignore (Flow.Tcp.start net ~src:n ~dst:lm.T.Fig2.victim ~max_cwnd:4. ()))
    lm.T.Fig2.normal_sources;
  Engine.run engine ~until:5.;
  Alcotest.(check bool) "no alarm" false (B.Lfa_detector.alarmed det);
  Alcotest.(check int) "no alarms" 0 (List.length !alarms)

let test_detector_classifies_crossfire_not_normal () =
  let lm, engine, net = fig2_net () in
  let det, _, _ = detector_on_fig2 lm net in
  (* normal: 4 distinct-destination... all to victim, but only 4 flows *)
  let normal_flows =
    List.map
      (fun n -> Flow.Tcp.start net ~src:n ~dst:lm.T.Fig2.victim ~max_cwnd:4. ())
      lm.T.Fig2.normal_sources
  in
  (* crossfire: 24 low-rate flows to one decoy *)
  let decoy = List.hd lm.T.Fig2.decoys in
  let bot_flows =
    List.concat_map
      (fun bot ->
        List.init 3 (fun _ -> Flow.Tcp.start net ~src:bot ~dst:decoy ~max_cwnd:4. ()))
      lm.T.Fig2.bot_sources
  in
  Engine.run engine ~until:8.;
  let suspicious = B.Lfa_detector.suspicious_flows det in
  let bot_ids = List.map Flow.Tcp.flow_id bot_flows in
  let normal_ids = List.map Flow.Tcp.flow_id normal_flows in
  let bot_caught = List.filter (fun f -> List.mem f suspicious) bot_ids in
  let normal_caught = List.filter (fun f -> List.mem f suspicious) normal_ids in
  Alcotest.(check bool) "most bot flows caught" true
    (List.length bot_caught > List.length bot_ids / 2);
  Alcotest.(check int) "no normal flow caught" 0 (List.length normal_caught);
  Alcotest.(check bool) "bots are suspicious sources" true
    (List.exists (fun b -> B.Lfa_detector.is_suspicious_source det b) lm.T.Fig2.bot_sources)

let test_detector_clears_when_attack_stops () =
  let lm, engine, net = fig2_net () in
  let det, _, clears =
    detector_on_fig2 ~suspicious_rate:1_500_000. ~min_age:0.5 lm net
  in
  let decoy = List.hd lm.T.Fig2.decoys in
  let flows =
    List.concat_map
      (fun bot ->
        List.init 3 (fun _ ->
            Flow.Tcp.start net ~src:bot ~dst:decoy ~max_cwnd:4. ~stop:6. ()))
      lm.T.Fig2.bot_sources
  in
  ignore flows;
  Engine.run engine ~until:15.;
  Alcotest.(check bool) "cleared after attack subsides" true (List.length !clears >= 1);
  Alcotest.(check bool) "not alarmed at end" false (B.Lfa_detector.alarmed det)

(* ---------------- LFA detector: fan-in rules ---------------- *)

(* A detector on fig2's agg switch with no watched links: it never alarms,
   so it never clears its marks, and classification follows the classify
   mode on the switch alone. Packets go straight into the switch through
   [Net.inject_at_switch], so their timing is exact. *)
let bare_detector ?(min_age = 0.5) ?(suspicious_rate = 1_500_000.) ?(dst_flows_min = 8) () =
  let lm, engine, net = fig2_net () in
  let sw = lm.T.Fig2.agg in
  let det =
    B.Lfa_detector.install net ~sw ~watched:[] ~min_age ~suspicious_rate ~dst_flows_min
      ~on_alarm:ignore ~on_clear:ignore ()
  in
  (lm, engine, net, det)

let set_classify engine net ~sw ~at on =
  Engine.schedule engine ~at (fun () ->
      B.Common.set_mode (Net.switch net sw) B.Common.mode_classify on)

let inject engine net ~sw ~at ~src ~dst ~flow ~size =
  Engine.schedule engine ~at (fun () ->
      Net.inject_at_switch net ~sw
        (Packet.make_data ~size ~seq:0 ~ttl:64 ~src ~dst ~flow ~birth:at))

(* Flows 1..[flows] toward [dst], one 500-byte packet every 0.1 s each
   (40 kb/s, far below the suspicious rate), flow [f] sending while
   [sends f at]. *)
let steady_flows ?(sends = fun _ _ -> true) engine net (lm : T.Fig2.landmarks) ~dst ~flows ~until =
  let src = List.hd lm.T.Fig2.bot_sources in
  for flow = 1 to flows do
    let at = ref (0.013 +. (0.001 *. float_of_int flow)) in
    while !at <= until do
      if sends flow !at then inject engine net ~sw:lm.T.Fig2.agg ~at:!at ~src ~dst ~flow ~size:500;
      at := !at +. 0.1
    done
  done

let test_fanin_marks_eight () =
  let lm, engine, net, det = bare_detector () in
  set_classify engine net ~sw:lm.T.Fig2.agg ~at:0. true;
  steady_flows engine net lm ~dst:(List.hd lm.T.Fig2.decoys) ~flows:8 ~until:3.;
  Engine.run engine ~until:3.;
  Alcotest.(check (list int)) "all eight marked" (List.init 8 succ)
    (B.Lfa_detector.suspicious_flows det);
  Alcotest.(check bool) "packets marked" true (B.Lfa_detector.marks det > 0)

let test_fanin_spares_seven () =
  let lm, engine, net, det = bare_detector () in
  set_classify engine net ~sw:lm.T.Fig2.agg ~at:0. true;
  steady_flows engine net lm ~dst:(List.hd lm.T.Fig2.decoys) ~flows:7 ~until:3.;
  Engine.run engine ~until:3.;
  Alcotest.(check (list int)) "none marked" [] (B.Lfa_detector.suspicious_flows det);
  Alcotest.(check int) "no packet marked" 0 (B.Lfa_detector.marks det);
  Alcotest.(check int) "all tracked" 7 (B.Lfa_detector.tracked_flows det)

let test_fanin_forgets_silent_flow () =
  let lm, engine, net, det = bare_detector () in
  let sw = lm.T.Fig2.agg in
  (* flow 8 falls silent after 0.5 s; by the time classification starts
     at 3 s it has been quiet for over 2 s, leaving a fan-in of 7 *)
  steady_flows engine net lm ~dst:(List.hd lm.T.Fig2.decoys) ~flows:8 ~until:4.
    ~sends:(fun f at -> f < 8 || at < 0.5);
  set_classify engine net ~sw ~at:3. true;
  Engine.run engine ~until:3.4;
  Alcotest.(check (list int)) "silent flow not counted" [] (B.Lfa_detector.suspicious_flows det);
  Alcotest.(check int) "still tracked" 8 (B.Lfa_detector.tracked_flows det);
  (* one packet brings it back into the next check's fan-in *)
  inject engine net ~sw ~at:3.45 ~src:(List.hd lm.T.Fig2.bot_sources)
    ~dst:(List.hd lm.T.Fig2.decoys) ~flow:8 ~size:500;
  Engine.run engine ~until:4.;
  Alcotest.(check (list int)) "counted again once it sends" (List.init 7 succ)
    (B.Lfa_detector.suspicious_flows det)

let test_fanin_out_of_range_dst () =
  let lm, engine, net, det = bare_detector () in
  set_classify engine net ~sw:lm.T.Fig2.agg ~at:0. true;
  (* a destination id past the last node: the switch has no route for it,
     but the detector still counts its fan-in *)
  let dst = T.num_nodes lm.T.Fig2.topo + 5 in
  steady_flows engine net lm ~dst ~flows:8 ~until:3.;
  Engine.run engine ~until:3.;
  Alcotest.(check (list int)) "all eight marked" (List.init 8 succ)
    (B.Lfa_detector.suspicious_flows det)

(* ---------------- LFA detector: reference model ---------------- *)

(* The detector's flow rules restated over plain Hashtbls: rate over 0.5 s
   windows, fan-in recounted at every check from the flows seen in the
   last 2 s toward each first-seen destination, and a flow marked (for
   good, as nothing alarms here) once it is old, slow and on a wide
   enough fan-in. *)
module Model = struct
  type flow = {
    first_seen : float;
    dst : int;
    mutable last_seen : float;
    mutable rate : float;
    mutable window_start : float;
    mutable window_bytes : float;
    mutable suspicious : bool;
  }

  type t = {
    min_age : float;
    suspicious_rate : float;
    dst_flows_min : int;
    flows : (int, flow) Hashtbl.t;
    fanin : (int, int) Hashtbl.t;
    srcs : (int, unit) Hashtbl.t;
    mutable marks : int;
  }

  let create ~min_age ~suspicious_rate ~dst_flows_min =
    { min_age; suspicious_rate; dst_flows_min; flows = Hashtbl.create 16;
      fanin = Hashtbl.create 16; srcs = Hashtbl.create 16; marks = 0 }

  let packet m now ~src ~dst ~flow ~size =
    let r =
      match Hashtbl.find_opt m.flows flow with
      | Some r -> r
      | None ->
        let r =
          { first_seen = now; dst; last_seen = now; rate = 0.; window_start = now;
            window_bytes = 0.; suspicious = false }
        in
        Hashtbl.replace m.flows flow r;
        r
    in
    r.window_bytes <- r.window_bytes +. float_of_int size;
    let elapsed = now -. r.window_start in
    if elapsed >= 0.5 then begin
      r.rate <- r.window_bytes *. 8. /. elapsed;
      r.window_start <- now;
      r.window_bytes <- 0.
    end;
    r.last_seen <- now;
    let fanin = Option.value (Hashtbl.find_opt m.fanin r.dst) ~default:0 in
    if
      now -. r.first_seen >= m.min_age && r.rate > 0. && r.rate < m.suspicious_rate
      && fanin >= m.dst_flows_min
    then begin
      r.suspicious <- true;
      Hashtbl.replace m.srcs src ()
    end;
    if r.suspicious then m.marks <- m.marks + 1

  let check m now =
    Hashtbl.reset m.fanin;
    Hashtbl.iter
      (fun _ r ->
        if now -. r.last_seen < 2.0 then
          Hashtbl.replace m.fanin r.dst
            (1 + Option.value (Hashtbl.find_opt m.fanin r.dst) ~default:0))
      m.flows
end

let agrees_with_model det (m : Model.t) ~srcs now =
  let fail fmt = QCheck.Test.fail_reportf ("t=%.4f: " ^^ fmt) now in
  if B.Lfa_detector.tracked_flows det <> Hashtbl.length m.flows then
    fail "tracked %d, model %d" (B.Lfa_detector.tracked_flows det) (Hashtbl.length m.flows);
  Hashtbl.iter
    (fun f (r : Model.flow) ->
      let rate = B.Lfa_detector.flow_rate det f in
      if not (Float.equal rate r.rate) then fail "flow %d: rate %h, model %h" f rate r.rate)
    m.flows;
  let want =
    Hashtbl.fold (fun f (r : Model.flow) acc -> if r.suspicious then f :: acc else acc) m.flows []
    |> List.sort compare
  in
  if B.Lfa_detector.suspicious_flows det <> want then
    fail "suspicious [%s], model [%s]"
      (String.concat ";" (List.map string_of_int (B.Lfa_detector.suspicious_flows det)))
      (String.concat ";" (List.map string_of_int want));
  if B.Lfa_detector.marks det <> m.marks then
    fail "marks %d, model %d" (B.Lfa_detector.marks det) m.marks;
  List.iter
    (fun s ->
      if B.Lfa_detector.is_suspicious_source det s <> Hashtbl.mem m.srcs s then
        fail "source %d disagrees" s)
    srcs

(* Random streams over 12 reused flow ids and four destinations, one of
   them past the last node id. A flow keeps the destination of its first
   packet, though a quarter of its packets name the next one over; a gap
   class of 0 is a pause of over 2 s, long enough to drop every flow out
   of the fan-in. *)
let prop_detector_matches_model =
  QCheck.Test.make ~name:"lfa detector matches its hashtable model" ~count:60 ~long_factor:5
    QCheck.(
      list_of_size (Gen.int_range 50 400)
        (quad (int_bound 40) (int_range 1 12) (int_bound 3) (int_range 64 1500)))
    (fun steps ->
      let min_age = 0.3 and suspicious_rate = 40_000. and dst_flows_min = 3 in
      let lm, engine, net, det = bare_detector ~min_age ~suspicious_rate ~dst_flows_min () in
      let sw = lm.T.Fig2.agg in
      B.Common.set_mode (Net.switch net sw) B.Common.mode_classify true;
      let m = Model.create ~min_age ~suspicious_rate ~dst_flows_min in
      let dsts =
        [| List.hd lm.T.Fig2.decoys; lm.T.Fig2.victim; List.hd lm.T.Fig2.normal_sources;
           T.num_nodes lm.T.Fig2.topo + 3 |]
      in
      let srcs = Array.of_list lm.T.Fig2.bot_sources in
      (* registered after the detector's own check, so at equal times it
         runs right after it (FIFO ties) *)
      Engine.every engine ~period:0.05 (fun () ->
          let now = Engine.now engine in
          Model.check m now;
          agrees_with_model det m ~srcs:(Array.to_list srcs) now);
      let at =
        List.fold_left
          (fun at (gap, flow, shift, size) ->
            let at =
              at +. if gap = 0 then 2.1 +. (0.0007 *. float_of_int size)
                    else 0.0007 *. float_of_int gap
            in
            let dst = dsts.((flow + if shift = 0 then 1 else 0) mod Array.length dsts) in
            let src = srcs.(flow mod Array.length srcs) in
            inject engine net ~sw ~at ~src ~dst ~flow ~size;
            Engine.schedule engine ~at (fun () -> Model.packet m at ~src ~dst ~flow ~size);
            at)
          0.01 steps
      in
      Engine.run engine ~until:(at +. 0.1);
      true)

(* ---------------- Reroute ---------------- *)

let test_reroute_probes_build_tables () =
  let lm, engine, net = fig2_net () in
  let rr = B.Reroute.install net ~roots:[ lm.T.Fig2.victim ] ~probe_interval:0.05 () in
  (* activate the mode on every switch so probing starts *)
  List.iter (fun sw -> B.Common.set_mode (Net.switch net sw) "reroute" true) (Net.switch_ids net);
  Engine.run engine ~until:2.;
  Alcotest.(check bool) "probes flowed" true (B.Reroute.probes_sent rr > 10);
  (* agg must know a next hop toward the victim *)
  match B.Reroute.best_next_hop rr ~sw:lm.T.Fig2.agg ~dst:lm.T.Fig2.victim with
  | Some nh ->
    Alcotest.(check bool) "plausible next hop" true
      (List.mem nh (Net.neighbors_of net lm.T.Fig2.agg))
  | None -> Alcotest.fail "no table entry at agg"

let test_reroute_prefers_uncongested () =
  let lm, engine, net = fig2_net () in
  let rr = B.Reroute.install net ~roots:[ lm.T.Fig2.victim ] ~probe_interval:0.05 () in
  List.iter (fun sw -> B.Common.set_mode (Net.switch net sw) "reroute" true) (Net.switch_ids net);
  (* congest agg->m1 with decoy1 CBR traffic *)
  let decoy = List.hd lm.T.Fig2.decoys in
  List.iter
    (fun bot -> ignore (Flow.Cbr.start net ~src:bot ~dst:decoy ~rate_pps:200. ()))
    lm.T.Fig2.bot_sources;
  Engine.run engine ~until:3.;
  (* the best path toward the victim must avoid the middle switch the decoy
     flood actually crosses *)
  let congested_mid =
    match Net.current_path net ~src:(List.hd lm.T.Fig2.bot_sources) ~dst:decoy with
    | Some path -> List.nth path 3
    | None -> Alcotest.fail "no decoy path"
  in
  (match B.Reroute.best_next_hop rr ~sw:lm.T.Fig2.agg ~dst:lm.T.Fig2.victim with
  | Some nh -> Alcotest.(check bool) "avoids congested link" true (nh <> congested_mid)
  | None -> Alcotest.fail "no entry");
  match B.Reroute.best_metric rr ~sw:lm.T.Fig2.agg ~dst:lm.T.Fig2.victim with
  | Some m -> Alcotest.(check bool) "low metric" true (m < 0.5)
  | None -> Alcotest.fail "no metric"

let test_reroute_steers_marked_packets () =
  let lm, engine, net = fig2_net () in
  let _rr = B.Reroute.install net ~roots:[ lm.T.Fig2.victim ] ~probe_interval:0.05 () in
  List.iter (fun sw -> B.Common.set_mode (Net.switch net sw) "reroute" true) (Net.switch_ids net);
  (* a marking stage at the source edges makes all data suspicious *)
  let mark =
    { Net.stage_name = "mark-all";
      process =
        (fun _ pkt ->
          (match pkt.Packet.payload with
          | Packet.Data -> pkt.Packet.suspicious <- true
          | _ -> ());
          Net.Continue) }
  in
  List.iter
    (fun name -> Net.add_stage net ~sw:(T.node_by_name lm.T.Fig2.topo name).T.id mark)
    [ "e1"; "e2" ];
  let f = Flow.Tcp.start net ~src:(List.hd lm.T.Fig2.normal_sources) ~dst:lm.T.Fig2.victim () in
  Engine.run engine ~until:3.;
  Alcotest.(check bool) "rerouted packets counted" true (B.Reroute.reroutes _rr > 0);
  Alcotest.(check bool) "traffic still delivered" true (Flow.Tcp.delivered_bytes f > 100_000.)

(* ---------------- Obfuscator ---------------- *)

let test_obfuscator_rewrites_traceroute () =
  let lm, engine, net = fig2_net () in
  let topo = lm.T.Fig2.topo in
  let bot = List.hd lm.T.Fig2.bot_sources in
  let decoy = List.hd lm.T.Fig2.decoys in
  (* virtual topology: pretend every hop is the aggregation switch *)
  let fake_path ~src:_ ~dst:_ = Some (List.init 10 (fun _ -> lm.T.Fig2.agg)) in
  let ob = B.Obfuscator.install net ~virtual_path:fake_path () in
  (* obfuscation off: see the real path *)
  let real = ref [] in
  Flow.Traceroute.run net ~src:bot ~dst:decoy ~on_done:(fun h -> real := h) ();
  Engine.run engine ~until:2.;
  (* obfuscation on everywhere: all switch hops must answer as agg *)
  List.iter (fun sw -> B.Common.set_mode (Net.switch net sw) "obfuscate" true) (Net.switch_ids net);
  let fake = ref [] in
  Flow.Traceroute.run net ~src:bot ~dst:decoy ~on_done:(fun h -> fake := h) ();
  Engine.run engine ~until:4.;
  Alcotest.(check bool) "real path has distinct hops" true
    (List.length (List.sort_uniq compare (List.map snd !real)) > 2);
  let fake_switch_hops = List.filter (fun (_, r) -> r <> decoy) !fake in
  Alcotest.(check bool) "some hops obfuscated" true (List.length fake_switch_hops > 0);
  List.iter
    (fun (_, r) ->
      Alcotest.(check string) "answered as agg" "agg" (T.node topo r).T.name)
    fake_switch_hops;
  Alcotest.(check bool) "replies counted" true (B.Obfuscator.obfuscated_replies ob > 0)

(* ---------------- Dropper ---------------- *)

let test_dropper_rate_limits_suspicious () =
  let lm, engine, net = fig2_net () in
  let dr = B.Dropper.install net ~sw:lm.T.Fig2.agg ~rate_limit:200_000. ~drop_prob:0. () in
  B.Common.set_mode (Net.switch net lm.T.Fig2.agg) "drop" true;
  let mark =
    { Net.stage_name = "mark-all";
      process =
        (fun _ pkt ->
          (match pkt.Packet.payload with
          | Packet.Data -> pkt.Packet.suspicious <- true
          | _ -> ());
          Net.Continue) }
  in
  (* mark before the dropper runs: install at the upstream edge *)
  List.iter
    (fun name -> Net.add_stage net ~sw:(T.node_by_name lm.T.Fig2.topo name).T.id mark)
    [ "e1"; "e2" ];
  let f =
    Flow.Cbr.start net ~src:(List.hd lm.T.Fig2.bot_sources) ~dst:(List.hd lm.T.Fig2.decoys)
      ~rate_pps:200. ()
  in
  Engine.run engine ~until:5.;
  (* offered 1.6 Mb/s, limited to 200 kb/s = 25 kB/s *)
  Alcotest.(check bool) "dropped most" true (B.Dropper.dropped dr > 500);
  Alcotest.(check bool) "throughput near the limit" true
    (Flow.Cbr.delivered_bytes f < 350_000.);
  Alcotest.(check int) "one meter" 1 (B.Dropper.metered_flows dr)

let test_dropper_spares_normal () =
  let lm, engine, net = fig2_net () in
  let dr = B.Dropper.install net ~sw:lm.T.Fig2.agg ~rate_limit:200_000. ~drop_prob:0.5 () in
  B.Common.set_mode (Net.switch net lm.T.Fig2.agg) "drop" true;
  let f =
    Flow.Cbr.start net ~src:(List.hd lm.T.Fig2.normal_sources) ~dst:lm.T.Fig2.victim
      ~rate_pps:200. ()
  in
  Engine.run engine ~until:5.;
  Alcotest.(check int) "unmarked traffic untouched" 0 (B.Dropper.dropped dr);
  Alcotest.(check bool) "full throughput" true (Flow.Cbr.delivered_bytes f > 900_000.)

(* ---------------- Heavy hitter ---------------- *)

let test_heavy_hitter_detects_volumetric () =
  let lm, engine, net = fig2_net () in
  let alarms = ref [] in
  let hh =
    B.Heavy_hitter.install net ~sw:lm.T.Fig2.agg ~epoch:0.5 ~threshold_bps:3_000_000.
      ~on_alarm:(fun a -> alarms := a :: !alarms)
      ~on_clear:(fun _ -> ())
      ()
  in
  (* one elephant at ~6.4 Mb/s among mice *)
  let elephant =
    Flow.Cbr.start net ~src:(List.hd lm.T.Fig2.bot_sources) ~dst:lm.T.Fig2.victim
      ~rate_pps:800. ()
  in
  List.iter
    (fun n -> ignore (Flow.Cbr.start net ~src:n ~dst:lm.T.Fig2.victim ~rate_pps:10. ()))
    lm.T.Fig2.normal_sources;
  (* stop mid-epoch so the live HashPipe still holds this epoch's counts *)
  Engine.run engine ~until:3.75;
  Alcotest.(check bool) "alarmed" true (B.Heavy_hitter.alarmed hh);
  (match !alarms with
  | { B.Lfa_detector.attack; _ } :: _ ->
    Alcotest.(check bool) "volumetric kind" true (attack = Packet.Volumetric)
  | [] -> Alcotest.fail "no alarm");
  Alcotest.(check bool) "elephant among offenders" true
    (List.mem (Flow.Cbr.flow_id elephant) (B.Heavy_hitter.offenders hh));
  (* top-k exposes it too *)
  match B.Heavy_hitter.top hh ~k:1 with
  | (k, _) :: _ -> Alcotest.(check int) "top flow" (Flow.Cbr.flow_id elephant) k
  | [] -> Alcotest.fail "empty top"

(* ---------------- Hop-count filter ---------------- *)

let test_hcf_filters_spoofed () =
  let lm, engine, net = fig2_net () in
  let hcf = B.Hop_count_filter.install net ~sw:lm.T.Fig2.agg ~tolerance:2 () in
  let normal = List.hd lm.T.Fig2.normal_sources in
  (* learning phase: legitimate traffic from [normal] *)
  ignore (Flow.Cbr.start net ~src:normal ~dst:lm.T.Fig2.victim ~rate_pps:50. ());
  Engine.run engine ~until:2.;
  B.Common.set_mode (Net.switch net lm.T.Fig2.agg) "hcf" true;
  (* a bot spoofing [normal]'s address with a wrong initial TTL *)
  let spoofed =
    Flow.Cbr.start net ~src:normal ~dst:lm.T.Fig2.victim ~rate_pps:50. ~ttl:32
      ~via:(List.hd lm.T.Fig2.bot_sources) ()
  in
  Engine.run engine ~until:4.;
  Alcotest.(check bool) "spoofed filtered" true (B.Hop_count_filter.filtered hcf > 50);
  Alcotest.(check bool) "spoofed delivery suppressed" true
    (Flow.Cbr.delivered_bytes spoofed < 30_000.);
  Alcotest.(check bool) "learned sources" true (B.Hop_count_filter.learned_sources hcf >= 1)

(* ---------------- Global rate limit ---------------- *)

let test_grl_converges_to_limit () =
  let lm, engine, net = fig2_net () in
  let topo = lm.T.Fig2.topo in
  let e1 = (T.node_by_name topo "e1").T.id and e2 = (T.node_by_name topo "e2").T.id in
  let grl = B.Global_rate_limit.install net ~participants:[ e1; e2 ] ~sync_period:0.2 () in
  List.iter (fun sw -> B.Common.set_mode (Net.switch net sw) "grl" true) [ e1; e2 ];
  (* one tenant entering at two different switches, 2 Mb/s each, 2 Mb/s cap *)
  let tenant = 1 in
  B.Global_rate_limit.set_limit grl ~tenant 2_000_000.;
  let senders = List.filteri (fun i _ -> i < 2) lm.T.Fig2.bot_sources in
  List.iter (fun src -> B.Global_rate_limit.assign grl ~src ~tenant) senders;
  let flows =
    List.map
      (fun src -> Flow.Cbr.start net ~src ~dst:lm.T.Fig2.victim ~rate_pps:250. ())
      senders
  in
  Engine.run engine ~until:10.;
  let delivered = List.fold_left (fun acc f -> acc +. Flow.Cbr.delivered_bytes f) 0. flows in
  let rate_bps = delivered *. 8. /. 10. in
  (* offered 4 Mb/s; policed near the 2 Mb/s global cap *)
  Alcotest.(check bool) "held near global limit" true
    (rate_bps < 2_600_000. && rate_bps > 1_200_000.);
  Alcotest.(check bool) "dropped some" true (B.Global_rate_limit.dropped grl > 100);
  Alcotest.(check bool) "synced" true (B.Global_rate_limit.sync_probes grl > 10);
  (* each participant's view includes the remote share *)
  Alcotest.(check bool) "global view at e1 exceeds local" true
    (B.Global_rate_limit.global_rate grl ~sw:e1 ~tenant
     > B.Global_rate_limit.local_rate grl ~sw:e1 ~tenant +. 100_000.)

let test_reroute_loop_free () =
  (* steer ALL data through the probe tables and verify with the packet
     tracer that no packet ever revisits a switch *)
  let lm, engine, net = fig2_net () in
  let _rr =
    B.Reroute.install net ~roots:[ lm.T.Fig2.victim ] ~probe_interval:0.05 ~reroute_all:true ()
  in
  List.iter (fun sw -> B.Common.set_mode (Net.switch net sw) "reroute" true) (Net.switch_ids net);
  (* congestion to force the probes onto changing paths *)
  List.iter
    (fun bot ->
      ignore (Flow.Cbr.start net ~src:bot ~dst:(List.hd lm.T.Fig2.decoys) ~rate_pps:150. ()))
    lm.T.Fig2.bot_sources;
  let f = Flow.Tcp.start net ~src:(List.hd lm.T.Fig2.normal_sources) ~dst:lm.T.Fig2.victim () in
  let events = Net.trace_flow net ~flow:(Flow.Tcp.flow_id f) in
  Engine.run engine ~until:5.;
  (* group switch arrivals by packet uid: each packet visits each switch
     at most once *)
  let visits = Hashtbl.create 1024 in
  List.iter
    (fun (e : Net.trace_event) ->
      match e.Net.kind with
      | Net.Switch_arrival ->
        let key = (e.Net.uid, e.Net.node) in
        Hashtbl.replace visits key (1 + (try Hashtbl.find visits key with Not_found -> 0))
      | _ -> ())
    !events;
  Hashtbl.iter
    (fun (uid, node) n ->
      if n > 1 then
        Alcotest.failf "packet %d visited switch %d %d times (forwarding loop)" uid node n)
    visits;
  Alcotest.(check bool) "traffic flowed" true (Flow.Tcp.delivered_bytes f > 100_000.)

(* ---------------- Network-wide heavy hitter ---------------- *)

let test_nwhh_detects_distributed_flood () =
  let lm, engine, net = fig2_net () in
  let topo = lm.T.Fig2.topo in
  let e1 = (T.node_by_name topo "e1").T.id and e2 = (T.node_by_name topo "e2").T.id in
  let alarms = ref [] in
  let nw =
    B.Network_wide_hh.install net ~ingresses:[ e1; e2 ] ~threshold_bps:6_000_000.
      ~on_alarm:(fun a -> alarms := a :: !alarms)
      ~on_clear:(fun _ -> ())
      ()
  in
  (* 8 bots at ~1 Mb/s each toward the victim: under 4 Mb/s at either
     ingress, 8 Mb/s network-wide *)
  List.iter
    (fun bot ->
      ignore (Flow.Cbr.start net ~src:bot ~dst:lm.T.Fig2.victim ~rate_pps:125. ()))
    lm.T.Fig2.bot_sources;
  Engine.run engine ~until:5.;
  (* locally invisible... *)
  Alcotest.(check bool) "local rate below threshold" true
    (B.Network_wide_hh.local_rate nw ~sw:e1 ~dst:lm.T.Fig2.victim < 6_000_000.);
  (* ...globally glaring *)
  Alcotest.(check bool) "global rate above threshold" true
    (B.Network_wide_hh.global_rate nw ~sw:e1 ~dst:lm.T.Fig2.victim > 6_000_000.);
  Alcotest.(check bool) "alarmed" true (B.Network_wide_hh.alarmed nw);
  Alcotest.(check bool) "victim among offenders" true
    (List.mem lm.T.Fig2.victim (B.Network_wide_hh.offenders nw));
  Alcotest.(check bool) "volumetric kind" true
    (match !alarms with
    | { B.Lfa_detector.attack; _ } :: _ -> attack = Packet.Volumetric
    | [] -> false);
  Alcotest.(check bool) "sync probes flowed" true (B.Network_wide_hh.sync_probes nw > 5)

let test_nwhh_quiet_under_local_threshold () =
  let lm, engine, net = fig2_net () in
  let topo = lm.T.Fig2.topo in
  let e1 = (T.node_by_name topo "e1").T.id and e2 = (T.node_by_name topo "e2").T.id in
  let nw =
    B.Network_wide_hh.install net ~ingresses:[ e1; e2 ] ~threshold_bps:6_000_000.
      ~on_alarm:(fun _ -> ()) ~on_clear:(fun _ -> ()) ()
  in
  (* modest legitimate traffic only *)
  List.iter
    (fun n -> ignore (Flow.Cbr.start net ~src:n ~dst:lm.T.Fig2.victim ~rate_pps:60. ()))
    lm.T.Fig2.normal_sources;
  Engine.run engine ~until:5.;
  Alcotest.(check bool) "no alarm" false (B.Network_wide_hh.alarmed nw);
  Alcotest.(check (list int)) "no offenders" [] (B.Network_wide_hh.offenders nw)

let test_nwhh_clears_after_flood () =
  let lm, engine, net = fig2_net () in
  let topo = lm.T.Fig2.topo in
  let e1 = (T.node_by_name topo "e1").T.id and e2 = (T.node_by_name topo "e2").T.id in
  let clears = ref 0 in
  let nw =
    B.Network_wide_hh.install net ~ingresses:[ e1; e2 ] ~threshold_bps:6_000_000.
      ~on_alarm:(fun _ -> ())
      ~on_clear:(fun _ -> incr clears)
      ()
  in
  List.iter
    (fun bot ->
      ignore (Flow.Cbr.start net ~src:bot ~dst:lm.T.Fig2.victim ~rate_pps:125. ~stop:4. ()))
    lm.T.Fig2.bot_sources;
  Engine.run engine ~until:10.;
  Alcotest.(check bool) "cleared after the flood ends" true (!clears >= 1);
  Alcotest.(check bool) "not alarmed at the end" false (B.Network_wide_hh.alarmed nw)

(* GRL and the network-wide heavy hitter each run their own sync service
   on one net: each view at e1 must hold e2's share, so neither service
   swallowed the other's probes. *)
let test_sync_services_share_net () =
  let lm, engine, net = fig2_net () in
  let topo = lm.T.Fig2.topo in
  let e1 = (T.node_by_name topo "e1").T.id and e2 = (T.node_by_name topo "e2").T.id in
  let victim = lm.T.Fig2.victim in
  let nw =
    B.Network_wide_hh.install net ~ingresses:[ e1; e2 ] ~threshold_bps:6_000_000.
      ~on_alarm:(fun _ -> ()) ~on_clear:(fun _ -> ()) ()
  in
  let grl = B.Global_rate_limit.install net ~participants:[ e1; e2 ] ~sync_period:0.2 () in
  let tenant = 1 in
  List.iter (fun src -> B.Global_rate_limit.assign grl ~src ~tenant) lm.T.Fig2.bot_sources;
  List.iter
    (fun bot -> ignore (Flow.Cbr.start net ~src:bot ~dst:victim ~rate_pps:125. ()))
    lm.T.Fig2.bot_sources;
  Engine.run engine ~until:5.;
  let holds_both name ~local ~global =
    let l1 = local e1 and l2 = local e2 in
    Alcotest.(check bool) (name ^ ": traffic enters at e2") true (l2 > 1_000_000.);
    Alcotest.(check bool) (name ^ ": view at e1 holds e2's share") true
      (Float.abs (global e1 -. (l1 +. l2)) < 0.1 *. (l1 +. l2))
  in
  holds_both "nwhh"
    ~local:(fun sw -> B.Network_wide_hh.local_rate nw ~sw ~dst:victim)
    ~global:(fun sw -> B.Network_wide_hh.global_rate nw ~sw ~dst:victim);
  holds_both "grl"
    ~local:(fun sw -> B.Global_rate_limit.local_rate grl ~sw ~tenant)
    ~global:(fun sw -> B.Global_rate_limit.global_rate grl ~sw ~tenant)

(* ---------------- Specs ---------------- *)

let test_specs_catalogue () =
  Alcotest.(check int) "eight boosters" 8 (List.length B.Specs.booster_names);
  List.iter
    (fun name ->
      let specs = B.Specs.specs_of name in
      Alcotest.(check bool) (name ^ " has >= 3 PPMs") true (List.length specs >= 3);
      List.iter
        (fun s ->
          Alcotest.(check bool)
            (name ^ "/" ^ s.Ff_dataplane.Ppm.name ^ " positive stages")
            true
            (s.Ff_dataplane.Ppm.resources.Ff_dataplane.Resource.stages > 0.))
        specs)
    B.Specs.booster_names;
  Alcotest.(check bool) "unknown booster raises" true
    (try
       ignore (B.Specs.specs_of "nope");
       false
     with Not_found -> true)

let () =
  Alcotest.run "ff_boosters"
    [
      ( "common",
        [
          Alcotest.test_case "mode vars" `Quick test_mode_vars;
        ] );
      ( "lfa-detector",
        [
          Alcotest.test_case "alarms on flood" `Quick test_detector_alarms_on_flood;
          Alcotest.test_case "quiet without attack" `Quick test_detector_quiet_without_attack;
          Alcotest.test_case "classifies crossfire not normal" `Quick
            test_detector_classifies_crossfire_not_normal;
          Alcotest.test_case "clears when attack stops" `Quick
            test_detector_clears_when_attack_stops;
          Alcotest.test_case "fan-in of eight marks" `Quick test_fanin_marks_eight;
          Alcotest.test_case "fan-in of seven spares" `Quick test_fanin_spares_seven;
          Alcotest.test_case "fan-in forgets silent flow" `Quick test_fanin_forgets_silent_flow;
          Alcotest.test_case "fan-in out-of-range dst" `Quick test_fanin_out_of_range_dst;
          Test_seed.to_alcotest prop_detector_matches_model;
        ] );
      ( "reroute",
        [
          Alcotest.test_case "probes build tables" `Quick test_reroute_probes_build_tables;
          Alcotest.test_case "prefers uncongested" `Quick test_reroute_prefers_uncongested;
          Alcotest.test_case "steers marked packets" `Quick test_reroute_steers_marked_packets;
          Alcotest.test_case "loop free under rerouting" `Quick test_reroute_loop_free;
        ] );
      ( "obfuscator",
        [ Alcotest.test_case "rewrites traceroute" `Quick test_obfuscator_rewrites_traceroute ] );
      ( "dropper",
        [
          Alcotest.test_case "rate limits suspicious" `Quick test_dropper_rate_limits_suspicious;
          Alcotest.test_case "spares normal" `Quick test_dropper_spares_normal;
        ] );
      ( "heavy-hitter",
        [ Alcotest.test_case "detects volumetric" `Quick test_heavy_hitter_detects_volumetric ] );
      ( "hop-count-filter",
        [ Alcotest.test_case "filters spoofed" `Quick test_hcf_filters_spoofed ] );
      ( "global-rate-limit",
        [ Alcotest.test_case "converges to limit" `Quick test_grl_converges_to_limit ] );
      ( "network-wide-hh",
        [
          Alcotest.test_case "detects distributed flood" `Quick
            test_nwhh_detects_distributed_flood;
          Alcotest.test_case "quiet under threshold" `Quick
            test_nwhh_quiet_under_local_threshold;
          Alcotest.test_case "clears after flood" `Quick test_nwhh_clears_after_flood;
          Alcotest.test_case "shares a net with grl" `Quick test_sync_services_share_net;
        ] );
      ("specs", [ Alcotest.test_case "catalogue" `Quick test_specs_catalogue ]);
    ]
