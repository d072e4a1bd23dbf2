module Topology = Ff_topology.Topology
module Net = Ff_netsim.Net
module Engine = Ff_netsim.Engine
module Flow = Ff_netsim.Flow
module Monitor = Ff_netsim.Monitor
module Series = Ff_util.Series
module Protocol = Ff_modes.Protocol
module B = Ff_boosters

type defense =
  | No_defense
  | Baseline_sdn of { period : float; delay : float }
  | Fastflex of Orchestrator.config

type attack_plan = {
  start : float;
  roll_schedule : float list;
  roll_on_path_change : bool;
  flows_per_bot : int;
  bot_max_cwnd : float;
}

let default_attack =
  {
    start = 10.;
    roll_schedule = [ 45.; 80. ];
    roll_on_path_change = true;
    flows_per_bot = 3;
    bot_max_cwnd = 4.;
  }

(* What a setup leaves for [run]: the windows its goodput is judged over,
   and readers for what only exists once the simulation has run. *)
type readout = {
  events : float list;  (* attack start, then each re-target *)
  metrics : (string * float) list;
  log : string list;
}

type t = {
  scenario : string;
  variant : string;
  net : Net.t;
  duration : float;
  pre_attack : float * float;  (* window of the goodput normalizer *)
  attack : float * float;  (* window of the during-attack statistics *)
  goodput : Series.t option;  (* benign goodput, bytes/s *)
  series : Series.t list;  (* other sampled series *)
  protocol : Protocol.t option;
  read : unit -> readout;
}

let net s = s.net

let within (lo, hi) series =
  List.filter_map
    (fun (t, v) -> if t >= lo && t <= hi then Some v else None)
    (Series.points series)

let run s =
  Engine.run (Net.engine s.net) ~until:s.duration;
  let out = s.read () in
  (* a run cut short of the attack has no attack events *)
  let events = List.filter (fun ev -> ev < s.duration) out.events in
  let normalized = Series.create ~name:"normalized" in
  let recovery_times, goodput_metrics =
    match s.goodput with
    | None -> ([], [])
    | Some goodput ->
      let baseline = Float.max 1. (Ff_util.Stats.mean (within s.pre_attack goodput)) in
      List.iter
        (fun (t, v) -> Series.add normalized ~time:t (v /. baseline))
        (Series.points goodput);
      let mean, min =
        match within s.attack normalized with
        | [] -> (1., 1.)
        | vs -> (Ff_util.Stats.mean vs, List.fold_left Float.min infinity vs)
      in
      (* time from each attack event back to 80%, ignoring the first second *)
      let recovery ev =
        match
          List.find_opt (fun (t, v) -> t > ev +. 1. && v >= 0.8) (Series.points normalized)
        with
        | Some (t, _) -> (ev, t -. ev)
        | None -> (ev, infinity)
      in
      ( List.map recovery events,
        [ ("goodput_baseline", baseline); ("goodput_mean", mean); ("goodput_min", min) ] )
  in
  {
    Report.scenario = s.scenario;
    variant = s.variant;
    duration = s.duration;
    attack_events = events;
    series = Option.to_list s.goodput @ s.series;
    normalized;
    recovery_times;
    mode_log = (match s.protocol with Some p -> Protocol.log p | None -> []);
    drops = Net.drops_by_reason s.net;
    metrics = goodput_metrics @ out.metrics;
    log = out.log;
  }

let flag b = if b then 1. else 0.
let num = float_of_int
let sum f xs = List.fold_left (fun acc x -> acc + f x) 0 xs

(* Default connectivity: per-destination shortest-path routes for every
   host, with the two victim-side decoys deliberately spread over the two
   critical links (decoy1 via m1, decoy2 via m2) — the path diversity a
   Crossfire attacker exploits to choose its target link. *)
let install_default_routes net (lm : Topology.Fig2.landmarks) =
  let topo = Net.topology net in
  let hosts = Topology.hosts topo in
  List.iter
    (fun (dst : Topology.node) ->
      List.iter
        (fun (src : Topology.node) ->
          if src.Topology.id <> dst.Topology.id then
            match Topology.shortest_path topo ~src:src.Topology.id ~dst:dst.Topology.id with
            | Some p -> Net.install_path net ~dst:dst.Topology.id p
            | None -> ())
        hosts)
    hosts;
  (* pin each decoy behind a distinct critical link *)
  match (lm.Topology.Fig2.decoys, lm.Topology.Fig2.critical) with
  | [ d1; d2 ], [ c1; c2 ] ->
    let mid_of (l : Topology.link) =
      if l.Topology.a = lm.Topology.Fig2.agg then l.Topology.b else l.Topology.a
    in
    let m1 = mid_of c1 and m2 = mid_of c2 in
    Net.set_route net ~sw:lm.Topology.Fig2.agg ~dst:d1 ~next_hop:m1;
    Net.set_route net ~sw:m1 ~dst:d1 ~next_hop:lm.Topology.Fig2.victim_agg;
    Net.set_route net ~sw:lm.Topology.Fig2.agg ~dst:d2 ~next_hop:m2;
    Net.set_route net ~sw:m2 ~dst:d2 ~next_hop:lm.Topology.Fig2.victim_agg
  | _ -> ()

(* The Fig2 scenarios' shared preamble: topology, default routes and the
   default mode's TE-optimal plan. k = 2 keeps the plan on the two shortest
   (critical-link) paths; the longer detour is capacity the defenses tap
   into under attack. *)
let fig2 ~bots ~normals =
  let lm = Topology.Fig2.build ~bots ~normals () in
  let topo = lm.Topology.Fig2.topo in
  let net = Net.create (Engine.create ()) topo in
  install_default_routes net lm;
  let demand = Ff_te.Traffic_matrix.empty () in
  List.iter
    (fun n -> Ff_te.Traffic_matrix.set demand ~src:n ~dst:lm.Topology.Fig2.victim 2_300_000.)
    lm.Topology.Fig2.normal_sources;
  let default_plan = Ff_te.Solver.solve ~k:2 topo demand in
  Ff_te.Solver.install net default_plan;
  (lm, net, default_plan)

(* one long-lived TCP flow per normal host toward the victim *)
let normal_flows net (lm : Topology.Fig2.landmarks) =
  List.map
    (fun n -> Flow.Tcp.start net ~src:n ~dst:lm.Topology.Fig2.victim ~at:0.5 ~max_cwnd:4. ())
    lm.Topology.Fig2.normal_sources

let sample_period = 0.5

(* The volumetric and SYN-flood setups normalize against 6 s to 1 s before
   their attack and judge it from 2 s in to the end of the run. *)
let fig2_windows ~start ~duration = ((start -. 6., start -. 1.), (start +. 2., duration))

let lfa ~defense ?(attack = Some default_attack) ?(duration = 120.) ?(normals = 4)
    ?(bots = 8) () =
  let lm, net, default_plan = fig2 ~bots ~normals in
  let flows = normal_flows net lm in
  let attacker =
    Option.map
      (fun plan ->
        Ff_attacks.Lfa.launch net ~bots:lm.Topology.Fig2.bot_sources
          ~decoy_groups:(List.map (fun decoy -> [ decoy ]) lm.Topology.Fig2.decoys)
          ~start:plan.start ~flows_per_bot:plan.flows_per_bot
          ~bot_max_cwnd:plan.bot_max_cwnd ~roll_on_path_change:plan.roll_on_path_change
          ~roll_schedule:plan.roll_schedule ())
      attack
  in
  let variant, reconfigs, orchestration =
    match defense with
    | No_defense -> ("no-defense", (fun () -> []), None)
    | Baseline_sdn { period; delay } ->
      (* measurement half of the controller loop: telemetry at every switch
         counts each pair at its ingress; attack flows are measured like
         any other traffic — indistinguishability is the baseline's
         handicap *)
      let telemetry = Ff_te.Estimator.install net ~switches:(Net.switch_ids net) () in
      let c =
        Ff_te.Controller.start net ~period ~delay
          ~estimate:(fun () -> Ff_te.Estimator.matrix telemetry)
          ()
      in
      ("baseline-sdn", (fun () -> Ff_te.Controller.reconfig_times c), None)
    | Fastflex config ->
      let o = Orchestrator.deploy net ~landmarks:lm ~default_plan ~config () in
      ("fastflex", (fun () -> []), Some o)
  in
  let goodput =
    Monitor.aggregate_goodput net ~flows ~period:sample_period ~name:"goodput" ()
  in
  let attack_goodput =
    Monitor.sample (Net.engine net) ~period:sample_period ~name:"attack-goodput" (fun now ->
        match attacker with Some atk -> Ff_attacks.Lfa.attack_rate atk ~now | None -> 0.)
  in
  let start = match attack with Some a -> a.start | None -> duration in
  let read () =
    let rolls = match attacker with Some atk -> Ff_attacks.Lfa.rolls atk | None -> [] in
    let of_defense f = match orchestration with Some o -> num (f o) | None -> 0. in
    {
      events = (if attack = None then [] else start :: rolls);
      metrics =
        [ ("rolls", num (List.length rolls));
          ("reconfigs", num (List.length (reconfigs ())));
          ("marked", of_defense (fun o -> B.Lfa_detector.marks o.Orchestrator.detector));
          ("probes", of_defense (fun o -> B.Reroute.probes_sent o.Orchestrator.reroute)) ];
      log = [];
    }
  in
  {
    scenario = "lfa";
    variant;
    net;
    duration;
    (* the normalizer's window stays clear of slow start (t < 2) *)
    pre_attack = (Float.max 2. (start -. 6.), Float.max 4. (start -. 1.));
    attack = (start +. sample_period, duration);
    goodput = Some goodput;
    series = [ attack_goodput ];
    protocol = Option.map (fun o -> o.Orchestrator.protocol) orchestration;
    read;
  }

let volumetric ~defended ?(duration = 60.) ?(spoof = true) () =
  let lm, net, _ = fig2 ~bots:8 ~normals:4 in
  let flows = normal_flows net lm in
  let vol =
    if defended then Some (Orchestrator.deploy_volumetric net ~sw:lm.Topology.Fig2.agg ())
    else None
  in
  (* spoofed identities: the normal hosts' addresses (whose TTL fingerprints
     the filter learns from their legitimate traffic) *)
  let start = 10. in
  ignore
    (Ff_attacks.Volumetric.launch net ~bots:lm.Topology.Fig2.bot_sources
       ~victim:lm.Topology.Fig2.victim ~rate_pps_per_bot:600. ~start
       ?spoof_as:(if spoof then Some lm.Topology.Fig2.normal_sources else None)
       ());
  let goodput =
    Monitor.aggregate_goodput net ~flows ~period:sample_period ~name:"goodput" ()
  in
  let of_defense f = match vol with Some v -> f v | None -> 0. in
  let read () =
    {
      events = [ start ];
      metrics =
        [ ("hcf_filtered",
           of_defense (fun v -> num (B.Hop_count_filter.filtered v.Orchestrator.v_hcf)));
          ("offender_drops",
           of_defense (fun v -> num (B.Dropper.dropped v.Orchestrator.v_dropper)));
          ("alarmed", of_defense (fun v -> flag (B.Heavy_hitter.alarmed v.Orchestrator.v_hh))) ];
      log = [];
    }
  in
  let pre_attack, attack = fig2_windows ~start ~duration in
  {
    scenario = "volumetric";
    variant = (if defended then "defended" else "undefended") ^ if spoof then "" else ", unspoofed";
    net;
    duration;
    pre_attack;
    attack;
    goodput = Some goodput;
    series = [];
    protocol = Option.map (fun v -> v.Orchestrator.v_protocol) vol;
    read;
  }

let synflood ~defended ?(hardened = false) ?(duration = 60.) ?(attack_rate_pps = 400.)
    ?(backlog = 64) ?(syn_timeout = 3.0) () =
  let lm, net, _ = fig2 ~bots:8 ~normals:4 in
  (* the resource under attack: the victim's accept backlog *)
  let listener =
    Flow.Listener.install net ~host:lm.Topology.Fig2.victim ~backlog ~syn_timeout ()
  in
  (* legitimate clients: short handshake-data-FIN connections in a loop;
     their completion rate is the scenario's goodput *)
  let clients =
    List.map
      (fun n ->
        Flow.Handshake.start net ~src:n ~dst:lm.Topology.Fig2.victim ~at:0.5
          ~conn_interval:0.4 ())
      lm.Topology.Fig2.normal_sources
  in
  let sg =
    if defended then begin
      let config =
        if hardened then
          { Orchestrator.default_config with hardening = Some Orchestrator.default_hardening }
        else Orchestrator.default_config
      in
      let sg =
        Orchestrator.deploy_synguard net ~sw:lm.Topology.Fig2.victim_agg
          ~protect:lm.Topology.Fig2.victim ~config ()
      in
      B.Syn_guard.attach_server_agent sg.Orchestrator.sg_guard listener;
      Some sg
    end
    else None
  in
  let start = 10. in
  let atk =
    Ff_attacks.Synflood.launch net ~bots:lm.Topology.Fig2.bot_sources
      ~victim:lm.Topology.Fig2.victim ~syn_rate_pps:attack_rate_pps ~start
      ~spoof_as:lm.Topology.Fig2.normal_sources ()
  in
  let goodput =
    Monitor.aggregate_goodput net
      ~probes:
        [ Monitor.counter_probe (fun () ->
              List.fold_left (fun acc c -> acc +. Flow.Handshake.completed_bytes c) 0. clients) ]
      ~period:sample_period ~name:"goodput" ()
  in
  let read () =
    let guard f = match sg with Some s -> f s.Orchestrator.sg_guard | None -> 0. in
    let tracker f = guard (fun g -> f (B.Syn_guard.tracker g)) in
    {
      events = [ start ];
      metrics =
        [ ("peak_backlog", Flow.Listener.peak_occupancy listener);
          ("backlog_drops", num (Flow.Listener.backlog_drops listener));
          ("timeouts", num (Flow.Listener.timeouts listener));
          ("established", num (Flow.Listener.established listener));
          ("completed", num (sum Flow.Handshake.completed clients));
          ("failed", num (sum Flow.Handshake.failed clients));
          ("syns_sent", num (Ff_attacks.Synflood.syns_sent atk));
          ("cookies_sent", guard (fun g -> num (B.Syn_guard.cookies_sent g)));
          ("validated", guard (fun g -> num (B.Syn_guard.validated g)));
          ("rejected", guard (fun g -> num (B.Syn_guard.rejected g)));
          ("unverified_drops", guard (fun g -> num (B.Syn_guard.unverified_drops g)));
          ("tracker_occupancy", tracker Ff_dataplane.Cuckoo.occupancy);
          ("tracker_failed_inserts", tracker (fun c -> num (Ff_dataplane.Cuckoo.failed_inserts c)));
          ("alarmed", guard (fun g -> flag (B.Syn_guard.alarmed g))) ];
      log = [];
    }
  in
  let pre_attack, attack = fig2_windows ~start ~duration in
  {
    scenario = "synflood";
    variant =
      (if not defended then "none" else if hardened then "armed+hardening" else "armed");
    net;
    duration;
    pre_attack;
    attack;
    goodput = Some goodput;
    series = [];
    protocol = Option.map (fun s -> s.Orchestrator.sg_protocol) sg;
    read;
  }

(* shortest-path route trees toward every host, over switches only (hosts
   are reachable but never transited) *)
let install_all_routes net =
  let is_switch =
    let tbl = Hashtbl.create 64 in
    List.iter (fun sw -> Hashtbl.replace tbl sw ()) (Net.switch_ids net);
    fun n -> Hashtbl.mem tbl n
  in
  List.iter
    (fun dst ->
      let visited = Hashtbl.create 64 in
      Hashtbl.replace visited dst ();
      let q = Queue.create () in
      Queue.add dst q;
      while not (Queue.is_empty q) do
        let u = Queue.pop q in
        List.iter
          (fun v ->
            if not (Hashtbl.mem visited v) then begin
              Hashtbl.replace visited v ();
              if is_switch v then begin
                Net.set_route net ~sw:v ~dst ~next_hop:u;
                Queue.add v q
              end
            end)
          (Net.neighbors_of net u)
      done)
    (Net.host_ids net)

(* ---- closed-loop adversarial arena ------------------------------------- *)

module Adaptive = Ff_attacks.Adaptive
module Workfactor = Ff_obs.Workfactor

type adversary = Closed_loop | Open_loop

(* Key-spreading guard for the collision arena: a windowed Bloom of
   (src, flow) plus a per-source distinct-flow counter. A source opening
   more than [max_flows] distinct flows inside one window is flagged and
   its packets marked suspicious — which is why the adaptive attacker
   must *find hash collisions* to hide volume instead of simply spraying
   fresh keys past the HashPipe. *)
let install_fanout_guard net ~sw ~max_flows ~window ~seed ~on_trip ~on_calm =
  let module Bloom = Ff_dataplane.Bloom in
  let bloom = Bloom.create ~seed ~bits:4096 ~hashes:3 () in
  let counts : (int, int) Hashtbl.t = Hashtbl.create 32 in
  let flagged : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  Engine.every (Net.engine net) ~start:window ~period:window (fun () ->
      Bloom.reset bloom;
      Hashtbl.reset counts;
      Hashtbl.reset flagged);
  Net.add_stage net ~sw
    {
      Net.stage_name = "fanout-guard";
      process =
        (fun _ctx pkt ->
          (match pkt.Ff_dataplane.Packet.payload with
          | Ff_dataplane.Packet.Data ->
            let src = pkt.Ff_dataplane.Packet.src in
            let k =
              Ff_dataplane.Hash.mix ~seed ~lane:src pkt.Ff_dataplane.Packet.flow
            in
            if not (Bloom.mem bloom k) then begin
              Bloom.add bloom k;
              let c =
                match Hashtbl.find_opt counts src with Some c -> c + 1 | None -> 1
              in
              Hashtbl.replace counts src c;
              if c > max_flows && not (Hashtbl.mem flagged src) then begin
                Hashtbl.replace flagged src ();
                on_trip src;
                Engine.after (Net.engine net) ~delay:window (fun () -> on_calm src)
              end
            end;
            if Hashtbl.mem flagged src then pkt.Ff_dataplane.Packet.suspicious <- true
          | _ -> ());
          Net.Continue);
    }

let adversarial ~strategy ~adversary ?(hardened = false) ?(seed = 1) ?(duration = 70.)
    ?(attack_start = 10.) () =
  let topo = Topology.fat_tree ~k:4 () in
  let engine = Engine.create () in
  let net = Net.create engine topo in
  install_all_routes net;
  let id n = (Topology.node_by_name topo n).Topology.id in
  let victim = id "h0_0_0" in
  let sink = id "h0_0_1" in
  (* the decoy set a Crossfire hugger floods: the pod-0 public hosts *)
  let decoys = [ id "h0_0_1"; id "h0_1_0"; id "h0_1_1" ] in
  let aggs = [ id "agg0_0"; id "agg0_1" ] in
  let edges = [ id "edge0_0"; id "edge0_1" ] in
  (* the decoy links whose over-utilization is the damage integral *)
  let watched = List.concat_map (fun a -> List.map (fun e -> (a, e)) edges) aggs in
  (* Pin path-diverse routes toward the pod-0 hosts. The default BFS
     trees collapse every pod-0 destination onto a single core->agg
     uplink, which then bottlenecks *upstream* of the watched agg->edge
     links and caps their utilization well below the damage floor.
     Spreading the four destinations across the four cores gives each
     decoy path a dedicated uplink of the same capacity as the watched
     link, so the watched links themselves are the contended resource. *)
  let pin ~dst ~core ~agg ~edge =
    let core_n = id (Printf.sprintf "core%d" core) in
    let agg0 = id (Printf.sprintf "agg0_%d" agg) in
    Net.set_route net ~sw:core_n ~dst ~next_hop:agg0;
    Net.set_route net ~sw:agg0 ~dst ~next_hop:(id (Printf.sprintf "edge0_%d" edge));
    (* upstream in pods 1-3: agg{p}_0 reaches cores 0-1, agg{p}_1 cores 2-3 *)
    let j = core / 2 in
    List.iter
      (fun p ->
        let aggp = id (Printf.sprintf "agg%d_%d" p j) in
        Net.set_route net ~sw:aggp ~dst ~next_hop:core_n;
        List.iter
          (fun e ->
            Net.set_route net ~sw:(id (Printf.sprintf "edge%d_%d" p e)) ~dst ~next_hop:aggp)
          [ 0; 1 ])
      [ 1; 2; 3 ]
  in
  pin ~dst:victim ~core:3 ~agg:1 ~edge:0;
  pin ~dst:(id "h0_0_1") ~core:0 ~agg:0 ~edge:0;
  pin ~dst:(id "h0_1_0") ~core:1 ~agg:0 ~edge:1;
  pin ~dst:(id "h0_1_1") ~core:2 ~agg:1 ~edge:1;
  let bots =
    List.concat_map
      (fun p ->
        List.concat_map
          (fun e -> List.map (fun i -> id (Printf.sprintf "h%d_%d_%d" p e i)) [ 0; 1 ])
          [ 0; 1 ])
      [ 1; 2 ]
  in
  (* light benign background: pod-3 clients of the victim and decoys *)
  let benign_dsts = [| victim; id "h0_1_0"; victim; id "h0_1_1" |] in
  ignore
    (List.mapi
       (fun i e ->
         List.map
           (fun h ->
             let src = id (Printf.sprintf "h3_%d_%d" e h) in
             Flow.Tcp.start net ~src ~dst:benign_dsts.((2 * i) + h) ~at:0.5 ~max_cwnd:2. ())
           [ 0; 1 ])
       [ 0; 1 ]);
  let hardening =
    if hardened then
      Some
        {
          Orchestrator.default_hardening with
          Orchestrator.h_seed =
            Orchestrator.default_hardening.Orchestrator.h_seed lxor (seed * 0x1003F);
        }
    else None
  in
  let alarms = ref 0 in
  let protocol = Orchestrator.protocol net { Orchestrator.default_config with region_ttl = 2 } in
  let raise_alarm, clear_alarm = Orchestrator.forward_alarms protocol in
  (* Several independent detectors (heavy-hitter boosters, the fanout
     guard, LFA detectors) feed the same protocol alarm per attack
     class, but [Protocol.clear_alarm] floods a region-wide
     deactivation unconditionally while [raise_alarm] is a no-op when
     the attack is already active. Without reference counting, one
     source's clear (e.g. the fanout guard calming) switches mitigation
     off for everyone, and a still-alarmed detector never re-raises —
     the mode deadlocks off while the attack runs. Count raises per
     attack class and only forward the final clear. *)
  let raised : (Ff_dataplane.Packet.attack_kind, int) Hashtbl.t = Hashtbl.create 4 in
  let raised_count att = Option.value ~default:0 (Hashtbl.find_opt raised att) in
  let on_alarm (a : B.Lfa_detector.alarm) =
    incr alarms;
    let att = a.B.Lfa_detector.attack in
    Hashtbl.replace raised att (raised_count att + 1);
    raise_alarm a
  in
  let on_clear (a : B.Lfa_detector.alarm) =
    let att = a.B.Lfa_detector.attack in
    let n = Stdlib.max 0 (raised_count att - 1) in
    Hashtbl.replace raised att n;
    if n = 0 then clear_alarm a
  in
  let det = Orchestrator.effective_hardening hardening ~seed:(0x1FA_D lxor seed) in
  let hh_h = Orchestrator.effective_hardening hardening ~seed:(0x44_11 lxor seed) in
  let droppers = ref [] in
  let hhs = ref [] in
  (match strategy with
  | Adaptive.Threshold_hug ->
    (* LFA stack at the pod-0 aggregation switches: detection with
       offered-load hysteresis, cross-switch suspicious-source sync,
       illusion-of-success dropping *)
    let detectors =
      List.map
        (fun a ->
          ( a,
            B.Lfa_detector.install net ~sw:a
              ~watched:(List.map (fun e -> (a, e)) edges)
              ~check_period:0.05 ~high_threshold:0.85
              ~threshold_jitter:det.Orchestrator.h_threshold_jitter
              ~jitter_period:det.Orchestrator.h_jitter_period ~seed:det.Orchestrator.h_seed
              ~suspicious_rate:1_500_000. ~min_age:1.0 ~clear_hold:3.0 ~dst_flows_min:8
              ~on_alarm ~on_clear () ))
        aggs
    in
    let sync = Orchestrator.effective_hardening hardening ~seed:(0x5C11 lxor seed) in
    let source_sync =
      Ff_modes.Sync.create net ~participants:aggs ~period:0.2
        ~period_jitter:sync.Orchestrator.h_epoch_jitter ~seed:sync.Orchestrator.h_seed
        ~local_view:(fun ~sw ->
          match List.assoc_opt sw detectors with
          | None -> []
          | Some det ->
            List.filter_map
              (fun host ->
                if B.Lfa_detector.is_suspicious_source det host then
                  Some (host, 1.)
                else None)
              (Net.host_ids net))
        ~probe_class:9 ()
    in
    let classify_key = B.Common.mode_key B.Common.mode_classify in
    List.iter
      (fun sw ->
        Net.add_stage net ~sw
          {
            Net.stage_name = "synced-source-marker";
            process =
              (fun ctx pkt ->
                (match pkt.Ff_dataplane.Packet.payload with
                | Ff_dataplane.Packet.Data ->
                  if
                    (not pkt.Ff_dataplane.Packet.suspicious)
                    && B.Common.mode_on ctx.Net.sw classify_key
                    && Ff_modes.Sync.remote_contribution source_sync ~sw
                         ~key:pkt.Ff_dataplane.Packet.src
                       > 0.
                  then pkt.Ff_dataplane.Packet.suspicious <- true
                | _ -> ());
                Net.Continue);
          })
      aggs;
    droppers :=
      List.map
        (fun a -> B.Dropper.install net ~sw:a ~rate_limit:150_000. ~drop_prob:0.5 ())
        aggs
  | Adaptive.Collision_probe ->
    (* volumetric stack, flow-keyed: a deliberately small HashPipe (one
       stage — every slot fight is a clean eviction) that collision
       probing can defeat, plus the fanout guard that closes the
       key-spreading alternative *)
    List.iter
      (fun a ->
        (* the hardened posture also scales the table up (FastFlex's
           elastic-resource model: paying SRAM for resilience): in a
           one-stage pipe every slot fight is a clean eviction, so with
           8 slots even a low-rate cross-collider resets a heavy flow's
           accumulation packet by packet and detection of a blast is a
           coin flip per epoch — and an 8x larger table also scales up
           the attacker's expected collision-search cost by 8x *)
        let hh =
          B.Heavy_hitter.install net ~sw:a ~epoch:1.0 ~stages:1
            ~slots:(if hardened then 64 else 8) ~threshold_bps:1_200_000.
            ~epoch_jitter:hh_h.Orchestrator.h_epoch_jitter
            ~threshold_jitter:hh_h.Orchestrator.h_hh_threshold_jitter
            ~rotate_period:hh_h.Orchestrator.h_rotate_period
            ~src_hold:hh_h.Orchestrator.h_src_hold ~seed:hh_h.Orchestrator.h_seed ~on_alarm
            ~on_clear ()
        in
        hhs := hh :: !hhs;
        Net.add_stage net ~sw:a (B.Heavy_hitter.mark_offenders_stage hh);
        install_fanout_guard net ~sw:a ~max_flows:6 ~window:2.0 ~seed:(0xFA6 lxor seed)
          ~on_trip:(fun _src ->
            on_alarm
              { B.Lfa_detector.switch = a; attack = Ff_dataplane.Packet.Volumetric })
          ~on_calm:(fun _src ->
            on_clear
              { B.Lfa_detector.switch = a; attack = Ff_dataplane.Packet.Volumetric });
        droppers :=
          B.Dropper.install net ~sw:a ~rate_limit:100_000. ~drop_prob:0.9 ()
          :: !droppers)
      aggs
  | Adaptive.Epoch_time ->
    (* volumetric stack keyed by *source*: a fixed bot population cannot
       spread past per-sender accounting — only timing around the epoch
       boundaries hides the volume *)
    List.iter
      (fun a ->
        let hh =
          B.Heavy_hitter.install net ~sw:a ~epoch:1.0 ~threshold_bps:1_200_000.
            ~key_of:(fun pkt -> pkt.Ff_dataplane.Packet.src)
            ~epoch_jitter:hh_h.Orchestrator.h_epoch_jitter
            ~threshold_jitter:hh_h.Orchestrator.h_hh_threshold_jitter
            ~rotate_period:hh_h.Orchestrator.h_rotate_period
            ~src_hold:hh_h.Orchestrator.h_src_hold ~seed:hh_h.Orchestrator.h_seed ~on_alarm
            ~on_clear ()
        in
        hhs := hh :: !hhs;
        Net.add_stage net ~sw:a (B.Heavy_hitter.mark_offenders_stage hh);
        droppers :=
          B.Dropper.install net ~sw:a ~rate_limit:100_000. ~drop_prob:0.9 ()
          :: !droppers)
      aggs);
  (* the adversary *)
  let atk_cfg =
    {
      Adaptive.default_config with
      Adaptive.seed = Adaptive.default_config.Adaptive.seed lxor (seed * 65599);
      start = attack_start;
      stop = duration;
    }
  in
  let atk =
    match adversary with
    | Open_loop ->
      (* same arena, no feedback loop: the rolling blast every strategy is
         normalized against *)
      (match strategy with
      | Adaptive.Threshold_hug ->
        let per_flow = 30_000_000. /. float_of_int (List.length bots * List.length decoys) in
        List.iter
          (fun bot ->
            List.iter
              (fun d ->
                ignore
                  (Flow.Cbr.start net ~src:bot ~dst:d ~rate_pps:(per_flow /. 8000.)
                     ~at:attack_start ~stop:duration ()))
              decoys)
          bots
      | Adaptive.Collision_probe | Adaptive.Epoch_time ->
        List.iter
          (fun bot ->
            ignore
              (Flow.Cbr.start net ~src:bot ~dst:sink ~rate_pps:250. ~at:attack_start
                 ~stop:duration ()))
          bots);
      None
    | Closed_loop ->
      Some (Adaptive.launch net ~strategy ~bots ~targets:decoys ~sinks:[ sink ] ~config:atk_cfg ())
  in
  (* work-factor harness: damage sampled over the watched decoy links *)
  let wf = Workfactor.create ~damage_floor:0.7 ~effective_damage:1.0 ~attack_start () in
  let sample_dt = 0.1 in
  let last_probes = ref 0 in
  Engine.every engine ~start:sample_dt ~period:sample_dt (fun () ->
      let now = Net.now net in
      (match atk with
      | Some a ->
        let p = Adaptive.probes_sent a in
        Workfactor.add_probes wf (p - !last_probes);
        last_probes := p
      | None -> ());
      let util =
        List.fold_left
          (fun acc (a, e) -> Float.max acc (Net.utilization net ~from_:a ~to_:e))
          0. watched
      in
      Workfactor.sample wf ~now ~dt:sample_dt ~util);
  let read () =
    let atk_metric f = match atk with Some a -> f a | None -> 0 in
    {
      events = [ attack_start ];
      metrics =
        [ ("probes", num (Workfactor.probes wf));
          ("damage", Workfactor.damage wf);
          ("peak_util", Workfactor.peak_util wf);
          ("effective", flag (Workfactor.effective_at wf <> None));
          ("time_to_effective", Workfactor.time_to_effective wf ~horizon:duration);
          ("work_factor", Workfactor.work_factor wf ~horizon:duration);
          ("alarms", num !alarms);
          ("drops", num (sum B.Dropper.dropped !droppers));
          ("rotations", num (sum B.Heavy_hitter.rotations !hhs));
          ("fingerprint",
           num (atk_metric (fun a -> Adaptive.fingerprint a land ((1 lsl 52) - 1)))) ];
      log =
        (match atk with
        | Some a ->
          Adaptive.summary a
          :: List.map (fun (at, msg) -> Printf.sprintf "%6.2f %s" at msg) (Adaptive.log a)
        | None -> []);
    }
  in
  {
    scenario = "adversarial";
    variant =
      String.concat " "
        ([ Adaptive.strategy_name strategy;
           (match adversary with Closed_loop -> "closed-loop" | Open_loop -> "open-loop") ]
        @ if hardened then [ "hardened" ] else []);
    net;
    duration;
    pre_attack = (0., attack_start);
    attack = (attack_start, duration);
    goodput = None;
    series = [];
    protocol = Some protocol;
    read;
  }

(* ---- hybrid fluid/packet ISP scenario ---------------------------------- *)

module Hybrid = Ff_fluid.Hybrid
module Fluid = Ff_fluid.Fluid

let lfa_fluid ?(flows = 100_000) ?(duration = 40.) ?(force = Hybrid.Auto)
    ?(flow_rate_bps = 25_000.) ?(cores = 12) ?(attack_start = 10.) ?(attack_stop = 18.)
    ?(roll_at = 14.) ?(attack_bps_per_flow = 60_000_000.) ?demote_budget
    ?(goodput_period = 0.5) () =
  let hosts_per_access = 4 and packet_size = 1000 in
  let topo = Topology.isp ~cores ~access_per_core:2 ~hosts_per_access () in
  let engine = Engine.create () in
  let net = Net.create engine topo in
  (* per-solve fluid events would swamp an ambient trace at this scale;
     callers that want them attach a trace to [net s] *)
  Net.attach_obs net None;
  install_all_routes net;
  let host_arr =
    Array.of_list (List.map (fun (n : Topology.node) -> n.Topology.id) (Topology.hosts topo))
  in
  let nh = Array.length host_arr in
  let behind_access a =
    Array.to_list (Array.sub host_arr (a * hosts_per_access) hosts_per_access)
  in
  let victim, decoys_a =
    match behind_access 0 with
    | v :: rest -> (v, rest)
    | [] -> invalid_arg "Scenario.lfa_fluid: empty access"
  in
  let decoys_b = behind_access 1 in
  (* bots: the first host of up to 8 PoPs spread away from PoP 0 *)
  let bots =
    let pops = List.init (cores - 3) (fun i -> 2 + i) in
    let step = Float.max 1. (float_of_int (List.length pops) /. 8.) in
    List.init (min 8 (List.length pops)) (fun i ->
        let p = List.nth pops (int_of_float (float_of_int i *. step)) in
        host_arr.(p * 2 * hosts_per_access))
  in
  let hybrid = Hybrid.create ~force ~update_period:0.25 ?demote_budget net () in
  (* benign population: uniform-rate CBR-class flows between random host
     pairs; one rate level keeps the path-class count at O(host pairs) *)
  let rng = Ff_util.Prng.create ~seed:11 in
  let rate_pps = flow_rate_bps /. float_of_int (8 * packet_size) in
  let benign =
    List.init flows (fun _ ->
        let src = host_arr.(Ff_util.Prng.int rng nh) in
        let dst = ref host_arr.(Ff_util.Prng.int rng nh) in
        while !dst = src do dst := host_arr.(Ff_util.Prng.int rng nh) done;
        Hybrid.add_flow hybrid ~src ~dst:!dst (Hybrid.Cbr { rate_pps; packet_size }))
  in
  let wide =
    Orchestrator.deploy_wide net ~protect:(victim :: (decoys_a @ decoys_b))
      ~config:
        {
          Orchestrator.default_config with
          region_ttl = 1;
          min_dwell = 0.5;
          clear_hold = 1.5;
          check_period = 0.1;
        }
      ~on_mode:(fun ~sw ~attack:_ ~active ->
        if active then Hybrid.mark_hot hybrid ~node:sw else Hybrid.clear_hot hybrid ~node:sw)
      ()
  in
  (* the flood volume rides the fluid tier; the packet-level side of the
     adversary is recon traceroutes + low-rate TCP decoy flows *)
  let volume =
    Ff_attacks.Lfa.Fluid_volume.launch hybrid ~bots ~decoy_groups:[ decoys_a; decoys_b ]
      ~rate_bps_per_flow:attack_bps_per_flow ~packet_size ~start:attack_start
      ~stop:attack_stop ~roll_schedule:[ roll_at ] ()
  in
  let recon =
    Ff_attacks.Lfa.launch net ~bots ~decoy_groups:[ decoys_a; decoys_b ]
      ~start:attack_start ~stop:attack_stop ~flows_per_bot:1 ~roll_on_path_change:false
      ~roll_schedule:[ roll_at ] ()
  in
  let benign_delivered () =
    List.fold_left (fun acc m -> acc +. Hybrid.delivered_bytes hybrid m) 0. benign
  in
  let goodput =
    Monitor.aggregate_goodput net
      ~probes:[ Monitor.counter_probe benign_delivered ]
      ~period:goodput_period ~until:duration ~name:"fluid_goodput" ()
  in
  let read () =
    Ff_attacks.Lfa.stop_now recon;
    let fluid = Hybrid.fluid hybrid in
    let st = Fluid.solver_stats fluid in
    let packet_tx = Net.total_tx_packets net in
    let hop_bytes = Fluid.hop_bytes fluid in
    let rolls = Ff_attacks.Lfa.Fluid_volume.rolls volume in
    let demoted_peak = Hybrid.demoted_peak hybrid in
    {
      events = attack_start :: rolls;
      metrics =
        [ ("flows", num flows);
          ("classes", num (Fluid.classes fluid));
          ("packet_tx", num packet_tx);
          ("fluid_hop_bytes", hop_bytes);
          ("packet_equivalents", (hop_bytes /. num packet_size) +. num packet_tx);
          ("delivered_bytes", benign_delivered ());
          ("demoted_peak", num demoted_peak);
          ("demoted_frac_peak", if flows = 0 then 0. else num demoted_peak /. num flows);
          ("demotions", num (Hybrid.demotions hybrid));
          ("promotions", num (Hybrid.promotions hybrid));
          ("demote_denied", num (Hybrid.demote_denied hybrid));
          ("rolls", num (List.length rolls));
          ("rate_events", num (Fluid.rate_events fluid));
          ("solves", num st.Fluid.solves);
          ("skipped", num st.Fluid.skipped);
          ("full_solves", num st.Fluid.full_solves);
          ("touched_frac", Fluid.touched_frac fluid);
          ("loss_cuts", num st.Fluid.loss_cuts);
          ("max_component", num st.Fluid.max_component) ];
      log = [];
    }
  in
  {
    scenario = "lfa-fluid";
    variant =
      (match force with
      | Hybrid.Auto -> "hybrid"
      | Hybrid.All_packet -> "all-packet"
      | Hybrid.All_fluid -> "all-fluid");
    net;
    duration;
    pre_attack = (attack_start -. 6., attack_start -. 1.);
    attack = (attack_start +. 2., attack_stop);
    goodput = Some goodput;
    series = [];
    protocol = Some wide.Orchestrator.w_protocol;
    read;
  }
