(* The benchmark's four workloads, each built from the library's public
   constructors with every random choice (sources, destinations, start
   offsets, attack targets and times) drawn from the seed. *)

module T = Ff_topology.Topology
module Net = Ff_netsim.Net
module Engine = Ff_netsim.Engine
module Flow = Ff_netsim.Flow
module Packet = Ff_dataplane.Packet
module Prng = Ff_util.Prng
module Protocol = Ff_modes.Protocol
module Hybrid = Ff_fluid.Hybrid
module Fluid = Ff_fluid.Fluid
module Psim = Ff_parallel.Psim
module O = Fastflex.Orchestrator

(* A timed set-up step; the runner records one span per call. *)
type step = { step : 'a. string -> (unit -> 'a) -> 'a }

type windows = {
  pre : (float * float) list;  (** benign goodput reference, before any attack *)
  attack : (float * float) list;  (** benign goodput under attack *)
}

(* What one simulation produced, read from public counters after the run. *)
type outcome = {
  fingerprint : (string * string) list;
      (** simulated counts that must repeat exactly at one seed *)
  attempted : int;  (** benign operations attempted *)
  undelivered : int;  (** of those, not delivered or failed *)
  goodput_ratio : float;
  detect_s : float;  (** median over attack onsets; [nan] without an attack *)
  hops : int;  (** per-hop packet transmissions *)
  equiv : float;  (** packet-equivalents: hops plus fluid hop-bytes / packet size *)
  layers : (string * float) list;  (** per-layer counters *)
  checks : (string * bool) list;  (** output checks, all must hold *)
}

type packet_sim = {
  net : Net.t;
  until : float;
  windows : windows;
  benign : unit -> float;  (** cumulative benign goodput units delivered *)
  finish : sample:(float -> float) -> outcome;
      (** read the outcome after the run; [sample t] is [benign ()] at a
          window edge [t] *)
  probes : unit -> (string * float) list;
      (** timed direct calls into layers, made after the run (traced runs only) *)
}

type sharded_sim = {
  topo : T.t;
  s_until : float;
  setup : step -> Net.t array -> unit;
  s_finish : Psim.result -> outcome;
}

(* ---- helpers --------------------------------------------------------- *)

let median = function
  | [] -> nan
  | l ->
    let a = Array.of_list l in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let rate_over sample spans =
  let amount = List.fold_left (fun acc (a, b) -> acc +. (sample b -. sample a)) 0. spans in
  let dur = List.fold_left (fun acc (a, b) -> acc +. (b -. a)) 0. spans in
  amount /. dur

let goodput_ratio ~sample w = rate_over sample w.attack /. rate_over sample w.pre

let window_edges w = List.concat_map (fun (a, b) -> [ a; b ]) (w.pre @ w.attack)

let switches_on_paths net ~srcs ~dsts =
  let sws = Hashtbl.create 16 in
  let is_switch n = List.mem n (Net.switch_ids net) in
  List.iter
    (fun src ->
      List.iter
        (fun dst ->
          match Net.current_path net ~src ~dst with
          | Some p -> List.iter (fun n -> if is_switch n then Hashtbl.replace sws n ()) p
          | None -> ())
        dsts)
    srcs;
  Hashtbl.fold (fun k () l -> k :: l) sws [] |> List.sort compare

(* Detection latency: for each onset at which the attacked region is not
   already in the attack's modes, the time to the first activation in the
   region (censored at [until]); median over those onsets, 0 when the
   defense already covered every onset. *)
let detect_latency ~log ~kind ~region ~onsets ~until =
  let in_region sw = List.mem sw region in
  let relevant = List.filter (fun (_, sw, k, _) -> k = kind && in_region sw) log in
  let active_at t =
    let st = Hashtbl.create 8 in
    List.iter (fun (ts, sw, _, on) -> if ts <= t then Hashtbl.replace st sw on) relevant;
    Hashtbl.fold (fun _ on acc -> acc || on) st false
  in
  let one o =
    match List.find_opt (fun (ts, _, _, on) -> on && ts >= o) relevant with
    | Some (ts, _, _, _) -> ts -. o
    | None -> until -. o
  in
  match List.filter (fun o -> not (active_at o)) onsets with
  | [] -> 0.
  | uncovered -> median (List.map one uncovered)

let drops_fp drops = String.concat ";" (List.map (fun (r, n) -> Printf.sprintf "%s=%d" r n) drops)
let fl x = Printf.sprintf "%.17g" x

let protocol_layers p =
  [ ("modes.transitions", float_of_int (Protocol.transitions p));
    ("modes.readverts", float_of_int (Protocol.readverts p));
    ("modes.repairs", float_of_int (Protocol.repairs p)) ]

let net_fingerprint net =
  [ ("hops", string_of_int (Net.total_tx_packets net));
    ("drops", drops_fp (Net.drops_by_reason net)) ]

(* ---- lfa_fattree ------------------------------------------------------- *)

(* fat-tree(4) with the pervasive defense on every switch; benign CBR
   (400 packets/s of 400-600 B) and window-capped TCP flows toward a
   victim, together below the detectors' 85% utilization line, while a
   rolling Crossfire LFA floods links toward two decoys next to it. All
   packet level. *)
let lfa_fattree ~seed (st : step) =
  let rng = Prng.create ~seed in
  let topo = st.step "topology" (fun () -> T.fat_tree ~k:4 ()) in
  let engine = Engine.create () in
  let net = Net.create engine topo in
  st.step "routes" (fun () -> Fastflex.Scenario.install_all_routes net);
  let h p e i = (T.node_by_name topo (Printf.sprintf "h%d_%d_%d" p e i)).T.id in
  (* The seed relabels a fixed composition, so every seed gives the same
     scenario up to fat-tree symmetry: the victim and its two decoys (the
     hosts of the other edge switch of its pod); in every other pod, one
     host of one edge switch sends CBR and the two hosts of the other
     edge switch are bots, one of which also carries a benign TCP flow. *)
  let vp = Prng.int rng 4 in
  let ve = Prng.int rng 2 in
  let vi = Prng.int rng 2 in
  let victim = h vp ve vi in
  let d1 = h vp (1 - ve) 0 and d2 = h vp (1 - ve) 1 in
  let roles =
    List.filter_map
      (fun p ->
        if p = vp then None
        else begin
          let ce = Prng.int rng 2 in
          let ci = Prng.int rng 2 in
          let ti = Prng.int rng 2 in
          Some (h p ce ci, h p (1 - ce) ti, [ h p (1 - ce) 0; h p (1 - ce) 1 ])
        end)
      [ 0; 1; 2; 3 ]
  in
  let cbr_src = List.map (fun (c, _, _) -> c) roles in
  let tcp_src = List.map (fun (_, t, _) -> t) roles in
  let bots = List.concat_map (fun (_, _, b) -> b) roles in
  let wide = st.step "deploy" (fun () -> O.deploy_wide net ~protect:[ victim; d1; d2 ] ()) in
  let cbrs, tcps =
    st.step "admission" (fun () ->
        let cbrs =
          List.map
            (fun src ->
              let size = 400 + Prng.int rng 201 in
              let at = 0.1 +. Prng.float rng 0.2 in
              (size, Flow.Cbr.start net ~src ~dst:victim ~rate_pps:400. ~packet_size:size ~at ()))
            cbr_src
        in
        let tcps =
          List.map
            (fun src ->
              let at = 0.5 +. Prng.float rng 0.3 in
              Flow.Tcp.start net ~src ~dst:victim ~at ~packet_size:1000 ~max_cwnd:2. ())
            tcp_src
        in
        (cbrs, tcps))
  in
  let start = 5. +. Prng.float rng 1. in
  let roll_schedule = List.map (fun t -> t +. Prng.float rng 1. -. 0.5) [ 12.; 19.; 26. ] in
  let until = 30. in
  let atk =
    st.step "attack" (fun () ->
        Ff_attacks.Lfa.launch net ~bots ~decoy_groups:[ [ d1 ]; [ d2 ] ] ~start ~roll_schedule ())
  in
  let region = switches_on_paths net ~srcs:bots ~dsts:[ d1; d2 ] in
  let benign () =
    List.fold_left (fun acc (_, c) -> acc +. Flow.Cbr.delivered_bytes c) 0. cbrs
    +. List.fold_left (fun acc t -> acc +. Flow.Tcp.delivered_bytes t) 0. tcps
  in
  let windows = { pre = [ (2.0, start) ]; attack = [ (start, until) ] } in
  let finish ~sample =
    let p = wide.O.w_protocol in
    let sent =
      List.fold_left (fun acc (_, c) -> acc + Flow.Cbr.sent_packets c) 0 cbrs
      + List.fold_left (fun acc t -> acc + Flow.Tcp.sent_packets t) 0 tcps
    in
    let delivered =
      List.fold_left
        (fun acc (size, c) -> acc + int_of_float (Flow.Cbr.delivered_bytes c /. float_of_int size))
        0 cbrs
      + List.fold_left
          (fun acc t -> acc + int_of_float (Flow.Tcp.delivered_bytes t /. 1000.))
          0 tcps
    in
    let rolls = Ff_attacks.Lfa.rolls atk in
    let hops = Net.total_tx_packets net in
    {
      fingerprint =
        net_fingerprint net
        @ [ ("transitions", string_of_int (Protocol.transitions p));
            ("rolls", String.concat "," (List.map fl rolls));
            ("sent", string_of_int sent);
            ("benign_bytes", fl (benign ()));
            ("marked", string_of_int (O.wide_marked wide));
            ("dropped", string_of_int (O.wide_dropped wide)) ];
      attempted = sent;
      undelivered = sent - delivered;
      goodput_ratio = goodput_ratio ~sample windows;
      detect_s =
        detect_latency ~log:(Protocol.log p) ~kind:Packet.Lfa ~region
          ~onsets:(start :: rolls) ~until;
      hops;
      equiv = float_of_int hops;
      layers = protocol_layers p;
      checks =
        [ ("benign delivered <= sent", delivered <= sent);
          ("benign traffic delivered", delivered > 0);
          ("defense activated", Protocol.transitions p > 0);
          ("attack launched", Ff_attacks.Lfa.bot_flows atk <> [] || rolls <> []) ];
    }
  in
  { net; until; windows; benign; finish; probes = (fun () -> []) }

(* ---- isp_hybrid_100k ----------------------------------------------------- *)

let isp_cores = 12
let isp_access = 2
let isp_hosts = 4
let isp_flows = 100_000
let isp_packet_size = 1000
let isp_flow_bps = 25_000.

type isp = {
  i_net : Net.t;
  hybrid : Hybrid.t;
  members : Hybrid.member list;
  i_wide : O.wide;
  volume : Ff_attacks.Lfa.Fluid_volume.t;
  recon : Ff_attacks.Lfa.t;
  bots : int list;
  decoys : int list;
  start : float;
  stop : float;
  roll : float;
}

(* ISP topology (12 PoPs x 2 access x 4 hosts), 100k benign flows on the
   hybrid tier, the wide defense with every mode transition marking its
   switch hot, and a rolling fluid LFA plus its packet-level recon. *)
let build_isp ~seed (st : step) =
  let rng = Prng.create ~seed in
  let topo =
    st.step "topology" (fun () ->
        T.isp ~cores:isp_cores ~access_per_core:isp_access ~hosts_per_access:isp_hosts ())
  in
  let engine = Engine.create () in
  let net = Net.create engine topo in
  st.step "routes" (fun () -> Fastflex.Scenario.install_all_routes net);
  let hosts = Array.of_list (List.map (fun (n : T.node) -> n.T.id) (T.hosts topo)) in
  let nh = Array.length hosts in
  let per_pop = isp_access * isp_hosts in
  let behind p a = List.init isp_hosts (fun k -> hosts.((p * per_pop) + (a * isp_hosts) + k)) in
  (* Rotating the chorded ring by two PoPs is a symmetry of the topology,
     so the victim's PoP is drawn among the even ones; bots sit in the
     eight PoPs 2..9 steps further round the ring (as in the repo's ISP
     scenario), each on a seeded host of that PoP. *)
  let vp = 2 * Prng.int rng (isp_cores / 2) in
  let vk = Prng.int rng isp_hosts in
  let victim = List.nth (behind vp 0) vk in
  let decoys_a = List.filter (fun h -> h <> victim) (behind vp 0) in
  let decoys_b = behind vp 1 in
  let bots =
    List.init 8 (fun i ->
        let p = (vp + 2 + i) mod isp_cores in
        let k = Prng.int rng per_pop in
        hosts.((p * per_pop) + k))
  in
  let hybrid = Hybrid.create ~update_period:0.25 net () in
  let rate_pps = isp_flow_bps /. float_of_int (8 * isp_packet_size) in
  let members =
    st.step "admission" (fun () ->
        List.init isp_flows (fun _ ->
            let src = hosts.(Prng.int rng nh) in
            let dst = ref hosts.(Prng.int rng nh) in
            while !dst = src do dst := hosts.(Prng.int rng nh) done;
            Hybrid.add_flow hybrid ~src ~dst:!dst
              (Hybrid.Cbr { rate_pps; packet_size = isp_packet_size })))
  in
  let wide =
    st.step "deploy" (fun () ->
        O.deploy_wide net ~protect:(victim :: (decoys_a @ decoys_b))
          ~config:
            { O.default_config with
              region_ttl = 1; min_dwell = 0.5; clear_hold = 1.5; check_period = 0.1 }
          ~on_mode:(fun ~sw ~attack:_ ~active ->
            if active then Hybrid.mark_hot hybrid ~node:sw else Hybrid.clear_hot hybrid ~node:sw)
          ())
  in
  let start = 6. +. Prng.float rng 1. in
  let stop = start +. 8. in
  let roll = start +. 3.5 +. Prng.float rng 1. in
  let decoy_groups = [ decoys_a; decoys_b ] in
  let volume, recon =
    st.step "attack" (fun () ->
        let volume =
          Ff_attacks.Lfa.Fluid_volume.launch hybrid ~bots ~decoy_groups
            ~rate_bps_per_flow:60_000_000. ~packet_size:isp_packet_size ~start ~stop
            ~roll_schedule:[ roll ] ()
        in
        let recon =
          Ff_attacks.Lfa.launch net ~bots ~decoy_groups ~start ~stop ~flows_per_bot:1
            ~roll_on_path_change:false ~roll_schedule:[ roll ] ()
        in
        (volume, recon))
  in
  { i_net = net; hybrid; members; i_wide = wide; volume; recon; bots;
    decoys = decoys_a @ decoys_b; start; stop; roll }

let isp_until = 22.

(* Time [mark_hot]/[clear_hot] plus the sweep they trigger on a fresh copy
   of the population, per demoted/promoted flow: every switch of the PoP
   the attack targets goes hot, then cold again. *)
let hybrid_churn ~seed =
  let no_step = { step = (fun _ f -> f ()) } in
  let c = build_isp ~seed no_step in
  let region =
    switches_on_paths c.i_net ~srcs:c.bots ~dsts:c.decoys
  in
  let rounds = 3 in
  let demote = ref [] and promote = ref [] in
  for _ = 1 to rounds do
    let d0 = Hybrid.demotions c.hybrid in
    let t0 = Clock.ns () in
    List.iter (fun sw -> Hybrid.mark_hot c.hybrid ~node:sw) region;
    Hybrid.reevaluate c.hybrid;
    let t1 = Clock.ns () in
    let d = Hybrid.demotions c.hybrid - d0 in
    let p0 = Hybrid.promotions c.hybrid in
    let t2 = Clock.ns () in
    List.iter (fun sw -> Hybrid.clear_hot c.hybrid ~node:sw) region;
    Hybrid.reevaluate c.hybrid;
    let t3 = Clock.ns () in
    let p = Hybrid.promotions c.hybrid - p0 in
    if d > 0 then demote := (float_of_int (t1 - t0) /. float_of_int d) :: !demote;
    if p > 0 then promote := (float_of_int (t3 - t2) /. float_of_int p) :: !promote
  done;
  [ ("hybrid.demote_ns_per_flow", median !demote);
    ("hybrid.promote_ns_per_flow", median !promote) ]

(* Direct timed [Fluid.recompute] calls on the run's own class population
   after it ended: one dirty link at a time (incremental), and every link
   dirty (falls back to a full fill). *)
let fluid_recompute fluid net =
  let n = Net.n_dirlinks net in
  let incr =
    List.init 64 (fun i ->
        let li = i * 7919 mod n in
        let t0 = Clock.ns () in
        Fluid.mark_link_dirty fluid li;
        Fluid.recompute fluid;
        float_of_int (Clock.ns () - t0) /. 1e3)
  in
  let full =
    List.init 8 (fun _ ->
        let t0 = Clock.ns () in
        for li = 0 to n - 1 do Fluid.mark_link_dirty fluid li done;
        Fluid.recompute fluid;
        float_of_int (Clock.ns () - t0) /. 1e3)
  in
  [ ("fluid.recompute_us.incr", median incr); ("fluid.recompute_us.full", median full) ]

let isp_hybrid_100k ~seed (st : step) =
  let c = build_isp ~seed st in
  let net = c.i_net in
  let until = isp_until in
  let region = switches_on_paths net ~srcs:c.bots ~dsts:c.decoys in
  let benign () =
    List.fold_left (fun acc m -> acc +. Hybrid.delivered_bytes c.hybrid m) 0. c.members
  in
  let windows = { pre = [ (2.0, c.start) ]; attack = [ (c.start, c.stop) ] } in
  let finish ~sample =
    Ff_attacks.Lfa.stop_now c.recon;
    let fluid = Hybrid.fluid c.hybrid in
    let p = c.i_wide.O.w_protocol in
    let hops = Net.total_tx_packets net in
    let hop_bytes = Fluid.hop_bytes fluid in
    let delivered = benign () in
    let rate_pps = isp_flow_bps /. float_of_int (8 * isp_packet_size) in
    let offered = float_of_int isp_flows *. rate_pps *. until in
    let attempted = int_of_float offered in
    let delivered_pkts = int_of_float (delivered /. float_of_int isp_packet_size) in
    let s = Fluid.solver_stats fluid in
    let rolls = Ff_attacks.Lfa.Fluid_volume.rolls c.volume in
    {
      fingerprint =
        net_fingerprint net
        @ [ ("hop_bytes", fl hop_bytes);
            ("benign_bytes", fl delivered);
            ("demotions", string_of_int (Hybrid.demotions c.hybrid));
            ("promotions", string_of_int (Hybrid.promotions c.hybrid));
            ("transitions", string_of_int (Protocol.transitions p));
            ("rate_events", string_of_int (Fluid.rate_events fluid)) ];
      attempted;
      undelivered = max 0 (attempted - delivered_pkts);
      goodput_ratio = goodput_ratio ~sample windows;
      detect_s =
        detect_latency ~log:(Protocol.log p) ~kind:Packet.Lfa ~region
          ~onsets:(c.start :: rolls) ~until;
      hops;
      equiv = (hop_bytes /. float_of_int isp_packet_size) +. float_of_int hops;
      layers =
        protocol_layers p
        @ [ ("fluid.classes", float_of_int (Fluid.classes fluid));
            ("fluid.rate_events", float_of_int (Fluid.rate_events fluid));
            ("fluid.solves", float_of_int s.Fluid.solves);
            ("fluid.skipped", float_of_int s.Fluid.skipped);
            ("fluid.full_solves", float_of_int s.Fluid.full_solves);
            ("fluid.touched_classes", float_of_int s.Fluid.touched_classes);
            ("fluid.seen_classes", float_of_int s.Fluid.seen_classes);
            ("fluid.max_component", float_of_int s.Fluid.max_component);
            ("hybrid.demotions", float_of_int (Hybrid.demotions c.hybrid));
            ("hybrid.promotions", float_of_int (Hybrid.promotions c.hybrid));
            ("hybrid.demote_denied", float_of_int (Hybrid.demote_denied c.hybrid));
            ("hybrid.demoted_peak", float_of_int (Hybrid.demoted_peak c.hybrid)) ];
      checks =
        [ ("benign delivered <= offered", delivered_pkts <= attempted);
          ("benign traffic delivered", delivered > 0.);
          ("defense activated", Protocol.transitions p > 0);
          ("flows demoted and promoted back",
           Hybrid.demotions c.hybrid > 0 && Hybrid.promotions c.hybrid > 0);
          ("fluid tier carried traffic", hop_bytes > 0.) ];
    }
  in
  let probes () =
    fluid_recompute (Hybrid.fluid c.hybrid) net @ hybrid_churn ~seed
  in
  { net; until; windows; benign; finish; probes }

(* ---- synflood_proxy ------------------------------------------------------ *)

(* Fig2 topology with the armed SYN-guard split proxy at the victim's
   edge: three waves of spoofed SYN floods against a capped listener while
   closed-loop handshake clients keep connecting. *)
let synflood_proxy ~seed (st : step) =
  let rng = Prng.create ~seed in
  let lm = st.step "topology" (fun () -> T.Fig2.build ~bots:8 ~normals:4 ()) in
  let topo = lm.T.Fig2.topo in
  let engine = Engine.create () in
  let net = Net.create engine topo in
  st.step "routes" (fun () -> Fastflex.Scenario.install_all_routes net);
  let victim = lm.T.Fig2.victim in
  let sg, listener =
    st.step "deploy" (fun () ->
        let listener = Flow.Listener.install net ~host:victim ~backlog:64 ~syn_timeout:3.0 () in
        let sg = O.deploy_synguard net ~sw:lm.T.Fig2.victim_agg ~protect:victim () in
        Ff_boosters.Syn_guard.attach_server_agent sg.O.sg_guard listener;
        (sg, listener))
  in
  let clients =
    st.step "admission" (fun () ->
        List.concat_map
          (fun src ->
            List.init 3 (fun _ ->
                let at = 0.5 +. Prng.float rng 0.5 in
                let conn_interval = 0.2 +. Prng.float rng 0.1 in
                Flow.Handshake.start net ~src ~dst:victim ~at ~conn_interval ()))
          lm.T.Fig2.normal_sources)
  in
  let waves =
    List.init 3 (fun i ->
        let s = 8. +. (16. *. float_of_int i) +. Prng.float rng 2. in
        (s, s +. 8.))
  in
  let until = 56. in
  let floods =
    st.step "attack" (fun () ->
        List.map
          (fun (start, stop) ->
            Ff_attacks.Synflood.launch net ~bots:lm.T.Fig2.bot_sources ~victim
              ~syn_rate_pps:1500. ~start ~stop ~spoof_as:lm.T.Fig2.normal_sources ())
          waves)
  in
  let sum f = List.fold_left (fun acc c -> acc + f c) 0 clients in
  let benign () = float_of_int (sum Flow.Handshake.completed) in
  let windows = { pre = [ (2.0, fst (List.hd waves)) ]; attack = waves } in
  let finish ~sample =
    let p = sg.O.sg_protocol in
    let g = sg.O.sg_guard in
    let ck = Ff_boosters.Syn_guard.tracker g in
    let hops = Net.total_tx_packets net in
    let attempts = sum Flow.Handshake.attempts and failed = sum Flow.Handshake.failed in
    let completed = sum Flow.Handshake.completed in
    let module SG = Ff_boosters.Syn_guard in
    {
      fingerprint =
        net_fingerprint net
        @ [ ("transitions", string_of_int (Protocol.transitions p));
            ("attempts", string_of_int attempts);
            ("completed", string_of_int completed);
            ("failed", string_of_int failed);
            ("cookies", string_of_int (SG.cookies_sent g));
            ("validated", string_of_int (SG.validated g));
            ("established", string_of_int (Flow.Listener.established listener));
            ("syns", string_of_int
                (List.fold_left (fun a f -> a + Ff_attacks.Synflood.syns_sent f) 0 floods)) ];
      attempted = attempts;
      undelivered = failed;
      goodput_ratio = goodput_ratio ~sample windows;
      detect_s =
        detect_latency ~log:(Protocol.log p) ~kind:Packet.Synflood
          ~region:[ lm.T.Fig2.victim_agg ] ~onsets:(List.map fst waves) ~until;
      hops;
      equiv = float_of_int hops;
      layers =
        protocol_layers p
        @ [ ("cuckoo.kicks", float_of_int (Ff_dataplane.Cuckoo.kicks ck));
            ("cuckoo.failed_inserts", float_of_int (Ff_dataplane.Cuckoo.failed_inserts ck));
            ("cuckoo.occupancy", Ff_dataplane.Cuckoo.occupancy ck);
            ("synguard.cookies", float_of_int (SG.cookies_sent g));
            ("synguard.validated", float_of_int (SG.validated g));
            ("listener.backlog_drops", float_of_int (Flow.Listener.backlog_drops listener));
            ("listener.timeouts", float_of_int (Flow.Listener.timeouts listener));
            ("handshake.attempts", float_of_int attempts);
            ("handshake.completed", float_of_int completed);
            ("handshake.failed", float_of_int failed) ];
      checks =
        [ ("handshakes completed", completed > 0);
          ("completed + failed <= attempts", completed + failed <= attempts);
          ("syn-guard armed", Protocol.transitions p > 0 && SG.cookies_sent g > 0);
          ("validated connections established", SG.validated g > 0) ];
    }
  in
  { net; until; windows; benign; finish; probes = (fun () -> []) }

(* ---- cbr_sharded ------------------------------------------------------- *)

let cbr_duration = 4.0
let cbr_rate_pps = 250.

(* Shortest-path routes toward every host with seeded tie-breaking: at
   each switch the next hop toward a destination is drawn among the
   neighbours one hop closer, so cross-pod traffic spreads over the
   cores. Returns (switch, destination, next hop) entries, to be
   installed identically on every shard's net. *)
let ecmp_routes rng topo =
  let n = T.num_nodes topo in
  let is_switch id = (T.node topo id).T.kind = T.Switch in
  List.concat_map
    (fun (d : T.node) ->
      match T.neighbors topo d.T.id with
      | [] -> []
      | (access, _) :: _ ->
        let dist = Array.make n (-1) in
        dist.(access) <- 0;
        let q = Queue.create () in
        Queue.add access q;
        let order = ref [] in
        while not (Queue.is_empty q) do
          let u = Queue.pop q in
          order := u :: !order;
          List.iter
            (fun (v, _) ->
              if is_switch v && dist.(v) < 0 then begin
                dist.(v) <- dist.(u) + 1;
                Queue.add v q
              end)
            (T.neighbors topo u)
        done;
        List.rev !order
        |> List.map (fun sw ->
               if sw = access then (sw, d.T.id, d.T.id)
               else begin
                 let closer =
                   List.filter_map
                     (fun (v, _) -> if is_switch v && dist.(v) = dist.(sw) - 1 then Some v else None)
                     (T.neighbors topo sw)
                   |> Array.of_list
                 in
                 (sw, d.T.id, closer.(Prng.int rng (Array.length closer)))
               end))
    (T.hosts topo)

(* fat-tree(8), one CBR flow from every host to a seeded host in another
   pod, no defense; run by [Psim.run]. Start offsets are continuous
   seeded draws, so no two distinct events share an instant (the
   condition under which a sharded run equals the 1-shard run). *)
let cbr_sharded ~seed (st : step) =
  let rng = Prng.create ~seed in
  let topo = st.step "topology" (fun () -> T.fat_tree ~k:8 ()) in
  let hosts = T.hosts topo in
  (* host names are h<pod>_<edge>_<i>; hosts come pod by pod *)
  let pod (n : T.node) =
    int_of_string
      (List.hd (String.split_on_char '_' (String.sub n.T.name 1 (String.length n.T.name - 1))))
  in
  let harr = Array.of_list hosts in
  let pods = 1 + Array.fold_left (fun acc h -> max acc (pod h)) 0 harr in
  let in_pod p = List.filter (fun h -> pod h = p) hosts |> Array.of_list in
  (* a seeded permutation of hosts in which every host sends to, and
     receives from, exactly one host of another pod: a pod derangement,
     then a random bijection between the two pods' hosts *)
  let rec derangement () =
    let a = Array.init pods Fun.id in
    Prng.shuffle rng a;
    if Array.exists (fun x -> x) (Array.mapi (fun i p -> i = p) a) then derangement () else a
  in
  let sigma = derangement () in
  let pairs =
    List.init pods (fun p ->
        let srcs = in_pod p and dsts = in_pod sigma.(p) in
        Prng.shuffle rng dsts;
        Array.to_list
          (Array.mapi
             (fun i (s : T.node) ->
               let at = 1e-4 +. Prng.float rng 0.01 in
               (s.T.id, dsts.(i).T.id, at))
             srcs))
    |> List.concat |> Array.of_list
  in
  let n = Array.length pairs in
  let delivered = Array.make n 0 and time_sum = Array.make n 0. in
  let pre = (0.2, cbr_duration /. 2.) and att = (cbr_duration /. 2., cbr_duration) in
  (* per slot, like the other counters: each slot's receiver runs on the
     domain owning its destination, so no cell is written by two domains *)
  let in_pre = Array.make n 0 and in_att = Array.make n 0 in
  let routes = st.step "routes" (fun () -> ecmp_routes rng topo) in
  let sent = ref [] in
  let setup (st : step) nets =
    st.step "install" (fun () ->
        Array.iter
          (fun net ->
            List.iter (fun (sw, dst, next_hop) -> Net.set_route net ~sw ~dst ~next_hop) routes)
          nets);
    st.step "admission" (fun () ->
        let owning h =
          match Array.find_opt (fun net -> Net.owns net h) nets with
          | Some net -> net
          | None -> invalid_arg "cbr_sharded: unowned host"
        in
        Array.iteri
          (fun slot (src, dst, at) ->
            let src_net = owning src in
            let cbr =
              Flow.Cbr.start src_net ~src ~dst ~rate_pps:cbr_rate_pps ~at ~stop:cbr_duration
                ~packet_size:1000 ()
            in
            sent := cbr :: !sent;
            let dst_net = owning dst in
            Hashtbl.replace (Net.host dst_net dst).Net.receivers (Flow.Cbr.flow_id cbr)
              (fun (_ : Packet.t) ->
                let now = Net.now dst_net in
                delivered.(slot) <- delivered.(slot) + 1;
                time_sum.(slot) <- time_sum.(slot) +. now;
                if now >= fst pre && now < snd pre then in_pre.(slot) <- in_pre.(slot) + 1
                else if now >= fst att && now < snd att then in_att.(slot) <- in_att.(slot) + 1))
          pairs)
  in
  let s_finish (r : Psim.result) =
    let hops = Psim.total_tx r in
    let total_sent = List.fold_left (fun acc c -> acc + Flow.Cbr.sent_packets c) 0 !sent in
    let total_delivered = Array.fold_left ( + ) 0 delivered in
    let dur (a, b) = b -. a in
    {
      fingerprint =
        [ ("hops", string_of_int hops);
          ("events", string_of_int r.Psim.events);
          ("drops", drops_fp (Psim.drops_by_reason r));
          ("sent", string_of_int total_sent);
          ("delivered", String.concat "," (Array.to_list (Array.map string_of_int delivered)));
          ("time_sum", fl (Array.fold_left ( +. ) 0. time_sum)) ];
      attempted = total_sent;
      undelivered = total_sent - total_delivered;
      goodput_ratio =
        (float_of_int (Array.fold_left ( + ) 0 in_att) /. dur att)
        /. (float_of_int (Array.fold_left ( + ) 0 in_pre) /. dur pre);
      detect_s = nan;
      hops;
      equiv = float_of_int hops;
      layers = [];
      checks =
        [ ("every flow delivered", Array.for_all (fun d -> d > 0) delivered);
          ("delivered <= sent", total_delivered <= total_sent) ];
    }
  in
  { topo; s_until = cbr_duration +. 0.05; setup; s_finish }
