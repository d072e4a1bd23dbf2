(** The end-to-end experiments. Each setup function builds the network,
    deploys its defense and schedules its attack, and returns a {!t};
    {!run} simulates it and measures it into a {!Report.t}. Attach extra
    monitors, a trace or chaos to [net s] between the two.

    Benign goodput is reported normalized to the no-attack steady state
    measured in the same run before the attack begins, matching the
    y-axis of paper Figure 3. *)

type t

val net : t -> Ff_netsim.Net.t

val run : t -> Report.t
(** Runs the simulation to the setup's duration, then reads its
    counters. Metric names per setup are listed in {!Report}. *)

(** {1 Rolling link-flooding attack (paper section 4.3, Figure 3)}

    Normal flows toward a victim, a rolling Crossfire LFA on the two
    critical links of the Figure 2 topology, and one of three defenses:

    - [No_defense]: static default TE only;
    - [Baseline_sdn]: the state-of-the-art SDN defense, centralized TE
      re-solving every period (Spiffy-like);
    - [Fastflex]: the multimode data plane — detection, distributed mode
      change, suspicious-only rerouting, obfuscation, and dropping. *)

type defense =
  | No_defense
  | Baseline_sdn of { period : float; delay : float }
  | Fastflex of Orchestrator.config

type attack_plan = {
  start : float;
  roll_schedule : float list;  (** forced re-targets (the figure's rounds) *)
  roll_on_path_change : bool;
  flows_per_bot : int;
  bot_max_cwnd : float;
}

val default_attack : attack_plan
(** Starts at 10 s; forced rolls at 45 s and 80 s (three rounds over
    120 s); rolls on observed path changes. *)

val lfa :
  defense:defense ->
  ?attack:attack_plan option ->
  ?duration:float ->
  ?normals:int ->
  ?bots:int ->
  unit ->
  t
(** [~attack:None] is the calibration-only scenario (no attack).
    Defaults: the default attack, 120 s, 4 normal hosts, 8 bots; goodput
    sampled every 0.5 s. *)

(** {1 Volumetric DDoS}

    Bots blast spoofed-source CBR traffic at the victim through the
    aggregation chokepoint; the defense is heavy-hitter detection wired
    into the mode protocol (dropping + hop-count filtering). *)

val volumetric : defended:bool -> ?duration:float -> ?spoof:bool -> unit -> t
(** Defaults: 60 s, spoofing on. Each of the 8 bots sends 600 pps — each
    bot flow is individually a 4.8 Mb/s heavy hitter, 38 Mb/s aggregate
    against a 20 Mb/s cut — from t=10. *)

(** {1 SYN flood}

    The split-proxy scenario: bots open spoofed connections they never
    finish, exhausting the victim's accept backlog; the defense is the
    CuckooGuard-style booster ({!Ff_boosters.Syn_guard}) — SYN-cookie
    interception at the victim's edge switch plus a cuckoo-filter flow
    tracker, with the server's listener trusting edge-validated
    handshakes. Goodput is the legitimate clients' completed-handshake
    byte rate. *)

val synflood :
  defended:bool ->
  ?hardened:bool ->
  ?duration:float ->
  ?attack_rate_pps:float ->
  ?backlog:int ->
  ?syn_timeout:float ->
  unit ->
  t
(** Defaults: 60 s, 400 SYNs/s per bot from t=10 (3200/s aggregate
    against a 64-slot backlog with a 3 s half-open timeout — refills a
    freed slot five hundred times faster than legitimate clients retry),
    spoofing always on. [hardened] threads
    {!Orchestrator.default_hardening} (jittered SYN-rate threshold,
    cookie-secret rotation) through {!Orchestrator.deploy_synguard}. *)

(** {1 Closed-loop adversarial arena}

    One fat-tree(4) arena per adaptive strategy
    ({!Ff_attacks.Adaptive}), each running the defense subset that
    strategy evades: the threshold hugger faces the LFA stack (offered-
    load hysteresis detectors at the pod-0 aggregation switches, cross-
    switch suspicious-source sync, droppers); the collision prober faces
    a flow-keyed HashPipe heavy hitter plus a fanout guard that flags
    key-spreading sources (so collisions are the only way to hide); the
    epoch timer faces a source-keyed heavy hitter (a fixed bot
    population cannot spread past per-sender accounting). Damage is the
    over-utilization of the four pod-0 aggregation-to-edge decoy links,
    integrated by {!Ff_obs.Workfactor}; the arena measures no goodput.
    [hardened] switches on {!Orchestrator.default_hardening} (jittered
    thresholds/epochs, salt rotation); [Open_loop] replaces the adaptive
    attacker with a fixed blast in the same arena — the baseline both
    acceptance ratios are normalized against. *)

type adversary = Closed_loop | Open_loop

val adversarial :
  strategy:Ff_attacks.Adaptive.strategy ->
  adversary:adversary ->
  ?hardened:bool ->
  ?seed:int ->
  ?duration:float ->
  ?attack_start:float ->
  unit ->
  t
(** Defaults: unhardened, seed 1, 70 s with the attack from t=10. The
    same seed replays the identical run (attacker and defense draws are
    both derived from it). *)

(** {1 Hybrid fluid/packet ISP scenario}

    The scale tier: an ISP-like three-tier topology
    ({!Ff_topology.Topology.isp}, 2 access switches per core, 4 hosts per
    access) carrying 10^5+ concurrent benign flows in the hybrid engine
    ({!Ff_fluid.Hybrid}) while a rolling link-flooding adversary injects
    its volume as fluid aggregates. The wide defense deployment's mode
    protocol drives the hybrid tier's demotion predicate: flows whose
    paths cross a switch with active modes drop to packet fidelity and
    promote back once the region clears. The scenario detaches any
    ambient trace from its network. *)

val install_all_routes : Ff_netsim.Net.t -> unit
(** Shortest-path route trees toward every host (BFS per destination,
    transiting switches only). *)

val lfa_fluid :
  ?flows:int ->
  ?duration:float ->
  ?force:Ff_fluid.Hybrid.force ->
  ?flow_rate_bps:float ->
  ?cores:int ->
  ?attack_start:float ->
  ?attack_stop:float ->
  ?roll_at:float ->
  ?attack_bps_per_flow:float ->
  ?demote_budget:int ->
  ?goodput_period:float ->
  unit ->
  t
(** Defaults: 100k flows at 25 kb/s each (1000-byte packets, seed 11)
    over the 12-core ISP topology for 40 s; the flood (8 bots x 60 Mb/s
    per decoy aggregate) runs from t=10 to t=18 with one roll between
    decoy groups at t=14; goodput sampled every 0.5 s. [force] selects
    the engine tier: [Auto] is the hybrid proper, [All_packet]
    reproduces the pure packet engine bit-identically (the differential
    anchor), [All_fluid] never demotes. *)
