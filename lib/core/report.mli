(** The one result record every scenario run produces ({!Scenario.run}).

    Common fields cover what all scenarios share: the attack events, the
    benign-goodput series normalized against its pre-attack level (paper
    Figure 3's y-axis), recovery times, the mode-change log and drops.
    Everything scenario-specific is a named number in [metrics]. Counts
    are stored as floats; {!count} reads them back as ints.

    {2 Metric names}

    Scenarios that measure benign goodput (lfa, volumetric, synflood,
    lfa-fluid) report:
    - [goodput_baseline]: mean goodput over the pre-attack window, bytes/s;
    - [goodput_mean], [goodput_min]: normalized goodput over the attack
      window (1.0 when the window holds no sample).

    Per scenario, in addition:
    - lfa: [rolls] (attacker re-targets), [reconfigs] (baseline controller
      installations), [marked] (packets classified suspicious), [probes]
      (rerouting probes sent);
    - volumetric: [hcf_filtered] (spoofed packets the hop-count filter
      removed), [offender_drops] (packets policed off offender flows),
      [alarmed] (1 if the heavy hitter is alarmed at the end);
    - synflood: [peak_backlog] (high-water accept-backlog occupancy),
      [backlog_drops], [timeouts] (half-open entries expired),
      [established], [completed] and [failed] (client handshakes),
      [syns_sent], [cookies_sent], [validated], [rejected] (forged acks
      dropped at the edge), [unverified_drops], [tracker_occupancy] (cuckoo
      load at the end), [tracker_failed_inserts], [alarmed];
    - adversarial: [probes], [damage] (integral of decoy-link
      over-utilization, util-s), [peak_util], [effective] (1 if the attack
      ever became effective), [time_to_effective] (censored at the
      horizon), [work_factor], [alarms], [drops], [rotations] (hash-salt
      rotations), [fingerprint] (low 52 bits of the attacker decision
      fingerprint, 0 open-loop);
    - lfa-fluid: [flows], [classes] (fluid path classes), [packet_tx]
      (per-hop packet transmissions), [fluid_hop_bytes],
      [packet_equivalents] (fluid hop-bytes / packet size + packet_tx),
      [delivered_bytes] (benign), [demoted_peak], [demoted_frac_peak],
      [demotions], [promotions], [demote_denied], [rolls], [rate_events],
      [solves], [skipped], [full_solves], [touched_frac], [loss_cuts],
      [max_component]. *)

type t = {
  scenario : string;  (** lfa, volumetric, synflood, adversarial or lfa-fluid *)
  variant : string;  (** defense/attacker configuration, e.g. [fastflex] *)
  duration : float;  (** simulated seconds *)
  attack_events : float list;  (** attack start, then each re-target *)
  series : Ff_util.Series.t list;
      (** series sampled during the run; benign goodput (bytes/s) first
          when the scenario measures it *)
  normalized : Ff_util.Series.t;
      (** benign goodput / [goodput_baseline]; empty without goodput *)
  recovery_times : (float * float) list;
      (** (attack event, seconds until normalized goodput >= 0.8) *)
  mode_log : (float * int * Ff_dataplane.Packet.attack_kind * bool) list;
  drops : (string * int) list;
  metrics : (string * float) list;
  log : string list;
      (** adversarial only: the attacker summary, then its decision log *)
}

val metric : t -> string -> float
(** Raises [Invalid_argument] naming the scenario when the key is absent. *)

val count : t -> string -> int

val pp : Format.formatter -> t -> unit
(** Header, one line per metric, recovery per attack event, drops. *)
