(** LFA detection booster (paper section 4.1, "LFA detection").

    Detects (a) high load on its watched links and (b) persistent, low-rate
    flows — the Crossfire signature — by maintaining per-flow state on
    every data packet (Dapper/Blink-style TCP monitoring, simplified).

    When the watched utilization crosses [high_threshold] the detector
    raises an alarm (wired to the mode protocol by the orchestrator). While
    the alarm is up, the per-packet stage marks packets of flows older than
    [min_age] whose rate is below [suspicious_rate] as suspicious; the mark
    is what mitigation boosters (reroute, dropper) act on downstream.

    Hysteresis is measured on the {e offered} load — bytes whose default
    route crosses a watched link, counted in the detector stage before
    mitigation polices or reroutes them — not on the transmitted
    utilization alone: once the dropper bites, transmitted utilization
    collapses and would clear the alarm while the attacker is still
    blasting, re-alarming the moment mitigation lifts (the oscillation
    the paper warns about, and exactly what a threshold-hugging
    adversary farms). The all-clear additionally requires the aggregate
    rate of currently suspicious flows below [clear_fraction] of the
    watched capacity, offered load below [low_threshold], and both held
    for [clear_hold] seconds.

    Against adaptive threshold-huggers the effective alarm threshold can
    be randomized: with [threshold_jitter] > 0 it is redrawn uniformly
    from [high_threshold - threshold_jitter, high_threshold] every
    [jitter_period] seconds (seeded, deterministic), denying the
    attacker a stable safe operating point. The default (0.) is
    bit-identical to the unhardened detector.

    Cost model: each flow id gets one flat row of per-flow state, found
    through an open-addressed int table on every data packet. Rows are
    never evicted, so [tracked_flows] counts every flow id the switch has
    ever seen (up to 4,020 per detector on the [isp_hybrid_100k]
    benchmark workload). The check every [check_period] recounts the
    fan-in in one pass over those rows into an array indexed by
    destination node id, with no hashing; only destination ids outside
    the node range go through a small fallback table. Flow ids of data
    packets must be non-negative, as [Net.fresh_flow_id] makes them. *)

type t

type alarm = { switch : int; attack : Ff_dataplane.Packet.attack_kind }

val install :
  Ff_netsim.Net.t ->
  sw:int ->
  watched:(int * int) list ->
  ?check_period:float ->
  ?high_threshold:float ->
  ?low_threshold:float ->
  ?threshold_jitter:float ->
  ?jitter_period:float ->
  ?seed:int ->
  ?suspicious_rate:float ->
  ?min_age:float ->
  ?clear_fraction:float ->
  ?clear_hold:float ->
  ?dst_flows_min:int ->
  on_alarm:(alarm -> unit) ->
  on_clear:(alarm -> unit) ->
  unit ->
  t
(** [watched] are directed links [(from, to)] whose utilization this
    detector guards (its own egress links toward the critical core).
    Defaults: check every 50 ms, alarm above 0.85 utilization, suspicious
    below 1.5 Mb/s after 2 s of age {e and} at least [dst_flows_min] = 8
    live flows converging on the same destination (the Crossfire fan-in —
    this is what keeps congested-but-legitimate flows out of the suspicious
    set), clear when suspicious traffic is under 0.1 of watched capacity
    for 3 s. *)

val alarmed : t -> bool

val offered_utilization : t -> float
(** Max over watched egress links of (offered load / capacity) over the
    last second — the pre-mitigation demand the hysteresis runs on. *)

val current_high_threshold : t -> float
(** The effective (possibly jittered) alarm threshold in force now. *)

val suspicious_flows : t -> int list
val is_suspicious_flow : t -> int -> bool
val is_suspicious_source : t -> int -> bool
val tracked_flows : t -> int
(** Distinct flow ids seen so far (rows are never evicted). *)

val marks : t -> int
(** Packets marked suspicious so far. *)

val flow_rate : t -> int -> float
(** Estimated rate of a tracked flow, bits/s (0. if unknown). *)
