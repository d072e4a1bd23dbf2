module Net = Ff_netsim.Net
module Engine = Ff_netsim.Engine
module Packet = Ff_dataplane.Packet
module Window_counter = Ff_util.Stats.Window_counter

(* Per-flow state as flat rows, the layout a switch keeps in register
   arrays: [index] maps a flow id to its row, and row [r]'s fields sit at
   [rows.(r * row_width + f)] in one float array, so the stores in
   [update_flow] (every data packet at every detector switch) are unboxed
   and the 50 ms check is one linear pass. Rows are appended in first-seen
   order and never evicted. [f_dst] carries an int node id (exact in a
   float), [f_suspicious] a 0./1. flag. *)
let f_first_seen = 0
let f_last_seen = 1
let f_rate = 2 (* bits/s over the last completed window *)
let f_window_start = 3
let f_window_bytes = 4
let f_dst = 5
let f_suspicious = 6
let row_width = 7

type alarm = { switch : int; attack : Packet.attack_kind }

type t = {
  net : Net.t;
  sw : int;
  watched : (int * int) list;
  high_threshold : float;
  low_threshold : float;
  suspicious_rate : float;
  min_age : float;
  clear_fraction : float;
  clear_hold : float;
  dst_flows_min : int;
  index : Ff_util.Int_table.t; (* flow id -> row *)
  mutable rows : float array;
  mutable n_rows : int;
  suspicious_srcs : (int, unit) Hashtbl.t;
  (* live flows toward each destination as of the last check, indexed by
     node id; ids outside the node range fall back to [fanin_other] *)
  fanin : int array;
  fanin_other : (int, int) Hashtbl.t;
  (* Offered-load tracking (pre-mitigation): bytes whose *default* route
     crosses a watched egress link, counted in the detector stage — i.e.
     before the dropper polices or the reroute steers them. Hysteresis on
     the transmitted utilization alone would flap: mitigation suppresses
     the very signal that raised the alarm. Indexed by next-hop node id
     via [watched_idx] (-1 = not watched / not our egress). *)
  watched_idx : int array;
  offered_ctr : Window_counter.t array;
  offered_cap : float array;
  (* Randomized-threshold hardening: the effective alarm threshold is
     redrawn from [high_threshold - jitter, high_threshold] every
     [jitter_period], so a threshold-hugging adversary cannot learn a
     stable safe operating point. jitter = 0. (default) keeps the
     detector bit-identical to the unhardened one. *)
  threshold_jitter : float;
  jitter_period : float;
  rng : Ff_util.Prng.t;
  mutable high_eff : float;
  mutable low_eff : float;
  mutable next_draw : float;
  mutable alarmed : bool;
  mutable calm_since : float option;
  mutable marks : int;
  on_alarm : alarm -> unit;
  on_clear : alarm -> unit;
}

(* Per-flow rate over fixed windows: bursty TCP arrivals make per-packet
   instantaneous estimates useless (intra-burst gaps dominate), so the rate
   is bytes over a half-second measurement window. *)
let rate_window = 0.5

let offered_window = 1.0

let add_row t now (pkt : Packet.t) =
  let n = t.n_rows in
  if (n + 1) * row_width > Array.length t.rows then begin
    let rows = Array.make (2 * Array.length t.rows) 0. in
    Array.blit t.rows 0 rows 0 (n * row_width);
    t.rows <- rows
  end;
  let rows = t.rows and b = n * row_width in
  rows.(b + f_first_seen) <- now;
  rows.(b + f_last_seen) <- now;
  rows.(b + f_rate) <- 0.;
  rows.(b + f_window_start) <- now;
  rows.(b + f_window_bytes) <- 0.;
  rows.(b + f_dst) <- float_of_int pkt.dst;
  rows.(b + f_suspicious) <- 0.;
  Ff_util.Int_table.set t.index pkt.flow n;
  t.n_rows <- n + 1;
  b

(* Returns the offset of the flow's row in [t.rows]. *)
let update_flow t now (pkt : Packet.t) =
  let r = Ff_util.Int_table.get t.index pkt.flow ~default:(-1) in
  let b = if r >= 0 then r * row_width else add_row t now pkt in
  let rows = t.rows in
  let bytes = rows.(b + f_window_bytes) +. float_of_int pkt.size in
  let elapsed = now -. rows.(b + f_window_start) in
  if elapsed >= rate_window then begin
    rows.(b + f_rate) <- bytes *. 8. /. elapsed;
    rows.(b + f_window_start) <- now;
    rows.(b + f_window_bytes) <- 0.
  end
  else rows.(b + f_window_bytes) <- bytes;
  rows.(b + f_last_seen) <- now;
  b

let fanin_of t dst =
  if dst >= 0 && dst < Array.length t.fanin then t.fanin.(dst)
  else try Hashtbl.find t.fanin_other dst with Not_found -> 0

let classify t now b (pkt : Packet.t) =
  (* The Crossfire signature (paper 4.1): persistent, individually low-rate
     flows, many of them converging on the same destination — legitimate
     flows congested down to a low rate do not share the fan-in. *)
  let rows = t.rows in
  let age = now -. rows.(b + f_first_seen) in
  let rate = rows.(b + f_rate) in
  if
    age >= t.min_age && rate > 0. && rate < t.suspicious_rate
    && fanin_of t (int_of_float rows.(b + f_dst)) >= t.dst_flows_min
  then begin
    rows.(b + f_suspicious) <- 1.;
    Hashtbl.replace t.suspicious_srcs pkt.src ()
  end;
  if rows.(b + f_suspicious) > 0. then begin
    pkt.Packet.suspicious <- true;
    t.marks <- t.marks + 1
  end

(* Classification runs when this detector has raised its own alarm OR when
   the distributed "classify" mode reached this switch (an alarm elsewhere,
   propagated by mode probes): upstream switches with path diversity must
   mark flows even though their own links are calm. *)
let classify_key = Common.mode_key Common.mode_classify
let classifying t ctx = t.alarmed || Common.mode_on ctx.Net.sw classify_key

let count_offered t (ctx : Net.ctx) (pkt : Packet.t) now =
  let routes = ctx.Net.sw.Net.routes in
  if pkt.dst >= 0 && pkt.dst < Array.length routes then begin
    let nh = Array.unsafe_get routes pkt.dst in
    if nh >= 0 then begin
      let wi = Array.unsafe_get t.watched_idx nh in
      if wi >= 0 then
        Window_counter.add t.offered_ctr.(wi) ~now (float_of_int pkt.size *. 8.)
    end
  end

let stage t =
  {
    Net.stage_name = "lfa-detector";
    process =
      (fun ctx pkt ->
        (match pkt.Packet.payload with
        | Packet.Data ->
          let tnow = Net.now ctx.Net.net in
          count_offered t ctx pkt tnow;
          let b = update_flow t tnow pkt in
          if classifying t ctx then classify t tnow b pkt
        | Packet.Traceroute_probe _ ->
          (* a suspicious source's reconnaissance probes are forwarded like
             its data (Crossfire probes are TTL-limited data packets), so
             mark them too — mitigation steers them with the flows *)
          if classifying t ctx && Hashtbl.mem t.suspicious_srcs pkt.Packet.src then
            pkt.Packet.suspicious <- true
        | _ -> ());
        Net.Continue);
  }

let watched_utilization t =
  List.fold_left
    (fun acc (from_, to_) -> Float.max acc (Net.utilization t.net ~from_ ~to_))
    0. t.watched

(* Max over watched egress links of offered load / capacity: what the
   traffic *asks* of the link on its default route, whether or not
   mitigation is currently shedding it. *)
let offered_utilization t =
  let now = Net.now t.net in
  let acc = ref 0. in
  for i = 0 to Array.length t.offered_ctr - 1 do
    let u = Window_counter.rate t.offered_ctr.(i) ~now /. t.offered_cap.(i) in
    if u > !acc then acc := u
  done;
  !acc

let watched_capacity t =
  List.fold_left
    (fun acc (from_, to_) ->
      match Ff_topology.Topology.find_link (Net.topology t.net) from_ to_ with
      | Some l -> acc +. l.Ff_topology.Topology.capacity
      | None -> acc)
    0. t.watched

(* Summed in row (first-seen) order. *)
let suspicious_aggregate_rate t now =
  let rows = t.rows and acc = ref 0. in
  for r = 0 to t.n_rows - 1 do
    let b = r * row_width in
    if rows.(b + f_suspicious) > 0. && now -. rows.(b + f_last_seen) < 1.0 then
      acc := !acc +. rows.(b + f_rate)
  done;
  !acc

let refresh_fanout t now =
  let rows = t.rows and fanin = t.fanin in
  Array.fill fanin 0 (Array.length fanin) 0;
  Hashtbl.clear t.fanin_other;
  for r = 0 to t.n_rows - 1 do
    let b = r * row_width in
    if now -. rows.(b + f_last_seen) < 2.0 then begin
      let dst = int_of_float rows.(b + f_dst) in
      if dst >= 0 && dst < Array.length fanin then fanin.(dst) <- fanin.(dst) + 1
      else Hashtbl.replace t.fanin_other dst (1 + fanin_of t dst)
    end
  done

let redraw_thresholds t now =
  if t.threshold_jitter > 0. && now >= t.next_draw then begin
    t.high_eff <- t.high_threshold -. Ff_util.Prng.float t.rng t.threshold_jitter;
    t.low_eff <- Float.min t.low_threshold (t.high_eff -. 0.03);
    t.next_draw <- now +. t.jitter_period
  end

let check t () =
  let now = Net.now t.net in
  refresh_fanout t now;
  redraw_thresholds t now;
  let util = watched_utilization t in
  let offered = offered_utilization t in
  (* Offered load drives both edges of the hysteresis: the alarm rises
     when either the link is congested or the demand routed over it would
     congest it; it clears only when the *demand* has subsided below
     [low_eff] — transmitted utilization falls the moment the dropper
     bites, which says nothing about the attacker. *)
  let driving = Float.max util offered in
  if not t.alarmed then begin
    if driving >= t.high_eff then begin
      t.alarmed <- true;
      t.calm_since <- None;
      t.on_alarm { switch = t.sw; attack = Packet.Lfa }
    end
  end
  else begin
    (* the attack has subsided when the suspicious flows themselves stop,
       not when mitigation hides the congestion *)
    let susp = suspicious_aggregate_rate t now in
    let calm = susp < t.clear_fraction *. watched_capacity t && driving < t.low_eff in
    match (calm, t.calm_since) with
    | false, _ -> t.calm_since <- None
    | true, None -> t.calm_since <- Some now
    | true, Some since ->
      if now -. since >= t.clear_hold then begin
        t.alarmed <- false;
        t.calm_since <- None;
        for r = 0 to t.n_rows - 1 do
          t.rows.((r * row_width) + f_suspicious) <- 0.
        done;
        Hashtbl.reset t.suspicious_srcs;
        t.on_clear { switch = t.sw; attack = Packet.Lfa }
      end
  end

let install net ~sw ~watched ?(check_period = 0.05) ?(high_threshold = 0.85)
    ?low_threshold ?(threshold_jitter = 0.) ?(jitter_period = 2.0) ?(seed = 0x1FA_D)
    ?(suspicious_rate = 1_500_000.) ?(min_age = 2.0) ?(clear_fraction = 0.1)
    ?(clear_hold = 3.0) ?(dst_flows_min = 8) ~on_alarm ~on_clear () =
  let low_threshold =
    match low_threshold with Some l -> l | None -> high_threshold -. 0.05
  in
  let n_nodes = Array.length (Net.switch net sw).Net.routes in
  let watched_idx = Array.make n_nodes (-1) in
  let egress = List.filter (fun (from_, _) -> from_ = sw) watched in
  let offered_ctr =
    Array.of_list (List.map (fun _ -> Window_counter.create ~width:offered_window) egress)
  in
  let offered_cap = Array.make (List.length egress) 1. in
  List.iteri
    (fun i (from_, to_) ->
      if to_ >= 0 && to_ < n_nodes then watched_idx.(to_) <- i;
      (match Ff_topology.Topology.find_link (Net.topology net) from_ to_ with
      | Some l -> offered_cap.(i) <- Float.max 1. l.Ff_topology.Topology.capacity
      | None -> ()))
    egress;
  let t =
    {
      net;
      sw;
      watched;
      high_threshold;
      low_threshold;
      suspicious_rate;
      min_age;
      clear_fraction;
      clear_hold;
      dst_flows_min;
      index = Ff_util.Int_table.create ();
      rows = Array.make (16 * row_width) 0.;
      n_rows = 0;
      suspicious_srcs = Hashtbl.create 32;
      fanin = Array.make n_nodes 0;
      fanin_other = Hashtbl.create 1;
      watched_idx;
      offered_ctr;
      offered_cap;
      threshold_jitter;
      jitter_period;
      rng = Ff_util.Prng.create ~seed:(seed lxor (sw * 0x9E3779B9));
      high_eff = high_threshold;
      low_eff = low_threshold;
      next_draw = 0.;
      alarmed = false;
      calm_since = None;
      marks = 0;
      on_alarm;
      on_clear;
    }
  in
  Net.add_stage net ~sw (stage t);
  Engine.every (Net.engine net) ~period:check_period (check t);
  t

let alarmed t = t.alarmed
let current_high_threshold t = t.high_eff

let row_field t f field =
  match Ff_util.Int_table.get t.index f ~default:(-1) with
  | -1 -> 0.
  | r -> t.rows.((r * row_width) + field)

let suspicious_flows t =
  Ff_util.Int_table.fold
    (fun f r acc -> if t.rows.((r * row_width) + f_suspicious) > 0. then f :: acc else acc)
    t.index []
  |> List.sort compare

let is_suspicious_flow t f = row_field t f f_suspicious > 0.

let is_suspicious_source t s = Hashtbl.mem t.suspicious_srcs s

let tracked_flows t = t.n_rows
let marks t = t.marks

let flow_rate t f = row_field t f f_rate
