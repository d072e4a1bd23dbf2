module Net = Ff_netsim.Net
module Packet = Ff_dataplane.Packet
module Sync = Ff_modes.Sync

(* this booster's sync probes travel as probe class 0; other sync
   services pick other classes and never see them *)
let probe_class = 0

type t = {
  net : Net.t;
  participants : int list;
  mode : string;
  rng : Ff_util.Prng.t;
  limits : (int, float) Hashtbl.t; (* tenant -> bps *)
  tenants : (int, int) Hashtbl.t; (* src host -> tenant *)
  local : (int, (int, Ff_util.Stats.Window_counter.t) Hashtbl.t) Hashtbl.t;
      (* sw -> tenant -> bytes window *)
  sync : Sync.t;
  mutable dropped : int;
}

let counters local sw =
  match Hashtbl.find_opt local sw with
  | Some h -> h
  | None ->
    let h = Hashtbl.create 8 in
    Hashtbl.replace local sw h;
    h

let counter local sw tenant =
  let cs = counters local sw in
  match Hashtbl.find_opt cs tenant with
  | Some c -> c
  | None ->
    let c = Ff_util.Stats.Window_counter.create ~width:1.0 in
    Hashtbl.replace cs tenant c;
    c

let rate net c = Ff_util.Stats.Window_counter.rate c ~now:(Net.now net) *. 8.

let local_rate t ~sw ~tenant = rate t.net (counter t.local sw tenant)

let global_rate t ~sw ~tenant =
  local_rate t ~sw ~tenant +. Sync.remote_contribution t.sync ~sw ~key:tenant

let stage t =
  let mode_key = Common.mode_key t.mode in
  {
    Net.stage_name = "global-rate-limit";
    process =
      (fun ctx pkt ->
        let sw = ctx.Net.sw.Net.sw_id in
        match pkt.Packet.payload with
        | Packet.Data -> (
          match Hashtbl.find_opt t.tenants pkt.Packet.src with
          | Some tenant when List.mem sw t.participants
                             && Net.access_switch t.net ~host:pkt.Packet.src = sw -> (
            Ff_util.Stats.Window_counter.add (counter t.local sw tenant) ~now:(Net.now t.net)
              (float_of_int pkt.Packet.size);
            match Hashtbl.find_opt t.limits tenant with
            | Some limit when Common.mode_on ctx.Net.sw mode_key ->
              let global = global_rate t ~sw ~tenant in
              if global > limit then begin
                let drop_p = 1. -. (limit /. global) in
                if Ff_util.Prng.float t.rng 1. < drop_p then begin
                  t.dropped <- t.dropped + 1;
                  Net.Drop "global-rate-limit"
                end
                else Net.Continue
              end
              else Net.Continue
            | _ -> Net.Continue)
          | _ -> Net.Continue)
        | _ -> Net.Continue);
  }

let install net ~participants ?(sync_period = 0.2) ?(mode = Common.mode_grl) ?(seed = 7) () =
  let local = Hashtbl.create 16 in
  (* each participant advertises the local rate of every tenant it counted *)
  let local_view ~sw =
    Hashtbl.fold (fun tenant c acc -> (tenant, rate net c) :: acc) (counters local sw) []
  in
  let t =
    {
      net;
      participants;
      mode;
      rng = Ff_util.Prng.create ~seed;
      limits = Hashtbl.create 8;
      tenants = Hashtbl.create 32;
      local;
      sync = Sync.create net ~participants ~period:sync_period ~local_view ~probe_class ();
      dropped = 0;
    }
  in
  List.iter (fun sw -> Net.add_stage net ~sw (stage t)) (Net.switch_ids net);
  t

let set_limit t ~tenant limit = Hashtbl.replace t.limits tenant limit
let assign t ~src ~tenant = Hashtbl.replace t.tenants src tenant
let dropped t = t.dropped
let sync_probes t = Sync.probes_sent t.sync
