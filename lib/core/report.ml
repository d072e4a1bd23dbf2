type t = {
  scenario : string;
  variant : string;
  duration : float;
  attack_events : float list;
  series : Ff_util.Series.t list;
  normalized : Ff_util.Series.t;
  recovery_times : (float * float) list;
  mode_log : (float * int * Ff_dataplane.Packet.attack_kind * bool) list;
  drops : (string * int) list;
  metrics : (string * float) list;
  log : string list;
}

let metric r key =
  match List.assoc_opt key r.metrics with
  | Some v -> v
  | None -> invalid_arg (Printf.sprintf "Report.metric: %s reports no %S" r.scenario key)

let count r key = int_of_float (metric r key)

let pp fmt r =
  Format.fprintf fmt "%s (%s): %g s, %d mode changes, attack events at [%s]@." r.scenario
    r.variant r.duration (List.length r.mode_log)
    (String.concat " " (List.map (Printf.sprintf "%.1f") r.attack_events));
  List.iter
    (fun (k, v) ->
      if Float.is_integer v && Float.abs v < 1e16 then Format.fprintf fmt "  %-24s %.0f@." k v
      else Format.fprintf fmt "  %-24s %.4g@." k v)
    r.metrics;
  List.iter
    (fun (ev, rt) ->
      if rt = infinity then Format.fprintf fmt "  event at %.1fs: never recovered to 80%%@." ev
      else Format.fprintf fmt "  event at %.1fs: recovered to 80%% in %.1fs@." ev rt)
    r.recovery_times;
  if r.drops <> [] then
    Format.fprintf fmt "  drops: %s@."
      (String.concat ", " (List.map (fun (reason, n) -> Printf.sprintf "%s=%d" reason n) r.drops))
