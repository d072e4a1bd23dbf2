(* A transparent timing wrapper around every switch stage of a net.

   [Net] keeps a per-switch stage array that only [Net.add_stage] and
   [Net.remove_stage] rebuild, so wrapping goes through those two calls:
   every stage of a switch is removed and re-added, wrapped, in its
   original order and under its original name (name lookups such as
   [Net.has_stage] keep working). A wrapped stage returns exactly the
   decision of the stage it wraps.

   Every call is counted; every [sample_every]-th call of a stage is also
   timed (two clock reads) and a stage's busy time is estimated from its
   timed calls. Timing every call cost about 100 ns per call, so the
   wrapped run ran at half speed and the wrapper's disturbance of the
   code around it could not be calibrated away; sampling cuts both
   sixteenfold. Time a timed call spends in a wrapped stage that
   re-enters the pipeline (the TTL stage routes ICMP replies through its
   own switch) is charged to the inner stage only.

   The wrapper costs time of its own. [install_calibration] measures it
   where it runs, inside the workload: see [calibration]. *)

module Net = Ff_netsim.Net

type acc = {
  name : string;
  mutable calls : int;
  mutable timed : int;  (** calls that were timed *)
  mutable busy_ns : int;
      (** raw self time of the timed calls, wrapper cost inside the timer included *)
  mutable drops : int;
}

let sample_every = 16

type t = {
  accs : (string, acc) Hashtbl.t;
  mutable nested : int;  (* ns of wrapped calls nested in the current one *)
}

let create () = { accs = Hashtbl.create 16; nested = 0 }

(* "view-sync-9" -> "view-sync": per-instance suffixes are dropped so one
   booster reports under one name across switches. *)
let base_name name =
  let is_digit c = c >= '0' && c <= '9' in
  let rec strip s =
    match String.rindex_opt s '-' with
    | Some i when i > 0 && i < String.length s - 1 ->
      let suffix = String.sub s (i + 1) (String.length s - i - 1) in
      if String.for_all is_digit suffix then strip (String.sub s 0 i) else s
    | _ -> s
  in
  strip name

let acc t key =
  match Hashtbl.find_opt t.accs key with
  | Some a -> a
  | None ->
    let a = { name = key; calls = 0; timed = 0; busy_ns = 0; drops = 0 } in
    Hashtbl.replace t.accs key a;
    a

let wrap_stage ?acc_name t (s : Net.stage) =
  let a = acc t (Option.value acc_name ~default:(base_name s.Net.stage_name)) in
  let inner = s.Net.process in
  let process ctx pkt =
    a.calls <- a.calls + 1;
    let d =
      if a.calls land (sample_every - 1) <> 0 then inner ctx pkt
      else begin
        let saved = t.nested in
        t.nested <- 0;
        let t0 = Clock.ns () in
        let d = inner ctx pkt in
        let dt = Clock.ns () - t0 in
        a.busy_ns <- a.busy_ns + dt - t.nested;
        a.timed <- a.timed + 1;
        t.nested <- saved + dt;
        d
      end
    in
    (match d with Net.Drop _ -> a.drops <- a.drops + 1 | _ -> ());
    d
  in
  { s with Net.process }

let wrap_switch t net sw =
  let stages = (Net.switch net sw).Net.stages in
  List.iter (fun (s : Net.stage) -> Net.remove_stage net ~sw ~name:s.Net.stage_name) stages;
  List.iter (fun s -> Net.add_stage net ~sw (wrap_stage t s)) stages

(* Wrap every stage of every switch. The benchmark's workloads install
   all their stages before the first simulated event. *)
let install t net = List.iter (wrap_switch t net) (Net.switch_ids net)

type count = { s_calls : int; s_timed : int; s_busy_ns : int; s_drops : int }
type snapshot = (string * count) list

let snapshot t : snapshot =
  Hashtbl.fold
    (fun _ a l ->
      (a.name, { s_calls = a.calls; s_timed = a.timed; s_busy_ns = a.busy_ns; s_drops = a.drops })
      :: l)
    t.accs []
  |> List.sort compare

let combine f x y =
  { s_calls = f x.s_calls y.s_calls; s_timed = f x.s_timed y.s_timed;
    s_busy_ns = f x.s_busy_ns y.s_busy_ns; s_drops = f x.s_drops y.s_drops }

let diff (before : snapshot) (after : snapshot) : snapshot =
  List.map
    (fun (name, c) ->
      match List.assoc_opt name before with
      | Some c0 -> (name, combine ( - ) c c0)
      | None -> (name, c))
    after

(* Sum several snapshots by name (shards of one sharded run). *)
let merge (snaps : snapshot list) : snapshot =
  let tbl = Hashtbl.create 16 in
  List.iter
    (List.iter (fun (name, c) ->
         Hashtbl.replace tbl name
           (match Hashtbl.find_opt tbl name with Some c0 -> combine ( + ) c0 c | None -> c)))
    snaps;
  Hashtbl.fold (fun name c l -> (name, c) :: l) tbl [] |> List.sort compare

(* Estimated self time of all calls, from the timed ones, with the
   wrapper's share inside its own timer taken out. *)
let busy_ns ~inside_ns c =
  if c.s_timed = 0 then 0.
  else
    Float.max 0.
      ((float_of_int c.s_busy_ns /. float_of_int c.s_timed -. inside_ns) *. float_of_int c.s_calls)

type calibration = {
  inside_ns : float;  (** per timed call, seen by the wrapper's own timer *)
  full_ns : float;  (** per timed call, total extra cost of the wrapper *)
}

(* An identity stage at the front of every switch, wrapped twice, so that
   it runs in the workload's own pipeline, caches and all. The inner
   wrapper's timer sees the identity call plus what a wrapper's timer
   adds to any stage. The outer wrapper's self time is its own timer's
   share plus everything the inner wrapper does outside its timer: the
   whole cost of one wrapper; a tight loop over the same calls read it
   lower. The two wrappers count calls in step, so they time the same
   calls. *)
let calibration_stage = "perfbench-calibration"

let install_calibration t net =
  List.iter
    (fun sw ->
      let identity = { Net.stage_name = calibration_stage; process = (fun _ _ -> Net.Continue) } in
      let inner = wrap_stage ~acc_name:"calibration.inner" t identity in
      Net.add_stage ~front:true net ~sw (wrap_stage ~acc_name:"calibration.outer" t inner))
    (Net.switch_ids net)

let calibration t =
  let per_call key =
    match Hashtbl.find_opt t.accs key with
    | Some a when a.timed > 0 -> float_of_int a.busy_ns /. float_of_int a.timed
    | _ -> 0.
  in
  let inside = per_call "calibration.inner" and full = per_call "calibration.outer" in
  { inside_ns = Float.max 0. inside; full_ns = Float.max inside full }
