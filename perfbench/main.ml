(* The benchmark command.

     main.exe --workload NAME --seed N --seconds S --trace 0|1 [--spans FILE]

   --trace 0 repeats the workload's simulation at one seed until S
   seconds have passed and prints the end-to-end metrics; --trace 1 does
   the same with every switch stage wrapped and timed, then adds plain
   and Ff_obs-traced reps and direct layer probes, and prints the
   per-layer metrics. Both check the simulation's outputs: every rep of a
   run must produce the same simulated counts, and a sharded run the
   counts of its 1-shard run. The last line of output is one JSON object. *)

open Perfbench
module W = Workloads
module B = Bench
module R = Report

let median_f l = W.median l
let secs ns = Clock.seconds ns
let median_s f reps = median_f (List.map (fun r -> secs (f r)) reps)

let fail_usage msg =
  prerr_endline ("main.exe: " ^ msg);
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1 [--spans FILE]";
  exit 2

type args = { workload : string; seed : int; seconds : float; trace : bool; spans : string option }

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let spans = ref None in
  let rec go = function
    | "--workload" :: v :: rest -> workload := Some v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; go rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; go rest
    | "--trace" :: v :: rest -> trace := Some (v = "1"); go rest
    | "--spans" :: v :: rest -> spans := Some v; go rest
    | [] -> ()
    | a :: _ -> fail_usage ("unexpected argument " ^ a)
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some workload, Some seed, Some seconds, Some trace when seconds > 0. ->
    { workload; seed; seconds; trace; spans = !spans }
  | _ -> fail_usage "missing or malformed argument"

(* ---- output checks ------------------------------------------------------ *)

let check_identical ~what (first : B.rep) (r : B.rep) =
  let fp (x : B.rep) = ("events", string_of_int x.B.events) :: x.B.outcome.W.fingerprint in
  List.filter_map
    (fun (k, v) ->
      match List.assoc_opt k (fp r) with
      | Some v' when v' = v -> None
      | v' ->
        Some
          (Printf.sprintf "%s: %s differs (%s vs %s)" what k v
             (Option.value ~default:"missing" v')))
    (fp first)

let check_outcome (r : B.rep) =
  List.filter_map
    (fun (name, ok) -> if ok then None else Some ("check failed: " ^ name))
    r.B.outcome.W.checks

let print_rep label (r : B.rep) =
  Printf.printf
    "[%s] setup %.4f s, sim %.4f s, reference kernel %.1f ms, %d hops, %d events, \
     goodput_ratio %.6f\n%!"
    label (secs r.B.setup_ns) (secs r.B.sim_ns) (r.B.ref_ns *. 1e-6) r.B.outcome.W.hops r.B.events
    r.B.outcome.W.goodput_ratio

(* Simulation speed on this kind of host settles only after a few
   seconds of sustained work, so every run first simulates untimed for
   [warmup_s]; those reps still take part in the output checks. *)
let warmup_s = 3.

(* Run reps until [seconds] have passed (at least one; none when
   [seconds] is not positive). *)
let timed_reps ~seconds f =
  let t0 = Clock.ns () in
  let rec go acc =
    if acc <> [] && secs (Clock.ns () - t0) >= seconds then List.rev acc
    else go (f () :: acc)
  in
  if seconds <= 0. then [] else go []

let heap_mb words = float_of_int (words * (Sys.word_size / 8)) /. 1048576.

(* ---- per-layer metrics -------------------------------------------------- *)

let stage_metrics ~(calib_rep : B.rep) (wrapped : B.rep list) =
  let calib = Option.get calib_rep.B.calibration in
  let fc = B.normalized calib_rep 1 in
  let zero = { Stagewrap.s_calls = 0; s_timed = 0; s_busy_ns = 0; s_drops = 0 } in
  let per_name name =
    let rows =
      List.map
        (fun (r : B.rep) -> Option.value ~default:zero (List.assoc_opt name r.B.stages))
        wrapped
    in
    let first = List.hd rows in
    let busy_ns =
      median_f
        (List.map2
           (fun (r : B.rep) c ->
             let fr = B.normalized r 1 in
             fr *. Stagewrap.busy_ns ~inside_ns:(calib.Stagewrap.inside_ns *. fc /. fr) c)
           wrapped rows)
    in
    let calls = first.Stagewrap.s_calls in
    let c = float_of_int calls in
    [ ("stage." ^ name ^ ".calls", c);
      ("stage." ^ name ^ ".busy_s", busy_ns *. 1e-9);
      ("stage." ^ name ^ ".ns_per_call", if calls > 0 then busy_ns /. c else 0.);
      ("stage." ^ name ^ ".drop_frac",
       if calls > 0 then float_of_int first.Stagewrap.s_drops /. c else 0.) ]
  in
  List.concat_map per_name R.stage_names

(* The stages' estimated busy time, and the time outside them: slice time
   (domain time for a sharded run) minus the stages' busy time minus the
   wrapper's whole cost on its timed calls. The few-ns cost of an untimed
   call is not taken out and stays in the second figure. Per rep, in
   normalized nanoseconds: the calibration rep's per-call costs and this
   rep's times are each rescaled by their own reference-kernel time. *)
let accounting ~(calib_rep : B.rep) (r : B.rep) =
  let calib = Option.get calib_rep.B.calibration in
  let fc = B.normalized calib_rep 1 and fr = B.normalized r 1 in
  let inside_ns = calib.Stagewrap.inside_ns *. fc /. fr in
  let sum f = List.fold_left (fun a (_, c) -> a +. f c) 0. r.B.stages in
  let timed = sum (fun c -> float_of_int c.Stagewrap.s_timed) in
  let busy = fr *. sum (Stagewrap.busy_ns ~inside_ns) in
  let self =
    B.normalized r (r.B.sim_ns * r.B.domains) -. busy -. (timed *. calib.Stagewrap.full_ns *. fc)
  in
  (int_of_float timed, busy, self)

let drop_metrics (r : B.rep) drops =
  let known = R.drop_reasons in
  let get k = float_of_int (Option.value ~default:0 (List.assoc_opt k drops)) in
  let other =
    List.fold_left (fun a (k, n) -> if List.mem k known then a else a + n) 0 drops
  in
  let hops = float_of_int r.B.outcome.W.hops in
  let qd = get "queue-overflow" in
  List.map (fun k -> ("net.drops." ^ k, get k)) known
  @ [ ("net.drops.other", float_of_int other);
      ("net.queue_drop_frac", if hops +. qd > 0. then qd /. (hops +. qd) else 0.) ]

let parse_drops s =
  if s = "" then []
  else
    List.filter_map
      (fun kv ->
        match String.rindex_opt kv '=' with
        | Some i ->
          Some (String.sub kv 0 i, int_of_string (String.sub kv (i + 1) (String.length kv - i - 1)))
        | None -> None)
      (String.split_on_char ';' s)

(* ---- the two kinds of run ---------------------------------------------- *)

let emit ~correct ~attempted ~failed metrics =
  print_endline (R.result_json ~correct ~attempted ~failed metrics)

let lookup_metrics decls values =
  List.map
    (fun (mt : R.metric) -> (mt, Option.value ~default:0. (List.assoc_opt mt.R.name values)))
    decls

let untraced a (w : B.workload) ~shards =
  let kind = w.B.kind and k = w.B.subs in
  (* A first, untimed pass over the run's scenarios in a fresh process:
     its heap high-water mark is the memory metric, and it starts the
     warm-up, which scenario 0 continues until [warmup_s] have passed. *)
  let t_warm = Clock.ns () in
  let first_pass =
    List.init k (fun j ->
        let r, _ = B.run_rep ~shards ~mode:B.Plain kind ~seed:(B.sub_seed a.seed j) in
        print_rep (Printf.sprintf "first pass s%d" j) r;
        (j, r))
  in
  let top_heap = (Gc.quick_stat ()).Gc.top_heap_words in
  let warm =
    first_pass
    @ timed_reps ~seconds:(warmup_s -. secs (Clock.ns () - t_warm)) (fun () ->
          let r, _ = B.run_rep ~shards ~mode:B.Plain kind ~seed:(B.sub_seed a.seed 0) in
          print_rep "warm-up s0" r;
          (0, r))
  in
  (* cycle through the run's scenarios until the time is up, each
     scenario at least twice when there are several *)
  let t0 = Clock.ns () in
  let rec go r acc =
    let j = r mod k in
    let rep, _ = B.run_rep ~shards ~mode:B.Plain kind ~seed:(B.sub_seed a.seed j) in
    print_rep (Printf.sprintf "rep s%d" j) rep;
    let acc = (j, rep) :: acc in
    if secs (Clock.ns () - t0) >= a.seconds && r + 1 >= (if k > 1 then 2 * k else 1) then
      List.rev acc
    else go (r + 1) acc
  in
  let all = go 0 [] in
  let reps = List.map snd all in
  let groups = List.init k (fun j -> List.filter_map (fun (i, r) -> if i = j then Some r else None) all) in
  (* set-up is short next to a simulation: time more set-ups alone *)
  let norm_setup (ns, ref_ns) = float_of_int ns *. B.ref_nominal_ns /. ref_ns *. 1e-9 in
  let setups =
    let extra = ref [] and spent = ref 0 in
    (match kind with
    | B.Packet _ ->
      while
        List.length reps + List.length !extra < 5
        || (List.length reps + List.length !extra < 21 && !spent < 2_000_000_000)
      do
        let ns, ref_ns = B.setup_only kind ~seed:(B.sub_seed a.seed (List.length !extra mod k)) in
        spent := !spent + ns;
        extra := norm_setup (ns, ref_ns) :: !extra
      done
    | B.Sharded _ -> ());
    List.map (fun r -> norm_setup (r.B.setup_ns, r.B.ref_ns)) reps @ !extra
  in
  let reference =
    match kind with
    | B.Sharded _ ->
      let r, _ = B.run_rep ~shards:1 ~mode:B.Plain kind ~seed:(B.sub_seed a.seed 0) in
      print_rep "1-shard" r;
      [ ("1-shard run", r) ]
    | B.Packet _ -> []
  in
  let errors =
    List.concat_map
      (fun g ->
        let first = List.hd g in
        check_outcome first @ List.concat_map (check_identical ~what:"rep" first) (List.tl g))
      groups
    @ List.concat_map
        (fun (j, r) -> check_identical ~what:"warm-up rep" (List.hd (List.nth groups j)) r)
        warm
    @ List.concat_map (fun (what, r) -> check_identical ~what (List.hd reps) r) reference
  in
  List.iter (fun e -> Printf.printf "[check] %s\n" e) errors;
  let correct = errors = [] in
  let sum f = List.fold_left (fun acc g -> acc +. f g) 0. groups in
  let outcome g = (List.hd g).B.outcome in
  let rate f = median_f (List.map (fun r -> f r.B.outcome /. (B.normalized r r.B.sim_ns *. 1e-9)) reps) in
  List.iteri
    (fun j g ->
      let o = outcome g in
      Printf.printf
        "[result] scenario %d: %d reps, median sim %.4f s (raw), %d benign ops attempted, \
         %d undelivered, goodput_ratio %.6f\n"
        j (List.length g) (median_s (fun r -> r.B.sim_ns) g) o.W.attempted o.W.undelivered
        o.W.goodput_ratio;
      List.iter
        (fun (k, v) -> if String.length v < 200 then Printf.printf "[counts] %d %s = %s\n" j k v)
        o.W.fingerprint)
    groups;
  let attempted =
    List.fold_left (fun acc g -> acc + ((outcome g).W.attempted * List.length g)) 0 groups
  in
  let metrics =
    [ ("hop_rate", rate (fun o -> float_of_int o.W.hops));
      ("equiv_rate", rate (fun o -> o.W.equiv));
      ("setup_s", median_f setups);
      ("peak_heap_mb", heap_mb top_heap);
      ("goodput_ratio", sum (fun g -> (outcome g).W.goodput_ratio) /. float_of_int k) ]
  in
  emit ~correct ~attempted ~failed:(if correct then 0 else attempted)
    (lookup_metrics R.end_to_end metrics)

let traced a (w : B.workload) ~shards =
  (* the per-layer breakdown is taken on the run's first scenario *)
  let kind = w.B.kind in
  let a = { a with seed = B.sub_seed a.seed 0 } in
  let warm =
    timed_reps ~seconds:warmup_s (fun () ->
        let r, _ = B.run_rep ~shards ~mode:B.Plain kind ~seed:a.seed in
        print_rep "warm-up" r;
        r)
  in
  let calib_rep, _ = B.run_rep ~shards ~mode:B.Calibrating kind ~seed:a.seed in
  print_rep "calibration" calib_rep;
  let calib = Option.get calib_rep.B.calibration in
  Printf.printf "[calibration] wrapper %.2f ns/call inside its timer, %.2f ns/call total\n%!"
    calib.Stagewrap.inside_ns calib.Stagewrap.full_ns;
  let run_id = Printf.sprintf "%s-seed%d-pid%d" a.workload a.seed (Unix.getpid ()) in
  let spans = Spans.create ~run_id ~enabled:true in
  (* wrapped, plain and Ff_obs-traced reps interleaved, so that drift in
     host speed reaches all three alike; at least one of each *)
  let cycle = [| B.Wrapped; B.Plain; B.Wrapped; B.Obs_trace |] in
  let t0 = Clock.ns () in
  let rec go i acc =
    let mode = cycle.(i mod Array.length cycle) in
    let r, probes = B.run_rep ~spans ~shards ~mode kind ~seed:a.seed in
    print_rep
      (match mode with B.Wrapped -> "wrapped" | B.Plain -> "plain" | _ -> "obs-trace")
      r;
    let acc = (mode, r, probes) :: acc in
    if i + 1 >= Array.length cycle && secs (Clock.ns () - t0) >= a.seconds then List.rev acc
    else go (i + 1) acc
  in
  let reps = go 0 [] in
  let of_mode m = List.filter_map (fun (m', r, _) -> if m' = m then Some r else None) reps in
  let wrapped = of_mode B.Wrapped and plain = of_mode B.Plain and obs = of_mode B.Obs_trace in
  let probes =
    match List.rev (List.filter (fun (m, _, _) -> m = B.Plain) reps) with
    | (_, _, pr) :: _ -> pr ()
    | [] -> []
  in
  let one_shard =
    match kind with
    | B.Sharded _ ->
      let r, _ = B.run_rep ~shards:1 ~mode:B.Plain kind ~seed:a.seed in
      print_rep "1-shard" r;
      Some r
    | B.Packet _ -> None
  in
  let first = List.hd plain in
  let errors =
    check_outcome first
    @ List.concat_map (check_identical ~what:"wrapped rep" first) wrapped
    @ List.concat_map (check_identical ~what:"plain rep" first) (List.tl plain)
    @ List.concat_map (check_identical ~what:"obs-traced rep" first) obs
    @ List.concat_map (check_identical ~what:"warm-up rep" first) warm
    @ check_identical ~what:"calibration rep" first calib_rep
    @ (match one_shard with
      | Some r -> check_identical ~what:"1-shard run" first r
      | None -> [])
  in
  List.iter (fun e -> Printf.printf "[check] %s\n" e) errors;
  let correct = errors = [] in
  let o = first.B.outcome in
  let hops = float_of_int o.W.hops in
  let plain_sim = median_f (List.map (fun r -> B.normalized r r.B.sim_ns *. 1e-9) plain) in
  let domains = first.B.domains in
  let acc = List.map (accounting ~calib_rep) wrapped in
  let timed = match acc with (t, _, _) :: _ -> t | [] -> 0 in
  let busy = median_f (List.map (fun (_, b, _) -> b) acc) in
  let self = median_f (List.map (fun (_, _, s) -> s) acc) in
  let norm_sim reps = median_f (List.map (fun r -> B.normalized r r.B.sim_ns *. 1e-9) reps) in
  let wrapped_sim = norm_sim wrapped in
  let phase f g reps =
    median_f (List.map (fun r -> if g r > 0. then B.normalized r (f r) *. 1e-9 /. g r else 0.) reps)
  in
  let psim =
    match (first.B.psim, one_shard) with
    | Some r, Some r1 ->
      let module P = Ff_parallel.Psim in
      let w1 = B.normalized r1 r1.B.sim_ns *. 1e-9 in
      [ ("psim.windows", float_of_int r.P.windows);
        ("psim.exchanged", float_of_int r.P.exchanged);
        ("psim.events_per_window",
         if r.P.windows > 0 then float_of_int r.P.events /. float_of_int r.P.windows else 0.);
        ("psim.lookahead_ms", r.P.lookahead *. 1e3);
        ("psim.mode", match r.P.mode_used with P.Domains -> 1. | _ -> 0.);
        ("psim.speedup_vs_1", w1 /. plain_sim);
        ("psim.sync_s", (plain_sim *. float_of_int domains) -. w1) ]
    | _ -> []
  in
  let obs_sim = norm_sim obs in
  let values =
    [ ("engine.events", float_of_int first.B.events);
      ("engine.events_per_hop", float_of_int first.B.events /. hops);
      ("engine.pending_peak", float_of_int first.B.pending_peak);
      ("engine_net.self_s", self *. 1e-9);
      ("engine_net.ns_per_hop", self /. hops);
      ("net.hops", hops) ]
    @ drop_metrics first (parse_drops (List.assoc "drops" o.W.fingerprint))
    @ stage_metrics ~calib_rep wrapped
    @ [ ("stage.all.busy_frac", busy /. (busy +. self));
        ("wrap.calib_ns_per_call", calib.Stagewrap.full_ns *. B.normalized calib_rep 1);
        ("wrap.insitu_ns_per_call",
         if timed > 0 then
           (wrapped_sim -. plain_sim) *. float_of_int domains *. 1e9 /. float_of_int timed
         else 0.);
        ("accounting.coverage", (busy +. self) *. 1e-9 /. (plain_sim *. float_of_int domains));
        ("modes.detect_s", o.W.detect_s);
        ("phase.attack.host_per_sim_s",
         phase (fun r -> r.B.attack_ns) (fun r -> r.B.attack_sim) plain);
        ("phase.steady.host_per_sim_s",
         phase (fun r -> r.B.steady_ns) (fun r -> r.B.steady_sim) plain);
        ("obs.trace_events", float_of_int (List.hd obs).B.trace_events);
        ("obs.trace_overhead_frac", (obs_sim /. plain_sim) -. 1.);
        ("gc.minor_words_per_hop", first.B.minor_words /. hops);
        ("gc.major_collections", float_of_int first.B.major_gcs);
        ("host.ref_kernel_ms",
         median_f (List.map (fun r -> r.B.ref_ns *. 1e-6) (wrapped @ plain @ obs)));
        ("benign.undelivered_frac",
         float_of_int o.W.undelivered /. float_of_int (max 1 o.W.attempted)) ]
    @ o.W.layers @ psim @ probes
  in
  Printf.printf
    "[result] stages %.4f s + engine/net %.4f s = %.4f s vs plain sim %.4f s (coverage %.3f)\n"
    (busy *. 1e-9) (self *. 1e-9) ((busy +. self) *. 1e-9) plain_sim
    ((busy +. self) *. 1e-9 /. (plain_sim *. float_of_int domains));
  (match a.spans with
  | Some path -> Spans.write spans path
  | None -> ());
  let attempted = o.W.attempted * (List.length wrapped + List.length plain + List.length obs) in
  emit ~correct ~attempted ~failed:(if correct then 0 else attempted)
    (lookup_metrics R.per_layer values)

let () =
  let a = parse_args () in
  let w =
    match List.find_opt (fun (w : B.workload) -> w.B.name = a.workload) B.workloads with
    | Some w -> w
    | None -> fail_usage ("unknown workload " ^ a.workload)
  in
  let shards = max 1 (min 2 (Domain.recommended_domain_count ())) in
  if a.trace then traced a w ~shards else untraced a w ~shards
