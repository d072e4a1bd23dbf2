(* The runner: builds a workload, simulates it (optionally with every
   stage wrapped, or with an ambient [Ff_obs] trace attached), and times
   set-up and simulation from outside the library. *)

module W = Workloads
module Net = Ff_netsim.Net
module Engine = Ff_netsim.Engine
module Psim = Ff_parallel.Psim

type kind =
  | Packet of (seed:int -> W.step -> W.packet_sim)
  | Sharded of (seed:int -> W.step -> W.sharded_sim)

(* A workload and how many seeded scenarios one run cycles through: the
   run's seed derives [subs] scenario seeds, and the end-to-end metrics
   aggregate over all of them. One LFA scenario on a 16-host fat tree is
   small enough that its outcome swings with the scenario drawn, so that
   workload averages six; the others are large enough to stand alone. *)
type workload = { name : string; kind : kind; subs : int }

let workloads =
  [ { name = "lfa_fattree"; kind = Packet W.lfa_fattree; subs = 6 };
    { name = "isp_hybrid_100k"; kind = Packet W.isp_hybrid_100k; subs = 1 };
    { name = "synflood_proxy"; kind = Packet W.synflood_proxy; subs = 1 };
    { name = "cbr_sharded"; kind = Sharded W.cbr_sharded; subs = 1 } ]

let sub_seed seed j = (seed * 64) + j

(* Host speed on a shared machine drifts by a quarter and more over tens
   of seconds, with whatever else the machine runs. Each rep therefore
   also times a fixed reference kernel (before the rep, and at least once
   a second during a long one); end-to-end host times are rescaled by
   [ref_nominal_ns] / the kernel's median time in that rep, which cancels
   machine-wide slowdowns and leaves the simulator's own speed. *)
let ref_nominal_ns = 55_000_000.

module Refkernel = Perfbench_ref.Refkernel

let ref_states = Array.init 2 (fun _ -> Refkernel.create ())

let ref_sample () =
  let t0 = Clock.ns () in
  Refkernel.run ref_states.(0);
  Clock.ns () - t0

(* A sharded run is as slow as its slowest domain: time the kernel on
   both domains at once and keep the slower. *)
let ref_sample_pair () =
  let other =
    Domain.spawn (fun () ->
        let t0 = Clock.ns () in
        Refkernel.run ref_states.(1);
        Clock.ns () - t0)
  in
  let mine = ref_sample () in
  max mine (Domain.join other)

(* How a rep observes the simulation. *)
type mode =
  | Plain
  | Wrapped  (** every stage wrapped by {!Stagewrap} *)
  | Calibrating  (** wrapped, plus {!Stagewrap.install_calibration} *)
  | Obs_trace  (** an [Ff_obs.Trace] attached to the net(s) *)

type rep = {
  setup_ns : int;  (** topology build to first simulated event *)
  sim_ns : int;  (** host time inside [Engine.run] / [Psim.run] *)
  domains : int;  (** domains that ran the simulation in parallel *)
  outcome : W.outcome;
  events : int;
  pending_peak : int;
  minor_words : float;
  major_gcs : int;
  stages : Stagewrap.snapshot;  (** [] unless wrapped *)
  calibration : Stagewrap.calibration option;  (** when calibrating *)
  attack_ns : int;
  attack_sim : float;
  steady_ns : int;
  steady_sim : float;
  psim : Psim.result option;
  trace_events : int;
  ref_ns : float;  (** median reference-kernel time around this rep *)
}

(* Host time rescaled to the reference kernel's nominal speed. *)
let normalized r ns = float_of_int ns *. ref_nominal_ns /. r.ref_ns

(* Engine.run slice length, simulated seconds. *)
let slice = 0.5

let slice_bounds ~until extra =
  let n = int_of_float (Float.ceil (until /. slice)) in
  List.init n (fun i -> Float.min until (float_of_int (i + 1) *. slice))
  @ List.filter (fun t -> t > 0. && t <= until) extra
  |> List.sort_uniq compare

let inside spans a b = List.exists (fun (s, e) -> a >= s && b <= e) spans

let setup_step spans =
  let sid = Spans.reserve spans in
  (sid, { W.step = (fun name f -> Spans.timed spans ~parent:sid name f) })

(* Reference-kernel times of the current rep. Neither the kernel nor the
   bookkeeping allocates, so sampling on a host-time trigger leaves the
   heap's growth, and with it [peak_heap_mb], a function of the seed. *)
let ref_buf = Array.make 256 0
let ref_count = ref 0

let record_ref () =
  if !ref_count < Array.length ref_buf then begin
    ref_buf.(!ref_count) <- ref_sample ();
    incr ref_count
  end

let ref_median () = W.median (List.init !ref_count (fun i -> float_of_int ref_buf.(i)))

let run_packet ~spans ~mode build ~seed =
  ref_count := 0;
  record_ref ();
  let last_ref = ref (Clock.ns ()) in
  Gc.compact ();
  let setup_sid, st = setup_step spans in
  let trace = match mode with Obs_trace -> Some (Ff_obs.Trace.create ()) | _ -> None in
  let t0 = Clock.ns () in
  let ps =
    match trace with
    | Some tr -> Ff_obs.Trace.with_ambient tr (fun () -> build ~seed st)
    | None -> build ~seed st
  in
  let t1 = Clock.ns () in
  ignore (Spans.add spans ~sid:setup_sid ~name:"setup" ~t0 ~t1 ());
  let wrapper =
    match mode with
    | Wrapped | Calibrating ->
      let w = Stagewrap.create () in
      Spans.timed spans "wrap" (fun () -> Stagewrap.install w ps.W.net);
      if mode = Calibrating then Stagewrap.install_calibration w ps.W.net;
      Some w
    | Plain | Obs_trace -> None
  in
  let engine = Net.engine ps.W.net in
  let edges = W.window_edges ps.W.windows in
  let bounds = slice_bounds ~until:ps.W.until edges in
  let samples = Hashtbl.create 8 in
  let steps0 = Engine.steps engine in
  let gc0 = Gc.quick_stat () in
  let sim = ref 0 and peak = ref 0 in
  let attack_ns = ref 0 and attack_sim = ref 0. in
  let steady_ns = ref 0 and steady_sim = ref 0. in
  let prev = ref 0. in
  List.iter
    (fun b ->
      let snap0 = match wrapper with Some w -> Stagewrap.snapshot w | None -> [] in
      let a = Clock.ns () in
      Engine.run engine ~until:b;
      let z = Clock.ns () in
      sim := !sim + (z - a);
      peak := max !peak (Engine.pending engine);
      if inside ps.W.windows.W.attack !prev b then begin
        attack_ns := !attack_ns + (z - a);
        attack_sim := !attack_sim +. (b -. !prev)
      end
      else begin
        steady_ns := !steady_ns + (z - a);
        steady_sim := !steady_sim +. (b -. !prev)
      end;
      let sid =
        Spans.add spans ~name:"engine.run" ~t0:a ~t1:z
          ~attrs:[ ("sim_from", !prev); ("sim_to", b) ] ()
      in
      (match wrapper with
      | Some w ->
        List.iter
          (fun (name, (c : Stagewrap.count)) ->
            if c.Stagewrap.s_calls > 0 then
              ignore
                (Spans.add spans ~parent:sid ~name:("stage." ^ name) ~t0:a ~t1:z
                   ~attrs:
                     [ ("calls", float_of_int c.Stagewrap.s_calls);
                       ("timed", float_of_int c.Stagewrap.s_timed);
                       (* raw: wrapper cost inside the timer not yet taken out *)
                       ("busy_ns", Stagewrap.busy_ns ~inside_ns:0. c);
                       ("drops", float_of_int c.Stagewrap.s_drops) ]
                   ()))
          (Stagewrap.diff snap0 (Stagewrap.snapshot w))
      | None -> ());
      if List.mem b edges then Hashtbl.replace samples b (ps.W.benign ());
      if Clock.ns () - !last_ref >= 1_000_000_000 then begin
        record_ref ();
        last_ref := Clock.ns ()
      end;
      prev := b)
    bounds;
  let gc1 = Gc.quick_stat () in
  let outcome = ps.W.finish ~sample:(Hashtbl.find samples) in
  ( {
      setup_ns = t1 - t0;
      sim_ns = !sim;
      domains = 1;
      outcome;
      events = Engine.steps engine - steps0;
      pending_peak = !peak;
      minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
      major_gcs = gc1.Gc.major_collections - gc0.Gc.major_collections;
      stages = (match wrapper with Some w -> Stagewrap.snapshot w | None -> []);
      calibration =
        (match (mode, wrapper) with
        | Calibrating, Some w -> Some (Stagewrap.calibration w)
        | _ -> None);
      attack_ns = !attack_ns;
      attack_sim = !attack_sim;
      steady_ns = !steady_ns;
      steady_sim = !steady_sim;
      psim = None;
      trace_events = (match trace with Some tr -> Ff_obs.Trace.count tr | None -> 0);
      ref_ns = ref_median ();
    },
    ps )

let run_sharded ~spans ~mode ~shards build ~seed =
  let ref_ns =
    float_of_int
      (if shards > 1 && Domain.recommended_domain_count () >= shards then ref_sample_pair ()
       else ref_sample ())
  in
  Gc.compact ();
  let setup_sid, st = setup_step spans in
  let t0 = Clock.ns () in
  let sim = build ~seed st in
  let wraps = Array.init shards (fun _ -> Stagewrap.create ()) in
  let traces = ref [] in
  let t_setup = ref 0 and t_start = ref 0 in
  let r =
    Psim.run ~mode:Psim.Auto ~shards ~topo:sim.W.topo
      ~setup:(fun nets ->
        sim.W.setup st nets;
        t_setup := Clock.ns ();
        (match mode with
        | Wrapped -> Array.iteri (fun i net -> Stagewrap.install wraps.(i) net) nets
        | Calibrating ->
          Array.iteri
            (fun i net ->
              Stagewrap.install wraps.(i) net;
              Stagewrap.install_calibration wraps.(i) net)
            nets
        | Obs_trace ->
          Array.iter
            (fun net ->
              let tr = Ff_obs.Trace.create () in
              traces := tr :: !traces;
              Net.attach_obs net (Some tr))
            nets
        | Plain -> ());
        t_start := Clock.ns ())
      ~until:sim.W.s_until ()
  in
  let t1 = Clock.ns () in
  ignore (Spans.add spans ~sid:setup_sid ~name:"setup" ~t0 ~t1:!t_setup ());
  ignore
    (Spans.add spans ~name:"psim.run" ~t0:!t_start ~t1
       ~attrs:[ ("shards", float_of_int shards); ("windows", float_of_int r.Psim.windows) ]
       ());
  let outcome = sim.W.s_finish r in
  let sim_ns = t1 - !t_start in
  ( {
      setup_ns = !t_setup - t0;
      sim_ns;
      domains = (match r.Psim.mode_used with Psim.Domains -> shards | _ -> 1);
      outcome;
      events = r.Psim.events;
      pending_peak = 0;
      minor_words = r.Psim.alloc_bytes /. float_of_int (Sys.word_size / 8);
      major_gcs = 0;
      stages =
        (match mode with
        | Wrapped | Calibrating ->
          Stagewrap.merge (Array.to_list (Array.map Stagewrap.snapshot wraps))
        | Plain | Obs_trace -> []);
      calibration =
        (match mode with
        | Calibrating ->
          (* per-call figures of the shards, weighted by their calls alike *)
          let cs = Array.map Stagewrap.calibration wraps in
          let mean f = Array.fold_left (fun a c -> a +. f c) 0. cs /. float_of_int shards in
          Some
            { Stagewrap.inside_ns = mean (fun c -> c.Stagewrap.inside_ns);
              full_ns = mean (fun c -> c.Stagewrap.full_ns) }
        | _ -> None);
      attack_ns = 0;
      attack_sim = 0.;
      steady_ns = sim_ns;
      steady_sim = sim.W.s_until;
      psim = Some r;
      trace_events = List.fold_left (fun acc tr -> acc + Ff_obs.Trace.count tr) 0 !traces;
      ref_ns;
    },
    () )

(* One rep of a workload; [probes] are the traced-only direct layer
   timings, available for packet workloads after the run. *)
let run_rep ?(spans = Spans.disabled) ?(shards = 1) ~mode kind ~seed =
  match kind with
  | Packet build ->
    let rep, ps = run_packet ~spans ~mode build ~seed in
    (rep, ps.W.probes)
  | Sharded build ->
    let rep, () = run_sharded ~spans ~mode ~shards build ~seed in
    (rep, fun () -> [])

(* Set-up alone, for more set-up samples than a run has reps; returns the
   host time and the reference-kernel time taken just before. *)
let setup_only kind ~seed =
  match kind with
  | Packet build ->
    let ref_ns = ref_sample () in
    Gc.compact ();
    let st = { W.step = (fun _ f -> f ()) } in
    let t0 = Clock.ns () in
    ignore (Sys.opaque_identity (build ~seed st));
    (Clock.ns () - t0, float_of_int ref_ns)
  | Sharded _ -> invalid_arg "setup_only: sharded set-up runs inside Psim.run"
