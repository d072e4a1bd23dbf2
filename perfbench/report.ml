(* Every metric the benchmark prints, with its unit and direction. Each
   run prints all of them: the end-to-end set untraced, the per-layer set
   traced. A per-layer metric of a layer the workload does not exercise
   reads 0. *)

type better = Higher | Lower
type metric = { name : string; unit : string; better : better }

let m better unit name = { name; unit; better }

let end_to_end =
  [ m Higher "hops/s" "hop_rate";
    m Higher "equiv/s" "equiv_rate";
    m Lower "s" "setup_s";
    m Lower "MB" "peak_heap_mb";
    m Higher "ratio" "goodput_ratio" ]

(* Stage names as the wrapper reports them (instance suffix stripped). *)
let stage_names =
  [ "ttl"; "obfuscator"; "view-sync"; "reroute"; "suspicious-source-marker"; "mode-protocol";
    "dropper"; "lfa-detector"; "syn-guard" ]

(* Drop reasons reported one by one; the rest sum into net.drops.other. *)
let drop_reasons =
  [ "queue-overflow"; "ttl-expired"; "illusion-of-success"; "suspicious-rate-limit";
    "bad-cookie"; "unverified-flow"; "backlog-full"; "no-route" ]

let per_layer =
  [ m Lower "count" "engine.events";
    m Lower "events/hop" "engine.events_per_hop";
    m Lower "count" "engine.pending_peak";
    m Lower "s" "engine_net.self_s";
    m Lower "ns" "engine_net.ns_per_hop";
    m Higher "count" "net.hops";
    m Lower "ratio" "net.queue_drop_frac" ]
  @ List.map (fun r -> m Lower "count" ("net.drops." ^ r)) (drop_reasons @ [ "other" ])
  @ List.concat_map
      (fun s ->
        [ m Higher "count" ("stage." ^ s ^ ".calls");
          m Lower "s" ("stage." ^ s ^ ".busy_s");
          m Lower "ns" ("stage." ^ s ^ ".ns_per_call");
          m Lower "ratio" ("stage." ^ s ^ ".drop_frac") ])
      stage_names
  @ [ m Lower "ratio" "stage.all.busy_frac";
      m Lower "ns" "wrap.calib_ns_per_call";
      m Lower "ns" "wrap.insitu_ns_per_call";
      m Higher "ratio" "accounting.coverage";
      m Lower "count" "modes.transitions";
      m Lower "count" "modes.readverts";
      m Lower "count" "modes.repairs";
      m Lower "sim_s" "modes.detect_s";
      m Lower "count" "cuckoo.kicks";
      m Lower "count" "cuckoo.failed_inserts";
      m Lower "ratio" "cuckoo.occupancy";
      m Higher "count" "synguard.cookies";
      m Higher "count" "synguard.validated";
      m Lower "count" "listener.backlog_drops";
      m Lower "count" "listener.timeouts";
      m Higher "count" "handshake.attempts";
      m Higher "count" "handshake.completed";
      m Lower "count" "handshake.failed";
      m Higher "count" "fluid.classes";
      m Lower "count" "fluid.rate_events";
      m Lower "count" "fluid.solves";
      m Higher "count" "fluid.skipped";
      m Lower "count" "fluid.full_solves";
      m Lower "count" "fluid.touched_classes";
      m Higher "count" "fluid.seen_classes";
      m Lower "count" "fluid.max_component";
      m Lower "us" "fluid.recompute_us.incr";
      m Lower "us" "fluid.recompute_us.full";
      m Lower "count" "hybrid.demotions";
      m Lower "count" "hybrid.promotions";
      m Lower "count" "hybrid.demote_denied";
      m Lower "count" "hybrid.demoted_peak";
      m Lower "ns" "hybrid.demote_ns_per_flow";
      m Lower "ns" "hybrid.promote_ns_per_flow";
      m Lower "s/sim_s" "phase.attack.host_per_sim_s";
      m Lower "s/sim_s" "phase.steady.host_per_sim_s";
      m Lower "count" "psim.windows";
      m Lower "count" "psim.exchanged";
      m Higher "events" "psim.events_per_window";
      m Higher "ms" "psim.lookahead_ms";
      m Higher "flag" "psim.mode";
      m Higher "ratio" "psim.speedup_vs_1";
      m Lower "s" "psim.sync_s";
      m Lower "count" "obs.trace_events";
      m Lower "ratio" "obs.trace_overhead_frac";
      m Lower "words/hop" "gc.minor_words_per_hop";
      m Lower "count" "gc.major_collections";
      m Lower "ms" "host.ref_kernel_ms";
      m Lower "ratio" "benign.undelivered_frac" ]

(* A JSON number with all its digits; non-finite values (a ratio over an
   empty window) print as 0. *)
let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let result_json ~correct ~attempted ~failed (metrics : (metric * float) list) =
  let body =
    String.concat ", "
      (List.map
         (fun (mt, v) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" mt.name (json_number v) mt.unit)
         metrics)
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed body
