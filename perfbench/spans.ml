(* Spans recorded by the benchmark around its own calls into the
   library. Kept in memory; [write] dumps them as JSON lines when the run
   ends. Every span of one run carries the same run id, and children
   point at their parent's span id, so a layer's self time is its span
   minus the time its children cover (a per-slice stage child carries
   its busy time in its "busy_ns" attribute). *)

type span = {
  sid : int;
  parent : int;  (** -1 for a root *)
  name : string;
  t0 : int;  (** ns, monotonic *)
  t1 : int;
  attrs : (string * float) list;
}

type t = { run_id : string; mutable next : int; mutable spans : span list; enabled : bool }

let create ~run_id ~enabled = { run_id; next = 0; spans = []; enabled }
let disabled = create ~run_id:"" ~enabled:false

(* A fresh span id, for a parent whose span is added after its children. *)
let reserve t =
  let sid = t.next in
  t.next <- sid + 1;
  sid

let add t ?sid ?(parent = -1) ?(attrs = []) ~name ~t0 ~t1 () =
  if not t.enabled then -1
  else begin
    let sid = match sid with Some s -> s | None -> reserve t in
    t.spans <- { sid; parent; name; t0; t1; attrs } :: t.spans;
    sid
  end

(* Time [f] and record it as one span. *)
let timed t ?parent name f =
  let t0 = Clock.ns () in
  let r = f () in
  let t1 = Clock.ns () in
  ignore (add t ?parent ~name ~t0 ~t1 ());
  r

let spans t = List.rev t.spans

let json_of_span run_id s =
  let attrs =
    String.concat ""
      (List.map (fun (k, v) -> Printf.sprintf ",%S:%.17g" k v) s.attrs)
  in
  Printf.sprintf "{\"run\":%S,\"id\":%d,\"parent\":%d,\"name\":%S,\"start_ns\":%d,\"end_ns\":%d%s}"
    run_id s.sid s.parent s.name s.t0 s.t1 attrs

let write t path =
  let oc = open_out path in
  List.iter (fun s -> output_string oc (json_of_span t.run_id s ^ "\n")) (spans t);
  close_out oc
