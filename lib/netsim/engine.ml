(* Three kinds of event lane share one clock and one sequence counter.

   The packet lane exists because packet arrivals are the dominant event
   class (one per link hop; ~1.5M per bench run): storing them as
   (time, seq, to_node, from_node, pkt) heap columns instead of a
   [fun () -> receive ...] thunk removes the last per-hop closure
   allocation. Everything rare — timers, the mode protocol, one-shot
   schedules — stays on the thunk lane.

   The burst rings exist because periodic sources are the next biggest
   class: at ISP scale ~87k demoted CBR flows share one period, and each
   burst tick paid a sift through a ~90k-entry thunk heap. A burst
   re-arms at its last deadline plus its period. Pops come in deadline
   order and float [+.] is monotone, so one period's re-arms arrive
   already in (time, seq) order, and a FIFO ring ([Ff_util.Heap.Ring])
   holds them exactly at O(1) per push and pop. [schedule_burst] sends a
   tick
   - due now to the zero-delay ring (ring 0);
   - due within one period to the ring for its period, when that ring's
     tail is not later (the tail test);
   - anywhere else to the thunk heap.
   A tick more than one period ahead (a burst armed at a far-off start)
   would push the ring's tail past where the period's next re-arms land
   and send them all to the heap, so it never enters a ring. At most
   [period_rings] periods hold a ring at once; the rest use the heap.

   Ordering: every schedule, on any lane, draws the next value of the
   engine-wide [next_seq] counter, and dispatch always picks the lane
   whose head has the smallest (time, seq): the packet heap, the thunk
   heap or the ring with the earliest head. [min_ring] names that ring
   and is kept current on push and pop, so choosing a lane costs one
   comparison more than the two-heap merge, not a scan of the rings.
   That is exactly the order a single heap produces, so runs are
   bit-identical. *)

type packet_handler = to_node:int -> from_node:int -> Ff_dataplane.Packet.t -> unit

let no_handler ~to_node:_ ~from_node:_ _ =
  failwith "Engine.schedule_packet: no packet handler registered"

(* Period rings beside the zero-delay ring: a fixed bound, not a setting.
   Periods past it fall back to the thunk heap. *)
let period_rings = 8

type t = {
  thunks : (unit -> unit) Ff_util.Heap.t;
  packets : Ff_dataplane.Packet.t Ff_util.Heap.t;
      (* tag1 = to_node, tag2 = from_node *)
  rings : (unit -> unit) Ff_util.Heap.Ring.t array;
      (* [0]: zero-delay ring; [1 .. nrings - 1]: period rings *)
  periods : float array;  (* period of ring [i >= 1] *)
  mutable nrings : int;
  mutable min_ring : int;  (* ring with the earliest head; any empty ring when all are *)
  mutable clock : float;
  mutable next_seq : int;
  mutable steps : int;
  mutable on_packet : packet_handler;
}

(* Process-wide count of executed events, across every engine instance:
   the denominator-free "work done" measure the profiler reports even for
   engines buried inside scenario code.

   It used to be a bare [ref] bumped on every dispatch — a data race once
   engines run on separate domains, and a per-event shared-cache-line hit
   either way. Dispatch now bumps the engine's own [steps] field and the
   run entry points flush the delta into this atomic, so the hot loop
   stays domain-local and the aggregate stays exact at every point where
   a caller can observe it (between [run]/[run_window]/[step] calls). *)
let global_steps = Atomic.make 0
let total_steps () = Atomic.get global_steps
let flush_steps delta = if delta > 0 then ignore (Atomic.fetch_and_add global_steps delta)

let create () =
  {
    thunks = Ff_util.Heap.create ();
    packets = Ff_util.Heap.create ();
    rings = Array.init (period_rings + 1) (fun _ -> Ff_util.Heap.Ring.create ());
    periods = Array.make (period_rings + 1) 0.;
    nrings = 1;
    min_ring = 0;
    clock = 0.;
    next_seq = 0;
    steps = 0;
    on_packet = no_handler;
  }

let steps t = t.steps

let now t = t.clock

let set_packet_handler t h = t.on_packet <- h

let schedule t ~at f =
  if at < t.clock -. 1e-12 then
    invalid_arg
      (Printf.sprintf "Engine.schedule: at=%.9f is before now=%.9f" at t.clock);
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  Ff_util.Heap.push_seq t.thunks ~prio:(max at t.clock) ~seq f

let schedule_packet t ~at ~to_node ~from_node pkt =
  if at < t.clock -. 1e-12 then
    invalid_arg
      (Printf.sprintf "Engine.schedule_packet: at=%.9f is before now=%.9f" at
         t.clock);
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  (* pass one of the two already-boxed floats instead of [max at t.clock],
     which would box a fresh result per call *)
  let prio = if at >= t.clock then at else t.clock in
  Ff_util.Heap.push_tagged t.packets ~prio ~seq ~tag1:to_node ~tag2:from_node pkt

let after t ~delay f =
  assert (delay >= 0.);
  schedule t ~at:(t.clock +. delay) f

(* Single-float record for tick-time accumulators: a [float ref]'s [:=]
   boxes a fresh float per tick, a flat record field stores it unboxed. *)
type fcell = { mutable fv : float }

let every t ?start ?until ~period f =
  assert (period > 0.);
  let start = match start with Some s -> s | None -> t.clock +. period in
  (* one closure for the whole series; [next] carries the tick's own time *)
  let next = { fv = start } in
  let rec tick () =
    match until with
    | Some u when next.fv > u +. 1e-12 -> ()
    | _ ->
      f ();
      next.fv <- next.fv +. period;
      schedule t ~at:next.fv tick
  in
  schedule t ~at:start tick

(* The ring that holds [period]'s ticks: the one keyed to it, else an
   empty one re-keyed to it (an empty ring has no tail to respect), else
   -1 when [period_rings] other periods hold every ring. *)
let ring_for t period =
  let found = ref (-1) and free = ref (-1) and i = ref 1 in
  while !found < 0 && !i < t.nrings do
    if t.periods.(!i) = period then found := !i
    else if !free < 0 && Ff_util.Heap.Ring.is_empty t.rings.(!i) then free := !i;
    incr i
  done;
  if !found < 0 then begin
    if !free < 0 && t.nrings < Array.length t.rings then begin
      free := t.nrings;
      t.nrings <- t.nrings + 1
    end;
    if !free >= 0 then t.periods.(!free) <- period;
    found := !free
  end;
  !found

(* A burst's state: the deadline of its pending tick and the index of
   its next call. Both fields are floats so the record is stored flat: a
   mixed record would box [due] on every re-arm, and a separate [int ref]
   would be one more block per burst. [next] counts exactly, as counts
   stay far below 2^53. *)
type burst = { mutable due : float; mutable next : float }

(* Enqueue the tick due at [b.due] on a ring when the lane rule and the
   ring's tail test allow it, else on the thunk heap. Either way it
   takes the next seq, as any schedule would. *)
let push_burst t ~period b tick =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let x = b.due in
  let i =
    if x <= t.clock then 0
    else if x <= t.clock +. period then ring_for t period
    else -1
  in
  if i >= 0 && Ff_util.Heap.Ring.push t.rings.(i) ~prio:x ~seq tick then begin
    let r = t.rings.(i) in
    (* a push behind an existing head moves no head *)
    if Ff_util.Heap.Ring.size r = 1 && Ff_util.Heap.Ring.head_before r t.rings.(t.min_ring)
    then t.min_ring <- i
  end
  else Ff_util.Heap.push_seq t.thunks ~prio:x ~seq tick

let schedule_burst t ~start ~period ~count f =
  assert (period >= 0.);
  if count > 0 then begin
    if start < t.clock -. 1e-12 then
      invalid_arg
        (Printf.sprintf "Engine.schedule_burst: start=%.9f is before now=%.9f" start t.clock);
    (* a single self-rescheduling closure with one pending tick: the
       burst costs two allocations in total instead of one closure per
       tick *)
    let b = { due = max start t.clock; next = 0. } in
    let rec tick () =
      let continue = f (int_of_float b.next) in
      b.next <- b.next +. 1.;
      if continue && int_of_float b.next < count then begin
        b.due <- b.due +. period;
        push_burst t ~period b tick
      end
    in
    push_burst t ~period b tick
  end

(* Lane dispatchers: each costs one boxed float (the head's time, which
   then lives on as the clock's box) — the same per-event price the old
   single-heap engine paid. *)
let dispatch_packet t =
  let at = Ff_util.Heap.min_prio t.packets in
  let to_node = Ff_util.Heap.top_tag1 t.packets
  and from_node = Ff_util.Heap.top_tag2 t.packets in
  let pkt = Ff_util.Heap.pop_min t.packets in
  t.clock <- (if at > t.clock then at else t.clock);
  t.steps <- t.steps + 1;
  t.on_packet ~to_node ~from_node pkt

let dispatch_thunk t =
  let at = Ff_util.Heap.min_prio t.thunks in
  let f = Ff_util.Heap.pop_min t.thunks in
  t.clock <- (if at > t.clock then at else t.clock);
  t.steps <- t.steps + 1;
  f ()

(* Popping the earliest ring moves its head back, so the earliest head
   among the rings (at most [period_rings + 1]) is found again. *)
let dispatch_ring t =
  let r = t.rings.(t.min_ring) in
  let at = Ff_util.Heap.Ring.head_prio r in
  let f = Ff_util.Heap.Ring.pop r in
  let best = ref 0 in
  for i = 1 to t.nrings - 1 do
    if Ff_util.Heap.Ring.head_before t.rings.(i) t.rings.(!best) then best := i
  done;
  t.min_ring <- !best;
  t.clock <- (if at > t.clock then at else t.clock);
  t.steps <- t.steps + 1;
  f ()

(* The lane holding the earliest pending event by (time, seq), as
   [Ring.earliest] codes it: 0 packets, 1 thunks, 2 ring [min_ring], -1
   none. *)
let next_lane t = Ff_util.Heap.Ring.earliest t.rings.(t.min_ring) t.packets t.thunks

let step t =
  let ran =
    match next_lane t with
    | 0 -> dispatch_packet t; true
    | 1 -> dispatch_thunk t; true
    | 2 -> dispatch_ring t; true
    | _ -> false
  in
  if ran then flush_steps 1;
  ran

let run t ~until =
  let steps0 = t.steps in
  let continue = ref true in
  while !continue do
    match next_lane t with
    | 0 ->
      if Ff_util.Heap.top_at_most t.packets until then dispatch_packet t
      else continue := false
    | 1 ->
      if Ff_util.Heap.top_at_most t.thunks until then dispatch_thunk t
      else continue := false
    | 2 ->
      if Ff_util.Heap.Ring.head_at_most t.rings.(t.min_ring) until then dispatch_ring t
      else continue := false
    | _ -> continue := false
  done;
  t.clock <- max t.clock until;
  flush_steps (t.steps - steps0)

(* The conservative-PDES window: execute events strictly before [horizon],
   then park the clock at the horizon. Exclusive, unlike [run] — an event
   at exactly the horizon may tie with a cross-shard arrival that another
   shard has not yet sent, so it must wait for the next window, where the
   documented (time, shard, seq) drain order resolves the tie. Leaving the
   clock at [horizon] is safe precisely because conservative lookahead
   guarantees every future cross-shard arrival lands at or after it. *)
let run_window t ~horizon =
  let steps0 = t.steps in
  let continue = ref true in
  while !continue do
    match next_lane t with
    | 0 ->
      if Ff_util.Heap.top_lt t.packets horizon then dispatch_packet t
      else continue := false
    | 1 ->
      if Ff_util.Heap.top_lt t.thunks horizon then dispatch_thunk t
      else continue := false
    | 2 ->
      if Ff_util.Heap.Ring.head_lt t.rings.(t.min_ring) horizon then dispatch_ring t
      else continue := false
    | _ -> continue := false
  done;
  t.clock <- max t.clock horizon;
  flush_steps (t.steps - steps0)

let next_time t =
  match next_lane t with
  | 0 -> Ff_util.Heap.min_prio t.packets
  | 1 -> Ff_util.Heap.min_prio t.thunks
  | 2 -> Ff_util.Heap.Ring.head_prio t.rings.(t.min_ring)
  | _ -> infinity

let pending t =
  let n = ref (Ff_util.Heap.size t.thunks + Ff_util.Heap.size t.packets) in
  for i = 0 to t.nrings - 1 do
    n := !n + Ff_util.Heap.Ring.size t.rings.(i)
  done;
  !n

let clear t =
  Ff_util.Heap.clear t.thunks;
  Ff_util.Heap.clear t.packets;
  Array.iter Ff_util.Heap.Ring.clear t.rings;
  t.nrings <- 1;
  t.min_ring <- 0;
  (* a cleared engine must be as good as a fresh one: reset the clock (a
     stale clock silently rejected every schedule before the previous
     run's end) and drop the packet handler (a retained one could fire a
     previous run's [Net] from the next run's events) *)
  t.clock <- 0.;
  t.next_seq <- 0;
  t.on_packet <- no_handler
