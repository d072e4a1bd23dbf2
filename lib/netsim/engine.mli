(** Discrete-event simulation engine: a monotonic clock and three kinds
    of event lane sharing one sequence counter.

    The {e thunk lane} is a heap of arbitrary [unit -> unit] events
    (timers, protocol steps, one-shot schedules). The {e packet lane}
    holds packet arrivals — the dominant event class, one per link hop —
    as unboxed heap columns [(time, to_node, from_node, pkt)] dispatched
    through a single registered handler, so scheduling a hop allocates no
    closure. The {e burst rings} hold the ticks of {!schedule_burst}: one
    FIFO ring ({!Ff_util.Heap.Ring}) for ticks due at the current
    instant, and one per period (a small fixed number of them) for
    re-arms due within a period, which arrive already in time order.
    A tick that would break a ring's order, or whose period finds no
    ring, goes to the thunk heap instead.

    Every lane draws sequence numbers from one engine-wide counter, and
    dispatch always picks the lane whose head has the smallest
    [(time, seq)], so events across all lanes fire in global scheduling
    order: same-instant events pop FIFO exactly as with a single heap,
    and runs are deterministic. *)

type t

val create : unit -> t

val now : t -> float
(** Current simulation time in seconds (0. initially). *)

val schedule : t -> at:float -> (unit -> unit) -> unit
(** Raises [Invalid_argument] when [at] is in the past. *)

val set_packet_handler :
  t -> (to_node:int -> from_node:int -> Ff_dataplane.Packet.t -> unit) -> unit
(** Register the packet-lane dispatcher. One handler per engine —
    registering again replaces it ([Net.create] owns it; the repo runs
    one net per engine). Until one is registered, dispatching a packet
    event fails. *)

val schedule_packet :
  t -> at:float -> to_node:int -> from_node:int -> Ff_dataplane.Packet.t -> unit
(** Schedule a packet arrival on the packet lane: at time [at] the
    registered handler runs as [h ~to_node ~from_node pkt]. Ordered
    against thunk events by the shared [(time, seq)] key. Allocation-free
    past heap growth. Raises [Invalid_argument] when [at] is in the
    past. *)

val after : t -> delay:float -> (unit -> unit) -> unit

val every : t -> ?start:float -> ?until:float -> period:float -> (unit -> unit) -> unit
(** Recurring event on the thunk lane, starting at [start] (default one
    period from now) and repeating every [period] until [until] (default
    forever). There is no cancellation: the series ticks until [until],
    and a caller that must go quiet sooner makes [f] a no-op by a flag of
    its own. *)

val schedule_burst :
  t -> start:float -> period:float -> count:int -> (int -> bool) -> unit
(** Batched emission: call [f k] at [start +. k *. period] for
    [k = 0 .. count - 1], stopping early as soon as [f] returns [false].
    The whole burst shares a single self-rescheduling closure and has one
    pending tick at a time, so constant-rate traffic sources pay two
    allocations per burst instead of one per packet. Tick times accumulate
    ([at +. period] each step) exactly like a chain of {!after} calls, so
    replacing a self-scheduling loop with a burst is behavior-preserving.
    A tick due now waits in the zero-delay ring, a tick due within one
    period in its period's ring (when that keeps the ring in order), and
    any other tick — such as the first one of a burst armed more than a
    period ahead — in the thunk heap; the lane never changes the firing
    order. Raises [Invalid_argument] when [start] is in the past. *)

val run : t -> until:float -> unit
(** Pop and execute events until every lane drains or the clock passes
    [until]; afterwards [now t = until]. Events at exactly [until] run
    (inclusive bound). *)

val run_window : t -> horizon:float -> unit
(** Execute every event with time strictly before [horizon], then set
    [now t = horizon]. The bounded-window primitive of the conservative
    parallel engine ({!Ff_parallel.Psim}): the exclusive bound keeps an
    event at exactly the horizon from racing ahead of a same-instant
    cross-shard arrival that has not been exchanged yet. Safe to follow
    with schedules at [>= horizon] — which conservative lookahead
    guarantees for every future cross-shard arrival. *)

val next_time : t -> float
(** Time of the earliest pending event across all lanes, or [infinity]
    when every lane is empty. The shard's contribution to the global
    lower-bound computation between windows. Allocation: one boxed
    float. *)

val step : t -> bool
(** Execute one event (from whichever lane holds the global minimum);
    [false] when every lane is empty. *)

val pending : t -> int
(** Events waiting across all lanes: both heaps and every ring. *)

val clear : t -> unit
(** Reset the engine to its freshly-created state: every lane emptied
    (releasing every pending event for collection), clock back to 0,
    sequence counter back to 0, packet handler deregistered. A cleared
    engine accepts schedules at any non-negative time and never fires a
    handler from a previous run. The executed-step counter ({!steps}) is
    {e not} reset — it is a monotone odometer, not run state. *)

val steps : t -> int
(** Events executed by {e this} engine since creation — monotone across
    {!clear}. Snapshot around a run for per-engine event counts without
    interference from other engines (or other domains). *)

val total_steps : unit -> int
(** Process-wide count of events executed across every engine instance —
    monotone, never reset. Backed by an [Atomic.t] that each engine
    updates at the end of every [run]/[run_window]/[step] call (the
    per-event bump is engine-local), so it is exact whenever no engine is
    mid-run and safe to read from any domain. Snapshot it around a run to
    profile events/s (see [Ff_obs.Profile]). *)
