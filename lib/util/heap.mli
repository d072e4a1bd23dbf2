(** Imperative 4-ary min-heap, the core of the discrete-event engine.

    Elements are ordered by a float priority with an integer tiebreaker so
    that events scheduled at the same instant pop in insertion order
    (deterministic simulation).

    Storage is parallel arrays, so [push] allocates nothing once the
    capacity is reached. Sifting moves only each element's unboxed float
    priority, its int sequence number and the index of its payload slot;
    the payload (two int tags and the value) is written once on push and
    read once at the top. The [min_prio]/[pop_min] group lets callers
    drain the heap without the option/tuple boxing of [pop].

    The tags are two unboxed payload ints per element, for callers that
    would otherwise have to box a record per push (the engine's packet
    lane stores to/from node ids there). [push] and [push_seq] leave them
    at 0.

    {!Ring} is the heap's FIFO companion for push streams that arrive
    already in order. It lives in this module so that its merge with two
    heap tops ({!Ring.earliest}) reads all three structures directly,
    without boxing a priority on the way. *)

type 'a t

val create : unit -> 'a t

val is_empty : 'a t -> bool
val size : 'a t -> int

val push : 'a t -> prio:float -> 'a -> unit
(** Insert with priority; ties break by insertion order (an internal
    per-heap sequence counter). *)

val push_seq : 'a t -> prio:float -> seq:int -> 'a -> unit
(** Insert with a caller-supplied tiebreak sequence — for callers that
    interleave several heaps and need one global insertion order across
    them. Does not disturb the internal counter used by [push]; don't mix
    the two on one heap unless the caller's sequences dominate it. *)

val push_tagged : 'a t -> prio:float -> seq:int -> tag1:int -> tag2:int -> 'a -> unit
(** [push_seq] plus two payload ints retrievable via [top_tag1]/[top_tag2]
    while the element is the minimum. *)

val pop : 'a t -> (float * 'a) option
(** Remove and return the minimum, or [None] when empty. *)

val min_prio : 'a t -> float
(** Priority of the minimum, without boxing. Raises [Invalid_argument]
    when empty — check {!is_empty} first. *)

val top_before : 'a t -> 'b t -> bool
(** [top_before a b]: does [a]'s minimum order strictly before [b]'s by
    [(prio, seq)]? An empty [b] counts as infinitely late, an empty [a]
    as never first. Allocation-free (unlike comparing two {!min_prio}
    results, which boxes two floats). *)

val top_at_most : 'a t -> float -> bool
(** [top_at_most t x]: is the heap non-empty with minimum priority
    [<= x]? Allocation-free. *)

val top_lt : 'a t -> float -> bool
(** [top_lt t x]: is the heap non-empty with minimum priority strictly
    [< x]? The exclusive bound of a conservative-PDES window. *)

val top_tag1 : 'a t -> int
val top_tag2 : 'a t -> int
(** Tag columns of the minimum. Raise [Invalid_argument] when empty. *)

val pop_min : 'a t -> 'a
(** Remove the minimum and return its value, without boxing. Raises
    [Invalid_argument] when empty. *)

val clear : 'a t -> unit
(** Empty the heap, releasing every stored value for collection (capacity
    is retained). Popping likewise clears the vacated slot — a drained
    heap keeps no element of the run alive. *)

(** {1 FIFO rings} *)

(** FIFO ring of [(prio, seq, value)] entries: an exact priority queue
    for a push stream that arrives already in [(prio, seq)] order.

    {!push} keeps that order: it refuses a priority below the tail's, and
    the caller supplies a sequence larger than every queued one (an
    engine-wide counter does this for free). The head is then always the
    minimum by [(prio, seq)], the order a heap pops in, so a ring
    and heaps that draw from one sequence counter merge exactly.

    Push and pop are O(1) and move no other entry. Storage is a
    power-of-two circular buffer over parallel columns (an unboxed
    [float array] of priorities, the sequences, the values), so neither
    operation allocates once the capacity is reached. The event engine
    keeps its periodic burst timers in such rings
    ({!Ff_netsim.Engine.schedule_burst}). *)
module Ring : sig
  type 'a heap := 'a t

  type 'a t

  val create : unit -> 'a t

  val is_empty : 'a t -> bool
  val size : 'a t -> int

  val push : 'a t -> prio:float -> seq:int -> 'a -> bool
  (** The tail test, then the append: when [r] is empty or its tail (last
      pushed) priority is [<= prio], append at the tail and return
      [true]; otherwise leave [r] unchanged and return [false].
      Precondition, not checked: [seq] is larger than every queued
      sequence. *)

  val head_prio : 'a t -> float
  (** Priority of the head. Raises [Invalid_argument] when empty. *)

  val head_before : 'a t -> 'b t -> bool
  (** [head_before a b]: does [a]'s head order strictly before [b]'s by
      [(prio, seq)]? An empty [b] counts as infinitely late, an empty [a]
      as never first. Allocation-free. *)

  val earliest : 'a t -> 'b heap -> 'c heap -> int
  (** [earliest r a b]: which of [a]'s minimum ([0]), [b]'s minimum ([1])
      and [r]'s head ([2]) orders first by [(prio, seq)], or [-1] when
      all three are empty. The engine's lane choice, in one
      allocation-free call. *)

  val head_at_most : 'a t -> float -> bool
  (** Is the ring non-empty with head priority [<= x]? *)

  val head_lt : 'a t -> float -> bool
  (** Is the ring non-empty with head priority strictly [< x]? *)

  val pop : 'a t -> 'a
  (** Remove the head and return its value. Raises [Invalid_argument] when
      empty. The vacated slot is cleared, so a popped value is not kept
      alive by the ring. *)

  val clear : 'a t -> unit
  (** Empty the ring, releasing every stored value (capacity is kept). *)
end
