(* A 4-ary heap over parallel arrays, split into two groups of columns.

   The heap proper is three position-indexed columns: [prios] (a bare
   [float array], unboxed by the runtime), [seqs] and [slots]. Sifting
   moves only these. Each element's payload — its value and its two int
   tags — lives in slot-indexed columns, written once on push and read
   once at the top; [slots.(i)] names the payload of the element
   at heap position [i]. The [slots] column is always a permutation of
   [0, capacity): positions from [len] up hold the free slots, so an
   element pushed at position [len] takes the slot already stored there,
   and a pop parks the freed slot at the position it vacates.

   Four children per node halve the depth of a binary heap, and the
   children of node [i] ([4i+1 .. 4i+4]) are adjacent in memory, so a
   level's comparisons touch one or two cache lines. Both sifts are
   hole-based: the moving element is held aside while smaller parents
   (push) or children (pop) shift into the hole, then written once at its
   final position — no per-level swap.

   The order is exactly [(prio, seq)]: with distinct sequences (which
   [push] and the engine guarantee) it is a total order, so the pop
   sequence does not depend on the tree's shape.

   Plain [a.(i)] indexing throughout: the perf build's [-unsafe] drops the
   bounds checks, and the checked build keeps them. Positions of live
   elements are below [len], slots below the capacity, and the tags
   column holds twice the capacity. *)
type 'a t = {
  mutable prios : float array;  (* by position *)
  mutable seqs : int array;  (* by position *)
  mutable slots : int array;  (* by position: the element's payload slot *)
  mutable vals : 'a array;  (* by slot *)
  mutable tags : int array;  (* by slot: tag1 at [2 * slot], tag2 at [2 * slot + 1] *)
  mutable len : int;
  mutable next_seq : int;
}

(* Neutral filler for vacated value slots. An immediate int masquerading
   as ['a]: safe because every value array is created below with this
   filler (so the runtime never specializes them to flat float arrays,
   and all accesses in this module stay generic), and because a filler
   slot is never read — a slot is only read while its element is in the
   heap. Without the clearing, a popped element stayed reachable from its
   vacated slot until the slot was reused: a space leak pinning packets
   and closures on any heap that drains (the event engine's lanes drain
   at the end of every run). *)
let nil : 'a. unit -> 'a = fun () -> Obj.magic 0

let create () =
  {
    prios = [||];
    seqs = [||];
    slots = [||];
    vals = [||];
    tags = [||];
    len = 0;
    next_seq = 0;
  }

let is_empty t = t.len = 0
let size t = t.len

let extend a ncap fill =
  let na = Array.make ncap fill in
  Array.blit a 0 na 0 (Array.length a);
  na

let grow t =
  let cap = Array.length t.prios in
  let ncap = max 16 (2 * cap) in
  t.prios <- extend t.prios ncap 0.;
  t.seqs <- extend t.seqs ncap 0;
  t.slots <- extend t.slots ncap 0;
  (* the new positions hold the new slots *)
  for i = cap to ncap - 1 do
    t.slots.(i) <- i
  done;
  t.vals <- extend t.vals ncap (nil ());
  t.tags <- extend t.tags (2 * ncap) 0

let push_tagged t ~prio ~seq ~tag1 ~tag2 value =
  if t.len = Array.length t.prios then grow t;
  let n = t.len in
  let slot = t.slots.(n) in
  t.vals.(slot) <- value;
  t.tags.(2 * slot) <- tag1;
  t.tags.((2 * slot) + 1) <- tag2;
  t.len <- n + 1;
  let p = t.prios and s = t.seqs and sl = t.slots in
  (* sift up: shift larger parents into the hole, place the element once *)
  let i = ref n in
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) lsr 2 in
    let pp = p.(parent) in
    if prio < pp || (prio = pp && seq < s.(parent)) then begin
      p.(!i) <- pp;
      s.(!i) <- s.(parent);
      sl.(!i) <- sl.(parent);
      i := parent
    end
    else continue := false
  done;
  p.(!i) <- prio;
  s.(!i) <- seq;
  sl.(!i) <- slot

let push_seq t ~prio ~seq value = push_tagged t ~prio ~seq ~tag1:0 ~tag2:0 value

let push t ~prio value =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  push_seq t ~prio ~seq value

(* Drop the top, then sift the last element down from the root; the
   top's slot is parked at the vacated last position. Comparisons are
   written out instead of a [less a b] helper: a local closure capturing
   the columns was a fresh block on every pop. *)
let remove_min t =
  let n = t.len - 1 in
  let p = t.prios and s = t.seqs and sl = t.slots in
  let slot = sl.(0) in
  t.vals.(slot) <- nil ();
  t.len <- n;
  if n > 0 then begin
    let mp = p.(n) and ms = s.(n) and msl = sl.(n) in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let c = (!i lsl 2) + 1 in
      if c >= n then continue := false
      else begin
        (* smallest of the up to four children [c .. last] *)
        let last = if c + 3 < n then c + 3 else n - 1 in
        let b = ref c in
        for j = c + 1 to last do
          let pj = p.(j) and pb = p.(!b) in
          if pj < pb || (pj = pb && s.(j) < s.(!b)) then b := j
        done;
        let b = !b in
        let pb = p.(b) in
        if pb < mp || (pb = mp && s.(b) < ms) then begin
          p.(!i) <- pb;
          s.(!i) <- s.(b);
          sl.(!i) <- sl.(b);
          i := b
        end
        else continue := false
      end
    done;
    p.(!i) <- mp;
    s.(!i) <- ms;
    sl.(!i) <- msl;
    sl.(n) <- slot
  end

let pop t =
  if t.len = 0 then None
  else begin
    let prio = t.prios.(0) and value = t.vals.(t.slots.(0)) in
    remove_min t;
    Some (prio, value)
  end

let min_prio t =
  if t.len = 0 then invalid_arg "Heap.min_prio: empty heap";
  t.prios.(0)

(* Cross-module calls returning floats box the result; these comparison
   entry points return bools so a caller merging heaps doesn't pay a
   fresh float box per peek. *)
let top_before a b =
  if a.len = 0 then false
  else if b.len = 0 then true
  else
    let pa = a.prios.(0) and pb = b.prios.(0) in
    pa < pb || (pa = pb && a.seqs.(0) < b.seqs.(0))

let top_at_most t x = t.len > 0 && t.prios.(0) <= x
let top_lt t x = t.len > 0 && t.prios.(0) < x

let top_tag1 t =
  if t.len = 0 then invalid_arg "Heap.top_tag1: empty heap";
  t.tags.(2 * t.slots.(0))

let top_tag2 t =
  if t.len = 0 then invalid_arg "Heap.top_tag2: empty heap";
  t.tags.((2 * t.slots.(0)) + 1)

let pop_min t =
  if t.len = 0 then invalid_arg "Heap.pop_min: empty heap";
  let value = t.vals.(t.slots.(0)) in
  remove_min t;
  value

let clear t =
  (* releasing the values matters as much as resetting the length: a
     cleared-but-retained heap (Engine.clear keeps the engine for reuse)
     must not pin the previous run's packets and closures. The slots
     column stays a permutation, so every slot is free again. *)
  for i = 0 to t.len - 1 do
    t.vals.(t.slots.(i)) <- nil ()
  done;
  t.len <- 0;
  t.next_seq <- 0

(* FIFO rings: a circular buffer over parallel columns; entry [k]
   (0 = head) sits at index [(head + k) land (capacity - 1)], and the
   capacity is 0 or a power of two. Every index is masked below the
   capacity. *)
module Ring = struct
  type 'a heap = 'a t

  type 'a t = {
    mutable prios : float array;
    mutable seqs : int array;
    mutable vals : 'a array;
    mutable head : int;
    mutable len : int;
  }

  let create () =
    { prios = [||]; seqs = [||]; vals = [||]; head = 0; len = 0 }

  let is_empty r = r.len = 0
  let size r = r.len

  (* Unroll the ring into the front of arrays twice the size. *)
  let grow r =
    let cap = Array.length r.prios in
    let ncap = max 16 (2 * cap) in
    let prios = Array.make ncap 0.
    and seqs = Array.make ncap 0
    and vals = Array.make ncap (nil ()) in
    for k = 0 to r.len - 1 do
      let i = (r.head + k) land (cap - 1) in
      prios.(k) <- r.prios.(i);
      seqs.(k) <- r.seqs.(i);
      vals.(k) <- r.vals.(i)
    done;
    r.prios <- prios;
    r.seqs <- seqs;
    r.vals <- vals;
    r.head <- 0

  (* The tail test and the append in one call, so a caller holding an
     unboxed priority boxes it once, as a heap push does. *)
  let push r ~prio ~seq v =
    let n = r.len in
    if n > 0 && r.prios.((r.head + n - 1) land (Array.length r.prios - 1)) > prio then false
    else begin
      if n = Array.length r.prios then grow r;
      let i = (r.head + n) land (Array.length r.prios - 1) in
      r.prios.(i) <- prio;
      r.seqs.(i) <- seq;
      r.vals.(i) <- v;
      r.len <- n + 1;
      true
    end

  let head_prio r =
    if r.len = 0 then invalid_arg "Heap.Ring.head_prio: empty ring";
    r.prios.(r.head)

  let head_before a b =
    if a.len = 0 then false
    else if b.len = 0 then true
    else
      let pa = a.prios.(a.head) and pb = b.prios.(b.head) in
      pa < pb || (pa = pb && a.seqs.(a.head) < b.seqs.(b.head))

  (* The three-way merge lives here, in the heap's own unit, and is one
     call: the engine runs it on every event, and the default dev build
     compiles with [-opaque], so a cross-module call is never inlined and
     a priority passed to one would be boxed. *)
  let earliest r (a : _ heap) (b : _ heap) =
    let h = if top_before a b then 0 else if b.len = 0 then -1 else 1 in
    if r.len = 0 then h
    else if h < 0 then 2
    else begin
      let p = r.prios.(r.head) and s = r.seqs.(r.head) in
      let hp = if h = 0 then a.prios.(0) else b.prios.(0)
      and hs = if h = 0 then a.seqs.(0) else b.seqs.(0) in
      if p < hp || (p = hp && s < hs) then 2 else h
    end

  let head_at_most r x = r.len > 0 && r.prios.(r.head) <= x
  let head_lt r x = r.len > 0 && r.prios.(r.head) < x

  let pop r =
    if r.len = 0 then invalid_arg "Heap.Ring.pop: empty ring";
    let i = r.head in
    let v = r.vals.(i) in
    r.vals.(i) <- nil ();
    r.head <- (i + 1) land (Array.length r.prios - 1);
    r.len <- r.len - 1;
    v

  let clear r =
    let mask = Array.length r.prios - 1 in
    for k = 0 to r.len - 1 do
      r.vals.((r.head + k) land mask) <- nil ()
    done;
    r.head <- 0;
    r.len <- 0
end
