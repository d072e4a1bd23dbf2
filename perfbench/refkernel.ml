(* A fixed piece of work shaped like a discrete-event simulator's inner
   loop: pop the earliest of 32k timed entries from a binary heap, touch
   a counter for its key in an 8 MB table, push a successor. It allocates
   nothing, so its time does not depend on the garbage the simulation
   left behind, and its arrays live outside the OCaml heap, so they do
   not count toward the simulation's heap figures. The benchmark times
   it between and during simulation reps: its time tracks how fast the
   shared host is running at that moment and never changes with the
   simulator. *)

open Bigarray

let heap_size = 1 lsl 15
let table_size = 1 lsl 20

(* One state per domain that runs the kernel at the same time. *)
type t = {
  times : (float, float64_elt, c_layout) Array1.t;
  keys : (int, int_elt, c_layout) Array1.t;
  table : (int, int_elt, c_layout) Array1.t;
}

let create () =
  let table = Array1.create int c_layout table_size in
  Array1.fill table 0;
  { times = Array1.create float64 c_layout heap_size;
    keys = Array1.create int c_layout heap_size;
    table }

(* The pseudo-random steps are written out in place: a closure would
   allocate on every call. *)
let next x = ((x * 1103515245) + 12345) land 0x3fffffff

let run { times; keys; table } =
  let x = ref 7 in
  for i = 0 to heap_size - 1 do
    times.{i} <- float_of_int i;
    x := next !x;
    keys.{i} <- !x
  done;
  for _ = 1 to 150_000 do
    (* pop the root and sift the last entry down *)
    let t = times.{0} and k = keys.{0} in
    let n = heap_size - 1 in
    let lt = times.{n} and lk = keys.{n} in
    let i = ref 0 and fin = ref false in
    while not !fin do
      let l = (2 * !i) + 1 in
      if l >= n then fin := true
      else begin
        let c = if l + 1 < n && times.{l + 1} < times.{l} then l + 1 else l in
        if times.{c} < lt then begin
          times.{!i} <- times.{c};
          keys.{!i} <- keys.{c};
          i := c
        end
        else fin := true
      end
    done;
    times.{!i} <- lt;
    keys.{!i} <- lk;
    let slot = k land (table_size - 1) in
    table.{slot} <- table.{slot} + 1;
    (* push a successor at the freed last slot and sift it up *)
    x := next !x;
    let nt = t +. float_of_int (!x land 0xffff) in
    let j = ref n in
    while !j > 0 && times.{(!j - 1) / 2} > nt do
      times.{!j} <- times.{(!j - 1) / 2};
      keys.{!j} <- keys.{(!j - 1) / 2};
      j := (!j - 1) / 2
    done;
    times.{!j} <- nt;
    x := next !x;
    keys.{!j} <- !x
  done
