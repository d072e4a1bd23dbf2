(* A nanosecond monotonic clock read without allocation, so it can sit
   inside a per-stage wrapper on the packet hot path. Same C stub as
   [Monotonic_clock.now], bound here with an unboxed result so no call
   site ever boxes an int64. *)
external now : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

let ns () = Int64.to_int (now ())
let seconds ns = float_of_int ns *. 1e-9
