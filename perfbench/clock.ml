(* Every benchmark timing comes from CLOCK_MONOTONIC (through bechamel's
   stub), so a wall-clock step cannot move a number. *)

let now_ns () = Monotonic_clock.now ()

let ms_between t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e6

(* [time f] = (result, elapsed milliseconds). *)
let time f =
  let t0 = now_ns () in
  let r = f () in
  (r, ms_between t0 (now_ns ()))

let deadline_after_s s = Int64.add (now_ns ()) (Int64.of_float (s *. 1e9))
let past deadline = Int64.compare (now_ns ()) deadline >= 0
