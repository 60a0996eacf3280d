(* Host-speed probe.  The benchmark shares a few cores of a host whose
   other tenants slow it by up to 1.7x for seconds at a time, so a
   30-second run sees a different mix of fast and slow seconds every
   time.  A fixed loop of the benchmark's own — branchy integer work
   with no allocation, so it owes nothing to the program's code or heap
   — is timed between ops throughout the measured phase, and every
   reported time is scaled to a host on which the loop's median takes
   [nominal_ms]: a time the run measured is multiplied by
   [nominal_ms /. median].  The raw figures are printed beside the
   scaled ones.  The loop sees the CPU's speed; the workloads also wait
   on caches, memory and sockets, which other tenants slow by other
   amounts, so the scaling removes much of the spread between runs but
   not all of it. *)

let nominal_ms = 0.5

(* Pseudo-random opcodes, so the branch in the loop is not predicted
   from the previous one. *)
let code = Array.init 4096 (fun i -> ((i * 2654435761) lsr 7) land 7)

(* One probe: about half a millisecond on the hosts this was written on. *)
let once () =
  let t0 = Clock.now_ns () in
  let acc = ref 1 in
  for r = 1 to 40 do
    for pc = 0 to Array.length code - 1 do
      match Array.unsafe_get code pc with
      | 0 -> acc := !acc + r
      | 1 -> acc := !acc lxor (!acc lsr 3)
      | 2 -> acc := !acc * 3
      | 3 -> acc := !acc - pc
      | 4 -> acc := !acc lxor (pc lsl 5)
      | 5 -> acc := !acc lor pc
      | 6 -> acc := (!acc lsl 1) + 1
      | _ -> acc := !acc land 0xffffff
    done
  done;
  ignore (Sys.opaque_identity !acc);
  Clock.ms_between t0 (Clock.now_ns ())

let samples = ref []
let due = ref 0L

(* Probe if the last probe is 25 ms old: about 1200 samples in a
   30-second run, at 2% of its time.  Call between ops, outside every
   timed span. *)
let tick () =
  if Clock.past !due then begin
    samples := once () :: !samples;
    due := Clock.deadline_after_s 0.025
  end

let count () = List.length !samples

(* [nominal_ms /. median]: what a time this run measured is multiplied
   by (and a rate divided by). *)
let factor () =
  match !samples with
  | [] -> nan
  | xs -> nominal_ms /. Stats.median xs

(* A metric at the reference host speed: times scaled, rates inversely,
   counts, sizes and ratios as measured. *)
let scale value = function
  | "ms" | "s" -> value *. factor ()
  | "1/s" -> value /. factor ()
  | _ -> value
