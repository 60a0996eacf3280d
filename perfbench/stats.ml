(* Order statistics and process measurements. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank quantile over a sorted array, [q] in [0, 1]. *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then nan
  else
    let k = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    a.(max 0 (min (n - 1) k))

let quantile xs q = quantile_sorted (sorted xs) q
let median xs = quantile xs 0.5

let mean = function
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* The mean of the sorted samples between the [lo] and [hi] quantiles
   (at least one sample). *)
let band xs lo hi =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else
    let i = int_of_float (lo *. float_of_int n) in
    let j = max (int_of_float (hi *. float_of_int n)) (i + 1) in
    mean (Array.to_list (Array.sub a i (min n j - i)))

(* The p50 of a latency mix: the mean of the samples between the 45th
   and the 55th percentile.  The workloads mix a few dozen programs of
   very different cost, so a single middle order statistic jumps
   between two programs' latencies from run to run; the band spans
   several programs around the middle and moves only when they do. *)
let p50 xs = band xs 0.45 0.55

(* The p99 likewise: the mean of the samples between the 98.5th and the
   99.5th percentile.  In vm-kernels the top percent or two is one
   kernel's few dozen ops, and a single order statistic of them moves
   with every garbage collection. *)
let p99 xs = band xs 0.985 0.995

(* Ops per second of a pass that runs every input once at its median
   op time, from each input's samples (empty lists are skipped).  The
   runs draw the inputs as seeded permutations, so this is the run's
   throughput; a median per input keeps the few inputs that take most
   of the time from moving it with every garbage collection. *)
let pass_rate per_input =
  let ms = List.filter_map (function [] -> None | xs -> Some (median xs)) per_input in
  float_of_int (List.length ms) /. (List.fold_left ( +. ) 0. ms /. 1000.)

let geomean = function
  | [] -> nan
  | xs ->
    exp
      (List.fold_left (fun s x -> s +. log (Float.max x 1e-9)) 0. xs
      /. float_of_int (List.length xs))

(* The timing line every workload prints: p50 and p99 with the sample
   count, and how many samples lie beyond the 99th percentile (the runs
   are sized so that at least ten do). *)
let print_latency ~what xs =
  let n = List.length xs in
  Printf.printf "%s latency: p50 %.4f ms, p99 %.4f ms over %d samples (%d beyond the 99th percentile)\n"
    what (p50 xs) (p99 xs) n (n - int_of_float (Float.ceil (0.99 *. float_of_int n)))

(* Peak resident set ("VmHWM") of a process, in MB, from /proc. *)
let peak_rss_mb ?(pid = "self") () =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> nan
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf
            (String.sub line 6 (String.length line - 6))
            " %d" (fun kb -> float_of_int kb /. 1024.)
        else scan ()
    in
    let r = scan () in
    close_in ic;
    r

(* A splitmix64 stream: the workloads' only source of randomness, so a
   seed fixes every input. *)
module Rng = struct
  type t = { mutable s : int64 }

  let make seed = { s = Int64.of_int (seed * 0x9E3779B1 + 0x632BE5AB) }

  let next64 t =
    t.s <- Int64.add t.s 0x9E3779B97F4A7C15L;
    let z = t.s in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
        0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
        0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  (* uniform in [0, n) *)
  let int t n =
    Int64.to_int (Int64.unsigned_rem (next64 t) (Int64.of_int (max 1 n)))

  let range t lo hi = lo + int t (hi - lo + 1)
  let float t = Int64.to_float (Int64.shift_right_logical (next64 t) 11) /. 9007199254740992.
  let pick t a = a.(int t (Array.length a))

  let shuffle t a =
    let a = Array.copy a in
    for i = Array.length a - 1 downto 1 do
      let j = int t (i + 1) in
      let x = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- x
    done;
    a

  (* Indices 0..n-1 in a fresh seeded permutation per pass: every pass
     draws each index once, so a run weighs every input equally. *)
  let cycle t n =
    let order = ref [||] and pos = ref 0 in
    fun () ->
      if !pos >= Array.length !order then begin
        order := shuffle t (Array.init n Fun.id);
        pos := 0
      end;
      incr pos;
      !order.(!pos - 1)
end
