(* The benchmark's own seeded input generators: fresh affine loop nests
   (programs the daemon has never seen) and bounded omega_calc [sat]
   problems with a brute-force reference answer.  Both draw only from
   the workload's Rng, so a seed fixes every generated input. *)

module R = Stats.Rng

(* ---------------------------------------------------------------- *)
(* Affine loop nests                                                 *)
(* ---------------------------------------------------------------- *)

(* Arrays are declared far wider than any subscript the generator can
   produce at the symbol values the checks use (n <= 8), so every
   program also runs under the reference interpreter. *)
let arrays1 = [| "a"; "b"; "x" |]
let arrays2 = [| "c"; "d" |]

(* Subscripts stay close to what loop code writes: one loop variable
   with a unit (sometimes 2) coefficient plus a small offset, and now and
   then the sum of two variables. *)
let term r vars =
  let v = R.pick r vars in
  if R.int r 4 = 0 then "2*" ^ v else v

let offset r =
  match R.range r (-2) 2 with
  | 0 -> ""
  | k when k > 0 -> Printf.sprintf " + %d" k
  | k -> Printf.sprintf " - %d" (-k)

(* An affine subscript over the enclosing loop variables (or the
   symbol [n] outside any loop). *)
let subscript r vars =
  if vars = [||] then "n" ^ offset r
  else if Array.length vars >= 2 && R.int r 4 = 0 then
    vars.(0) ^ " + " ^ vars.(1) ^ offset r
  else term r vars ^ offset r

let ref_ r vars =
  if R.int r 3 = 0 then
    let arr = R.pick r arrays2 in
    Printf.sprintf "%s(%s, %s)" arr (subscript r vars) (subscript r vars)
  else
    let arr = R.pick r arrays1 in
    Printf.sprintf "%s(%s)" arr (subscript r vars)

let stmt r buf ~indent ~label vars =
  let rhs =
    match R.int r 3 with
    | 0 -> ref_ r vars
    | 1 -> ref_ r vars ^ " + " ^ ref_ r vars
    | _ -> ref_ r vars ^ " - 1"
  in
  Printf.bprintf buf "%s%s: %s := %s;\n" indent label (ref_ r vars) rhs

(* One nest of depth 1 or 2, with rectangular or triangular bounds. *)
let nest r buf ~next_label ~loop_ix =
  let depth = 1 + R.int r 2 in
  let vars = Array.init depth (fun k -> Printf.sprintf "i%d_%d" loop_ix k) in
  let lower k =
    if k > 0 && R.int r 3 = 0 then vars.(k - 1)
    else string_of_int (R.range r 0 1)
  in
  let upper () = if R.int r 3 = 0 then "n + 1" else "n" in
  for k = 0 to depth - 1 do
    Printf.bprintf buf "%sfor %s := %s to %s do\n" (String.make (2 * k) ' ')
      vars.(k) (lower k) (upper ())
  done;
  let indent = String.make (2 * depth) ' ' in
  for _ = 1 to 1 + R.int r 2 do
    stmt r buf ~indent ~label:(next_label ()) vars
  done;
  for k = depth - 1 downto 0 do
    Printf.bprintf buf "%sendfor\n" (String.make (2 * k) ' ')
  done

(* A fresh program: an initial store and one or two nests of one or two
   statements each.  Analysis cost grows steeply with the number of
   accesses, so a few bigger programs would cost a hundred times the
   rest and by themselves set a run's throughput.  [tag] is written
   into the initial store, so every call yields distinct source text
   even when two draws share their loop structure. *)
let program r ~tag =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    "symbolic n;\nassume 2 <= n <= 8;\n\
     real a[-100:200], b[-100:200], x[-100:200], c[-100:200, -100:200], \
     d[-100:200, -100:200];\n";
  let counter = ref 0 in
  let next_label () =
    incr counter;
    Printf.sprintf "S%d" !counter
  in
  Printf.bprintf buf "%s: %s := %d;\n" (next_label ()) (ref_ r [||]) tag;
  for loop_ix = 1 to 1 + R.int r 2 do
    nest r buf ~next_label ~loop_ix
  done;
  Buffer.contents buf

(* ---------------------------------------------------------------- *)
(* Bounded satisfiability problems                                   *)
(* ---------------------------------------------------------------- *)

type constr = { coefs : int array; op : [ `Le | `Ge | `Eq ]; rhs : int }

type calc = { vars : string array; box : int; constrs : constr list }

let calc r =
  let nv = 2 + R.int r 2 in
  let vars = Array.sub [| "x"; "y"; "z" |] 0 nv in
  let box = R.range r 3 7 in
  let constrs =
    List.init
      (1 + R.int r 3)
      (fun _ ->
        let coefs = Array.init nv (fun _ -> R.range r (-4) 4) in
        if Array.for_all (( = ) 0) coefs then coefs.(0) <- 1 + R.int r 3;
        let op =
          match R.int r 3 with 0 -> `Le | 1 -> `Ge | _ -> `Eq
        in
        { coefs; op; rhs = R.range r (-9) 9 })
  in
  { vars; box; constrs }

let calc_to_string c =
  let box =
    Array.to_list
      (Array.map (fun v -> Printf.sprintf "%d <= %s <= %d" (-c.box) v c.box)
         c.vars)
  in
  let lin k =
    let terms =
      List.filter_map
        (fun i ->
          let a = k.coefs.(i) and v = c.vars.(i) in
          if a = 0 then None
          else if a = 1 then Some v
          else if a = -1 then Some ("-" ^ v)
          else Some (Printf.sprintf "%d*%s" a v))
        (List.init (Array.length c.vars) Fun.id)
    in
    String.concat " + " terms
  in
  let constr k =
    let op = match k.op with `Le -> "<=" | `Ge -> ">=" | `Eq -> "=" in
    Printf.sprintf "%s %s %d" (lin k) op k.rhs
  in
  String.concat " and " (box @ List.map constr c.constrs)

(* The reference answer: enumerate the whole box. *)
let brute_force_sat c =
  let nv = Array.length c.vars in
  let pt = Array.make nv (-c.box) in
  let holds () =
    List.for_all
      (fun k ->
        let s = ref 0 in
        Array.iteri (fun i a -> s := !s + (a * pt.(i))) k.coefs;
        match k.op with
        | `Le -> !s <= k.rhs
        | `Ge -> !s >= k.rhs
        | `Eq -> !s = k.rhs)
      c.constrs
  in
  let rec go i = if i = nv then holds () else try_from i (-c.box)
  and try_from i v =
    if v > c.box then false
    else begin
      pt.(i) <- v;
      go (i + 1) || try_from i (v + 1)
    end
  in
  go 0
