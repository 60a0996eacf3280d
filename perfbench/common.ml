(* What the workloads share: the result record, the reference checks
   that do not come from the analyzer itself, and the per-layer
   report. *)

module D = Depend

type metric = { name : string; value : float; unit_ : string }

type result = {
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;  (** first few, for the log *)
  mutable e2e : metric list;  (** in print order *)
  mutable layers : metric list;
}

let result () =
  { attempted = 0; failed = 0; failures = []; e2e = []; layers = [] }

let fail r msg =
  r.failed <- r.failed + 1;
  if List.length r.failures < 10 then r.failures <- msg :: r.failures

let e2e r name value unit_ = r.e2e <- r.e2e @ [ { name; value; unit_ } ]

(* Every per-layer metric, in print order, with its unit.  A workload
   that does not exercise a layer reports 0 for it. *)
let layer_units =
  [
    ("omega.screen.attempts", "count"); ("omega.screen.decide_rate", "ratio");
    ("omega.screen.ms", "ms"); ("omega.fast.attempts", "count");
    ("omega.fast.decide_rate", "ratio"); ("omega.fast.ms", "ms");
    ("omega.complete.attempts", "count");
    ("omega.complete.decide_rate", "ratio"); ("omega.complete.ms", "ms");
    ("omega.quick.attempts", "count"); ("omega.quick.decide_rate", "ratio");
    ("omega.queries", "count"); ("omega.gave_up", "count");
    ("depend.deps.ms", "ms"); ("depend.deps.count", "count");
    ("depend.driver.ms", "ms"); ("depend.driver.dead_ratio", "ratio");
    ("depend.memo.hits", "count"); ("depend.memo.misses", "count");
    ("depend.memo.hit_rate", "ratio"); ("depend.memo.size", "count");
    ("depend.memo.evictions", "count"); ("xform.graph.ms", "ms");
    ("xform.parallel.ms", "ms"); ("serve.payload.ms", "ms");
    ("serve.json.ms", "ms"); ("serve.handle.ms", "ms");
    ("serve.calc.ms", "ms"); ("serve.response_bytes", "bytes");
    ("serve.shed", "count"); ("serve.retries", "count");
    ("serve.wire.ms", "ms"); ("lang.parse.ms", "ms"); ("lang.sema.ms", "ms");
    ("xform.restructure.ms", "ms"); ("lang.compile.ms", "ms");
    ("lang.opt.ms", "ms"); ("lang.opt.elided", "count");
    ("lang.opt.fused", "count"); ("lang.vm.dyn_instrs", "count");
    ("lang.vm.create_ms", "ms"); ("lang.vm.run_ms", "ms");
    ("kernel.compile_ms_geomean", "ms"); ("kernel.run_ms_geomean", "ms");
    ("kernel.code_size_instrs", "count"); ("mix.fresh_share", "ratio");
    ("mix.calc_share", "ratio"); ("unattributed.ms", "ms");
    ("trace_overhead_ratio", "ratio");
  ]

let layer r name value =
  r.layers <- r.layers @ [ { name; value; unit_ = List.assoc name layer_units } ]

let ratio a b = if b = 0. then 0. else a /. b
let fi = float_of_int

(* Set-up time, repeated through the run.  In process, set-up takes
   about a millisecond: one sample is mostly noise, and a burst of
   samples sees a single machine state.  So set-up runs once before the
   measured phase and again between ops once a second; the median of
   the samples is reported, in seconds. *)
type setup = { run : unit -> unit; mutable samples : float list; mutable due : int64 }

let setup_tick s =
  if Clock.past s.due then begin
    let (), ms = Clock.time s.run in
    s.samples <- (ms /. 1000.) :: s.samples;
    s.due <- Clock.deadline_after_s 1.
  end

let setup run =
  let s = { run; samples = []; due = 0L } in
  setup_tick s;
  s

let setup_s s = Stats.median s.samples

(* ---------------------------------------------------------------- *)
(* The program pool                                                  *)
(* ---------------------------------------------------------------- *)

type prog = { pname : string; src : string }

(* Corpus programs that parse and pass sema, in corpus order. *)
let pool sources =
  List.filter_map
    (fun (pname, src) ->
      match Lang.Sema.parse_and_analyze src with
      | _ -> Some { pname; src }
      | exception _ -> None)
    sources
  |> Array.of_list

(* ---------------------------------------------------------------- *)
(* Dynamic soundness reference                                       *)
(* ---------------------------------------------------------------- *)

(* A dead flow must carry no value flow when the program runs: the
   reference is the tracing interpreter's last-writer pairs, which owe
   nothing to the Omega test.  Returns [None] when the interpreter
   cannot run the program (opaque index-array bounds). *)
let dead_flows_sound (prog : Lang.Ir.program) (r : D.Driver.result) :
    (bool, string) Stdlib.result =
  match
    Xform.Oracle.pick_syms ~candidates:[ 6; 5; 4; 3; 2; 1; 8; 10; 50; 100 ]
      prog
  with
  | None -> Error "no symbol values satisfy the assumptions"
  | Some syms -> (
    match Lang.Interp.run prog ~syms with
    | exception Lang.Interp.Runtime_error msg -> Error msg
    | trace ->
      let flows = Lang.Interp.value_flow_deps trace in
      let carried = Hashtbl.create 64 in
      List.iter
        (fun (d : Lang.Interp.dep) ->
          Hashtbl.replace carried
            ( d.Lang.Interp.src.Lang.Interp.acc.Lang.Ir.acc_id,
              d.Lang.Interp.dst.Lang.Interp.acc.Lang.Ir.acc_id )
            ())
        flows;
      Ok
        (List.for_all
           (fun (fr : D.Driver.flow_result) ->
             not
               (Hashtbl.mem carried
                  ( fr.D.Driver.dep.D.Deps.src.Lang.Ir.acc_id,
                    fr.D.Driver.dep.D.Deps.dst.Lang.Ir.acc_id )))
           (D.Driver.dead_flows r)))

(* Check every distinct analyzed program; count the unsound ones as
   failures and report how many the interpreter could not run. *)
let check_soundness r (progs : (string * string) list) =
  let unchecked = ref [] in
  List.iter
    (fun (name, src) ->
      let prog = Lang.Sema.parse_and_analyze src in
      let res = D.Driver.analyze prog in
      match dead_flows_sound prog res with
      | Ok true -> ()
      | Ok false -> fail r (name ^ ": a dead flow carries a value flow")
      | Error why -> unchecked := (name ^ " (" ^ why ^ ")") :: !unchecked)
    progs;
  Printf.printf "soundness: %d distinct programs checked against the interpreter's value flows"
    (List.length progs - List.length !unchecked);
  if !unchecked <> [] then
    Printf.printf "; not executable: %s" (String.concat ", " (List.rev !unchecked));
  print_newline ()

(* ---------------------------------------------------------------- *)
(* Solver counters                                                   *)
(* ---------------------------------------------------------------- *)

type tiers = {
  mutable quick_att : int;
  mutable quick_dec : int;
  att : int array;  (** screen, fast, complete *)
  dec : int array;
  ms : float array;
  mutable queries : int;
  mutable gave_up : int;
}

let tiers () =
  {
    quick_att = 0;
    quick_dec = 0;
    att = Array.make 3 0;
    dec = Array.make 3 0;
    ms = Array.make 3 0.;
    queries = 0;
    gave_up = 0;
  }

let tier_names = [| "screen"; "fast"; "complete" |]

(* Fold the current domain's portfolio and budget counters into [t]. *)
let add_current t =
  let s = Omega.Portfolio.Stats.current () in
  let open Omega.Portfolio.Stats in
  t.quick_att <- t.quick_att + s.quick.attempts;
  t.quick_dec <- t.quick_dec + s.quick.decides;
  List.iteri
    (fun i row ->
      t.att.(i) <- t.att.(i) + row.attempts;
      t.dec.(i) <- t.dec.(i) + row.decides;
      t.ms.(i) <- t.ms.(i) +. (row.elapsed *. 1000.))
    [ s.screen; s.fast; s.complete ];
  let b = Omega.Budget.Telemetry.current () in
  t.queries <- t.queries + b.Omega.Budget.Telemetry.queries;
  t.gave_up <- t.gave_up + Omega.Budget.Telemetry.total_of b

let reset_counters () =
  Omega.Portfolio.Stats.reset ();
  Omega.Budget.Telemetry.reset ()

(* [f ()] with fresh counters, folded into [t] afterwards. *)
let counted t f =
  reset_counters ();
  let r = f () in
  add_current t;
  r

(* Record the program-measured tier times as counter spans under the
   span that ran them. *)
let tier_counters ~parent (before : float array) t =
  Array.iteri
    (fun i name ->
      Trace.add_counter ~parent ("omega." ^ name) (t.ms.(i) -. before.(i)))
    tier_names

let decided_rate t = 1. -. ratio (fi t.gave_up) (fi t.queries)

(* The omega.* per-layer rows, per op. *)
let omega_layers r t ~ops =
  let per x = ratio x (fi ops) in
  Array.iteri
    (fun i name ->
      layer r ("omega." ^ name ^ ".attempts") (per (fi t.att.(i)));
      layer r ("omega." ^ name ^ ".decide_rate")
        (ratio (fi t.dec.(i)) (fi t.att.(i)));
      layer r ("omega." ^ name ^ ".ms") (per t.ms.(i)))
    tier_names;
  layer r "omega.quick.attempts" (per (fi t.quick_att));
  layer r "omega.quick.decide_rate"
    (ratio (fi t.quick_dec) (fi t.quick_att));
  layer r "omega.queries" (per (fi t.queries));
  layer r "omega.gave_up" (per (fi t.gave_up))

(* ---------------------------------------------------------------- *)
(* The per-layer report                                              *)
(* ---------------------------------------------------------------- *)

(* Fill in every layer the workload did not report, in the canonical
   order. *)
let complete_layers r =
  r.layers <-
    List.map
      (fun (name, unit_) ->
        match List.find_opt (fun m -> m.name = name) r.layers with
        | Some m -> m
        | None -> { name; value = 0.; unit_ })
      layer_units

(* The add-up: the leaf layers' self times per op, the unattributed
   residue, and the end-to-end mean they must sum to. *)
let print_addup ~title ~(leaves : (string * float) list) ~residue ~total =
  Printf.printf "\nper-layer self time, ms per op (%s):\n" title;
  List.iter
    (fun (name, ms) ->
      Printf.printf "  %-24s %10.4f  %5.1f%%\n" name ms (100. *. ratio ms total))
    leaves;
  Printf.printf "  %-24s %10.4f  %5.1f%%\n" "unattributed.ms" residue
    (100. *. ratio residue total);
  let sum = List.fold_left (fun s (_, v) -> s +. v) residue leaves in
  Printf.printf "  %-24s %10.4f  (end-to-end mean %.4f ms per op)\n" "sum" sum
    total;
  print_endline
    "  omega.quick.ms           unmeasured: the program records no time for \
     the quick screens (they run inside depend.driver's self time)"
