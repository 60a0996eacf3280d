(* analyze-cold: `petit analyze` on a fresh cache, in process, on one
   thread.  One op = parse, sema, [Service.analyze_payload] and
   [Json.to_string] on one program drawn from the corpus and the stress
   nests; the verdict cache is reset before every op, outside the timed
   span, and each op is repeated on the cache it filled for the warm
   latency.  The draw is a seeded permutation of the pool, redrawn after
   each pass, so every run covers every program. *)

open Common
module D = Depend
module R = Stats.Rng

let sources () = Corpus.all @ Corpus.stress

(* One op; returns the payload and the time of the four calls. *)
let op (p : prog) =
  Clock.time (fun () ->
      let ast = Lang.Parser.parse_string p.src in
      let prog = Lang.Sema.analyze ast in
      let payload = Serve.Service.analyze_payload ~in_bounds:false prog in
      (payload, Serve.Json.to_string payload))

(* The same op with a span around each layer call, then the probes of
   the layers [Service.analyze_payload] runs inside: [Driver.analyze]
   on an equally cold cache, and the dependence tests it starts with. *)
let traced_op (t : tiers) (p : prog) =
  let payload_id = ref 0 in
  let (payload, text), ms =
    Clock.time (fun () ->
        Trace.span "op" (fun () ->
            let ast = Trace.span "lang.parse" (fun () -> Lang.Parser.parse_string p.src) in
            let prog = Trace.span "lang.sema" (fun () -> Lang.Sema.analyze ast) in
            let payload =
              Trace.span "serve.payload" (fun () ->
                  payload_id := Trace.here ();
                  Serve.Service.analyze_payload ~in_bounds:false prog)
            in
            (payload, Trace.span "serve.json" (fun () -> Serve.Json.to_string payload))))
  in
  let prog = Lang.Sema.parse_and_analyze p.src in
  D.Analyses.Memo.reset ();
  let driver_id = ref 0 in
  let before = Array.copy t.ms in
  let res =
    Trace.span ~parent:!payload_id ~probe:true "depend.driver" (fun () ->
        driver_id := Trace.here ();
        counted t (fun () -> D.Driver.analyze prog))
  in
  tier_counters ~parent:!driver_id before t;
  let ndeps =
    Trace.span ~parent:!driver_id ~probe:true "depend.deps" (fun () ->
        let ctx = D.Depctx.create prog in
        List.fold_left
          (fun n k -> n + List.length (D.Deps.all ctx k))
          0
          [ D.Deps.Output; D.Deps.Anti; D.Deps.Flow ])
  in
  ((payload, text), ms, res, ndeps)

let dead_count payload =
  match Serve.Json.member "dead_flows" payload with
  | Some (Serve.Json.List l) -> List.length l
  | _ -> 0

let run ~seed ~seconds ~trace =
  let r = result () in
  let pool = ref [||] in
  let set_up =
    setup (fun () ->
        D.Analyses.Memo.reset ();
        pool := Common.pool (sources ()))
  in
  let pool = !pool in
  let n = Array.length pool in
  let rng = R.make seed in
  let next = R.cycle rng n in
  let seen = Array.make n false in
  let reference = Array.make n None in
  let dead = Array.make n 0 in
  let per_prog = Array.make n [] in
  let memo_hits = ref 0 and memo_misses = ref 0 in
  let check i (payload, text) =
    r.attempted <- r.attempted + 1;
    match reference.(i) with
    | None ->
      reference.(i) <- Some text;
      dead.(i) <- dead_count payload
    | Some t0 ->
      if t0 <> text then fail r (pool.(i).pname ^ ": payload changed between ops")
  in
  let measured = if trace then seconds /. 2. else seconds in
  let t_all = tiers () in
  reset_counters ();
  let lat = ref [] in
  let deadline = Clock.deadline_after_s measured in
  let t_start = Clock.now_ns () in
  let warm = ref [] in
  while not (Clock.past deadline) do
    setup_tick set_up;
    Probe.tick ();
    let i = next () in
    D.Analyses.Memo.reset ();
    let out, ms = op pool.(i) in
    let m = D.Analyses.Memo.stats in
    memo_hits := !memo_hits + m.D.Analyses.Memo.hits;
    memo_misses := !memo_misses + m.D.Analyses.Memo.misses;
    check i out;
    lat := ms :: !lat;
    per_prog.(i) <- ms :: per_prog.(i);
    seen.(i) <- true;
    (* the same op again, on the cache its cold run just filled: the
       warm latency, sampled across the whole run *)
    let out, ms = op pool.(i) in
    check i out;
    warm := ms :: !warm
  done;
  let elapsed_s = Clock.ms_between t_start (Clock.now_ns ()) /. 1000. in
  add_current t_all;
  let rss = Stats.peak_rss_mb () in
  let warm = !warm in
  let lat = !lat in
  let nops = List.length lat in
  let distinct = List.filter (fun i -> seen.(i)) (List.init n Fun.id) in
  let dead_flows = List.fold_left (fun s i -> s + dead.(i)) 0 distinct in
  Printf.printf
    "analyze-cold: %d ops, each followed by a warm repeat, over %d distinct programs in %.2f s (seed %d)\n"
    nops (List.length distinct) elapsed_s seed;
  Printf.printf "%-20s %6s %10s %6s\n" "program" "ops" "p50(ms)" "dead";
  List.iter
    (fun i ->
      Printf.printf "%-20s %6d %10.4f %6d\n" pool.(i).pname
        (List.length per_prog.(i)) (Stats.median per_prog.(i)) dead.(i))
    distinct;
  Stats.print_latency ~what:"op" lat;
  Printf.printf "gave_up_rate %.6f (%d of %d solver queries); memo hit rate within ops %.4f\n"
    (ratio (fi t_all.gave_up) (fi t_all.queries)) t_all.gave_up t_all.queries
    (ratio (fi !memo_hits) (fi (!memo_hits + !memo_misses)));
  e2e r "setup_s" (setup_s set_up) "s";
  e2e r "ops_per_s" (Stats.pass_rate (Array.to_list per_prog)) "1/s";
  e2e r "latency_p50_ms" (Stats.p50 lat) "ms";
  e2e r "latency_p99_ms" (Stats.p99 lat) "ms";
  e2e r "peak_rss_mb" rss "MB";
  e2e r "warm_p50_ms" (Stats.p50 warm) "ms";
  e2e r "cold_p50_ms" (Stats.p50 lat) "ms";
  e2e r "dead_flows" (fi dead_flows) "count";
  e2e r "decided_rate" (decided_rate t_all) "ratio";
  if trace then begin
    (* second half: the same draw, traced *)
    Trace.enabled := true;
    let t = tiers () in
    let traced = ref 0 and traced_ms = ref 0. in
    (* tracing cost: traced ops against the same programs' untraced median *)
    let compared = ref 0. and baseline = ref 0. in
    let deps = ref 0 and flows = ref 0 and dflows = ref 0 in
    let hits = ref 0 and misses = ref 0 in
    let deadline = Clock.deadline_after_s (seconds /. 2.) in
    while not (Clock.past deadline) do
      Probe.tick ();
      let i = next () in
      incr traced;
      Trace.set_request !traced;
      D.Analyses.Memo.reset ();
      let out, ms, res, nd = traced_op t pool.(i) in
      check i out;
      traced_ms := !traced_ms +. ms;
      if per_prog.(i) <> [] then begin
        compared := !compared +. ms;
        baseline := !baseline +. Stats.median per_prog.(i)
      end;
      deps := !deps + nd;
      flows := !flows + List.length res.D.Driver.flows;
      dflows := !dflows + List.length (D.Driver.dead_flows res);
      let m = D.Analyses.Memo.stats in
      hits := !hits + m.D.Analyses.Memo.hits;
      misses := !misses + m.D.Analyses.Memo.misses
    done;
    Trace.enabled := false;
    let ops = !traced in
    let self = Trace.self_times () in
    let per name =
      match Hashtbl.find_opt self name with
      | Some (_, ms) -> ms /. fi ops
      | None -> 0.
    in
    let mean_traced = !traced_ms /. fi ops in
    omega_layers r t ~ops;
    layer r "depend.deps.ms" (per "depend.deps");
    layer r "depend.deps.count" (ratio (fi !deps) (fi ops));
    layer r "depend.driver.ms" (per "depend.driver");
    layer r "depend.driver.dead_ratio" (ratio (fi !dflows) (fi !flows));
    layer r "depend.memo.hits" (ratio (fi !hits) (fi ops));
    layer r "depend.memo.misses" (ratio (fi !misses) (fi ops));
    layer r "depend.memo.hit_rate" (ratio (fi !hits) (fi (!hits + !misses)));
    layer r "depend.memo.size" (fi (D.Analyses.Memo.size ()));
    layer r "serve.payload.ms" (per "serve.payload");
    layer r "serve.json.ms" (per "serve.json");
    layer r "lang.parse.ms" (per "lang.parse");
    layer r "lang.sema.ms" (per "lang.sema");
    layer r "unattributed.ms" (per "op");
    layer r "trace_overhead_ratio" (ratio !compared !baseline);
    print_addup ~title:(Printf.sprintf "%d traced ops" ops)
      ~leaves:
        ([ ("lang.parse.ms", per "lang.parse"); ("lang.sema.ms", per "lang.sema");
           ("serve.payload.ms", per "serve.payload");
           ("depend.driver.ms", per "depend.driver");
           ("depend.deps.ms", per "depend.deps") ]
        @ Array.to_list
            (Array.map (fun n -> ("omega." ^ n ^ ".ms", per ("omega." ^ n))) tier_names)
        @ [ ("serve.json.ms", per "serve.json") ])
      ~residue:(per "op") ~total:mean_traced
  end;
  (* references, outside every timed span *)
  check_soundness r (List.map (fun i -> (pool.(i).pname, pool.(i).src)) distinct);
  r
