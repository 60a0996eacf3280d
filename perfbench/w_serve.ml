(* serve-mixed: a closed loop over 2 connections to a live petitd on a
   Unix socket, after the daemon has been warmed over the corpus.  The
   seeded request stream mixes
   - analyze/parallelize on corpus programs (cache reads, ~65%),
   - analyze/parallelize on fresh generated nests (misses and inserts,
     ~25%),
   - bounded omega_calc sat problems (uncached solver work, ~10%).

   The traced run replays a prefix of the live stream in process, from
   the same warm start, three times: through [Service.handle]; as the
   public calls that handler makes (parse, sema, payload builders,
   calculator); and as the dependence layers under the payload builders
   ([Deps], [Driver], [Graph], [Parallel]).  Each replay starts from a
   reset verdict cache warmed over the corpus, so the inner calls see
   the cache state the outer call saw.  The live daemon is a separate
   process, so the replay's [Service.create] cannot reset its cache. *)

open Common
module R = Stats.Rng
module P = Serve.Protocol
module J = Serve.Json
module C = Serve.Client
module D = Depend

type cls = Warm | Fresh | Calc

type req = {
  k : int;
  cls : cls;
  parallel : bool;  (** parallelize rather than analyze *)
  pname : string;
  src : string;
  problem : Gen.calc option;
}

type sample = {
  rq : req;
  t0 : int64;
  t1 : int64;
  resp : (P.response, string) Stdlib.result;
}

let program_request ~parallel src =
  if parallel then
    P.Parallelize { program = src; in_bounds = false; budget = P.no_budget; deadline_ms = None }
  else P.Analyze { program = src; in_bounds = false; budget = P.no_budget; deadline_ms = None }

let request_of (q : req) =
  match q.problem with
  | Some _ -> P.Omega_calc { op = P.Sat q.src; budget = P.no_budget; deadline_ms = None }
  | None -> program_request ~parallel:q.parallel q.src

(* The seeded stream: request [k] depends only on the seed and [k].
   Corpus requests walk seeded permutations of (program, analyze or
   parallelize), so every run sends each pair equally often and the
   heavy programs weigh the same in every run. *)
let stream ~seed (pool : prog array) =
  let rng = R.make ((seed * 7919) + 1) in
  let pairs = Array.concat [ Array.map (fun p -> (p, false)) pool; Array.map (fun p -> (p, true)) pool ] in
  let next_pair = R.cycle rng (Array.length pairs) in
  let k = ref 0 in
  fun () ->
    incr k;
    let u = R.float rng in
    if u < 0.65 then
      let (p : prog), parallel = pairs.(next_pair ()) in
      { k = !k; cls = Warm; parallel; pname = p.pname; src = p.src; problem = None }
    else if u < 0.90 then
      { k = !k; cls = Fresh; parallel = R.int rng 2 = 0; pname = Printf.sprintf "fresh%d" !k;
        src = Gen.program rng ~tag:!k; problem = None }
    else
      let c = Gen.calc rng in
      { k = !k; cls = Calc; parallel = false; pname = Printf.sprintf "calc%d" !k;
        src = Gen.calc_to_string c; problem = Some c }

(* ---------------------------------------------------------------- *)
(* The daemon                                                        *)
(* ---------------------------------------------------------------- *)

type daemon = { pid : int; addr : P.addr }

let children : int list ref = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !children)

let connect addr =
  match C.connect addr with Ok c -> c | Error e -> failwith ("petitd: " ^ e)

let spawn ~petitd ~dir ~n =
  let path = Filename.concat dir (Printf.sprintf "petitd-%d-%d.sock" (Unix.getpid ()) n) in
  (try Sys.remove path with Sys_error _ -> ());
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process petitd
      [| petitd; "--socket"; path; "--domains"; "1" |]
      devnull devnull devnull
  in
  Unix.close devnull;
  children := pid :: !children;
  let addr = P.Unix_path path in
  let deadline = Clock.deadline_after_s 30. in
  let rec wait () =
    match C.connect addr with
    | Ok c -> C.close c
    | Error e ->
      if Clock.past deadline then failwith ("petitd did not come up: " ^ e);
      Thread.delay 0.005;
      wait ()
  in
  wait ();
  { pid; addr }

let call_ok c req =
  match C.request c req with
  | Ok (P.Result { payload; _ }) -> payload
  | Ok (P.Error_ { message; _ }) -> failwith ("petitd refused: " ^ message)
  | Error e -> failwith ("petitd transport: " ^ e)

let stop d =
  (match C.connect d.addr with
  | Ok c ->
    ignore (C.request c P.Shutdown);
    C.close c
  | Error _ -> Unix.kill d.pid Sys.sigterm);
  ignore (Unix.waitpid [] d.pid);
  children := List.filter (( <> ) d.pid) !children;
  match d.addr with
  | P.Unix_path p -> ( try Sys.remove p with Sys_error _ -> ())
  | P.Tcp _ -> ()

(* Warm the daemon: analyze and parallelize every corpus program once.
   Returns the analyze payloads. *)
let warm d (pool : prog array) =
  let c = connect d.addr in
  let payloads =
    Array.map
      (fun (p : prog) ->
        let a = call_ok c (program_request ~parallel:false p.src) in
        ignore (call_ok c (program_request ~parallel:true p.src));
        a)
      pool
  in
  C.close c;
  payloads

let member_path path j =
  List.fold_left (fun acc k -> Option.bind acc (J.member k)) (Some j) path

let int_at path j =
  Option.value ~default:0 (Option.bind (member_path path j) J.to_int_opt)

let float_at path j =
  Option.value ~default:0. (Option.bind (member_path path j) J.to_float_opt)

(* Fold one response's governance block into [t]. *)
let add_governance (t : tiers) g =
  t.queries <- t.queries + int_at [ "queries" ] g;
  List.iter
    (fun r -> t.gave_up <- t.gave_up + int_at [ "gave_up"; r ] g)
    [ "fuel"; "splinters"; "disjuncts"; "deadline"; "injected"; "incomplete" ];
  t.quick_att <- t.quick_att + int_at [ "tiers"; "quick"; "attempts" ] g;
  t.quick_dec <- t.quick_dec + int_at [ "tiers"; "quick"; "decides" ] g;
  Array.iteri
    (fun i name ->
      t.att.(i) <- t.att.(i) + int_at [ "tiers"; name; "attempts" ] g;
      t.dec.(i) <- t.dec.(i) + int_at [ "tiers"; name; "decides" ] g;
      t.ms.(i) <- t.ms.(i) +. float_at [ "tiers"; name; "ms" ] g)
    tier_names

(* ---------------------------------------------------------------- *)
(* The load                                                          *)
(* ---------------------------------------------------------------- *)

let connections = 2

(* petitd's peak RSS is read when this many answers are in: the daemon's
   cache grows with every fresh program, so a reading at the end of the
   phase would measure how many requests the host's speed let in. *)
let rss_after = 6000

(* Closed loop: each connection sends its next request once the previous
   answer is in.  Responses are kept and examined after the phase. *)
let drive d next ~seconds =
  let lock = Mutex.create () in
  let deadline = Clock.deadline_after_s seconds in
  let results = Array.make connections [] in
  let retries = Array.make connections 0 in
  let answered = ref 0 and rss = ref nan in
  let worker w =
    let s = C.open_session d.addr in
    let acc = ref [] in
    while not (Clock.past deadline) do
      (* one connection probes the host, between its requests *)
      if w = 0 then Probe.tick ();
      Mutex.lock lock;
      let rq = next () in
      Mutex.unlock lock;
      let t0 = Clock.now_ns () in
      let resp = C.call s (request_of rq) in
      let t1 = Clock.now_ns () in
      acc := { rq; t0; t1; resp } :: !acc;
      Mutex.lock lock;
      incr answered;
      let mark = !answered = rss_after in
      Mutex.unlock lock;
      if mark then rss := Stats.peak_rss_mb ~pid:(string_of_int d.pid) ()
    done;
    retries.(w) <- C.session_retries s;
    C.close_session s;
    results.(w) <- !acc
  in
  let t_start = Clock.now_ns () in
  let threads = List.init connections (fun w -> Thread.create worker w) in
  List.iter Thread.join threads;
  let elapsed_s = Clock.ms_between t_start (Clock.now_ns ()) /. 1000. in
  let samples =
    Array.to_list results |> List.concat
    |> List.sort (fun a b -> compare a.rq.k b.rq.k)
  in
  (samples, elapsed_s, Array.fold_left ( + ) 0 retries, !rss)

(* ---------------------------------------------------------------- *)
(* In-process replays (traced run)                                   *)
(* ---------------------------------------------------------------- *)

let quota = Omega.Budget.default

(* Reset the verdict cache and warm it over the corpus through the
   in-process payload builders — the state the daemon's warm-up leaves. *)
let warm_in_process (pool : prog array) =
  D.Analyses.Memo.reset ();
  Omega.Budget.with_limits quota (fun () ->
      Array.iter
        (fun (p : prog) ->
          let prog = Lang.Sema.parse_and_analyze p.src in
          ignore (Serve.Service.analyze_payload ~in_bounds:false prog);
          ignore (Serve.Service.parallelize_payload ~in_bounds:false prog))
        pool)

(* Pass A: the handler itself, and the response encoding the server
   does after it, under each request's root span. *)
let replay_handle pool (reqs : (sample * int) list) =
  let svc = Serve.Service.create ~domains:1 () in
  Array.iter
    (fun (p : prog) ->
      List.iter
        (fun parallel ->
          ignore (Serve.Service.handle svc ~peer:"warm" ~id:0 (program_request ~parallel p.src)))
        [ false; true ])
    pool;
  let handle_ids = Hashtbl.create 256 in
  let bytes = ref 0 in
  List.iter
    (fun (s, root) ->
      Trace.set_request s.rq.k;
      let resp, _ =
        Trace.span ~parent:root "serve.handle" (fun () ->
            Hashtbl.replace handle_ids s.rq.k (Trace.here ());
            Serve.Service.handle svc ~peer:"replay" ~id:s.rq.k (request_of s.rq))
      in
      let text =
        Trace.span ~parent:root "serve.json" (fun () -> J.to_string (P.encode_response resp))
      in
      bytes := !bytes + String.length text)
    reqs;
  Serve.Service.shutdown svc;
  (handle_ids, !bytes)

(* Pass B: the public calls [Service.handle] makes for each request.
   Returns the total time. *)
let replay_bundles pool (t : tiers) handle_ids (reqs : (sample * int) list) =
  warm_in_process pool;
  let payload_ids = Hashtbl.create 256 in
  let total = ref 0. in
  Omega.Budget.with_limits quota (fun () ->
      List.iter
        (fun (s, _) ->
          let q = s.rq in
          Trace.set_request q.k;
          let parent = Option.value (Hashtbl.find_opt handle_ids q.k) ~default:0 in
          let (), ms =
            Clock.time (fun () ->
                match q.problem with
                | Some _ ->
                  Trace.span ~parent "serve.calc" (fun () ->
                      let id = Trace.here () in
                      let before = Array.copy t.ms in
                      counted t (fun () ->
                          match Serve.Calc.eval (P.Sat q.src) with
                          | Ok r -> ignore (Serve.Calc.result_json r)
                          | Error e -> failwith e);
                      tier_counters ~parent:id before t)
                | None ->
                  let ast = Trace.span ~parent "lang.parse" (fun () -> Lang.Parser.parse_string q.src) in
                  let prog = Trace.span ~parent "lang.sema" (fun () -> Lang.Sema.analyze ast) in
                  Trace.span ~parent "serve.payload" (fun () ->
                      Hashtbl.replace payload_ids q.k (Trace.here ());
                      if q.parallel then
                        ignore (Serve.Service.parallelize_payload ~in_bounds:false prog)
                      else ignore (Serve.Service.analyze_payload ~in_bounds:false prog)))
          in
          total := !total +. ms)
        reqs);
  (payload_ids, !total)

(* Pass C: the dependence layers under the payload builders, probed on
   the cache state pass B's builders saw. *)
let replay_layers pool (t : tiers) payload_ids (reqs : (sample * int) list) =
  warm_in_process pool;
  let deps = ref 0 and flows = ref 0 and dead = ref 0 in
  Omega.Budget.with_limits quota (fun () ->
      List.iter
        (fun (s, _) ->
          let q = s.rq in
          match Hashtbl.find_opt payload_ids q.k with
          | None -> ()
          | Some parent ->
            Trace.set_request q.k;
            let prog = Lang.Sema.parse_and_analyze q.src in
            let before = Array.copy t.ms in
            let outer = ref 0 in
            (if q.parallel then begin
               let g =
                 Trace.span ~parent ~probe:true "xform.graph" (fun () ->
                     outer := Trace.here ();
                     counted t (fun () -> Xform.Graph.build ~in_bounds:false prog))
               in
               Trace.span ~parent ~probe:true "xform.parallel" (fun () ->
                   ignore (Xform.Parallel.analyze g))
             end
             else begin
               let res =
                 Trace.span ~parent ~probe:true "depend.driver" (fun () ->
                     outer := Trace.here ();
                     counted t (fun () -> D.Driver.analyze ~in_bounds:false prog))
               in
               flows := !flows + List.length res.D.Driver.flows;
               dead := !dead + List.length (D.Driver.dead_flows res)
             end);
            tier_counters ~parent:!outer before t;
            Trace.span ~parent:!outer ~probe:true "depend.deps" (fun () ->
                let ctx = D.Depctx.create prog in
                List.iter
                  (fun k -> deps := !deps + List.length (D.Deps.all ctx k))
                  [ D.Deps.Output; D.Deps.Anti; D.Deps.Flow ]))
        reqs);
  (!deps, !flows, !dead)

(* ---------------------------------------------------------------- *)
(* The workload                                                      *)
(* ---------------------------------------------------------------- *)

let payload_text = function
  | Ok (P.Result { payload; _ }) -> Ok (J.to_string payload)
  | Ok (P.Error_ { code; message; _ }) ->
    Error (P.error_code_to_string code ^ ": " ^ message)
  | Error e -> Error ("transport: " ^ e)

let run ~seed ~seconds ~trace ~petitd ~dir =
  let r = result () in
  if petitd = "" || not (Sys.file_exists petitd) then
    failwith "serve-mixed needs --petitd PATH (the built petitd binary)";
  let pool = Common.pool Corpus.all in
  (* set-up: start the daemon and warm it over the corpus; three times,
     the last daemon stays up for the measurement *)
  let daemon = ref None and warm_payloads = ref [||] in
  let setups =
    List.init 3 (fun n ->
        (match !daemon with Some d -> stop d | None -> ());
        let (), ms =
          Clock.time (fun () ->
              let d = spawn ~petitd ~dir ~n in
              daemon := Some d;
              warm_payloads := warm d pool)
        in
        ms /. 1000.)
  in
  let d = Option.get !daemon in
  (* a fresh connection per probe: the daemon reaps idle ones *)
  let health () =
    let c = connect d.addr in
    let h = call_ok c P.Health in
    C.close c;
    h
  in
  let health0 = health () in
  let next = stream ~seed pool in
  let measured = if trace then seconds /. 2. else seconds in
  let samples, elapsed_s, retries, rss = drive d next ~seconds:measured in
  let health1 = health () in
  let rss =
    if Float.is_finite rss then rss
    else begin
      Printf.printf "peak_rss_mb: fewer than %d answers, read at the end of the phase\n" rss_after;
      Stats.peak_rss_mb ~pid:(string_of_int d.pid) ()
    end
  in
  stop d;
  (* examine the responses *)
  let live = tiers () in
  let req_hits = ref 0 and req_misses = ref 0 and bytes = ref 0 in
  let fresh_hits = ref 0 and fresh_misses = ref 0 in
  List.iter
    (fun s ->
      match s.resp with
      | Ok (P.Result { governance; memo; _ } as resp) ->
        bytes := !bytes + String.length (J.to_string (P.encode_response resp));
        Option.iter (add_governance live) governance;
        Option.iter
          (fun (m : P.memo_report) ->
            req_hits := !req_hits + m.P.mr_req_hits;
            req_misses := !req_misses + m.P.mr_req_misses;
            if s.rq.cls = Fresh then begin
              fresh_hits := !fresh_hits + m.P.mr_req_hits;
              fresh_misses := !fresh_misses + m.P.mr_req_misses
            end)
          memo
      | _ -> ())
    samples;
  (* references: in-process payloads, brute-force calc answers *)
  let expected = Hashtbl.create 256 in
  let expect (q : req) =
    let key = (q.parallel, q.src) in
    match Hashtbl.find_opt expected key with
    | Some e -> e
    | None ->
      let e =
        Omega.Budget.with_limits quota (fun () ->
            let prog = Lang.Sema.parse_and_analyze q.src in
            J.to_string
              (if q.parallel then Serve.Service.parallelize_payload ~in_bounds:false prog
               else Serve.Service.analyze_payload ~in_bounds:false prog))
      in
      Hashtbl.replace expected key e;
      e
  in
  let analyzed = Hashtbl.create 256 in
  List.iter
    (fun s ->
      let q = s.rq in
      r.attempted <- r.attempted + 1;
      match (payload_text s.resp, q.problem) with
      | Error e, _ -> fail r (Printf.sprintf "request %d (%s): %s" q.k q.pname e)
      | Ok text, None ->
        Hashtbl.replace analyzed q.pname q.src;
        if text <> expect q then
          fail r (Printf.sprintf "request %d (%s): daemon payload differs from the in-process one" q.k q.pname)
      | Ok _, Some c -> (
        let truth = Gen.brute_force_sat c in
        match s.resp with
        | Ok (P.Result { payload; _ }) when J.member "sat" payload = Some (J.Bool truth) -> ()
        | _ ->
          fail r
            (Printf.sprintf "request %d: sat answer differs from enumeration (%b) for %s" q.k truth q.src)))
    samples;
  let n = List.length samples in
  let lat = List.map (fun s -> Clock.ms_between s.t0 s.t1) samples in
  let of_cls c =
    List.filter_map (fun s -> if s.rq.cls = c then Some (Clock.ms_between s.t0 s.t1) else None) samples
  in
  let share c = ratio (fi (List.length (of_cls c))) (fi n) in
  let dead_flows =
    Array.fold_left
      (fun acc p ->
        acc + match J.member "dead_flows" p with Some (J.List l) -> List.length l | _ -> 0)
      0 !warm_payloads
  in
  let shed = int_at [ "shed"; "requests" ] health1 - int_at [ "shed"; "requests" ] health0 in
  Printf.printf
    "serve-mixed: %d requests over %d connections in %.2f s (seed %d); measured shares: warm %.3f, fresh %.3f, calc %.3f\n"
    n connections elapsed_s seed (share Warm) (share Fresh) (share Calc);
  Printf.printf "%-6s %6s %10s %10s %10s %10s %10s\n" "class" "reqs" "p50(ms)" "p90(ms)"
    "p99(ms)" "max(ms)" "sum(s)";
  List.iter
    (fun c ->
      let l = of_cls c in
      Printf.printf "%-6s %6d %10.4f %10.4f %10.4f %10.4f %10.4f\n"
        (match c with Warm -> "warm" | Fresh -> "fresh" | Calc -> "calc")
        (List.length l) (Stats.median l) (Stats.quantile l 0.9) (Stats.quantile l 0.99)
        (Stats.quantile l 1.0) (List.fold_left ( +. ) 0. l /. 1000.))
    [ Warm; Fresh; Calc ];
  Stats.print_latency ~what:"op" lat;
  (match samples with
  | [] -> ()
  | first :: _ ->
    let t_first = List.fold_left (fun m s -> min m s.t0) first.t0 samples in
    let windows = Array.make (int_of_float (Float.ceil measured /. 5.) + 1) 0 in
    List.iter
      (fun s ->
        let w = int_of_float (Clock.ms_between t_first s.t1 /. 5000.) in
        if w < Array.length windows then windows.(w) <- windows.(w) + 1)
      samples;
    Printf.printf "requests per 5-s window: %s\n"
      (String.concat " " (Array.to_list (Array.map string_of_int windows))));
  Printf.printf "memo hit rate %.4f over all requests, %.4f on fresh programs; %d sheds, %d retries\n"
    (ratio (fi !req_hits) (fi (!req_hits + !req_misses)))
    (ratio (fi !fresh_hits) (fi (!fresh_hits + !fresh_misses)))
    shed retries;
  Printf.printf "gave_up_rate %.6f (%d of %d solver queries)\n"
    (ratio (fi live.gave_up) (fi live.queries)) live.gave_up live.queries;
  Printf.printf "set-up (spawn + warm over %d programs): %s s\n" (Array.length pool)
    (String.concat ", " (List.map (Printf.sprintf "%.3f") setups));
  e2e r "setup_s" (Stats.median setups) "s";
  e2e r "ops_per_s" (fi n /. elapsed_s) "1/s";
  e2e r "latency_p50_ms" (Stats.p50 lat) "ms";
  e2e r "latency_p99_ms" (Stats.p99 lat) "ms";
  e2e r "peak_rss_mb" rss "MB";
  e2e r "warm_p50_ms" (Stats.p50 (of_cls Warm)) "ms";
  e2e r "cold_p50_ms" (Stats.p50 (of_cls Fresh)) "ms";
  e2e r "dead_flows" (fi dead_flows) "count";
  e2e r "decided_rate" (decided_rate live) "ratio";
  if trace then begin
    (* replay a prefix of the stream: the requests that took the first
       tenth of the run's connection time *)
    Trace.enabled := true;
    let reqs = ref [] and acc_ms = ref 0. in
    List.iter
      (fun s ->
        if !acc_ms < seconds *. 1000. /. 10. then begin
          acc_ms := !acc_ms +. Clock.ms_between s.t0 s.t1;
          reqs := s :: !reqs
        end)
      samples;
    let chosen = List.rev !reqs in
    let rooted =
      List.map
        (fun s ->
          Trace.add ~parent:0 ~req:s.rq.k "request" ~t0:s.t0 ~t1:s.t1;
          (s, !Trace.next_id))
        chosen
    in
    let handle_ids, bytes_a = replay_handle pool rooted in
    let t = tiers () in
    Trace.enabled := false;
    let _, untraced_ms = replay_bundles pool (tiers ()) handle_ids rooted in
    Trace.enabled := true;
    let payload_ids, traced_ms = replay_bundles pool t handle_ids rooted in
    let ndeps, nflows, ndead = replay_layers pool t payload_ids rooted in
    Trace.enabled := false;
    let k = List.length rooted in
    let self = Trace.self_times () in
    let per name =
      match Hashtbl.find_opt self name with Some (_, ms) -> ms /. fi k | None -> 0.
    in
    let rt = Stats.mean (List.map (fun s -> Clock.ms_between s.t0 s.t1) chosen) in
    omega_layers r t ~ops:k;
    layer r "depend.deps.ms" (per "depend.deps");
    layer r "depend.deps.count" (ratio (fi ndeps) (fi k));
    layer r "depend.driver.ms" (per "depend.driver");
    layer r "depend.driver.dead_ratio" (ratio (fi ndead) (fi nflows));
    layer r "depend.memo.hits" (ratio (fi !req_hits) (fi n));
    layer r "depend.memo.misses" (ratio (fi !req_misses) (fi n));
    layer r "depend.memo.hit_rate" (ratio (fi !req_hits) (fi (!req_hits + !req_misses)));
    layer r "depend.memo.size" (fi (int_at [ "memo"; "size" ] health1));
    layer r "depend.memo.evictions"
      (fi (int_at [ "memo"; "evictions" ] health1 - int_at [ "memo"; "evictions" ] health0));
    layer r "xform.graph.ms" (per "xform.graph");
    layer r "xform.parallel.ms" (per "xform.parallel");
    layer r "serve.payload.ms" (per "serve.payload");
    layer r "serve.json.ms" (per "serve.json");
    layer r "serve.handle.ms" (Trace.inclusive "serve.handle" /. fi k);
    layer r "serve.calc.ms" (per "serve.calc");
    layer r "serve.response_bytes" (ratio (fi !bytes) (fi n));
    layer r "serve.shed" (fi shed);
    layer r "serve.retries" (fi retries);
    layer r "serve.wire.ms" (per "request");
    layer r "lang.parse.ms" (per "lang.parse");
    layer r "lang.sema.ms" (per "lang.sema");
    layer r "mix.fresh_share" (share Fresh);
    layer r "mix.calc_share" (share Calc);
    layer r "unattributed.ms" (per "serve.handle");
    layer r "trace_overhead_ratio" (ratio traced_ms untraced_ms);
    Printf.printf "\nreplayed %d requests in process (%d response bytes in the replay)\n" k bytes_a;
    print_addup ~title:(Printf.sprintf "%d replayed requests; serve.handle.ms inclusive = %.4f" k
                          (Trace.inclusive "serve.handle" /. fi k))
      ~leaves:
        ([ ("serve.wire.ms", per "request"); ("serve.json.ms", per "serve.json");
           ("lang.parse.ms", per "lang.parse"); ("lang.sema.ms", per "lang.sema");
           ("serve.payload.ms", per "serve.payload"); ("serve.calc.ms", per "serve.calc");
           ("xform.graph.ms", per "xform.graph"); ("xform.parallel.ms", per "xform.parallel");
           ("depend.driver.ms", per "depend.driver"); ("depend.deps.ms", per "depend.deps") ]
        @ Array.to_list
            (Array.map (fun n -> ("omega." ^ n ^ ".ms", per ("omega." ^ n))) tier_names))
      ~residue:(per "serve.handle") ~total:rt
  end;
  check_soundness r (Hashtbl.fold (fun name src acc -> (name, src) :: acc) analyzed []);
  r
