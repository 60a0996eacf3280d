(* The request-to-response core of petitd.

   Threading model: the solver stack keeps its ambient state (budget
   meter, variable allocator, tuning counters) in domain-local storage,
   so requests no longer serialize behind a single solver lock.  Each
   request ships its solver work — parsing included, since sema and the
   dependence context mint variables — as one task to a pool of worker
   domains; sessions landing on distinct workers analyze in parallel.
   Session threads themselves never run solver work: they are systhreads
   sharing the main domain's storage, where in-place solving would race.
   Two caches are deliberately shared, both mutex-guarded [Omega.Cache]s
   warm across requests and clients: the verdict memo, and the service's
   own per-program cache of finished analyses (below).  Each request
   solves under a fresh metrics registry on its worker, so its response
   reports exactly how much of the caches this request hit and what the
   solver did, unpolluted by concurrent sessions; the service folds
   every request's registry into one lifetime registry under
   [stats_lock]. *)

open Omega
module D = Depend

exception Calc_error of string

(* The service's own counters, kept in its lifetime registry. *)
let analyze_requests = Metrics.counter "service.requests.analyze"
let parallelize_requests = Metrics.counter "service.requests.parallelize"
let calc_requests = Metrics.counter "service.requests.omega_calc"
let stats_requests = Metrics.counter "service.requests.stats"
let errors = Metrics.counter "service.requests.errors"
let health_requests = Metrics.counter "service.health_requests"
let conns_open = Metrics.counter "service.connections.open"
let conns_total = Metrics.counter "service.connections.total"
let shed_requests = Metrics.counter "service.shed.requests"
let shed_conns = Metrics.counter "service.shed.connections"
let reaped = Metrics.counter "service.reaped"
let deadline_refused = Metrics.counter "service.deadline_refused"
let in_flight = Metrics.counter "service.in_flight" (* being solved *)
let program_hits = Metrics.counter "service.program_cache.hits"
let program_misses = Metrics.counter "service.program_cache.misses"
let program_admissions = Metrics.counter "service.program_cache.admissions"
let program_size = Metrics.counter "service.program_cache.size"
let program_evictions = Metrics.counter "service.program_cache.evictions"

(* The per-program cache.  The section-4 analyses are a pure function of
   the program, so an [analyze] or [parallelize] request for a program
   already analyzed can be answered from the finished graph (whose
   [result] is the analysis) without parsing or solving anything.  Keys
   are the exact source text and [in_bounds].  Three rules keep it
   sound and small:
   - only exact analyses are admitted: no query gave up, computed or
     replayed from the memo, and no fault injection.  An exact result is
     a fact, so it replays at any budget or deadline, and no give-up can
     leak from one request into another;
   - a key is admitted on its second sight: the first only enters
     [seen], a separate table of source digests, so one-shot programs
     neither cost a graph nor push admitted results out (a digest
     collision only admits a program early, under its exact key);
   - both tables are bounded FIFO [Omega.Cache]s of fixed capacity. *)
let program_capacity = 256
let seen_capacity = 1024

type key = bool * string

type t = {
  pool : Taskpool.t;
  quota : Budget.limits;
  max_inflight : int option;  (* admission-gate width; None = unbounded *)
  started : float;  (* Unix.gettimeofday at create, for uptime *)
  stats_lock : Mutex.t;
  metrics : Metrics.t;
      (* lifetime: the service counters plus every request's registry *)
  programs : (key, Xform.Graph.t) Cache.t;
  seen : (bool * Digest.t, unit) Cache.t;
}

let create ?memo_capacity ?(quota = Budget.default) ?(domains = 1)
    ?max_inflight () =
  (match memo_capacity with
  | Some cap -> D.Analyses.Memo.capacity := max 1 cap
  | None -> ());
  D.Analyses.Memo.reset ();
  {
    pool = Taskpool.create ~workers:(max 1 domains);
    quota;
    max_inflight = Option.map (max 1) max_inflight;
    started = Unix.gettimeofday ();
    stats_lock = Mutex.create ();
    metrics = Metrics.create ();
    programs = Cache.create ~capacity:(ref program_capacity);
    seen = Cache.create ~capacity:(ref seen_capacity);
  }

let quota t = t.quota
let domains t = Taskpool.workers t.pool
let shutdown t = Taskpool.shutdown t.pool

let locked t f = Mutex.protect t.stats_lock f
let bump ?(by = 1) t c = locked t (fun () -> Metrics.add_to t.metrics c by)
let count t c = Metrics.count t.metrics c

let note_connect t =
  locked t (fun () ->
      Metrics.add_to t.metrics conns_open 1;
      Metrics.add_to t.metrics conns_total 1)

let note_disconnect t = bump ~by:(-1) t conns_open
let note_shed_conn t = bump t shed_conns
let note_reaped t = bump t reaped

(* The admission gate: at most [max_inflight] work-bearing requests may
   be solving (or queued on the worker pool) at once; beyond that the
   request is shed with a backoff hint instead of queueing unboundedly.
   The hint scales with the overload: each excess waiter suggests
   another quantum of patience. *)
let try_admit t =
  locked t (fun () ->
      let inflight = count t in_flight in
      match t.max_inflight with
      | Some cap when inflight >= cap ->
        Metrics.add_to t.metrics shed_requests 1;
        `Shed (25. *. float_of_int (inflight - cap + 1))
      | _ ->
        Metrics.add_to t.metrics in_flight 1;
        `Admitted)

let release t = bump ~by:(-1) t in_flight

(* ------------------------------------------------------------------ *)
(* Deterministic payloads                                              *)
(* ------------------------------------------------------------------ *)

let strs xs = Json.List (List.map (fun s -> Json.Str s) xs)
let ints xs = Json.List (List.map (fun i -> Json.Int i) xs)

let vectors_json vs = strs (List.map D.Dirvec.to_string vs)

let access_fields prefix (a : Lang.Ir.access) =
  [ (prefix, Json.Str a.Lang.Ir.label) ]

let dep_json (d : D.Deps.dep) =
  Json.Obj
    (access_fields "src" d.D.Deps.src
    @ access_fields "dst" d.D.Deps.dst
    @ [
        ("array", Json.Str d.D.Deps.src.Lang.Ir.array);
        ("kind", Json.Str (D.Deps.kind_to_string d.D.Deps.kind));
        ("vectors", vectors_json d.D.Deps.vectors);
        ("levels", ints d.D.Deps.levels);
        ("assumed", Json.Bool d.D.Deps.assumed);
      ])

let flow_json (fr : D.Driver.flow_result) =
  let dead =
    match fr.D.Driver.dead with
    | None -> Json.Null
    | Some (D.Driver.Killed k) ->
      Json.Obj
        [ ("reason", Json.Str "killed"); ("by", Json.Str k.Lang.Ir.label) ]
    | Some (D.Driver.Covered c) ->
      Json.Obj
        [ ("reason", Json.Str "covered"); ("by", Json.Str c.Lang.Ir.label) ]
  in
  let refined =
    match fr.D.Driver.refined with
    | None -> Json.Null
    | Some vs -> vectors_json vs
  in
  Json.Obj
    [
      ("dep", dep_json fr.D.Driver.dep);
      ("refined", refined);
      ("covers", Json.Bool fr.D.Driver.covers);
      ("dead", dead);
    ]

let analysis_json (r : D.Driver.result) =
  Json.Obj
    [
      ( "live_flows",
        Json.List (List.map flow_json (D.Driver.live_flows r)) );
      ( "dead_flows",
        Json.List (List.map flow_json (D.Driver.dead_flows r)) );
      ("antis", Json.List (List.map dep_json r.D.Driver.antis));
      ("outputs", Json.List (List.map dep_json r.D.Driver.outputs));
    ]

let analyze_payload ~in_bounds prog =
  analysis_json (D.Driver.analyze ~in_bounds prog)

let priv_json (p : Xform.Privatize.priv) =
  Json.Obj
    [
      ("array", Json.Str p.Xform.Privatize.p_array);
      ("copy_in", Json.Bool p.Xform.Privatize.p_copy_in);
      ("finalize", Json.Bool p.Xform.Privatize.p_finalize);
    ]

let graph_json (g : Xform.Graph.t) =
  let vs = Xform.Parallel.analyze g in
  let std, ext = Xform.Parallel.count_doall vs in
  let verdict (v : Xform.Parallel.verdict) =
    Json.Obj
      [
        ("loop", Json.Str (Xform.Parallel.loop_path v.Xform.Parallel.v_loop));
        ("std_doall", Json.Bool v.Xform.Parallel.v_std_doall);
        ("ext_doall", Json.Bool v.Xform.Parallel.v_ext_doall);
        ( "std_blockers",
          strs
            (List.map Xform.Parallel.blocker_string
               v.Xform.Parallel.v_std_blockers) );
        ( "ext_blockers",
          strs
            (List.map Xform.Parallel.blocker_string
               v.Xform.Parallel.v_ext_blockers) );
        ( "privatized",
          Json.List (List.map priv_json v.Xform.Parallel.v_private) );
      ]
  in
  Json.Obj
    [
      ("loops", Json.List (List.map verdict vs));
      ("std_doall", Json.Int std);
      ("ext_doall", Json.Int ext);
      ("annotated", Json.Str (Xform.Emit.annotate g vs));
    ]

let parallelize_payload ~in_bounds prog =
  graph_json (Xform.Graph.build ~in_bounds prog)

let metrics_obj ~under m = Json.Obj (Json.of_metrics ~under m)
let tiers_json m = ("tiers", metrics_obj ~under:"tiers" m)

let governance_json m =
  Json.Obj
    (Json.of_metrics ~under:"solver" m @ [ tiers_json m ])

(* Lifetime memo counters, paired with one request's own traffic when
   given its registry. *)
let memo_report ?request () =
  let m = D.Analyses.Memo.stats in
  let req c = match request with Some r -> Metrics.count r c | None -> 0 in
  {
    Protocol.mr_program_hit = req program_hits > 0;
    mr_req_hits = req D.Analyses.Memo.hit_counter;
    mr_req_misses = req D.Analyses.Memo.miss_counter;
    mr_hits = m.D.Analyses.Memo.hits;
    mr_misses = m.D.Analyses.Memo.misses;
    mr_size = D.Analyses.Memo.size ();
    mr_capacity = !D.Analyses.Memo.capacity;
    mr_evictions = m.D.Analyses.Memo.evictions;
  }

(* ------------------------------------------------------------------ *)
(* Request handling                                                    *)
(* ------------------------------------------------------------------ *)

(* One governed unit of solver work, shipped to a worker domain: a fresh
   metrics registry in that domain's local storage, the clamped budget,
   and the request's memo and governance report for the response.  A
   worker runs one task at a time, so the scoped registry holds exact
   per-request figures even with other sessions in flight on sibling
   workers.  The task traps its own exceptions, and
   run_batch's lock hands the result back to the session thread.

   [wall] is the request's absolute deadline, installed as the worker
   domain's wall deadline: every solver meter inside enforces it, so a
   request that waited in the pool queue gets a correspondingly smaller
   time budget, and one whose deadline passed while queued is refused
   before any solver work runs. *)
let solve t budget ~wall (f : unit -> 'a) : ('a * Metrics.t, exn) result =
  let result = ref (Error (Failure "petitd: request task never ran")) in
  let task () =
    result :=
      try
        let ((_, m) as r) =
          Metrics.scoped (fun () ->
              Budget.with_wall_deadline wall (fun () ->
                  if Budget.wall_expired () then
                    raise (Budget.Exhausted Budget.Deadline);
                  Budget.with_limits (Protocol.clamp_budget budget t.quota) f))
        in
        locked t (fun () -> Metrics.merge_into t.metrics m);
        Ok r
      with e -> Error e
  in
  Taskpool.run_batch ~participate:false t.pool [ task ];
  !result

let respond ~id (payload, m) =
  ( Protocol.Result
      {
        id;
        payload;
        memo = Some (memo_report ~request:m ());
        governance = Some (governance_json m);
      },
    `Continue )

let err ?retry_after_ms t ~id code message =
  bump t errors;
  (Protocol.Error_ { id; code; message; retry_after_ms }, `Continue)

(* Admission for work-bearing requests: shed on an over-full gate, and
   refuse outright a request whose wall deadline has already passed —
   running it could only burn a worker to produce [Gave_up] anyway. *)
let admitted t ~id ~wall k =
  match try_admit t with
  | `Shed retry_after_ms ->
    err ~retry_after_ms t ~id Protocol.Overloaded
      "in-flight limit reached; retry after backing off"
  | `Admitted ->
    Fun.protect
      ~finally:(fun () -> release t)
      (fun () ->
        match wall with
        | Some d when Unix.gettimeofday () >= d ->
          bump t deadline_refused;
          err t ~id Protocol.Gave_up
            "request deadline expired before work started"
        | _ -> k ())

let wall_of ~now deadline_ms =
  Option.map (fun ms -> now +. (ms /. 1000.)) deadline_ms

(* The program cache's side of a request, run inside the request's
   task: a hit renders the cached graph; a first sight marks the key and
   runs the uncached payload builder; a second sight builds the graph,
   renders from it and hands it back for admission.  Fault injection
   bypasses the cache both ways. *)
let analyze_program t ((in_bounds, program) as key) ~of_graph ~uncached =
  let cached = not (Budget.fault_injection_active ()) in
  match if cached then Cache.find t.programs key else None with
  | Some g ->
    Metrics.incr program_hits;
    (of_graph g, None)
  | None ->
    let prog = Lang.Sema.analyze (Lang.Parser.parse_string program) in
    if not cached then (uncached ~in_bounds prog, None)
    else begin
      Metrics.incr program_misses;
      let sight = (in_bounds, Digest.string program) in
      if Cache.mem t.seen sight then begin
        let g = Xform.Graph.build ~in_bounds prog in
        (of_graph g, Some g)
      end
      else begin
        ignore (Cache.add t.seen sight ());
        (uncached ~in_bounds prog, None)
      end
    end

let admit t key g m =
  if
    Budget.gave_up_of m = 0
    && Metrics.count m D.Analyses.Memo.gave_up_counter = 0
    && not (Budget.fault_injection_active ())
  then
    match Cache.add t.programs key g with
    | `Replaced -> ()
    | `Inserted evicted ->
      locked t (fun () ->
          Metrics.add_to t.metrics program_admissions 1;
          Metrics.add_to t.metrics program_size (1 - evicted);
          Metrics.add_to t.metrics program_evictions evicted)

let program_request t ~id ~program ~in_bounds ~budget ~wall ~of_graph
    ~uncached =
  let key = (in_bounds, program) in
  match
    solve t budget ~wall (fun () ->
        analyze_program t key ~of_graph ~uncached)
  with
  | Ok ((payload, admitted), m) ->
    Option.iter (fun g -> admit t key g m) admitted;
    respond ~id (payload, m)
  | Error (Lang.Parser.Error (msg, pos)) ->
    err t ~id Protocol.Parse_error
      (Printf.sprintf "line %d, column %d: %s" pos.Lang.Ast.line
         pos.Lang.Ast.col msg)
  | Error (Lang.Sema.Error msg) -> err t ~id Protocol.Semantic_error msg
  | Error (Invalid_argument msg) -> err t ~id Protocol.Semantic_error msg
  | Error (Budget.Exhausted r) ->
    err t ~id Protocol.Gave_up
      (Printf.sprintf "budget exhausted (%s)" (Budget.reason_to_string r))
  | Error e -> err t ~id Protocol.Server_error (Printexc.to_string e)

let stats_payload t =
  let m = memo_report () in
  let total = m.Protocol.mr_hits + m.Protocol.mr_misses in
  locked t @@ fun () ->
  Json.Obj
    [
      ("requests", metrics_obj ~under:"service.requests" t.metrics);
      ("connections", metrics_obj ~under:"service.connections" t.metrics);
      ("memo", Protocol.memo_json m);
      ( "memo_hit_rate",
        Json.Float
          (if total = 0 then 0.
           else float_of_int m.Protocol.mr_hits /. float_of_int total) );
      ("program_cache", metrics_obj ~under:"service.program_cache" t.metrics);
      tiers_json t.metrics;
      ( "quota",
        Json.Obj
          [
            ("fuel", Json.Int t.quota.Budget.fuel);
            ("splinters", Json.Int t.quota.Budget.splinters);
            ("disjuncts", Json.Int t.quota.Budget.disjuncts);
            ( "deadline_ms",
              match t.quota.Budget.deadline_ms with
              | Some d -> Json.Float d
              | None -> Json.Null );
          ] );
    ]

(* The server's overload posture: everything an operator (or a load
   balancer) needs to see whether the protections are firing.  Served
   on the session thread — never queued behind solver work — so it
   answers even when every worker is busy. *)
let health_payload t =
  let m = memo_report () in
  locked t @@ fun () ->
  let n c = Json.Int (count t c) in
  Json.Obj
    [
      ("uptime_s", Json.Float (Unix.gettimeofday () -. t.started));
      ("in_flight", n in_flight);
      ( "max_inflight",
        match t.max_inflight with
        | Some n -> Json.Int n
        | None -> Json.Null );
      ("shed", metrics_obj ~under:"service.shed" t.metrics);
      ("reaped", n reaped);
      ("deadline_refused", n deadline_refused);
      ("connections", metrics_obj ~under:"service.connections" t.metrics);
      ( "served",
        Json.Int
          (List.fold_left
             (fun acc c -> acc + count t c)
             0
             [
               analyze_requests; parallelize_requests; calc_requests;
               stats_requests; health_requests;
             ]) );
      ("errors", n errors);
      ("domains", Json.Int (Taskpool.workers t.pool));
      ("memo", Protocol.memo_json m);
      ("program_cache", metrics_obj ~under:"service.program_cache" t.metrics);
      tiers_json t.metrics;
    ]

let handle t ~peer:_ ~id (req : Protocol.request) =
  let now = Unix.gettimeofday () in
  match req with
  | Protocol.Analyze { program; in_bounds; budget; deadline_ms } ->
    bump t analyze_requests;
    let wall = wall_of ~now deadline_ms in
    admitted t ~id ~wall (fun () ->
        program_request t ~id ~program ~in_bounds ~budget ~wall
          ~of_graph:(fun g -> analysis_json g.Xform.Graph.result)
          ~uncached:analyze_payload)
  | Protocol.Parallelize { program; in_bounds; budget; deadline_ms } ->
    bump t parallelize_requests;
    let wall = wall_of ~now deadline_ms in
    admitted t ~id ~wall (fun () ->
        program_request t ~id ~program ~in_bounds ~budget ~wall
          ~of_graph:graph_json ~uncached:parallelize_payload)
  | Protocol.Omega_calc { op; budget; deadline_ms } ->
    bump t calc_requests;
    let wall = wall_of ~now deadline_ms in
    admitted t ~id ~wall (fun () ->
        match
          solve t budget ~wall (fun () ->
              match Calc.eval op with
              | Ok r -> Calc.result_json r
              | Error msg -> raise (Calc_error msg))
        with
        | Ok r -> respond ~id r
        | Error (Budget.Exhausted r) ->
          err t ~id Protocol.Gave_up
            (Printf.sprintf "budget exhausted (%s)"
               (Budget.reason_to_string r))
        | Error (Calc_error msg) -> err t ~id Protocol.Parse_error msg
        | Error e -> err t ~id Protocol.Server_error (Printexc.to_string e))
  | Protocol.Stats ->
    bump t stats_requests;
    ( Protocol.Result
        { id; payload = stats_payload t; memo = None; governance = None },
      `Continue )
  | Protocol.Health ->
    bump t health_requests;
    ( Protocol.Result
        { id; payload = health_payload t; memo = None; governance = None },
      `Continue )
  | Protocol.Shutdown ->
    ( Protocol.Result
        { id; payload = Json.Obj [ ("shutdown", Json.Bool true) ];
          memo = None; governance = None },
      `Shutdown )
