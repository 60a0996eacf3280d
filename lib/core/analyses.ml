(* The four section-4 analyses: killing, covering, terminating, and
   refinement of dependence distances.  Each is phrased as the validity of
   a Presburger formula of the form  forall (p => exists q)  and decided
   by the tiered portfolio ([Omega.Portfolio]): the O(constraints)
   incomplete screen first, then the paper's efficient route (project the
   existential side with the dark shadow, check the implication with
   gists), and only when both pass does the complete Presburger decision
   procedure run.  Per-tier accounting (attempts / decides / time) lives
   in the Metrics registry under "tiers"; the driver's structural
   section-4.5 screens count there too, as the [quick] row. *)

open Omega

(* ------------------------------------------------------------------ *)
(* Verdict memoization                                                 *)
(* ------------------------------------------------------------------ *)

(* Repeated kill/cover/refinement queries over a corpus are often
   textually identical problems in fresh variables ([Depctx.instantiate]
   allocates per call, so raw ids never match).  The cache key is a
   canonical serialization: variables renumbered by first occurrence in
   a fixed traversal order (hyp, then LHS problems, then the
   existentials, then RHS problems), tagged with their kind, and the
   existentials listed explicitly.  Alpha-equivalent queries in the same
   allocation order therefore share a key, and validity is invariant
   under renaming, so a hit is always sound.

   Entries carry the budget limits they were computed under.  [Proved]
   and [Disproved] replay at any budget (the solver is deterministic, so
   a completed verdict is a fact).  A [Gave_up] replays only while the
   current budget is no larger than the recorded one: raising the budget
   invalidates cached give-ups, which then recompute.  A give-up on the
   wall deadline is never stored: the deadline belongs to one request,
   and the recorded limits do not include it, so it would replay to
   callers with time to spare.  Fault-injected runs bypass the cache
   entirely (a fault is a property of the run, not of the problem).

   Timing benches that reproduce the paper's per-query figures must
   disable the cache ([Memo.enabled := false]) or they would measure
   hash lookups instead of eliminations. *)
module Memo = struct
  type t = Cache.stats = {
    mutable hits : int;
    mutable misses : int;
    mutable evictions : int;
  }

  let enabled = ref true
  let capacity = ref 32_768

  (* Entries are tagged with the portfolio tier that decided them
     ([None] for a cached give-up), so replays keep the per-tier
     attribution honest.  The daemon shares one table across its
     connection threads and worker domains; [Cache] serializes access. *)
  let table :
      (string, Budget.verdict * Budget.limits * Portfolio.tier option)
      Cache.t =
    Cache.create ~capacity

  let stats = Cache.stats table
  let size () = Cache.size table
  let reset () = Cache.reset table
  let hit_rate () = Cache.hit_rate table

  (* The calling domain's share of the traffic, in the Metrics registry:
     a petitd request's solver work runs on one worker domain under a
     fresh registry, so its counts are exactly that request's even while
     other sessions hammer the shared table. *)
  let hit_counter = Metrics.counter "memo.hits"
  let miss_counter = Metrics.counter "memo.misses"

  (* A replayed give-up is inexact like a computed one, but runs no
     query, so [solver.gave_up.*] does not see it. *)
  let gave_up_counter = Metrics.counter "solver.replayed_gave_up"

  let tier_hit_counter =
    let screen = Metrics.counter "memo.hits_screen" in
    let fast = Metrics.counter "memo.hits_fast" in
    let complete = Metrics.counter "memo.hits_complete" in
    function
    | Portfolio.Tier_screen -> screen
    | Portfolio.Tier_fast -> fast
    | Portfolio.Tier_complete -> complete

  let replayable (verdict, lims, _tier) =
    match verdict with
    | Budget.Proved | Budget.Disproved -> true
    | Budget.Gave_up _ -> Budget.le (Budget.current_limits ()) lims

  let add key verdict tier =
    match verdict with
    | Budget.Gave_up Budget.Deadline -> ()
    | _ ->
      ignore (Cache.add table key (verdict, Budget.current_limits (), tier))

  let find key =
    match Cache.find ~usable:replayable table key with
    | None ->
      Metrics.incr miss_counter;
      None
    | Some (verdict, _, tier) ->
      Metrics.incr hit_counter;
      Option.iter (fun t -> Metrics.incr (tier_hit_counter t)) tier;
      (match verdict with
      | Budget.Gave_up _ -> Metrics.incr gave_up_counter
      | Budget.Proved | Budget.Disproved -> ());
      Some (verdict, tier)
end

(* The canonical alpha-renamed serialization lives in [Canon]: it is
   both the memo key (shareable across domains — renumbering by first
   occurrence erases the allocating domain's id slot) and, prefixed with
   the query label, the content-derived fault-injection key. *)
let memo_key ~hyp lhs ~evars rhs = Canon.key ~hyp lhs ~evars rhs

(* The three portfolio tiers for [p => exists vs. q], each a sound
   attempt that may pass with [Unknown]:

   tier 0 — the incomplete O(constraints) screen;
   tier 1 — one RHS disjunct's dark projection implied by the LHS
            disjunct (must hold for EVERY lhs disjunct; proves only);
   tier 2 — the complete Presburger engine (always decides, so it
            answers a bool). *)

let screen_tier ~hyp lhs ~evars rhs () = Screen.implies_exists ~hyp lhs ~evars rhs

let fast_tier ~hyp lhs ~evars rhs () =
  let keep v = not (List.exists (Var.equal v) evars) in
  let rhs_dark =
    lazy
      (List.filter_map
         (fun r ->
           match Elim.project_dark ~keep (Problem.add_list hyp r) with
           | `Contra -> None
           | `Ok d -> Some d)
         rhs)
  in
  let ok =
    List.for_all
      (fun l ->
        let l = Problem.add_list hyp l in
        (not (Elim.satisfiable l))
        || List.exists (fun d -> Gist.implies l d) (Lazy.force rhs_dark))
      lhs
  in
  if ok then Screen.Proved else Screen.Unknown

let complete_tier ~hyp lhs ~evars rhs () =
  let open Presburger in
  let f =
    implies_
      (and_ (List.map atom hyp))
      (implies_
         (or_ (List.map of_problem lhs))
         (exists evars (or_ (List.map of_problem rhs))))
  in
  valid f

(* The three-valued query boundary: any blown budget inside a tier
   surfaces as [Gave_up], never as an exception.  The deciding tier is
   kept with a memo entry so replays keep the per-tier attribution. *)
let implies_exists_verdict ?(label = "query") ~hyp lhs ~evars rhs :
    Budget.verdict =
  (* The fault key is the label-tagged canonical form: computed lazily
     (only when injection is active or the memo needs it), and a pure
     function of the query's content, so a given query faults
     identically in serial and sharded runs. *)
  let canon = lazy (memo_key ~hyp lhs ~evars rhs) in
  let compute () =
    Portfolio.decide ~label
      ~fault_key:(fun () -> label ^ ":" ^ Lazy.force canon)
      (Portfolio.plan
         ~screen:(screen_tier ~hyp lhs ~evars rhs)
         ~fast:(fast_tier ~hyp lhs ~evars rhs)
         ~complete:(complete_tier ~hyp lhs ~evars rhs)
         ())
  in
  if (not !Memo.enabled) || Budget.fault_injection_active () then
    fst (compute ())
  else begin
    let key = Lazy.force canon in
    match Memo.find key with
    | Some (verdict, _) -> verdict
    | None ->
      (* Two threads racing on a fresh key both compute and both add;
         the solver is deterministic, so the duplicated work is the only
         cost and the second [add] just replaces an equal entry. *)
      let verdict, tier = compute () in
      Memo.add key verdict tier;
      verdict
  end

(* Every boolean caller uses a positive answer to eliminate or refine a
   dependence, so [Gave_up] maps to [false]: the dependence stays. *)
let proved = function
  | Budget.Proved -> true
  | Budget.Disproved | Budget.Gave_up _ -> false

let implies_exists ?label ~hyp lhs ~evars rhs : bool =
  proved (implies_exists_verdict ?label ~hyp lhs ~evars rhs)

(* ------------------------------------------------------------------ *)
(* Shared problem pieces                                               *)
(* ------------------------------------------------------------------ *)

(* The dependence problems (one per ordering level) from instance [a] to
   instance [b]. *)
let dep_problems ?(in_bounds = false) ctx a b : Problem.t list =
  let core =
    Depctx.domain ~in_bounds ctx a
    @ Depctx.domain ~in_bounds ctx b
    @ Depctx.subs_equal ctx a b
  in
  List.map
    (fun (_, order) -> Problem.of_list (core @ order))
    (Depctx.order_before ctx a b)

(* ------------------------------------------------------------------ *)
(* Covering (4.2) and terminating (4.3)                                *)
(* ------------------------------------------------------------------ *)

(* Does the write [src] cover [dst]?  (Every element [dst] accesses was
   written by an earlier instance of [src].) *)
let covers ?(in_bounds = false) ctx ~(src : Ir.access) ~(dst : Ir.access) =
  let a = Depctx.instantiate ctx src ~tag:"i" in
  let b = Depctx.instantiate ctx dst ~tag:"j" in
  let hyp = Depctx.assumes ctx in
  let lhs = [ Problem.of_list (Depctx.domain ~in_bounds ctx b) ] in
  let rhs = dep_problems ~in_bounds ctx a b in
  implies_exists ~label:"cover" ~hyp lhs ~evars:(Depctx.inst_vars a) rhs

(* Does the write [dst] terminate [src]?  (Every element [src] accesses is
   later overwritten by [dst].) *)
let terminates ?(in_bounds = false) ctx ~(src : Ir.access)
    ~(dst : Ir.access) =
  let a = Depctx.instantiate ctx src ~tag:"i" in
  let b = Depctx.instantiate ctx dst ~tag:"j" in
  let hyp = Depctx.assumes ctx in
  let lhs = [ Problem.of_list (Depctx.domain ~in_bounds ctx a) ] in
  let rhs = dep_problems ~in_bounds ctx a b in
  implies_exists ~label:"terminate" ~hyp lhs ~evars:(Depctx.inst_vars b) rhs

(* ------------------------------------------------------------------ *)
(* Killing (4.1)                                                       *)
(* ------------------------------------------------------------------ *)

(* Is the dependence from [src] to [dst] killed by the write [killer]?
   For every (i,k) instance pair of the dependence there must be a j with
   src(i) << killer(j) << dst(k) and killer(j) writing dst(k)'s element. *)
let kills_verdict ?(in_bounds = false) ctx ~(src : Ir.access)
    ~(killer : Ir.access) ~(dst : Ir.access) : Budget.verdict =
  let a = Depctx.instantiate ctx src ~tag:"i" in
  let b = Depctx.instantiate ctx killer ~tag:"j" in
  let c = Depctx.instantiate ctx dst ~tag:"k" in
  let hyp = Depctx.assumes ctx in
  let lhs = dep_problems ~in_bounds ctx a c in
  let rhs =
    (* j in [B] and A(i) << B(j) << C(k) and B(j) =sub C(k); the two
       ordering disjunctions multiply out *)
    let dom_b = Depctx.domain ~in_bounds ctx b in
    let sub_bc = Depctx.subs_equal ctx b c in
    List.concat_map
      (fun (_, ab) ->
        List.map
          (fun (_, bc) -> Problem.of_list (dom_b @ sub_bc @ ab @ bc))
          (Depctx.order_before ctx b c))
      (Depctx.order_before ctx a b)
  in
  implies_exists_verdict ~label:"kill" ~hyp lhs ~evars:(Depctx.inst_vars b)
    rhs

let kills ?in_bounds ctx ~src ~killer ~dst =
  proved (kills_verdict ?in_bounds ctx ~src ~killer ~dst)

(* ------------------------------------------------------------------ *)
(* Refinement (4.4)                                                    *)
(* ------------------------------------------------------------------ *)

(* A candidate refinement: for each common loop, an optional inclusive
   range of distances ([None] = unconstrained). *)
type candidate = (int option * int option) list

(* Constraints on a (j,k) instance pair expressing "distance within the
   candidate". *)
let candidate_constraints (j : Depctx.inst) (k : Depctx.inst)
    (cand : candidate) : Constr.t list =
  List.concat
    (List.mapi
       (fun l (lo, hi) ->
         let dist =
           Linexpr.sub
             (Linexpr.var k.Depctx.ivars.(l))
             (Linexpr.var j.Depctx.ivars.(l))
         in
         (match lo with
          | Some d -> [ Constr.ge dist (Linexpr.of_int d) ]
          | None -> [])
         @
         match hi with
         | Some d -> [ Constr.le dist (Linexpr.of_int d) ]
         | None -> [])
       cand)

(* Does candidate [cand] refine the dependence from write [src] to [dst]?
   Condition (simplified as in 4.4): every instance of [dst] receiving the
   dependence also receives it from an instance of [src] within the
   candidate distance. *)
let check_refinement ?(in_bounds = false) ctx ~(src : Ir.access)
    ~(dst : Ir.access) (cand : candidate) : bool =
  let i = Depctx.instantiate ctx src ~tag:"i" in
  let j = Depctx.instantiate ctx src ~tag:"j" in
  let k = Depctx.instantiate ctx dst ~tag:"k" in
  let hyp = Depctx.assumes ctx in
  let lhs = dep_problems ~in_bounds ctx i k in
  let rhs =
    let core =
      Depctx.domain ~in_bounds ctx j
      @ Depctx.domain ~in_bounds ctx k
      @ Depctx.subs_equal ctx j k
      @ candidate_constraints j k cand
    in
    List.map
      (fun (_, order) -> Problem.of_list (core @ order))
      (Depctx.order_before ctx j k)
  in
  implies_exists ~label:"refinement" ~hyp lhs ~evars:(Depctx.inst_vars j) rhs

(* Generate and verify refinements the paper's way: walk the common loops
   outermost-first, each time pinning the distance to its minimum possible
   value; stop at the first loop whose pinned candidate fails.  Returns
   the number of pinned levels and their distances. *)
let refine ?(in_bounds = false) ctx ~(src : Ir.access) ~(dst : Ir.access) :
    int list =
  let pair = Deps.make_pair ~in_bounds ctx src dst in
  let c = pair.Deps.common in
  let levels = Depctx.order_before ctx pair.Deps.a pair.Deps.b in
  (* minimum possible distance in loop [l], given the already-fixed
     distances [fixed] (outermost-first) *)
  let min_distance fixed l =
    let fix_constrs =
      List.mapi
        (fun l' d ->
          Constr.eq2 (Linexpr.var pair.Deps.dvars.(l')) (Linexpr.of_int d))
        fixed
    in
    let mins =
      List.filter_map
        (fun (_, order) ->
          let p = Problem.add_list (fix_constrs @ order) pair.Deps.base in
          match
            Budget.run ~label:"refine/minimize"
              ~fault_key:(fun () -> Canon.of_problems ~tag:"min" [ p ])
              (fun () -> Omega.minimize p pair.Deps.dvars.(l))
          with
          | Ok (`Min m) -> Zint.to_int_opt m
          | Ok (`Unbounded | `Unsat) -> None
          (* give-up: cannot bound the distance, stop refining *)
          | Error _ -> None)
        levels
    in
    match mins with [] -> None | m :: rest -> Some (List.fold_left min m rest)
  in
  let rec go fixed l =
    if l >= c then List.rev fixed
    else begin
      match min_distance (List.rev fixed) l with
      | None -> List.rev fixed
      | Some d ->
        (* the candidate's forwardness is enforced by the ordering
           constraints inside check_refinement's right-hand side *)
        let prefix = List.rev (d :: fixed) in
        let cand =
          List.init c (fun l' ->
              if l' < List.length prefix then
                let dd = List.nth prefix l' in
                (Some dd, Some dd)
              else (None, None))
        in
        if check_refinement ~in_bounds ctx ~src ~dst cand then
          go (d :: fixed) (l + 1)
        else List.rev fixed
    end
  in
  go [] 0

(* The refined direction vectors: distances pinned by [refine] plus the
   sign analysis of the remaining levels. *)
let refined_vectors ?(in_bounds = false) ctx ~(src : Ir.access)
    ~(dst : Ir.access) (pinned : int list) : Dirvec.t list =
  let pair = Deps.make_pair ~in_bounds ctx src dst in
  let fix_constrs =
    List.mapi
      (fun l d ->
        Constr.eq2 (Linexpr.var pair.Deps.dvars.(l)) (Linexpr.of_int d))
      pinned
  in
  let levels = Depctx.order_before ctx pair.Deps.a pair.Deps.b in
  List.concat_map
    (fun (lvl, order) ->
      let p = Problem.add_list (fix_constrs @ order) pair.Deps.base in
      match
        Budget.run ~label:"refine/vectors"
          ~fault_key:(fun () -> Canon.of_problems ~tag:"rvec" [ p ])
          (fun () -> Dirvec.vectors_of_level p pair.Deps.dvars ~carried:lvl)
      with
      | Ok vecs -> vecs
      (* give-up: the weakest vectors of the level, never an
         under-approximation of the refined dependence *)
      | Error _ ->
        Dirvec.conservative_of_level (Array.length pair.Deps.dvars)
          ~carried:lvl)
    levels
  |> List.sort_uniq Dirvec.compare

(* ------------------------------------------------------------------ *)
(* Fault injection                                                     *)
(* ------------------------------------------------------------------ *)

let set_fault_injection ~seed ~rate = Budget.set_fault_injection ~seed ~rate
let clear_fault_injection () = Budget.clear_fault_injection ()
