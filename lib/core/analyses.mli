(** The four section-4 analyses - killing (4.1), covering (4.2),
    terminating (4.3) and refinement (4.4) - each phrased as the validity
    of a Presburger formula [forall (p => exists q)].

    Queries run through the tiered {!Omega.Portfolio}: the incomplete
    O(constraints) {!Omega.Screen} first, then the paper's efficient
    route (project the existential side with the dark shadow, check the
    implication with gists), and only when both pass does the complete
    Presburger decision procedure run.  Per-tier attempts / decides /
    time are counted in the {!Omega.Metrics} registry (merged across
    domains by {!Par}, so sharded analyses report the same totals as
    serial ones). *)

open Omega

val implies_exists :
  ?label:string ->
  hyp:Constr.t list ->
  Problem.t list ->
  evars:Var.t list ->
  Problem.t list ->
  bool
(** [implies_exists ~hyp lhs ~evars rhs]: is
    [hyp => (lhs => exists evars. rhs)] valid (disjunction over each
    list)?  One governed portfolio query; [label] names it in governance
    telemetry.  A blown budget or an injected fault gives up, which maps
    to [false]: conservative, because every caller uses a positive
    answer to eliminate or refine a dependence. *)

module Memo : sig
  type t = Omega.Cache.stats = {
    mutable hits : int;
    mutable misses : int;
    mutable evictions : int;
  }

  val enabled : bool ref
  (** Verdict cache for {!implies_exists}, keyed on a canonical
      (alpha-renamed) serialization of the query ({!Canon.key}) — which
      also erases variable-id slots, so verdicts are shareable across
      allocating domains.  Sound because validity is invariant under
      variable renaming.  Entries record the
      {!Budget.current_limits} they were computed under: completed verdicts
      replay at any budget, a [Gave_up] only while the current budget is
      no larger than the recorded one.  A give-up on a deadline is never
      stored: {!Budget.current_limits} does not include a request's wall
      deadline, so it would replay to callers with time to spare.
      Fault-injected runs bypass the cache.  The table is an
      {!Omega.Cache}.  Disable in timing benches that reproduce per-query
      figures — a hit would measure a hash lookup, not an
      elimination. *)

  val capacity : int ref
  (** Maximum number of cached verdicts; beyond it the oldest entries
      are evicted first-in-first-out, so long-running sessions hold a
      bounded table instead of growing without limit. *)

  val size : unit -> int
  (** Entries currently cached. *)

  val stats : t
  (** Lifetime traffic of the shared cache, across all domains. *)

  val reset : unit -> unit
  (** Clears the table, the eviction queue, and {!stats}. *)

  val hit_rate : unit -> float
  (** Hits over total queries since the last [reset]; [0.] when no
      query ran. *)

  (** {2 Concurrency}

      {!Omega.Cache} guards the table, the eviction queue and the
      counters with one mutex, so the cache is safe to share across
      threads and domains (the petitd daemon keeps one warm across every
      connection).  The lock covers lookups and insertions only — never
      solver work — and the counter fields of {!stats} must be read, not
      written, by clients. *)

  val find : string -> (Budget.verdict * Portfolio.tier option) option
  (** Replayable cached verdict under the current domain's
      {!Budget.current_limits}, with the tier that computed it; counts a
      hit or a miss. *)

  val add : string -> Budget.verdict -> Portfolio.tier option -> unit
  (** Record a verdict computed under the current domain's
      {!Budget.current_limits}, tagged with the deciding tier, evicting
      FIFO beyond {!capacity}.  [Gave_up Deadline] is dropped. *)

  (** {2 Traffic attribution}

      Each lookup also counts in the calling domain's {!Omega.Metrics}
      registry, under ["memo"]: a client whose solver work runs on one
      domain (a petitd request dispatched to a worker) scopes a fresh
      registry around it to get an exact per-request report, unaffected
      by concurrent sessions. *)

  val hit_counter : Metrics.counter
  val miss_counter : Metrics.counter

  val tier_hit_counter : Portfolio.tier -> Metrics.counter
  (** Hits whose cached verdict was decided by the given tier. *)

  val gave_up_counter : Metrics.counter
  (** [solver.replayed_gave_up]: hits that replayed a [Gave_up].  They
      run no query, so [solver.gave_up.*] does not count them; a result
      is exact only when both read zero. *)
end

val dep_problems :
  ?in_bounds:bool -> Depctx.t -> Depctx.inst -> Depctx.inst -> Problem.t list
(** The dependence problems from one instance to another, one per
    ordering level. *)

val covers :
  ?in_bounds:bool -> Depctx.t -> src:Ir.access -> dst:Ir.access -> bool
(** Does the write [src] cover [dst] (write every element [dst] accesses,
    earlier)?  Section 4.2.  [Gave_up] maps to [false]. *)

val terminates :
  ?in_bounds:bool -> Depctx.t -> src:Ir.access -> dst:Ir.access -> bool
(** Does the write [dst] terminate [src] (overwrite every element [src]
    accesses, later)?  Section 4.3.  [Gave_up] maps to [false]. *)

val kills_verdict :
  ?in_bounds:bool ->
  Depctx.t ->
  src:Ir.access ->
  killer:Ir.access ->
  dst:Ir.access ->
  Budget.verdict

val kills :
  ?in_bounds:bool ->
  Depctx.t ->
  src:Ir.access ->
  killer:Ir.access ->
  dst:Ir.access ->
  bool
(** Is the dependence from [src] to [dst] killed by the intervening write
    [killer]?  Section 4.1.  [Gave_up] maps to [false]. *)

type candidate = (int option * int option) list
(** A candidate refinement: per common loop, an optional inclusive
    distance range. *)

val check_refinement :
  ?in_bounds:bool ->
  Depctx.t ->
  src:Ir.access ->
  dst:Ir.access ->
  candidate ->
  bool
(** The general refinement test of section 4.4: every instance of [dst]
    receiving the dependence also receives it from an instance of [src]
    within the candidate distance. *)

val refine :
  ?in_bounds:bool -> Depctx.t -> src:Ir.access -> dst:Ir.access -> int list
(** The paper's candidate generator: pin the distance of each common
    loop, outermost first, to its minimum possible value, stopping at the
    first failure.  Returns the pinned distances. *)

val refined_vectors :
  ?in_bounds:bool ->
  Depctx.t ->
  src:Ir.access ->
  dst:Ir.access ->
  int list ->
  Dirvec.t list
(** Direction vectors of the dependence under the pinned distances.  A
    level whose vector analysis gives up contributes its weakest
    (conservative) vectors instead. *)

val set_fault_injection : seed:int -> rate:float -> unit
(** Deterministically force a pseudo-random fraction [rate] of solver
    queries to [Gave_up Injected] (see {!Budget.set_fault_injection}).
    While active the verdict cache is bypassed.  For the differential
    soundness harness: fault-injected analyses must only ever {e lose}
    precision relative to clean runs. *)

val clear_fault_injection : unit -> unit
