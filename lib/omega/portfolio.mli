(** The tiered decision portfolio: per-query cascade of backends.

    A query is posed as a list of {e tiers}, each an attempt that may
    answer [Proved]/[Disproved] or pass with [Unknown]; the first
    definite answer wins.  The standard plan cascades the incomplete
    O(constraints) {!Screen} (tier 0) into the dark-shadow fast path
    (tier 1) and finally the complete Presburger procedure (tier 2).
    Because every tier is sound, the cascade changes which procedure
    decides a query — never the verdict.

    The cascade runs inside a {!Budget} query boundary; when the plan
    runs out of tiers with no definite answer (the screen-only backend
    on a query beyond its screens), the query gives up with
    {!Budget.Incomplete}, flowing through the same conservative
    degradation paths as a blown fuel limit. *)

type backend = Omega | Screen | Cascade
(** [Omega]: the status-quo pipeline (fast path + complete procedure).
    [Screen]: tier 0 alone — incomplete; undecided queries give up.
    [Cascade]: screen first, then the [Omega] tiers (the default). *)

val backend : backend ref
(** Process-wide backend selection (the [--backend] CLI knob).  Set
    before fanning out parallel work; worker domains read it freely. *)

val backend_to_string : backend -> string
val backend_of_string : string -> backend option

type tier = Tier_screen | Tier_fast | Tier_complete

val tier_to_string : tier -> string
(** ["screen"], ["fast"], ["complete"]. *)

val tier_of_string : string -> tier option

(** {1 Tier telemetry}

    Cells of the {!Metrics} registry under ["tiers.<tier>"]:
    [attempts] (times the tier was consulted), [decides] (times it
    returned a definite answer) and [ms] (time spent inside it), for
    [quick] — the driver's structural section-4.5 screens, consulted
    before any solver query is built — and the three solver tiers. *)

val record_quick : hit:bool -> unit
(** Count one quick-screen consultation, and a decide when it settled
    the question without a solver query. *)

val summary : Metrics.t -> string
(** One human-readable per-tier breakdown line. *)

(** Read-only view of the current domain's tier cells. *)
module Stats : sig
  type row = { attempts : int; decides : int; elapsed : float (** seconds *) }
  type t = { quick : row; screen : row; fast : row; complete : row }

  val current : unit -> t
  val reset : unit -> unit
end

(** Cross-backend differential oracle.  While enabled, every query an
    incomplete tier decides is replayed through the complete tier of the
    same plan and the verdicts compared; contradictions are recorded
    (thread-safe) for the bench to assert empty.  Expensive — bench use
    only. *)
module Oracle : sig
  type divergence = {
    label : string;
    tier : tier;  (** the incomplete tier that answered *)
    got : bool;  (** its verdict *)
    want : bool;  (** the complete procedure's verdict *)
  }

  val enable : unit -> unit
  val disable : unit -> unit
  val active : unit -> bool

  val checks : unit -> int
  (** Verdict pairs compared since the last {!enable}. *)

  val divergences : unit -> divergence list
end

val plan :
  ?screen:(unit -> Screen.answer) ->
  ?fast:(unit -> Screen.answer) ->
  complete:(unit -> Screen.answer) ->
  unit ->
  (tier * (unit -> Screen.answer)) list
(** Assemble the tier list for the current {!backend}: [Omega] takes
    fast + complete, [Screen] the screen alone, [Cascade] all three.
    The screen tier is additionally gated by {!Tuning.screen}, the fast
    tier by the caller passing one (analyses gate it on their own
    [use_fast_path] switch).  A [Screen] backend with no screen closure
    yields an empty plan, i.e. an immediate [Gave_up Incomplete]. *)

val decide :
  ?label:string ->
  ?fault_key:(unit -> string) ->
  (tier * (unit -> Screen.answer)) list ->
  Budget.verdict * tier option
(** Run the tiers in order inside a {!Budget} query boundary, returning
    the verdict and the tier that decided ([None] for [Gave_up]).  Tier
    attempts/decides/time are counted in the registry; an exhausted plan
    raises — and the boundary catches — [Exhausted Incomplete]. *)
