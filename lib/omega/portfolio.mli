(** The tiered decision portfolio: a per-query cascade of decision
    procedures.

    A query is posed as a {e plan} of tiers: incomplete attempts that
    may answer [Proved]/[Disproved] or pass with [Unknown], then the
    complete procedure; the first definite answer wins.  The standard plan cascades the incomplete
    O(constraints) {!Screen} (tier 0) into the dark-shadow fast path
    (tier 1) and finally the complete Presburger procedure (tier 2).
    Because every tier is sound, the cascade changes which procedure
    decides a query — never the verdict.

    The cascade runs inside a {!Budget} query boundary.  Every plan
    ends in the complete procedure, which always decides, so a query
    gives up only on a blown budget or an injected fault. *)

type tier = Tier_screen | Tier_fast | Tier_complete

val tier_to_string : tier -> string
(** ["screen"], ["fast"], ["complete"]. *)

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

type plan
(** The incomplete tiers to try in order, then the complete procedure. *)

val plan :
  screen:(unit -> Screen.answer) ->
  ?fast:(unit -> Screen.answer) ->
  complete:(unit -> bool) ->
  unit ->
  plan
(** The cascade: the screen, then the fast tier when the caller has one,
    then [complete].  The two incomplete tiers are gated by
    {!Tuning.screen} and {!Tuning.fast_path}, read here and nowhere
    else; with both off the plan is [complete] alone. *)

val tiers : plan -> tier list
(** The tiers {!decide} consults, in order; the last is always
    [Tier_complete]. *)

val decide :
  ?label:string ->
  ?fault_key:(unit -> string) ->
  plan ->
  Budget.verdict * tier option
(** Run the tiers in order inside a {!Budget} query boundary, returning
    the verdict and the tier that decided ([None] for [Gave_up]).  Tier
    attempts/decides/time are counted in the registry. *)
