(** The analysis service behind petitd: turns decoded protocol requests
    into responses over a shared, long-lived solver state.

    The Omega solver stack meters work through ambient, domain-local
    state (see {!Omega.Budget}), so requests need no global solver lock:
    each request's solver work runs as one task on a pool of worker
    domains, and sessions landing on distinct workers analyze
    concurrently.  The verdict cache ({!Depend.Analyses.Memo}) persists
    across requests and clients — that sharing is the daemon's whole
    point — and every response reports its telemetry, both lifetime and
    per-request (each request counts into its own {!Omega.Metrics}
    registry, so concurrent sessions don't pollute each other's
    figures).

    Each service also caches finished analyses per program, keyed on
    the exact source text and [in_bounds]: a program's first request is
    only remembered, its second is analyzed and admitted when exact (no
    query gave up, computed or replayed from the memo, and no fault
    injection), and later [analyze] or [parallelize] requests for it
    render the cached {!Xform.Graph.t} without parsing or solving.  A
    hit still passes the admission gate, the deadline check and the
    worker pool.  Both tables are bounded {!Omega.Cache}s of constant
    capacity; [stats] and [health] report the cache under
    [program_cache], and each response's memo report says whether it
    was a hit.

    Per-client fairness is budget governance, not preemption: each
    request's limits are clamped to the service quota
    ({!Protocol.clamp_budget}), so a pathological query burns its own
    budget, degrades to [Gave_up] conservatively, and the next request
    (any tenant's) starts with a fresh meter. *)

type t

val create :
  ?memo_capacity:int ->
  ?quota:Omega.Budget.limits ->
  ?domains:int ->
  ?max_inflight:int ->
  unit ->
  t
(** Fresh service state: resets the verdict cache (and bounds it at
    [memo_capacity] when given) and starts with an empty program
    cache; [quota] is the per-request budget
    ceiling (default {!Omega.Budget.default}); [domains] sizes the
    worker-domain pool that runs solver work (default 1 — requests are
    then still serialized, but off the session threads).

    [max_inflight] is the admission gate: at most that many work-bearing
    requests solving (or queued on the pool) at once; beyond it requests
    are shed with a typed [Overloaded] error carrying a [retry_after_ms]
    hint instead of queueing unboundedly (default: unbounded).  Requests
    carrying a [deadline_ms] have the remainder folded into the solver's
    wall deadline, so a request admitted late gets a correspondingly
    smaller time budget; one whose deadline passed before any work could
    start is refused with [Gave_up]. *)

val quota : t -> Omega.Budget.limits

val domains : t -> int
(** Worker domains serving solver work. *)

val shutdown : t -> unit
(** Join the worker-domain pool.  Call once no request can arrive —
    the server does this after draining its sessions. *)

val handle :
  t -> peer:string -> id:int -> Protocol.request ->
  Protocol.response * [ `Continue | `Shutdown ]
(** Serve one request.  Never raises: program/problem errors and blown
    calculator budgets come back as protocol errors.  [`Shutdown] is
    returned exactly for a shutdown request (whose response still must
    be written). *)

val note_connect : t -> unit
val note_disconnect : t -> unit
(** Connection accounting for the stats payload; called by the server. *)

val note_shed_conn : t -> unit
(** A connection was refused by the server's connection cap. *)

val note_reaped : t -> unit
(** A stalled connection was closed by a read/write deadline. *)

(** {1 Deterministic payloads}

    Exposed so the CLI's [--json] mode and the serving bench's
    fresh-in-process cross-check build byte-identical answers through
    the very functions the daemon uses.  Both run the analysis
    themselves and never touch the program cache, so they stay the
    reference a cached answer is checked against; they only read
    ambient budget limits, so wrap them in
    {!Omega.Budget.with_limits} to reproduce a request's budget. *)

val analyze_payload : in_bounds:bool -> Lang.Ir.program -> Json.t
val parallelize_payload : in_bounds:bool -> Lang.Ir.program -> Json.t
