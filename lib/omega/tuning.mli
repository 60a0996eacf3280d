(** Ablation switches and counters for the solver's hot paths (DESIGN.md
    section 9).  Every gated transform is equivalence-preserving: flipping
    a switch changes time, never results. *)

val order : bool ref
(** Pugh's elimination-variable ordering heuristic (exact eliminations
    first, then the smallest lower-bounds x upper-bounds product).  Off:
    the first eliminable variable in id order. *)

val redundancy : bool ref
(** Interval-subsumption pruning in {!Problem.simplify}. *)

val hashcons : bool ref
(** Cached hashes / canonical keys on expressions, cached normalization
    on constraints, interning, and memo-key serialization caches. *)

val screen : bool ref
(** Tier-0 incomplete screen of the decision portfolio. *)

val fast_path : bool ref
(** Tier-1 dark-shadow fast path of the decision portfolio.  With
    {!screen} and [fast_path] both off, every query runs the complete
    procedure alone.  Verdict-preserving either way; only
    {!Portfolio.plan} reads the two. *)

val set : order:bool -> redundancy:bool -> hashcons:bool -> unit
(** Sets the three solver-core switches; the two tier switches are
    independent. *)

val all_on : unit -> unit
(** All five switches on (the production configuration). *)

(** {1 Counters}

    Cells of the {!Metrics} registry under ["elim"]: variables
    eliminated by Fourier-Motzkin, of which exact and split (dark
    shadow plus splinters), constraints dropped by the interval screen,
    and interning hits and misses. *)

val fm_eliminations : Metrics.counter
val fm_exact : Metrics.counter
val fm_split : Metrics.counter
val pruned_interval : Metrics.counter
val intern_hits : Metrics.counter
val intern_misses : Metrics.counter

val summary : Metrics.t -> string
(** One human-readable line for CLI output. *)
