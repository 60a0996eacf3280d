(* Ablation switches and counters for the solver's hot paths.

   Each switch gates one of the inner-loop optimizations described in
   DESIGN.md section 9; all default to [true].  The `bench analysis`
   suite flips them off to measure each optimization's contribution and
   to cross-check that results are identical either way (every gated
   transform is equivalence-preserving, so only time may change). *)

(* Pugh's elimination-variable ordering: prefer exact (unit-coefficient)
   eliminations, then minimize the #lower-bounds x #upper-bounds product.
   Off: eliminate the first candidate in variable-id order. *)
let order = ref true

(* Redundancy pruning in [Problem.simplify]: besides the always-on
   parallel-constraint dedup, drop inequalities implied by the interval
   box of the single-variable bounds. *)
let redundancy = ref true

(* Caching/interning: precomputed structural hashes and canonical
   coefficient keys on [Linexpr], the normalized flag on [Constr],
   interning of normalized expressions, and the small-integer string
   cache of the verdict-memo key serializer. *)
let hashcons = ref true

(* The two incomplete tiers of the decision portfolio (Portfolio /
   Screen): the tier-0 screen and the tier-1 dark-shadow fast path.
   With both off every query goes straight to the complete procedure,
   the tier-2-only reference the benches compare the cascade against.
   Like the switches above they only move work between (sound)
   procedures, never change a verdict. *)
let screen = ref true
let fast_path = ref true

let set ~order:o ~redundancy:r ~hashcons:h =
  order := o;
  redundancy := r;
  hashcons := h

let all_on () =
  set ~order:true ~redundancy:true ~hashcons:true;
  screen := true;
  fast_path := true

(* Counters of the elimination core, in the metrics registry. *)
let fm_eliminations = Metrics.counter "elim.fm_eliminations"
let fm_exact = Metrics.counter "elim.fm_exact" (* incl. one-sided *)
let fm_split = Metrics.counter "elim.fm_split" (* dark shadow + splinters *)
let pruned_interval = Metrics.counter "elim.pruned_interval"
let intern_hits = Metrics.counter "elim.intern_hits"
let intern_misses = Metrics.counter "elim.intern_misses"

let summary m =
  let n = Metrics.count m in
  Printf.sprintf
    "%d FM eliminations (%d exact, %d split), %d constraints \
     interval-pruned, intern %d hits / %d misses"
    (n fm_eliminations) (n fm_exact) (n fm_split) (n pruned_interval)
    (n intern_hits) (n intern_misses)
