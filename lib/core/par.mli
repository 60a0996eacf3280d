(** Sharding solver work across domains.

    {!map} runs an array of independent items over a process-wide pool
    of worker domains, keeping result order; the calling domain
    participates.  Verdicts are bit-identical to the serial run: each
    item's variables are minted by one domain in the same relative
    order as serially, the shared {!Analyses.Memo} is keyed canonically,
    and each task counts into its own {!Omega.Metrics} registry, merged
    into the submitter's with the registry's commutative join.  Memo
    hit/miss counts are the one quantity parallelism may change (two
    domains racing a fresh key both compute the same verdict).

    Width defaults to 1, in which case {!map} is exactly [Array.map]
    with no pool and no scoping. *)

val set_domains : int -> unit
(** Number of domains (including the caller) future {!map} calls use;
    clamped to at least 1. *)

val domains : unit -> int

val map : ('a -> 'b) -> 'a array -> 'b array
(** Order-preserving parallel map.  Runs inline when width is 1, the
    array is short, or the caller is already a pool worker (nested
    parallelism).  Every item sees the submitter's budget limits and
    wall deadline.  Re-raises the first exception any item raised after
    the batch drains. *)

val map_list : ('a -> 'b) -> 'a list -> 'b list
