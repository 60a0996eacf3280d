(** The one metrics registry: every counter the solver stack, the
    analyses and the daemon keep lives here.

    A metric is registered once, at module initialisation, under a
    dotted name (["solver.gave_up.fuel"]) and returns a typed slot
    handle.  A {e registry value} holds one cell per registered metric;
    each domain has a current one, so a hot-path bump is one
    [Domain.DLS.get] plus one array store — no lock, no string lookup.

    Cells come in four kinds, each with a commutative, associative
    join, so registries merged in any order give the same totals:
    - counters (int, add; may also count down, e.g. open connections);
    - gauges (int, max: peak fuel);
    - timers (float milliseconds, add);
    - worst-label cells (an int and a label: the higher value wins,
      ties go to the lexicographically least label; [(0, "")] is the
      identity and a zero value is never recorded). *)

type t
(** A registry value. *)

type counter
type gauge
type timer
type worst

(** {1 Registration}

    At module initialisation only.  Names are unique; a registry holds
    at most 128 metrics.  Both limits raise [Invalid_argument]. *)

val counter : string -> counter
val gauge : string -> gauge
val timer : string -> timer

val worst : label:string -> value:string -> worst
(** One cell exported as two sibling fields: the label, then the
    value. *)

(** {1 Updates of the current domain's registry} *)

val incr : counter -> unit
val observe : gauge -> int -> unit
val add_ms : timer -> float -> unit
val note_worst : worst -> int -> string -> unit

val add_to : t -> counter -> int -> unit
(** Update an explicit registry value (one not installed in any domain;
    the caller serialises access). *)

(** {1 Registry values} *)

val create : unit -> t
(** All cells at their identity. *)

val current : unit -> t
(** The current domain's registry. *)

val reset : under:string -> unit
(** Zero the current domain's cells whose name lies under the given
    dotted prefix. *)

val scoped : (unit -> 'a) -> 'a * t
(** Run [f] with a fresh registry installed in the current domain and
    return it, restoring the previous one afterwards.  What [f] counts
    is {e not} added to the enclosing registry; callers merge it where
    they want it.  If [f] raises, its counts are dropped. *)

val merge_into : t -> t -> unit
(** [merge_into dst src] joins every cell of [src] into [dst]. *)

(** {1 Reading} *)

val count : t -> counter -> int
val peak : t -> gauge -> int
val ms : t -> timer -> float
val worst_of : t -> worst -> int * string

(** {1 Export} *)

type json =
  | Int of int
  | Float of float
  | Str of string
  | Obj of (string * json) list

val to_json : under:string -> t -> (string * json) list
(** The fields of the object holding the cells under a dotted prefix:
    the prefix stripped, deeper names nested, in registration order.
    Counters and gauges are [Int], timers [Float], a worst cell a [Str]
    label then an [Int] value. *)
