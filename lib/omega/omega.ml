(* Public API of the Omega test library.

   The Omega test [Pug91] is an exact integer programming algorithm based
   on Fourier-Motzkin variable elimination; this library adds the PLDI'92
   extensions: exact projection with splintering, gists, implication
   testing, and a Presburger formula layer. *)

module Var = Var
module Linexpr = Linexpr
module Constr = Constr
module Problem = Problem
module Metrics = Metrics
module Budget = Budget
module Tuning = Tuning
module Elim = Elim
module Gist = Gist
module Presburger = Presburger
module Screen = Screen
module Portfolio = Portfolio

(* Does the conjunction have an integer solution? *)
let satisfiable = Elim.satisfiable

(* Exact projection onto the variables satisfying [keep]: the union of the
   returned problems (reading their wildcards existentially) has exactly
   the same integer solutions for the kept variables as the input. *)
let project = Elim.project

(* Approximate projections: the dark shadow under-approximates, the real
   shadow over-approximates (section 3 of the paper). *)
let project_dark = Elim.project_dark
let project_real = Elim.project_real

(* Is [p => q] a tautology? *)
let implies = Gist.implies

(* [gist p ~given:q]: minimal subset of [p]'s constraints carrying the
   information not already in [q]. *)
let gist = Gist.gist

let simplify = Problem.simplify

(* Per-piece summary of a problem projected onto a single variable [v]:
   strongest lower/upper bounds plus congruence constraints. *)
type piece = {
  lo : Zint.t option;
  hi : Zint.t option;



  sat_at : Zint.t -> bool;
  cong_lcm : Zint.t;
}

let analyze_piece v (q : Problem.t) : piece =
  let lo = ref None and hi = ref None in
  let congs = ref [] in
  List.iter
    (fun c ->
      let e = Constr.expr c in
      let cv = Linexpr.coeff e v in
      match Constr.kind c with
      | Constr.Eq ->
        if Var.Set.exists Var.is_wild (Linexpr.vars e) then
          congs := e :: !congs
        else if not (Zint.is_zero cv) then begin
          (* cv * v + const = 0; after normalization cv is +-1 *)
          let x = Zint.divexact (Zint.neg (Linexpr.constant e)) cv in
          lo := Some (match !lo with None -> x | Some l -> Zint.max l x);
          hi := Some (match !hi with None -> x | Some h -> Zint.min h x)
        end
      | Constr.Geq ->
        if Zint.sign cv > 0 then begin
          let b = Zint.cdiv (Zint.neg (Linexpr.constant e)) cv in
          lo := Some (match !lo with None -> b | Some l -> Zint.max l b)
        end
        else if Zint.sign cv < 0 then begin
          let b = Zint.fdiv (Linexpr.constant e) (Zint.neg cv) in
          hi := Some (match !hi with None -> b | Some h -> Zint.min h b)
        end)
    (Problem.constraints q);
  let wild_gcd e =
    Var.Set.fold
      (fun w acc -> if Var.is_wild w then Zint.gcd acc (Linexpr.coeff e w) else acc)
      (Linexpr.vars e) Zint.zero
  in
  let sat_at x =
    List.for_all
      (fun e ->
        let residual =
          Linexpr.constant
            (Var.Set.fold
               (fun w acc -> Linexpr.set_coeff acc w Zint.zero)
               (Var.Set.filter Var.is_wild (Linexpr.vars e))
               (Linexpr.subst e v (Linexpr.const x)))
        in
        Zint.divisible residual (wild_gcd e))
      !congs
  in
  let cong_lcm =
    List.fold_left (fun acc e -> Zint.lcm acc (wild_gcd e)) Zint.one !congs
  in
  { lo = !lo; hi = !hi; sat_at; cong_lcm }

(* Smallest value of [v] subject to [p]. *)
let minimize (p : Problem.t) (v : Var.t) :
    [ `Unsat | `Unbounded | `Min of Zint.t ] =
  let keep u = Var.equal u v in
  let pieces = List.map (analyze_piece v) (Elim.project ~keep p) in
  (* a piece with no lower bound is nonempty (congruences have arbitrarily
     small solutions), hence unbounded below *)
  if List.exists (fun pc -> pc.lo = None) pieces then `Unbounded
  else begin
    let piece_min pc =
      match pc.lo with
      | None -> assert false
      | Some l ->
        (* scan at most lcm-of-moduli values upward from the lower bound *)
        let rec scan x n =
          if Zint.(n > pc.cong_lcm) then None
          else if (match pc.hi with Some h -> Zint.(x > h) | None -> false)
          then None (* piece empty below hi *)
          else if pc.sat_at x then Some x
          else scan (Zint.succ x) (Zint.succ n)
        in
        scan l Zint.one
    in
    match List.filter_map piece_min pieces with
    | [] -> `Unsat
    | x :: rest -> `Min (List.fold_left Zint.min x rest)
  end

let maximize (p : Problem.t) (v : Var.t) :
    [ `Unsat | `Unbounded | `Max of Zint.t ] =
  (* maximize v = -(minimize -v): substitute v := -v' *)
  let v' = Var.fresh (Var.name v ^ "_negated") in
  let p' = Problem.subst v (Linexpr.term Zint.minus_one v') p in
  match minimize p' v' with
  | `Unsat -> `Unsat
  | `Unbounded -> `Unbounded
  | `Min x -> `Max (Zint.neg x)

(* A bounded key/value table with first-in-first-out eviction, safe to
   share across threads and domains: the one cache implementation
   behind the verdict memo ({!Depend.Analyses.Memo}) and petitd's
   per-program result cache.

   Beyond the capacity the oldest keys are evicted first.  FIFO rather
   than LRU keeps a hit O(1) with no bookkeeping on the hot path.  One
   internal mutex covers the table, the eviction queue and the
   counters; it is held for a hash probe or an insertion, never while
   the caller computes a value. *)
module Cache : sig
  type stats = {
    mutable hits : int;
    mutable misses : int;
    mutable evictions : int;
  }
  (** Lifetime traffic since creation or the last {!reset}.  Clients read
      the fields; only the cache writes them. *)

  type ('k, 'v) t

  val create : capacity:int ref -> ('k, 'v) t
  (** An empty cache holding at most [!capacity] entries; the bound is
      read at every insertion, so lowering it takes effect on the next
      one. *)

  val stats : ('k, 'v) t -> stats
  val size : ('k, 'v) t -> int

  val reset : ('k, 'v) t -> unit
  (** Clears the table, the eviction queue and the counters. *)

  val hit_rate : ('k, 'v) t -> float
  (** Hits over lookups; [0.] when there was none. *)

  val find : ?usable:('v -> bool) -> ('k, 'v) t -> 'k -> 'v option
  (** The value under the key, if there is one and [usable] accepts it
      (default: any); counts a hit or a miss. *)

  val mem : ('k, 'v) t -> 'k -> bool
  (** Whether the key has an entry; counts nothing. *)

  val add : ('k, 'v) t -> 'k -> 'v -> [ `Replaced | `Inserted of int ]
  (** Store the value under the key.  A key already present keeps its
      place in the eviction order and has its value replaced; a new key
      is queued last and evicts the oldest entries beyond the capacity,
      whose number [`Inserted] carries. *)
end = struct
  (* A bounded FIFO cache behind one mutex.  Every key of [table] is in
     [order] exactly once, oldest first: a replaced value keeps its key's
     place, and eviction pops the oldest. *)

  type stats = {
    mutable hits : int;
    mutable misses : int;
    mutable evictions : int;
  }

  type ('k, 'v) t = {
    table : ('k, 'v) Hashtbl.t;
    order : 'k Queue.t;
    capacity : int ref;
    lock : Mutex.t;
    stats : stats;
  }

  let create ~capacity =
    {
      table = Hashtbl.create 4096;
      order = Queue.create ();
      capacity;
      lock = Mutex.create ();
      stats = { hits = 0; misses = 0; evictions = 0 };
    }

  let locked t f = Mutex.protect t.lock f
  let stats t = t.stats
  let size t = locked t (fun () -> Hashtbl.length t.table)

  let reset t =
    locked t (fun () ->
        Hashtbl.reset t.table;
        Queue.clear t.order;
        t.stats.hits <- 0;
        t.stats.misses <- 0;
        t.stats.evictions <- 0)

  let hit_rate t =
    locked t (fun () ->
        let total = t.stats.hits + t.stats.misses in
        if total = 0 then 0.
        else float_of_int t.stats.hits /. float_of_int total)

  let find ?(usable = fun _ -> true) t k =
    locked t (fun () ->
        match Hashtbl.find_opt t.table k with
        | Some v when usable v ->
          t.stats.hits <- t.stats.hits + 1;
          Some v
        | _ ->
          t.stats.misses <- t.stats.misses + 1;
          None)

  let mem t k = locked t (fun () -> Hashtbl.mem t.table k)

  let add t k v =
    locked t (fun () ->
        let fresh = not (Hashtbl.mem t.table k) in
        Hashtbl.replace t.table k v;
        if not fresh then `Replaced
        else begin
          Queue.push k t.order;
          let evicted = ref 0 in
          while
            Hashtbl.length t.table > !(t.capacity)
            && not (Queue.is_empty t.order)
          do
            Hashtbl.remove t.table (Queue.pop t.order);
            incr evicted
          done;
          t.stats.evictions <- t.stats.evictions + !evicted;
          `Inserted !evicted
        end)
end
