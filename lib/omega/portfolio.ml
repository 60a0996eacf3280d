(* Tiered decision portfolio: screen -> fast path -> complete.

   The cascade is a pure dispatch layer: each tier is a sound closure
   returning a [Screen.answer], the first definite answer wins, and the
   whole run sits inside a [Budget] query boundary so resource blowups
   surface as structured verdicts.  Every plan ends in the complete
   tier, which always decides, so a plan never runs out of tiers.  The
   per-tier accounting is a set of cells in the Metrics registry. *)

type tier = Tier_screen | Tier_fast | Tier_complete

let tier_to_string = function
  | Tier_screen -> "screen"
  | Tier_fast -> "fast"
  | Tier_complete -> "complete"

(* Per-tier cells, under "tiers.<name>"; [quick] is the driver's
   structural section-4.5 screens. *)
type cells = {
  attempts : Metrics.counter;
  decides : Metrics.counter;
  ms : Metrics.timer;
}

(* Registration order is export order, hence the explicit sequencing. *)
let cells name =
  let c field = "tiers." ^ name ^ "." ^ field in
  let attempts = Metrics.counter (c "attempts") in
  let decides = Metrics.counter (c "decides") in
  { attempts; decides; ms = Metrics.timer (c "ms") }

let quick = cells "quick"
let screen_cells = cells "screen"
let fast_cells = cells "fast"
let complete_cells = cells "complete"

let cells_of = function
  | Tier_screen -> screen_cells
  | Tier_fast -> fast_cells
  | Tier_complete -> complete_cells

let record_quick ~hit =
  Metrics.incr quick.attempts;
  if hit then Metrics.incr quick.decides

let summary m =
  let n = Metrics.count m in
  let tier name c =
    Printf.sprintf "%s %d/%d (%.1fms)" name (n c.attempts) (n c.decides)
      (Metrics.ms m c.ms)
  in
  Printf.sprintf "quick %d/%d, %s, %s, %s" (n quick.attempts)
    (n quick.decides)
    (tier "screen" screen_cells)
    (tier "fast" fast_cells)
    (tier "complete" complete_cells)

module Stats = struct
  type row = { attempts : int; decides : int; elapsed : float }
  type t = { quick : row; screen : row; fast : row; complete : row }

  let current () =
    let m = Metrics.current () in
    let row (c : cells) =
      {
        attempts = Metrics.count m c.attempts;
        decides = Metrics.count m c.decides;
        elapsed = Metrics.ms m c.ms /. 1000.;
      }
    in
    {
      quick = row quick;
      screen = row screen_cells;
      fast = row fast_cells;
      complete = row complete_cells;
    }

  let reset () = Metrics.reset ~under:"tiers"
end

module Oracle = struct
  type divergence = { label : string; tier : tier; got : bool; want : bool }

  let lock = Mutex.create ()
  let enabled = ref false
  let n_checks = ref 0
  let found : divergence list ref = ref []

  let enable () =
    Mutex.lock lock;
    enabled := true;
    n_checks := 0;
    found := [];
    Mutex.unlock lock

  let disable () =
    Mutex.lock lock;
    enabled := false;
    Mutex.unlock lock

  let active () = !enabled

  let checks () =
    Mutex.lock lock;
    let n = !n_checks in
    Mutex.unlock lock;
    n

  let divergences () =
    Mutex.lock lock;
    let d = List.rev !found in
    Mutex.unlock lock;
    d

  let record label tier got want =
    Mutex.lock lock;
    incr n_checks;
    if got <> want then found := { label; tier; got; want } :: !found;
    Mutex.unlock lock
end

(* The incomplete tiers in cascade order, each gated by its Tuning
   switch, then the complete procedure. *)
type plan = {
  incomplete : (tier * (unit -> Screen.answer)) list;
  complete : unit -> bool;
}

let plan ~screen ?fast ~complete () =
  let gated on tier f = if on then [ (tier, f) ] else [] in
  {
    incomplete =
      gated !Tuning.screen Tier_screen screen
      @ (match fast with
        | Some f -> gated !Tuning.fast_path Tier_fast f
        | None -> []);
    complete;
  }

let tiers p = List.map fst p.incomplete @ [ Tier_complete ]

let timed tier f =
  let c = cells_of tier in
  Metrics.incr c.attempts;
  let t0 = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () ->
      Metrics.add_ms c.ms ((Unix.gettimeofday () -. t0) *. 1000.))
    f

let decide ?label ?fault_key p =
  let decided = ref None in
  let settle tier v =
    Metrics.incr (cells_of tier).decides;
    decided := Some tier;
    v
  in
  let complete () = timed Tier_complete p.complete in
  let result =
    Budget.run ?label ?fault_key (fun () ->
        let rec go = function
          | [] -> settle Tier_complete (complete ())
          | (tier, f) :: rest -> (
              match timed tier f with
              | Screen.Unknown -> go rest
              | answer ->
                  let v = settle tier (answer = Screen.Proved) in
                  if Oracle.active () then
                    Oracle.record
                      (Option.value label ~default:"?")
                      tier v (complete ());
                  v)
        in
        go p.incomplete)
  in
  match result with
  | Ok true -> (Budget.Proved, !decided)
  | Ok false -> (Budget.Disproved, !decided)
  | Error r -> (Budget.Gave_up r, None)
