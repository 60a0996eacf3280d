(* The tiered decision portfolio (DESIGN.md section 12).

   - soundness: a screen verdict, when not Unknown, must agree with the
     complete procedure (QCheck, over the boxed random problems of the
     brute-force oracle);
   - the GCD/divisibility and interval screens on hand-built problems
     and on the figure 6/7 write/read pair corpus, where the cascade
     must reproduce the Omega-only dependence vectors exactly;
   - plan shapes: every plan ends in the complete tier, and the Tuning
     switches drop the incomplete tiers the benches' tier-2-only
     reference leaves out;
   - degradation: tightening the budget can only turn Proved into
     Gave_up — never flip a verdict. *)

open Omega
open Depend

let check = Alcotest.check
let bool_t = Alcotest.bool

(* Run [f] with the two incomplete tiers switched as given. *)
let with_tiers ~screen ~fast f =
  Tuning.screen := screen;
  Tuning.fast_path := fast;
  Fun.protect ~finally:Tuning.all_on f

(* ------------------------------------------------------------------ *)
(* Hand-built screen instances                                         *)
(* ------------------------------------------------------------------ *)

let v name = Var.fresh name
let i n = Linexpr.of_int n
let t c x = Linexpr.scale (Zint.of_int c) (Linexpr.var x)

let decide_str = function
  | `Sat -> "sat"
  | `Unsat -> "unsat"
  | `Unknown -> "unknown"

let str_t = Alcotest.string

let unit_tests =
  [
    ( "screen: GCD refutes 2x = 3",
      `Quick,
      fun () ->
        let x = v "x" in
        let p = Problem.of_list [ Constr.eq2 (t 2 x) (i 3) ] in
        check str_t "gcd contra" "unsat" (decide_str (Screen.decide p)) );
    ( "screen: witness accepts 2x = 4 in a box",
      `Quick,
      fun () ->
        let x = v "x" in
        let p =
          Problem.of_list
            [
              Constr.eq2 (t 2 x) (i 4);
              Constr.ge (Linexpr.var x) (i 0);
              Constr.le (Linexpr.var x) (i 3);
            ]
        in
        check str_t "witnessed" "sat" (decide_str (Screen.decide p)) );
    ( "screen: crossed interval is empty",
      `Quick,
      fun () ->
        let x = v "x" in
        let p =
          Problem.of_list
            [ Constr.ge (Linexpr.var x) (i 7); Constr.le (Linexpr.var x) (i 5) ]
        in
        check str_t "empty box" "unsat" (decide_str (Screen.decide p)) );
    ( "screen: Banerjee bound refutes x - y >= 20 on [1,10]^2",
      `Quick,
      fun () ->
        let x = v "x" and y = v "y" in
        let box w =
          [
            Constr.ge (Linexpr.var w) (i 1); Constr.le (Linexpr.var w) (i 10);
          ]
        in
        let p =
          Problem.of_list
            (Constr.ge (Linexpr.sub (Linexpr.var x) (Linexpr.var y)) (i 20)
            :: (box x @ box y))
        in
        check str_t "bound check" "unsat" (decide_str (Screen.decide p)) );
    ( "screen: box witness accepts a satisfiable square",
      `Quick,
      fun () ->
        let x = v "x" and y = v "y" in
        let box w =
          [
            Constr.ge (Linexpr.var w) (i 0); Constr.le (Linexpr.var w) (i 5);
          ]
        in
        let p =
          Problem.of_list
            (Constr.ge (Linexpr.add (Linexpr.var x) (Linexpr.var y)) (i 0)
            :: (box x @ box y))
        in
        check str_t "witnessed" "sat" (decide_str (Screen.decide p)) );
    ( "portfolio: first definite tier wins and is attributed",
      `Quick,
      fun () ->
        let tiers =
          Portfolio.plan
            ~screen:(fun () -> Screen.Proved)
            ~complete:(fun () -> false)
            ()
        in
        match Portfolio.decide ~label:"test/first-wins" tiers with
        | Budget.Proved, Some Portfolio.Tier_screen -> ()
        | v, _ ->
          Alcotest.failf "expected screen-tier Proved, got %s"
            (Budget.verdict_to_string v) );
    ( "portfolio: plan shapes under the tier switches",
      `Quick,
      fun () ->
        let shape ~screen ~fast =
          with_tiers ~screen ~fast @@ fun () ->
          Portfolio.tiers
            (Portfolio.plan
               ~screen:(fun () -> Screen.Unknown)
               ~fast:(fun () -> Screen.Unknown)
               ~complete:(fun () -> true)
               ())
          |> List.map Portfolio.tier_to_string
        in
        let shape_t = Alcotest.(list string) in
        check shape_t "default" [ "screen"; "fast"; "complete" ]
          (shape ~screen:true ~fast:true);
        check shape_t "screen off" [ "fast"; "complete" ]
          (shape ~screen:false ~fast:true);
        check shape_t "both off" [ "complete" ]
          (shape ~screen:false ~fast:false) );
    ( "portfolio: cascade degrades monotonically under fuel",
      `Quick,
      fun () ->
        let burn n =
          Budget.with_meter (fun m ->
              for _ = 1 to n do
                Budget.tick m
              done)
        in
        let verdict_at fuel =
          Budget.with_limits { Budget.default with Budget.fuel } (fun () ->
              fst
                (Portfolio.decide ~label:"test/degrade"
                   (Portfolio.plan
                      ~screen:(fun () -> Screen.Unknown)
                      ~complete:(fun () ->
                        burn 50;
                        true)
                      ())))
        in
        (match verdict_at 1 with
        | Budget.Gave_up Budget.Fuel -> ()
        | v ->
          Alcotest.failf "tight budget: expected Gave_up fuel, got %s"
            (Budget.verdict_to_string v));
        check bool_t "loose budget proves" true (verdict_at 10_000 = Budget.Proved);
        (* once the budget is large enough to prove, every larger budget
           still proves: no flip back to Gave_up as fuel grows *)
        let proved = ref false in
        List.iter
          (fun fuel ->
            match verdict_at fuel with
            | Budget.Proved -> proved := true
            | Budget.Gave_up _ ->
              check bool_t
                (Printf.sprintf "no flip back at fuel %d" fuel)
                false !proved
            | Budget.Disproved -> Alcotest.fail "verdict flipped to Disproved")
          [ 1; 2; 5; 10; 25; 60; 100; 1_000; 10_000 ] );
  ]

(* ------------------------------------------------------------------ *)
(* Figure 6/7 pair corpus: cascade = Omega-only, screens exercised      *)
(* ------------------------------------------------------------------ *)

let pair_lines () =
  List.concat_map
    (fun name ->
      Analyses.Memo.reset ();
      let prog = Lang.Sema.parse_and_analyze (Corpus.find name) in
      let ctx = Depctx.create prog in
      let outputs = Deps.all ctx Deps.Output in
      let writes = Lang.Ir.writes prog and reads = Lang.Ir.reads prog in
      List.concat_map
        (fun (a : Lang.Ir.access) ->
          List.filter_map
            (fun (b : Lang.Ir.access) ->
              if a.Lang.Ir.array <> b.Lang.Ir.array then None
              else
                match Deps.compute ctx ~src:a ~dst:b ~kind:Deps.Flow with
                | None ->
                  Some
                    (Printf.sprintf "%s %s->%s none" name a.Lang.Ir.label
                       b.Lang.Ir.label)
                | Some dep ->
                  (* the extended per-pair machinery — refinement and
                     cover tests are the section-4 analyses that route
                     through the portfolio *)
                  let refined =
                    if not (Driver.refinement_possible outputs a) then None
                    else
                      let pinned = Analyses.refine ctx ~src:a ~dst:b in
                      if pinned = [] then None
                      else
                        Some (Analyses.refined_vectors ctx ~src:a ~dst:b pinned)
                  in
                  let vectors =
                    match refined with
                    | Some vs -> vs
                    | None -> dep.Deps.vectors
                  in
                  let covers =
                    Driver.cover_possible vectors
                    && Analyses.covers ctx ~src:a ~dst:b
                  in
                  Some
                    (Printf.sprintf "%s %s->%s %s covers=%b" name
                       a.Lang.Ir.label b.Lang.Ir.label
                       (String.concat ","
                          (List.map Dirvec.to_string vectors))
                       covers))
            reads)
        writes)
    Corpus.timing_population

let corpus_tests =
  [
    ( "pair corpus: cascade vectors = Omega-only vectors",
      `Quick,
      fun () ->
        let omega_only =
          with_tiers ~screen:false ~fast:true pair_lines
        in
        Portfolio.Stats.reset ();
        let cascaded = pair_lines () in
        let tiers = Portfolio.Stats.current () in
        check bool_t "pair corpus is non-trivial" true (omega_only <> []);
        check (Alcotest.list str_t) "identical dependence vectors" omega_only
          cascaded;
        check bool_t "screen tier consulted" true
          (tiers.Portfolio.Stats.screen.Portfolio.Stats.attempts > 0);
        check bool_t "screen tier decided some queries" true
          (tiers.Portfolio.Stats.screen.Portfolio.Stats.decides > 0) );
  ]

(* ------------------------------------------------------------------ *)
(* QCheck: screens never contradict the complete procedure             *)
(* ------------------------------------------------------------------ *)

let prop_tests =
  [
    QCheck.Test.make ~name:"screen decide agrees with Elim.satisfiable"
      ~count:500 (Oracle.arb_problem ()) (fun (p, _, _, _) ->
        match Screen.decide p with
        | `Sat -> Elim.satisfiable p
        | `Unsat -> not (Elim.satisfiable p)
        | `Unknown -> true);
    QCheck.Test.make ~name:"screen implies agrees with Gist.implies"
      ~count:300
      (QCheck.pair (Oracle.arb_problem ()) (Oracle.arb_problem ()))
      (fun ((p, _, _, _), (q, _, _, _)) ->
        match Screen.implies_problem p q with
        | Screen.Proved -> Gist.implies p q
        | Screen.Disproved -> not (Gist.implies p q)
        | Screen.Unknown -> true);
    QCheck.Test.make
      ~name:"screen implies_exists agrees with the complete procedure"
      ~count:300
      (QCheck.pair (Oracle.arb_problem ()) (Oracle.arb_problem ()))
      (fun ((p, _, _, _), (q, _, _, _)) ->
        match Screen.implies_exists ~hyp:[] [ p ] ~evars:[] [ q ] with
        | Screen.Proved -> Gist.implies p q
        | Screen.Disproved -> not (Gist.implies p q)
        | Screen.Unknown -> true);
  ]

let suite =
  ( "portfolio",
    unit_tests @ corpus_tests
    @ List.map (QCheck_alcotest.to_alcotest ~long:false) prop_tests )
