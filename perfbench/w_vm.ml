(* vm-kernels: one op is the `petit disasm` pipeline on one VM-compilable
   corpus kernel, with every optimizer flag on, followed by a serial run
   of the generated code: [Restructure.optimize], [Sema],
   [Compile.program], [Opt.optimize], [Vm.create], [Vm.run].  Symbol
   values follow the `bench speedup` sizing (about 150k innermost
   iterations).  The verdict cache is left as the program leaves it, so
   it is warm after the first pass; every fourth op is followed by a
   cold op, with the cache switched off, for the cold latency.  Each op's final memory
   must equal the reference interpreter's ([Vm.check_against]). *)

open Common
module R = Stats.Rng

(* The init function `bench speedup` fills arenas with. *)
let init _ idx = List.fold_left (fun h i -> (h * 31) + i + 17) 7 idx

type kernel = { k : prog; syms : (string * int) list }

let depth (prog : Lang.Ir.program) =
  Array.fold_left
    (fun d a -> max d (Lang.Ir.depth a))
    1 prog.Lang.Ir.accesses

(* `bench speedup`'s sizing: the largest candidate value satisfying the
   assumptions, starting from target^(1/depth). *)
let pick_syms prog =
  let target = 150_000 in
  let scale = max 4 (int_of_float (float_of_int target ** (1. /. float_of_int (depth prog)))) in
  Xform.Oracle.pick_syms
    ~candidates:[ scale; scale / 2; 100; 50; 10; 8; 6; 5; 4; 3; 2; 1 ]
    prog

(* Kernels the pipeline can compile (opaque subscripts are
   [Unsupported]). *)
let kernels () =
  List.filter_map
    (fun (pname, src) ->
      match Lang.Sema.parse_and_analyze src with
      | exception _ -> None
      | prog -> (
        match pick_syms prog with
        | None -> None
        | Some syms -> (
          match Lang.Compile.program prog ~syms with
          | exception Lang.Compile.Unsupported _ -> None
          | _ -> Some { k = { pname; src }; syms })))
    Corpus.all
  |> Array.of_list

type stage = {
  mutable parse : float;
  mutable restructure : float;
  mutable sema : float;
  mutable compile : float;
  mutable opt : float;
  mutable create : float;
  mutable run : float;
}

let stage () =
  { parse = 0.; restructure = 0.; sema = 0.; compile = 0.; opt = 0.; create = 0.; run = 0. }

(* One op, each stage timed; with tracing on, each stage is also a span
   under the op's root span. *)
let op (kn : kernel) =
  let s = stage () in
  let timed name f set =
    let r, ms = Clock.time (fun () -> Trace.span name f) in
    set ms;
    r
  in
  let (vm, u, rep), total =
    Clock.time (fun () ->
        Trace.span "op" (fun () ->
            let ast = timed "lang.parse" (fun () -> Lang.Parser.parse_string kn.k.src) (fun v -> s.parse <- v) in
            let ast', _ = timed "xform.restructure" (fun () -> Xform.Restructure.optimize ast) (fun v -> s.restructure <- v) in
            let prog = timed "lang.sema" (fun () -> Lang.Sema.analyze ast') (fun v -> s.sema <- v) in
            let u0 = timed "lang.compile" (fun () -> Lang.Compile.program prog ~syms:kn.syms) (fun v -> s.compile <- v) in
            let u, rep = timed "lang.opt" (fun () -> Lang.Opt.optimize u0) (fun v -> s.opt <- v) in
            let vm = timed "lang.vm.create" (fun () -> Lang.Vm.create ~init u) (fun v -> s.create <- v) in
            timed "lang.vm.run" (fun () -> Lang.Vm.run vm) (fun v -> s.run <- v);
            (vm, u, rep)))
  in
  (vm, u, rep, s, total)

(* A 63-bit FNV-style hash of the final arena: every op's memory must
   hash like the kernel's first op's, which is checked against the
   interpreter once at the end. *)
let arena_hash vm =
  let a = Lang.Vm.arena vm in
  let h = ref 0x4bf29ce484222325 in
  Array.iter (fun x -> h := (!h lxor x) * 0x100000001b3) a;
  !h

let code_size (u : Lang.Compile.unit_) =
  Array.fold_left
    (fun n (r : Lang.Compile.region) ->
      n + Array.length r.Lang.Compile.rg_serial + Array.length r.Lang.Compile.rg_par)
    (Array.length u.Lang.Compile.u_main)
    u.Lang.Compile.u_regions

let compile_ms s = s.parse +. s.restructure +. s.sema +. s.compile +. s.opt

type row = {
  mutable ops : float list;
  mutable comp : float list;
  mutable runs : float list;
  mutable size : int;
  mutable elided : int;
  mutable fused : int;
  mutable first : int option;  (** hash of the first op's final arena *)
}

(* Dead flows over the distinct kernels, as [Driver.analyze] finds them
   on the source programs. *)
let dead_flows kernels =
  List.fold_left
    (fun n kn ->
      let prog = Lang.Sema.parse_and_analyze kn.k.src in
      n + List.length (Depend.Driver.dead_flows (Depend.Driver.analyze prog)))
    0 kernels

(* The reference check: a kernel's final VM memory against the tracing
   interpreter's ([Vm.check_against]).  The interpreter takes about a
   second per kernel at these sizes, so a verified memory image is
   remembered under [dir] by the digest of the kernel source, its symbol
   values and the arena: a later run in the same checkout that produces
   the very same image needs no second interpretation. *)
let verified ~dir kn vm =
  let key =
    Digest.to_hex
      (Digest.string
         (String.concat "\x00"
            [ kn.k.src;
              String.concat "," (List.map (fun (s, v) -> Printf.sprintf "%s=%d" s v) kn.syms);
              Marshal.to_string (Lang.Vm.arena vm) [] ]))
  in
  let stamp = Filename.concat dir ("vm-verified-" ^ key) in
  if Sys.file_exists stamp then `Cached
  else begin
    let prog = Lang.Sema.parse_and_analyze kn.k.src in
    let mem = Xform.Exec.run_serial ~init prog ~syms:kn.syms in
    match Lang.Vm.check_against ~init vm mem with
    | [] ->
      close_out (open_out stamp);
      `Checked
    | d -> `Differs (Lang.Vm.diff_string d)
  end

let run ~seed ~seconds ~trace ~dir =
  let r = result () in
  Lang.Opt.all_on ();
  let ks = ref [||] in
  let set_up = setup (fun () -> ks := kernels ()) in
  let ks = !ks in
  let n = Array.length ks in
  let rows =
    Array.init n (fun _ ->
        { ops = []; comp = []; runs = []; size = 0; elided = 0; fused = 0; first = None })
  in
  let rng = R.make seed in
  let next = R.cycle rng n in
  let t_all = tiers () in
  reset_counters ();
  let cold = ref [] and warm = ref [] in
  let lat = ref [] in
  (* every op's final memory must hash like the kernel's first op's *)
  let verify i vm =
    r.attempted <- r.attempted + 1;
    match rows.(i).first with
    | Some h0 when arena_hash vm <> h0 ->
      fail r (ks.(i).k.pname ^ ": final memory differs between ops")
    | _ -> ()
  in
  let record i (vm, u, (rep : Lang.Opt.report), s, total) =
    verify i vm;
    let row = rows.(i) in
    (match row.first with
    | None ->
      row.first <- Some (arena_hash vm);
      row.size <- code_size u;
      row.elided <- rep.Lang.Opt.r_elided;
      row.fused <- rep.Lang.Opt.r_fused
    | Some _ -> warm := total :: !warm);
    row.ops <- total :: row.ops;
    row.comp <- compile_ms s :: row.comp;
    row.runs <- s.run :: row.runs;
    lat := total :: !lat
  in
  let measured = if trace then seconds /. 2. else seconds in
  let deadline = Clock.deadline_after_s measured in
  let t_start = Clock.now_ns () in
  let step = ref 0 and cold_next = ref 0 in
  while not (Clock.past deadline) do
    setup_tick set_up;
    Probe.tick ();
    let i = next () in
    record i (op ks.(i));
    incr step;
    (* after the first pass, every fourth op is followed by a cold op —
       the verdict cache switched off, so the cache itself stays warm —
       on the kernels in turn, so every kernel is sampled equally *)
    if !step > n && !step mod 4 = 0 then begin
      let j = !cold_next mod n in
      incr cold_next;
      let memo = Depend.Analyses.Memo.enabled in
      memo := false;
      let vm, _, _, _, total = Fun.protect ~finally:(fun () -> memo := true) (fun () -> op ks.(j)) in
      verify j vm;
      cold := total :: !cold
    end
  done;
  let elapsed_s = Clock.ms_between t_start (Clock.now_ns ()) /. 1000. in
  add_current t_all;
  let rss = Stats.peak_rss_mb () in
  let lat = !lat in
  let warm = !warm in
  let nops = List.length lat in
  let seen = List.filter (fun i -> rows.(i).first <> None) (List.init n Fun.id) in
  Printf.printf "vm-kernels: %d ops over %d kernels in %.2f s (seed %d)\n" nops
    (List.length seen) elapsed_s seed;
  Printf.printf "%-20s %-16s %5s %11s %11s %7s %6s %6s\n" "kernel" "syms" "ops"
    "compile(ms)" "run(ms)" "instrs" "elided" "fused";
  List.iter
    (fun i ->
      let row = rows.(i) in
      Printf.printf "%-20s %-16s %5d %11.4f %11.4f %7d %6d %6d\n" ks.(i).k.pname
        (String.concat "," (List.map (fun (s, v) -> Printf.sprintf "%s=%d" s v) ks.(i).syms))
        (List.length row.ops) (Stats.median row.comp) (Stats.median row.runs)
        row.size row.elided row.fused)
    seen;
  let geo f = Stats.geomean (List.map (fun i -> Stats.median (f rows.(i))) seen) in
  let code = List.fold_left (fun s i -> s + rows.(i).size) 0 seen in
  Stats.print_latency ~what:"op" lat;
  Printf.printf "compile_ms_geomean %.4f ms, run_ms_geomean %.4f ms, code_size_instrs %d\n"
    (geo (fun row -> row.comp)) (geo (fun row -> row.runs)) code;
  Printf.printf "gave_up_rate %.6f (%d of %d solver queries)\n"
    (ratio (fi t_all.gave_up) (fi t_all.queries)) t_all.gave_up t_all.queries;
  e2e r "setup_s" (setup_s set_up) "s";
  e2e r "ops_per_s" (Stats.pass_rate (List.map (fun i -> rows.(i).ops) seen)) "1/s";
  e2e r "latency_p50_ms" (Stats.p50 lat) "ms";
  e2e r "latency_p99_ms" (Stats.p99 lat) "ms";
  e2e r "peak_rss_mb" rss "MB";
  e2e r "warm_p50_ms" (Stats.p50 warm) "ms";
  e2e r "cold_p50_ms" (Stats.p50 !cold) "ms";
  e2e r "dead_flows" (fi (dead_flows (List.map (fun i -> ks.(i)) seen))) "count";
  e2e r "decided_rate" (decided_rate t_all) "ratio";
  if trace then begin
    Trace.enabled := true;
    let t = tiers () in
    let traced = ref 0 and traced_ms = ref 0. in
    (* tracing cost: traced ops against the same kernels' untraced median *)
    let untraced = Array.map (fun row -> Stats.median row.ops) rows in
    let compared = ref 0. and baseline = ref 0. in
    let m = Depend.Analyses.Memo.stats in
    let hits0 = m.Depend.Analyses.Memo.hits and misses0 = m.Depend.Analyses.Memo.misses in
    let deadline = Clock.deadline_after_s (seconds /. 2.) in
    while not (Clock.past deadline) do
      Probe.tick ();
      let i = next () in
      incr traced;
      Trace.set_request !traced;
      let before = Array.copy t.ms in
      let ((_, _, _, _, total) as out) = counted t (fun () -> op ks.(i)) in
      (* the restructurer's dependence analyses ran the solver tiers *)
      let rs =
        List.find
          (fun (s : Trace.span) -> s.Trace.name = "xform.restructure" && s.Trace.req = !traced)
          !Trace.spans
      in
      tier_counters ~parent:rs.Trace.id before t;
      traced_ms := !traced_ms +. total;
      if Float.is_finite untraced.(i) then begin
        compared := !compared +. total;
        baseline := !baseline +. untraced.(i)
      end;
      record i out
    done;
    Trace.enabled := false;
    let ops = !traced in
    let self = Trace.self_times () in
    let per name =
      match Hashtbl.find_opt self name with
      | Some (_, ms) -> ms /. fi ops
      | None -> 0.
    in
    (* dynamic instruction counts, by the VM's counting twin, once per
       kernel outside any timed span *)
    let dyn =
      List.fold_left
        (fun s i ->
          let vm, _, _, _, _ = op ks.(i) in
          s + Lang.Vm.run_count (Lang.Vm.create ~init (Lang.Vm.unit_ vm)))
        0 seen
    in
    omega_layers r t ~ops;
    let hits = m.Depend.Analyses.Memo.hits - hits0 and misses = m.Depend.Analyses.Memo.misses - misses0 in
    layer r "depend.memo.hits" (ratio (fi hits) (fi ops));
    layer r "depend.memo.misses" (ratio (fi misses) (fi ops));
    layer r "depend.memo.hit_rate" (ratio (fi hits) (fi (hits + misses)));
    layer r "depend.memo.size" (fi (Depend.Analyses.Memo.size ()));
    layer r "depend.memo.evictions" (fi m.Depend.Analyses.Memo.evictions);
    List.iter
      (fun (name, span) -> layer r name (per span))
      [ ("lang.parse.ms", "lang.parse"); ("lang.sema.ms", "lang.sema");
        ("xform.restructure.ms", "xform.restructure"); ("lang.compile.ms", "lang.compile");
        ("lang.opt.ms", "lang.opt"); ("lang.vm.create_ms", "lang.vm.create");
        ("lang.vm.run_ms", "lang.vm.run") ];
    layer r "lang.opt.elided" (fi (List.fold_left (fun s i -> s + rows.(i).elided) 0 seen));
    layer r "lang.opt.fused" (fi (List.fold_left (fun s i -> s + rows.(i).fused) 0 seen));
    layer r "lang.vm.dyn_instrs" (fi dyn);
    layer r "kernel.compile_ms_geomean" (geo (fun row -> row.comp));
    layer r "kernel.run_ms_geomean" (geo (fun row -> row.runs));
    layer r "kernel.code_size_instrs" (fi code);
    layer r "unattributed.ms" (per "op");
    layer r "trace_overhead_ratio" (ratio !compared !baseline);
    print_addup ~title:(Printf.sprintf "%d traced ops" ops)
      ~leaves:
        ([ ("lang.parse.ms", per "lang.parse"); ("xform.restructure.ms", per "xform.restructure") ]
        @ Array.to_list
            (Array.map (fun n -> ("omega." ^ n ^ ".ms", per ("omega." ^ n))) tier_names)
        @ [ ("lang.sema.ms", per "lang.sema"); ("lang.compile.ms", per "lang.compile");
            ("lang.opt.ms", per "lang.opt"); ("lang.vm.create_ms", per "lang.vm.create");
            ("lang.vm.run_ms", per "lang.vm.run") ])
      ~residue:(per "op") ~total:(!traced_ms /. fi ops)
  end;
  (* references, outside every timed span *)
  let t_ref = Clock.now_ns () in
  let fresh =
    List.fold_left
      (fun fresh i ->
        let kn = ks.(i) in
        let vm, _, _, _, _ = op kn in
        if Some (arena_hash vm) <> rows.(i).first then
          fail r (kn.k.pname ^ ": final memory differs from the measured ops'");
        match verified ~dir kn vm with
        | `Cached -> fresh
        | `Checked -> fresh + 1
        | `Differs d -> fail r (kn.k.pname ^ ": VM memory differs from the interpreter: " ^ d); fresh + 1)
      0 seen
  in
  Printf.printf "reference: %d kernels' final memory checked against the interpreter (%d run now, the rest verified earlier in this checkout) in %.2f s\n"
    (List.length seen) fresh (Clock.ms_between t_ref (Clock.now_ns ()) /. 1000.);
  check_soundness r (List.map (fun i -> (ks.(i).k.pname, ks.(i).k.src)) seen);
  r
