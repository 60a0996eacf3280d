(* The benchmark binary.  Usage:

     main.exe --workload analyze-cold|serve-mixed|vm-kernels --seed N
              --seconds S --trace 0|1 [--petitd PATH] [--out DIR]

   Human-readable tables go to standard output; the last line is one
   JSON object {correct, attempted, failed, metrics}: the end-to-end
   metrics with --trace 0, the per-layer metrics with --trace 1, every
   time scaled to the nominal host speed (see Probe).  Exit
   status 1 when any correctness check failed. *)

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1 \
     [--petitd PATH] [--out DIR]";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref false and petitd = ref "" and out = ref ".perfbench" in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := v = "1"; parse rest
    | "--petitd" :: v :: rest -> petitd := v; parse rest
    | "--out" :: v :: rest -> out := v; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with _ -> usage ());
  (try Sys.mkdir !out 0o755 with Sys_error _ -> ());
  let seconds = !seconds and seed = !seed and trace = !trace in
  let r =
    match !workload with
    | "analyze-cold" -> W_analyze.run ~seed ~seconds ~trace
    | "serve-mixed" -> W_serve.run ~seed ~seconds ~trace ~petitd:!petitd ~dir:!out
    | "vm-kernels" -> W_vm.run ~seed ~seconds ~trace ~dir:!out
    | _ -> usage ()
  in
  if trace then begin
    let path = Filename.concat !out (Printf.sprintf "trace-%s-%d.jsonl" !workload seed) in
    Trace.write path;
    Printf.printf "trace: %d spans written to %s\n" (Trace.count ()) path;
    Common.complete_layers r
  end;
  let raw = if trace then r.Common.layers else r.Common.e2e in
  let metrics =
    List.map
      (fun (m : Common.metric) -> { m with Common.value = Probe.scale m.Common.value m.Common.unit_ })
      raw
  in
  List.iter
    (fun (m : Common.metric) ->
      if not (Float.is_finite m.Common.value) then
        Common.fail r (m.Common.name ^ " could not be measured (too few samples)"))
    metrics;
  Printf.printf
    "\nhost probe: %d samples, median %.4f ms against %.4f ms nominal; times \
     below are scaled by %.4f to the nominal host (raw in the last column)\n"
    (Probe.count ()) (Probe.nominal_ms /. Probe.factor ()) Probe.nominal_ms (Probe.factor ());
  List.iter2
    (fun (m : Common.metric) (w : Common.metric) ->
      Printf.printf "%-28s %16.6f %-6s %16.6f\n" m.Common.name m.Common.value m.Common.unit_
        w.Common.value)
    metrics raw;
  Printf.printf "error_rate %.6f (%d failed of %d attempted)\n"
    (Common.ratio (float_of_int r.Common.failed) (float_of_int r.Common.attempted))
    r.Common.failed r.Common.attempted;
  List.iter (Printf.printf "FAILED: %s\n") (List.rev r.Common.failures);
  let correct = r.Common.failed = 0 && r.Common.attempted > 0 in
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null" in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct r.Common.attempted r.Common.failed
    (String.concat ", "
       (List.map
          (fun (m : Common.metric) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.Common.name
              (num m.Common.value) m.Common.unit_)
          metrics));
  exit (if correct then 0 else 1)
