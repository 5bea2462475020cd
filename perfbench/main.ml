(* The controller benchmark.

     main.exe --workload paper_mixed|wide_tcam|degraded_ops --seed N
              --seconds S --trace 0|1 [--fault-seed N] [--out DIR]

   --trace 0 runs whole untraced passes of the workload until --seconds
   is used up (at least one) and prints the end-to-end metrics; --trace 1
   runs one untraced and one traced pass and prints the per-layer
   metrics.  Every run checks its outputs; the last line of standard
   output is the JSON result, and the exit code is 0 only when every
   check passed.  See README.md. *)

open Perfbench

(* Set-ups per run; setup_s is their median.  Each starts from a full
   major collection, not a compaction, so it allocates into heap the
   process already has instead of paying for fresh pages. *)
let setup_reps = 15

let () =
  let workload = ref "" and seed = ref Workload.default_seed and fault_seed = ref None in
  let seconds = ref 30 and trace = ref 0 and out = ref (Filename.concat "perfbench" "out") in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME paper_mixed, wide_tcam or degraded_ops");
      ("--seed", Arg.Set_int seed, "N workload seed (default 7)");
      ("--fault-seed", Arg.Int (fun n -> fault_seed := Some n), "N fault seed (default seed + 90)");
      ("--seconds", Arg.Set_int seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer run");
      ("--out", Arg.Set_string out, "DIR telemetry bundles and span files");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let w =
    match Workload.of_string !workload with
    | Some w -> w
    | None ->
      prerr_endline ("unknown workload: " ^ !workload);
      exit 2
  in
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "--seconds must be >= 1 and --trace 0 or 1";
    exit 2
  end;
  let fault_seed = Option.value !fault_seed ~default:(Workload.default_fault_seed ~seed:!seed) in
  let spec =
    { Pass.workload = w; scenario = Workload.scenario w; seed = !seed; fault_seed; out_dir = !out }
  in
  Printf.printf "workload %s seed %d fault-seed %d trace %d\n%!" (Workload.name w) !seed fault_seed
    !trace;
  let setup_ms = ref [] in
  let timed_setup ~traced =
    Gc.full_major ();
    let st, wall, _ = Clocks.time (fun () -> Pass.setup spec ~traced) in
    setup_ms := wall :: !setup_ms;
    st
  in
  for _ = 2 to setup_reps do
    ignore (timed_setup ~traced:false)
  done;
  let budget_ms = 1000.0 *. float_of_int !seconds in
  let start = Clocks.wall_ms () in
  let rec untraced acc longest =
    let t0 = Clocks.wall_ms () in
    let r = Pass.run spec (timed_setup ~traced:false) ~traced:false in
    let t1 = Clocks.wall_ms () in
    let longest = Float.max longest (t1 -. t0) in
    Printf.printf "pass %d: %.2f s, digest %s\n%!" (List.length acc + 1) ((t1 -. t0) /. 1000.0) r.Pass.digest;
    let acc = r :: acc in
    if !trace = 0 && t1 -. start +. longest <= budget_ms then untraced acc longest else List.rev acc
  in
  let passes = untraced [] 0.0 in
  let traced =
    if !trace = 1 then begin
      let r = Pass.run spec (Pass.setup spec ~traced:true) ~traced:true in
      Printf.printf "traced pass: digest %s\n%!" r.Pass.digest;
      Some r
    end
    else None
  in
  let all = passes @ Option.to_list traced in
  let failures = ref (List.concat_map (fun r -> r.Pass.failures) all) in
  let fail m = failures := !failures @ [ m ] in
  let first = List.hd passes in
  List.iter
    (fun (r : Pass.result) ->
      if r.Pass.digest <> first.Pass.digest then
        fail (Printf.sprintf "digest %s differs from the first pass's %s" r.Pass.digest first.Pass.digest))
    all;
  let headline = Outputs.headline first.Pass.outputs in
  Printf.printf "outputs: %s digest %s\n" headline first.Pass.digest;
  (match
     Goldens.verify ~workload:(Workload.name w) ~seed:!seed ~fault_seed ~digest:first.Pass.digest
       ~headline ()
   with
  | `Unrecorded -> print_endline "reference: none recorded for these seeds"
  | `Match ->
    print_endline
      (if !seed = Workload.default_seed then "reference: matches dream-sim run bit for bit"
       else "reference: matches the outputs recorded in goldens.ml")
  | `Mismatch m -> fail ("reference mismatch: " ^ m));
  let metrics =
    match traced with
    | None ->
      let top_heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
      let setup_s = Dream_util.Stats.median !setup_ms /. 1000.0 in
      List.iter print_endline (Report.context passes);
      Report.end_to_end ~setup_s ~top_heap_words passes
    | Some r ->
      let l = Option.get r.Pass.layers in
      let path = Filename.concat !out (Workload.name w ^ "-spans.jsonl") in
      Pass.mkdir_p !out;
      Spans.write l.Pass.spans ~path;
      Printf.printf "%d spans written to %s; shadow accuracy checked on %d tasks\n" l.Pass.spans.Spans.count
        path l.Pass.shadow_checked;
      print_endline (Report.shares l);
      Printf.printf "loop: untraced %.2f s, traced %.2f s (shadow replays and checks included)\n"
        (first.Pass.loop_ms /. 1000.0) (r.Pass.loop_ms /. 1000.0);
      Report.per_layer ~untraced:first r l
  in
  List.iter (fun m -> print_endline (Metric.pp_line m)) metrics;
  List.iter
    (fun (m : Metric.t) ->
      if not (Float.is_finite m.Metric.value) then fail (m.Metric.name ^ " is not finite"))
    metrics;
  let metrics =
    List.map (fun (m : Metric.t) -> if Float.is_finite m.Metric.value then m else { m with Metric.value = 0.0 }) metrics
  in
  List.iter (fun m -> print_endline ("CHECK FAILED: " ^ m)) !failures;
  let correct = !failures = [] in
  let attempted = List.fold_left (fun acc r -> acc + r.Pass.submissions) 0 all in
  print_endline
    (Metric.result_line ~correct ~attempted ~failed:(if correct then 0 else attempted) metrics);
  exit (if correct then 0 else 1)
