(* Tests of the benchmark itself, on a tiny scenario (4 switches, 10
   tasks, 60 epochs).  Run with [dune build @perfbench/selftest]. *)

open Perfbench
module Scenario = Dream_workload.Scenario
module Experiment = Dream_sim.Experiment
module Json = Dream_obs.Json
module Metrics = Dream_core.Metrics

let failures = ref 0

let check name ok =
  Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") name;
  if not ok then incr failures

let tiny =
  { Scenario.default with
    Scenario.num_switches = 4; switches_per_task = 4; num_tasks = 10; arrival_window = 30;
    mean_duration = 80; total_epochs = 60; capacity = 256 }

let spec ?(seed = Workload.default_seed) w =
  { Pass.workload = w; scenario = Workload.scenario ~base:tiny w; seed; fault_seed = 97;
    out_dir = "selftest-out" }

let reference_digest ?(seed = Workload.default_seed) w =
  Outputs.digest (Reference.outputs ~base:tiny w ~seed ~fault_seed:97)

let experiment_digest w =
  let s = spec w in
  let r =
    Experiment.run
      ~config:(Workload.config w ~fault_seed:s.Pass.fault_seed ~telemetry:None)
      { s.Pass.scenario with Scenario.seed = Workload.default_seed } Workload.strategy
  in
  Outputs.digest
    { Outputs.summary = r.Experiment.summary; records = r.Experiment.records;
      rules_installed = r.Experiment.rules_installed; rules_fetched = r.Experiment.rules_fetched }

(* (name, unit) pairs of one metric list in BENCHMARK.json. *)
let declared key =
  let text = In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all in
  match Json.of_string text with
  | Error e -> failwith e
  | Ok doc -> (
    match Json.member key doc with
    | Some (Json.List ms) ->
      List.map
        (fun m ->
          match (Json.member "name" m, Json.member "unit" m) with
          | Some (Json.Str n), Some (Json.Str u) -> (n, u)
          | _ -> failwith "malformed metric")
        ms
    | _ -> failwith ("no " ^ key))

let names_and_units ms = List.map (fun (m : Metric.t) -> (m.Metric.name, m.Metric.unit_)) ms

let all_finite ms = List.for_all (fun (m : Metric.t) -> Float.is_finite m.Metric.value) ms

let test_workload w =
  let name = Workload.name w in
  let s = spec w in
  let untraced = Pass.run s (Pass.setup s ~traced:false) ~traced:false in
  let traced = Pass.run s (Pass.setup s ~traced:true) ~traced:true in
  let l = Option.get traced.Pass.layers in
  check (name ^ ": untraced checks pass") (untraced.Pass.failures = []);
  List.iter print_endline traced.Pass.failures;
  check (name ^ ": traced checks pass (invariants, snapshot bytes, shadow accuracy)")
    (traced.Pass.failures = [] && l.Pass.shadow_checked > 0);
  check (name ^ ": traced and untraced digests agree") (untraced.Pass.digest = traced.Pass.digest);
  check (name ^ ": Reference.run is Experiment.run at the default seed")
    (reference_digest w = experiment_digest w);
  check (name ^ ": reproduces Experiment.run bit for bit") (untraced.Pass.digest = experiment_digest w);
  let reseeded = Pass.run (spec ~seed:3 w) (Pass.setup (spec ~seed:3 w) ~traced:false) ~traced:false in
  check (name ^ ": another seed matches Reference.run and redraws the traffic")
    (reseeded.Pass.failures = [] && reseeded.Pass.digest = reference_digest ~seed:3 w
    && reseeded.Pass.digest <> untraced.Pass.digest);
  let e2e = Report.end_to_end ~setup_s:0.01 ~top_heap_words:1 [ untraced ] in
  let layer = Report.per_layer ~untraced traced l in
  check (name ^ ": end-to-end metrics are BENCHMARK.json's, with units")
    (names_and_units e2e = declared "end_to_end");
  check (name ^ ": per-layer metrics are BENCHMARK.json's, with units")
    (names_and_units layer = declared "per_layer");
  check (name ^ ": every metric is finite") (all_finite e2e && all_finite layer);
  let line = Metric.result_line ~correct:true ~attempted:1 ~failed:0 e2e in
  check (name ^ ": result line is JSON naming every metric with its unit")
    (match Json.of_string line with
    | Ok doc -> (
      match Json.member "metrics" doc with
      | Some (Json.Obj fields) ->
        List.map fst fields = List.map fst (names_and_units e2e)
        && List.for_all
             (fun (_, v) -> match Json.member "unit" v with Some (Json.Str u) -> u <> "" | _ -> false)
             fields
      | _ -> false)
    | Error _ -> false);
  (* Profile phases are measured inside the tick with the same CPU clock,
     so the tick minus them is never negative beyond clock resolution; the
     full self time (shadow estimates subtracted too) stays positive. *)
  check (name ^ ": nested self-time residual is not negative")
    (l.Pass.nested_residual_min >= -0.001);
  check (name ^ ": tick self time is positive") (l.Pass.tick_self_ms > 0.0);
  untraced

(* The workload seed redraws traffic only: the task population is the
   default seed's. *)
let test_seeding () =
  let population seed =
    List.map
      (fun (s : Dream_workload.Arrival.submission) ->
        (s.Dream_workload.Arrival.arrival, s.Dream_workload.Arrival.duration,
         Dream_prefix.Prefix.to_string s.Dream_workload.Arrival.spec.Dream_tasks.Task_spec.filter))
      (Workload.schedule tiny ~seed)
  in
  check "every seed submits the default seed's task population" (population 3 = population 7)

let test_tail_rule () =
  check "tail rule picks p98 at 560 ticks" (Tail.rank 560 = Some 98.0);
  check "tail rule has no percentile below 20 samples" (Tail.rank 19 = None);
  let ok = ref true in
  for n = 20 to 3000 do
    let xs = List.init n float_of_int in
    match Tail.rank n with
    | None -> ok := false
    | Some p ->
      let v = Dream_util.Stats.percentile p xs in
      let beyond = List.length (List.filter (fun x -> x > v) xs) in
      let higher = List.filter (fun q -> q > p) Tail.ladder in
      let next_ok =
        match List.rev higher with
        | [] -> true
        | q :: _ ->
          let vq = Dream_util.Stats.percentile q xs in
          List.length (List.filter (fun x -> x > vq) xs) < 10
      in
      if beyond < 10 || not next_ok then ok := false
  done;
  check "tail rule: >= 10 samples beyond, and the next percentile up has fewer (n = 20..3000)" !ok

let test_digest (r : Pass.result) =
  let o = r.Pass.outputs in
  let bumped =
    match o.Outputs.records with
    | x :: rest ->
      { o with
        Outputs.records = { x with Metrics.mean_accuracy = Float.succ x.Metrics.mean_accuracy } :: rest }
    | [] -> o
  in
  check "a one-ulp change in one record changes the digest" (Outputs.digest bumped <> r.Pass.digest);
  let headline = Outputs.headline o in
  let entry digest headline =
    [ { Goldens.workload = "paper_mixed"; seed = 7; fault_seed = 97; digest; headline } ]
  in
  let verify table digest =
    Goldens.verify ~table ~workload:"paper_mixed" ~seed:7 ~fault_seed:97 ~digest ~headline ()
  in
  check "reference check accepts the recorded digest" (verify (entry r.Pass.digest headline) r.Pass.digest = `Match);
  check "reference check catches a digest mismatch"
    (match verify (entry r.Pass.digest headline) (Outputs.digest bumped) with `Mismatch _ -> true | _ -> false);
  check "reference check catches a headline mismatch"
    (match verify (entry r.Pass.digest "75.4/50.0/28.4/1.1") r.Pass.digest with `Mismatch _ -> true | _ -> false);
  check "reference check reports unrecorded seeds" (verify [] r.Pass.digest = `Unrecorded)

let () =
  let results = List.map test_workload Workload.all in
  test_seeding ();
  test_tail_rule ();
  test_digest (List.hd results);
  if !failures > 0 then begin
    Printf.printf "%d check(s) failed\n" !failures;
    exit 1
  end;
  print_endline "all benchmark self-tests passed"
