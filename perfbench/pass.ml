(* One pass: a whole scenario driven through the controller's public API,
   epoch by epoch, exactly as [Experiment.run] (and so [dream-sim run])
   drives it.  A traced pass additionally attaches a profiling telemetry
   bundle and times calls into every layer from outside the controller:
   shadow replays of traffic synthesis, counter reads and ground-truth
   scoring, switch statistics, GC deltas, the invariant checker and a
   checkpoint/restore probe.  All of that is tracing cost and stays in the
   traced loop time; only the snapshot byte check is left out of loop
   times. *)

module Controller = Dream_core.Controller
module Metrics = Dream_core.Metrics
module Arrival = Dream_workload.Arrival
module Scenario = Dream_workload.Scenario
module Journal = Dream_recovery.Journal
module Telemetry = Dream_obs.Telemetry
module Profile = Dream_obs.Profile
module Gc_stats = Dream_obs.Gc_stats
module Generator = Dream_traffic.Generator
module Epoch_data = Dream_traffic.Epoch_data
module Aggregate = Dream_traffic.Aggregate
module Switch_id = Dream_traffic.Switch_id
module Switch = Dream_switch.Switch
module Tcam = Dream_switch.Tcam
module Ground_truth = Dream_tasks.Ground_truth
module Invariant = Dream_recovery.Invariant

type spec = {
  workload : Workload.t;
  scenario : Scenario.t;
  seed : int;
  fault_seed : int;
  out_dir : string;  (** telemetry bundles and span files go below this *)
}

type setup = {
  controller : Controller.t;
  schedule : Arrival.submission list;
  journal : Journal.sink option;
  telemetry : Telemetry.t option;
}

(* What setup_s measures: the schedule ([Arrival.schedule], with the
   traffic re-seeded) + Controller.create + journal attach.  The telemetry
   bundle is part of the controller's config. *)
let setup spec ~traced =
  let w = spec.workload in
  let telemetry =
    if traced then Some (Telemetry.create ~profile:(Profile.create ()) ())
    else if Workload.write_paths w then Some (Telemetry.create ())
    else None
  in
  let config = Workload.config w ~fault_seed:spec.fault_seed ~telemetry in
  let schedule = Workload.schedule spec.scenario ~seed:spec.seed in
  let controller =
    Controller.create ~config ~strategy:Workload.strategy
      ~num_switches:spec.scenario.Scenario.num_switches ~capacity:spec.scenario.Scenario.capacity
  in
  let journal =
    if Workload.write_paths w then begin
      let sink = Journal.memory () in
      Controller.set_journal controller (Some sink);
      Some sink
    end
    else None
  in
  { controller; schedule; journal; telemetry }

(* The shadow of one admitted task: an independent copy of its traffic
   generator (a second [Workload.schedule] of the same workload and seed
   replays the same trace) and its own ground-truth scorer. *)
type shadow = {
  generator : Generator.t;
  truth : Ground_truth.t;
  mutable data : Epoch_data.t option;
  mutable accuracy_sum : float;
  mutable scored : int;
}

type phase = { cpu_ms : float; words : float }

(* Per-layer totals of a traced pass. *)
type layers = {
  spans : Spans.t;
  mutable synth_ms : float;  (** CPU, Generator.next on the shadows *)
  mutable synth_calls : int;
  mutable flows : int;  (** per-switch distinct addresses generated *)
  mutable read_ms : float;  (** CPU, Aggregate.read_prefixes over installed rules *)
  mutable read_calls : int;
  mutable truth_ms : float;  (** CPU, Ground_truth.evaluate + Controller.last_report *)
  mutable truth_calls : int;
  mutable tick_cpu_ms : float;
  mutable tick_self_ms : float;  (** tick minus every child *)
  mutable nested_residual_min : float;
      (** least, over ticks, of tick CPU minus the Profile phases inside it *)
  mutable submit_ms : float;  (** wall *)
  mutable submits : int;
  mutable admitted : int;
  mutable fetched : int;
  mutable installed : int;
  mutable removed : int;
  mutable occupancy_pct_sum : float;
  mutable promoted_words : float;
  mutable minor_gcs : int;
  mutable major_gcs : int;
  mutable invariant_ms : float;
  mutable missing_rules : int;  (** rules-match shortfalls left by install failures *)
  mutable checkpoint_ms : float list;
  mutable restore_ms : float list;
  mutable checkpoint_bytes : int list;
  mutable journal_entries : int;
  mutable export_ms : float;
  mutable configure : phase;
  mutable estimate : phase;
  mutable allocate : phase;
  mutable trace_items : int;
  mutable allocation_changes : int;
  mutable allocation_rounds : int;
  mutable shadow_checked : int;  (** tasks active at finalize whose accuracy was compared *)
}

let new_layers () =
  let zero = { cpu_ms = 0.0; words = 0.0 } in
  {
    spans = Spans.create (); synth_ms = 0.0; synth_calls = 0; flows = 0; read_ms = 0.0;
    read_calls = 0; truth_ms = 0.0; truth_calls = 0; tick_cpu_ms = 0.0; tick_self_ms = 0.0;
    nested_residual_min = infinity; submit_ms = 0.0; submits = 0; admitted = 0; fetched = 0;
    installed = 0; removed = 0; occupancy_pct_sum = 0.0; promoted_words = 0.0; minor_gcs = 0;
    major_gcs = 0; invariant_ms = 0.0; missing_rules = 0; checkpoint_ms = []; restore_ms = []; checkpoint_bytes = [];
    journal_entries = 0; export_ms = 0.0; configure = zero; estimate = zero;
    allocate = zero; trace_items = 0; allocation_changes = 0; allocation_rounds = 0;
    shadow_checked = 0;
  }

type result = {
  outputs : Outputs.t;
  digest : string;
  epochs : int;
  submissions : int;
  task_epochs : int;  (** active tasks summed over ticks *)
  loop_ms : float;  (** wall time of the epoch loop, the snapshot byte check excluded *)
  tick_ms : float array;  (** wall time of each Controller.tick *)
  words : float;  (** words allocated in the loop *)
  rule_updates : int;  (** switch-side installs + removals *)
  robustness : Metrics.robustness;
  delays : Controller.delay_sample list;
  failures : string list;
  layers : layers option;
}

let profile_phase p path =
  match Profile.find p path with
  | None -> { cpu_ms = 0.0; words = 0.0 }
  | Some s ->
    let g = s.Profile.gc in
    { cpu_ms = s.Profile.wall_ms; words = g.Gc_stats.minor_words +. g.major_words -. g.promoted_words }

(* The missing-rule count of a rules-match violation with no stray rule. *)
let shortfall (v : Invariant.violation) =
  if v.Invariant.code <> "rules-match" then None
  else
    try
      Scanf.sscanf v.Invariant.detail "task %_d on switch %_d: %_d rules installed, %_d configured (%d stray, %d missing)"
        (fun stray missing -> if stray = 0 then Some missing else None)
    with Scanf.Scan_failure _ | Failure _ | End_of_file -> None

let phase_paths = [ "epoch/configure"; "epoch/estimate"; "epoch/allocate" ]

let mkdir_p dir =
  let rec go d =
    if not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Sys.mkdir d 0o755 with Sys_error _ -> ()
    end
  in
  go dir

let run spec st ~traced =
  let c = st.controller in
  let w = spec.workload in
  let epochs = spec.scenario.Scenario.total_epochs in
  let switches = Controller.switches c in
  let layers = if traced then Some (new_layers ()) else None in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  (* Wall ms of the snapshot byte check, which is not part of the loop. *)
  let excluded = ref 0.0 in
  let pending = ref st.schedule in
  let shadow_pending = ref (if traced then Workload.schedule spec.scenario ~seed:spec.seed else []) in
  let shadows : (int, shadow) Hashtbl.t = Hashtbl.create 128 in
  let submissions = ref 0 and task_epochs = ref 0 and rule_updates = ref 0 in
  let tick_ms = Array.make epochs 0.0 in
  let profile =
    match st.telemetry with Some tel -> Telemetry.profile tel | None -> None
  in
  let prev_phase = Hashtbl.create 4 in
  (* The recovery probe: checkpoint, warm-standby restore, and the
     snapshot -> restore -> snapshot byte check.  Part of the workload in
     degraded_ops; benchmark-only elsewhere. *)
  let probe_every =
    if Workload.write_paths w || traced then Some Workload.checkpoint_every else None
  in
  let probe epoch =
    let journal_len = match st.journal with Some j -> Journal.length j | None -> 0 in
    let cp, cp_ms, _ = Clocks.time (fun () -> Controller.checkpoint c) in
    let standby, restore_ms, _ = Clocks.time (fun () -> Controller.restore cp) in
    let (), check_ms, _ =
      Clocks.time (fun () ->
          match standby with
          | Error e -> fail "epoch %d: restore failed: %s" epoch e
          | Ok s ->
            if Controller.snapshot s <> cp then
              fail "epoch %d: snapshot -> restore -> snapshot differs" epoch)
    in
    excluded := !excluded +. check_ms;
    match layers with
    | None -> ()
    | Some l ->
      l.checkpoint_ms <- cp_ms :: l.checkpoint_ms;
      l.restore_ms <- restore_ms :: l.restore_ms;
      l.checkpoint_bytes <- String.length cp :: l.checkpoint_bytes;
      l.journal_entries <- l.journal_entries + journal_len
  in
  let submit (s : Arrival.submission) =
    let call () =
      Controller.submit c ~spec:s.Arrival.spec ~topology:s.Arrival.topology
        ~source:(Dream_traffic.Source.of_generator s.Arrival.generator)
        ~duration:s.Arrival.duration
    in
    match layers with
    | None -> ignore (call ())
    | Some l ->
      let sh =
        match !shadow_pending with
        | x :: rest ->
          shadow_pending := rest;
          x
        | [] -> invalid_arg "shadow schedule shorter than the schedule"
      in
      let outcome, wall, _ = Clocks.time call in
      l.submit_ms <- l.submit_ms +. wall;
      l.submits <- l.submits + 1;
      (match outcome with
      | `Admitted id ->
        l.admitted <- l.admitted + 1;
        Hashtbl.replace shadows id
          { generator = sh.Arrival.generator; truth = Ground_truth.create sh.Arrival.spec;
            data = None; accuracy_sum = 0.0; scored = 0 }
      | `Rejected -> ())
  in
  let before_tick l epoch ids =
    let n = List.length ids in
    let (), _, synth_cpu =
      Spans.timed l.spans ~name:"traffic.synth" ~parent:"epoch" ~epoch ~items:n (fun () ->
          List.iter
            (fun id ->
              match Hashtbl.find_opt shadows id with
              | Some sh -> sh.data <- Some (Generator.next sh.generator)
              | None -> fail "epoch %d: active task %d has no shadow" epoch id)
            ids)
    in
    let (), _, read_cpu =
      Spans.timed l.spans ~name:"traffic.read" ~parent:"epoch" ~epoch ~items:n (fun () ->
          List.iter
            (fun id ->
              match Hashtbl.find_opt shadows id with
              | Some { data = Some data; _ } ->
                Array.iter
                  (fun sw ->
                    match Tcam.rules_of (Switch.tcam sw) ~owner:id with
                    | [] -> ()
                    | rules ->
                      ignore (Aggregate.read_prefixes (Epoch_data.switch_view data (Switch.id sw)) rules))
                  switches
              | _ -> ())
            ids)
    in
    List.iter
      (fun id ->
        match Hashtbl.find_opt shadows id with
        | Some { data = Some d; _ } ->
          l.flows <-
            Switch_id.Map.fold (fun _ a acc -> acc + Aggregate.num_addresses a) d.Epoch_data.per_switch l.flows
        | _ -> ())
      ids;
    l.synth_ms <- l.synth_ms +. synth_cpu;
    l.synth_calls <- l.synth_calls + n;
    l.read_ms <- l.read_ms +. read_cpu;
    l.read_calls <- l.read_calls + n;
    synth_cpu +. read_cpu
  in
  let install_failures_seen = ref 0 in
  let after_tick l epoch ids ~tick_cpu ~shadow_cpu ~(gc0 : Gc.stat) ~(gc1 : Gc.stat) =
    let children =
      match profile with
      | None -> 0.0
      | Some p ->
        List.fold_left
          (fun acc path ->
            let now = profile_phase p path in
            let before = Option.value (Hashtbl.find_opt prev_phase path) ~default:0.0 in
            Hashtbl.replace prev_phase path now.cpu_ms;
            let d = now.cpu_ms -. before in
            Spans.phase l.spans ~name:path ~epoch ~cpu_ms:d;
            acc +. d)
          0.0 phase_paths
    in
    l.nested_residual_min <- Float.min l.nested_residual_min (tick_cpu -. children);
    let (), _, truth_cpu =
      Spans.timed l.spans ~name:"tasks.truth" ~parent:"epoch" ~epoch ~items:(List.length ids)
        (fun () ->
          List.iter
            (fun id ->
              match (Controller.last_report c ~task_id:id, Hashtbl.find_opt shadows id) with
              | Some report, Some ({ data = Some data; _ } as sh) ->
                let t = Ground_truth.evaluate sh.truth data report in
                sh.accuracy_sum <- sh.accuracy_sum +. t.Ground_truth.real_accuracy;
                sh.scored <- sh.scored + 1;
                l.truth_calls <- l.truth_calls + 1
              | None, _ -> Hashtbl.remove shadows id
              | Some _, _ -> ())
            ids)
    in
    l.truth_ms <- l.truth_ms +. truth_cpu;
    l.tick_cpu_ms <- l.tick_cpu_ms +. tick_cpu;
    l.tick_self_ms <- l.tick_self_ms +. (tick_cpu -. children -. shadow_cpu -. truth_cpu);
    Array.iter
      (fun sw ->
        let tc = Switch.tcam sw in
        let s = Tcam.stats tc in
        l.fetched <- l.fetched + s.Tcam.fetches;
        l.installed <- l.installed + s.Tcam.installs;
        l.removed <- l.removed + s.Tcam.removals;
        l.occupancy_pct_sum <-
          l.occupancy_pct_sum
          +. (100.0 *. float_of_int (Tcam.used tc) /. float_of_int (Tcam.capacity tc)
             /. float_of_int (Array.length switches)))
      switches;
    l.promoted_words <- l.promoted_words +. (gc1.Gc.promoted_words -. gc0.Gc.promoted_words);
    l.minor_gcs <- l.minor_gcs + (gc1.Gc.minor_collections - gc0.Gc.minor_collections);
    l.major_gcs <- l.major_gcs + (gc1.Gc.major_collections - gc0.Gc.major_collections);
    let violations, wall, _ =
      Spans.timed l.spans ~name:"recovery.invariants" ~parent:"epoch" ~epoch ~items:1 (fun () ->
          Controller.check_invariants_now c)
    in
    l.invariant_ms <- l.invariant_ms +. wall;
    (* Injected install failures leave rules missing until the next
       tick retries them, and the checker's reachability scope does not
       cover that, so it reports them as rules-match violations.  Those
       are accepted only as shortfalls with no stray rule that this
       tick's install failures account for; anything else fails. *)
    let failures_now = (Controller.robustness c).Metrics.install_failures in
    let failed_installs = failures_now - !install_failures_seen in
    install_failures_seen := failures_now;
    let unexplained, missing =
      List.fold_left
        (fun (bad, missing) (v : Invariant.violation) ->
          match shortfall v with Some m -> (bad, missing + m) | None -> (v :: bad, missing))
        ([], 0) violations
    in
    l.missing_rules <- l.missing_rules + missing;
    (match List.rev unexplained with
    | v :: _ -> fail "epoch %d: invariant violated: %s" epoch (Invariant.to_string v)
    | [] -> ());
    if missing > failed_installs then
      fail "epoch %d: %d rules missing but only %d install failures" epoch missing failed_installs
  in
  Gc.compact ();
  let gc_start = Gc.quick_stat () in
  let t0 = Clocks.wall_ms () in
  for epoch = 0 to epochs - 1 do
    let rec submit_due () =
      match !pending with
      | s :: rest when s.Arrival.arrival <= epoch ->
        pending := rest;
        incr submissions;
        submit s;
        submit_due ()
      | _ -> ()
    in
    submit_due ();
    task_epochs := !task_epochs + Controller.active_tasks c;
    let ids, shadow_cpu =
      match layers with
      | None -> ([], 0.0)
      | Some l ->
        let ids = Controller.active_task_ids c in
        (ids, before_tick l epoch ids)
    in
    let gc0 = if traced then Gc.quick_stat () else gc_start in
    let s0 = Clocks.stamp () in
    Controller.tick c;
    let s1 = Clocks.stamp () in
    let gc1 = if traced then Gc.quick_stat () else gc_start in
    tick_ms.(epoch) <- s1.Clocks.wall -. s0.Clocks.wall;
    Array.iter
      (fun sw ->
        let s = Tcam.stats (Switch.tcam sw) in
        rule_updates := !rule_updates + s.Tcam.installs + s.Tcam.removals)
      switches;
    (match layers with
    | None -> ()
    | Some l ->
      Spans.add l.spans
        { Spans.name = "core.tick"; start_ms = Some (s0.wall -. l.spans.Spans.origin);
          end_ms = Some (s1.wall -. l.spans.Spans.origin); cpu_ms = s1.cpu -. s0.cpu;
          parent = "epoch"; epoch; items = List.length ids };
      after_tick l epoch ids ~tick_cpu:(s1.cpu -. s0.cpu) ~shadow_cpu ~gc0 ~gc1);
    match probe_every with
    | Some k when (epoch + 1) mod k = 0 -> probe epoch
    | _ -> ()
  done;
  (* Tasks still active at finalize: their shadow accuracy must equal the
     record's mean_accuracy. *)
  let still_active =
    match layers with
    | None -> []
    | Some _ ->
      List.filter_map
        (fun id -> Option.map (fun sh -> (id, sh)) (Hashtbl.find_opt shadows id))
        (Controller.active_task_ids c)
  in
  let journal_tail = match st.journal with Some j -> Journal.length j | None -> 0 in
  Controller.finalize c;
  let export () =
    match st.telemetry with
    | None -> ()
    | Some tel ->
      let dir = Filename.concat spec.out_dir (Workload.name w ^ if traced then "-traced" else "") in
      mkdir_p dir;
      (match Telemetry.write_dir tel ~dir with
      | Ok () -> ()
      | Error e -> fail "telemetry export failed: %s" e)
  in
  let (), export_ms, _ = Clocks.time export in
  let loop_ms = Clocks.wall_ms () -. t0 -. !excluded in
  let gc_end = Gc.quick_stat () in
  let outputs = Outputs.of_controller c in
  List.iter (fail "%s") (Outputs.sanity outputs);
  (match layers with
  | None -> ()
  | Some l ->
    let by_id = Hashtbl.create 64 in
    List.iter (fun (r : Metrics.record) -> Hashtbl.replace by_id r.Metrics.task_id r) outputs.Outputs.records;
    List.iter
      (fun (id, sh) ->
        match Hashtbl.find_opt by_id id with
        | None -> fail "task %d active at finalize has no record" id
        | Some r ->
          let mean = if sh.scored = 0 then 0.0 else sh.accuracy_sum /. float_of_int sh.scored in
          l.shadow_checked <- l.shadow_checked + 1;
          if sh.scored <> r.Metrics.active_epochs || Int64.bits_of_float mean <> Int64.bits_of_float r.Metrics.mean_accuracy
          then
            fail "task %d: shadow ground truth %.17g over %d epochs, record %.17g over %d" id mean
              sh.scored r.Metrics.mean_accuracy r.Metrics.active_epochs)
      still_active;
    l.journal_entries <- l.journal_entries + journal_tail;
    l.export_ms <- export_ms;
    (match profile with
    | Some p ->
      l.configure <- profile_phase p "epoch/configure";
      l.estimate <- profile_phase p "epoch/estimate";
      l.allocate <- profile_phase p "epoch/allocate"
    | None -> ());
    (match st.telemetry with
    | Some tel ->
      l.trace_items <- Dream_obs.Trace.length (Telemetry.trace tel);
      l.allocation_changes <-
        Dream_obs.Registry.Counter.value
          (Dream_obs.Registry.counter (Telemetry.registry tel) "allocation_changes")
    | None -> ());
    let interval = Dream_core.Config.default.Dream_core.Config.allocation_interval in
    l.allocation_rounds <- (epochs + interval - 1) / interval);
  {
    outputs;
    digest = Outputs.digest outputs;
    epochs;
    submissions = !submissions;
    task_epochs = !task_epochs;
    loop_ms;
    tick_ms;
    words = Clocks.allocated_words gc_end -. Clocks.allocated_words gc_start;
    rule_updates = !rule_updates;
    robustness = Controller.robustness c;
    delays = Controller.delay_samples c;
    failures = List.rev !failures;
    layers;
  }
