(* What a pass produces, reduced to a digest that must repeat bit for bit:
   the summary (with its robustness counters), every task record and the
   switch rule totals.  Floats enter the digest by their bit patterns. *)

module Metrics = Dream_core.Metrics
module Controller = Dream_core.Controller

type t = {
  summary : Metrics.summary;
  records : Metrics.record list;
  rules_installed : int;
  rules_fetched : int;
}

let of_controller c =
  {
    summary = Controller.summary c;
    records = Controller.records c;
    rules_installed = Controller.total_rules_installed c;
    rules_fetched = Controller.total_rules_fetched c;
  }

let canonical o =
  let b = Buffer.create 8192 in
  let int i = Buffer.add_string b (string_of_int i); Buffer.add_char b ' ' in
  let float f = Buffer.add_string b (Int64.to_string (Int64.bits_of_float f)); Buffer.add_char b ' ' in
  let s = o.summary in
  List.iter int [ s.Metrics.submitted; s.admitted; s.rejected; s.dropped; s.completed ];
  List.iter float [ s.mean_satisfaction; s.p5_satisfaction; s.rejection_pct; s.drop_pct ];
  let r = s.robustness in
  List.iter int
    [ r.Metrics.crashes; r.recoveries; r.switch_down_epochs; r.fetch_timeouts; r.fetch_retries;
      r.fetch_failures; r.stale_epochs; r.counters_lost; r.install_failures; r.recovery_reinstalls;
      r.controller_crashes; r.reconcile_removed; r.reconcile_installed; r.invariant_violations;
      r.partitions; r.partition_epochs; r.breaker_opens; r.breaker_probes; r.breaker_skips;
      r.sheds ];
  Buffer.add_char b '\n';
  List.iter
    (fun (rc : Metrics.record) ->
      int rc.Metrics.task_id;
      Buffer.add_string b (Dream_tasks.Task_spec.kind_to_string rc.kind);
      Buffer.add_char b ' ';
      int (match rc.outcome with Metrics.Completed -> 0 | Dropped -> 1 | Rejected -> 2);
      List.iter int [ rc.arrived_at; rc.ended_at; rc.active_epochs ];
      List.iter float [ rc.satisfaction; rc.mean_accuracy ];
      Buffer.add_char b '\n')
    o.records;
  int o.rules_installed;
  int o.rules_fetched;
  Buffer.contents b

let digest o = Digest.to_hex (Digest.string (canonical o))

(* The headline line [dream-sim run] prints, to one decimal. *)
let headline o =
  let s = o.summary in
  Printf.sprintf "%.1f/%.1f/%.1f/%.1f installed=%d fetched=%d" s.Metrics.mean_satisfaction
    s.p5_satisfaction s.rejection_pct s.drop_pct o.rules_installed o.rules_fetched

(* Structural checks that hold for every seed. *)
let sanity o =
  let s = o.summary in
  let errs = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> errs := m :: !errs) fmt in
  if s.Metrics.submitted <> List.length o.records then
    fail "submitted %d but %d records" s.submitted (List.length o.records);
  if s.admitted + s.rejected <> s.submitted then
    fail "admitted %d + rejected %d <> submitted %d" s.admitted s.rejected s.submitted;
  if s.completed + s.dropped <> s.admitted then
    fail "completed %d + dropped %d <> admitted %d" s.completed s.dropped s.admitted;
  List.iter
    (fun (name, v) -> if not (Float.is_finite v && v >= 0.0 && v <= 100.0) then fail "%s = %g" name v)
    [ ("mean_satisfaction", s.mean_satisfaction); ("p5_satisfaction", s.p5_satisfaction);
      ("rejection_pct", s.rejection_pct); ("drop_pct", s.drop_pct) ];
  if o.rules_installed <= 0 || o.rules_fetched <= 0 then
    fail "no switch work: installed %d fetched %d" o.rules_installed o.rules_fetched;
  List.rev !errs
