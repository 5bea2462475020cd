(* Metrics from passes.  End-to-end metrics come from untraced passes
   (timings are medians over passes); per-layer metrics from one traced
   pass.  Names and units match BENCHMARK.json. *)

module Metrics = Dream_core.Metrics
module Controller = Dream_core.Controller

let mb_of_words w = float_of_int w *. float_of_int (Sys.word_size / 8) /. 1048576.0

let per_pass f passes = Dream_util.Stats.median (List.map f passes)

let epochs_per_s (r : Pass.result) = float_of_int r.Pass.epochs /. (r.Pass.loop_ms /. 1000.0)

let tick_list (r : Pass.result) = Array.to_list r.Pass.tick_ms

let tick_p50 passes = per_pass (fun r -> Dream_util.Stats.median (tick_list r)) passes

(* The tail percentile every pass of [epochs] ticks is summarised by. *)
let tail_rank epochs = Option.value (Tail.rank epochs) ~default:50.0

let completed_pct (s : Metrics.summary) =
  100.0 *. float_of_int s.Metrics.completed /. float_of_int (max 1 s.Metrics.submitted)

(* The end-to-end metrics, in BENCHMARK.json order. *)
let end_to_end ~setup_s ~top_heap_words (passes : Pass.result list) =
  let first = List.hd passes in
  let s = first.Pass.outputs.Outputs.summary in
  let epochs = float_of_int first.Pass.epochs in
  let rank = tail_rank first.Pass.epochs in
  [
    Metric.v "epochs_per_s" "1/s" (per_pass epochs_per_s passes);
    Metric.v "tick_ms_tail" "ms" (per_pass (fun r -> Dream_util.Stats.percentile rank (tick_list r)) passes);
    Metric.v "alloc_words_per_epoch" "words" (per_pass (fun r -> r.Pass.words /. epochs) passes);
    Metric.v "peak_heap_mb" "MB" (mb_of_words top_heap_words);
    Metric.v "setup_s" "s" setup_s;
    Metric.v "mean_satisfaction_pct" "%" s.Metrics.mean_satisfaction;
    Metric.v "completed_pct" "%" (completed_pct s);
    Metric.v "rule_updates_per_epoch" "count" (float_of_int first.Pass.rule_updates /. epochs);
  ]

(* Printed beside the end-to-end metrics: the input size, the tail rule's
   percentile and sample count, and the figures whose spread across runs
   is too wide to bound (the median tick, p5 satisfaction) or that can be
   0. *)
let context (passes : Pass.result list) =
  let first = List.hd passes in
  let s = first.Pass.outputs.Outputs.summary in
  let rank = tail_rank first.Pass.epochs in
  [
    Printf.sprintf "input: %d epochs, %d submissions, %d task-epochs per pass; %d pass(es)"
      first.Pass.epochs first.Pass.submissions first.Pass.task_epochs (List.length passes);
    Printf.sprintf "tick_ms_tail is p%g of n=%d ticks per pass (%d beyond), median over passes"
      rank first.Pass.epochs (Tail.beyond ~n:first.Pass.epochs rank);
    Metric.pp_line (Metric.v "tick_ms_p50" "ms" (tick_p50 passes));
    Metric.pp_line (Metric.v "p5_satisfaction_pct" "%" s.Metrics.p5_satisfaction);
    Metric.pp_line (Metric.v "rejection_pct" "%" s.Metrics.rejection_pct);
    Metric.pp_line (Metric.v "drop_pct" "%" s.Metrics.drop_pct);
  ]

let per_layer ~(untraced : Pass.result) (traced : Pass.result) (l : Pass.layers) =
  let epochs = float_of_int traced.Pass.epochs in
  let per_epoch x = x /. epochs in
  let per_call x n = if n = 0 then 0.0 else x /. float_of_int n in
  let delays f = Dream_util.Stats.median (List.map f traced.Pass.delays) in
  let rob = traced.Pass.robustness in
  let summary = traced.Pass.outputs.Outputs.summary in
  let p50 = function [] -> 0.0 | xs -> Dream_util.Stats.median xs in
  let traced_eps = epochs_per_s traced and untraced_eps = epochs_per_s untraced in
  [
    Metric.v "core.tick_ms_per_epoch" "ms" (per_epoch l.Pass.tick_cpu_ms);
    Metric.v "core.tick_ms_p50" "ms" (tick_p50 [ untraced ]);
    Metric.v "tasks.configure_ms_per_epoch" "ms" (per_epoch l.Pass.configure.Pass.cpu_ms);
    Metric.v "tasks.configure_words_per_epoch" "words" (per_epoch l.Pass.configure.Pass.words);
    Metric.v "core.tick_self_ms_per_epoch" "ms" (per_epoch l.Pass.tick_self_ms);
    Metric.v "tasks.estimate_ms_per_epoch" "ms" (per_epoch l.Pass.estimate.Pass.cpu_ms);
    Metric.v "tasks.estimate_words_per_epoch" "words" (per_epoch l.Pass.estimate.Pass.words);
    Metric.v "traffic.synth_us_per_task_epoch" "us" (1000.0 *. per_call l.Pass.synth_ms l.Pass.synth_calls);
    Metric.v "traffic.flows_per_task_epoch" "count" (per_call (float_of_int l.Pass.flows) l.Pass.synth_calls);
    Metric.v "tasks.truth_us_per_task_epoch" "us" (1000.0 *. per_call l.Pass.truth_ms l.Pass.truth_calls);
    Metric.v "traffic.read_us_per_task_epoch" "us" (1000.0 *. per_call l.Pass.read_ms l.Pass.read_calls);
    Metric.v "alloc.reallocate_ms_per_epoch" "ms" (per_epoch l.Pass.allocate.Pass.cpu_ms);
    Metric.v "alloc.reallocate_words_per_epoch" "words" (per_epoch l.Pass.allocate.Pass.words);
    Metric.v "alloc.submit_us" "us" (1000.0 *. per_call l.Pass.submit_ms l.Pass.submits);
    Metric.v "alloc.admitted" "count" (float_of_int l.Pass.admitted);
    Metric.v "alloc.changes_per_round" "count"
      (per_call (float_of_int l.Pass.allocation_changes) l.Pass.allocation_rounds);
    Metric.v "alloc.rejection_pct" "%" summary.Metrics.rejection_pct;
    Metric.v "core.drop_pct" "%" summary.Metrics.drop_pct;
    Metric.v "outcome.p5_satisfaction_pct" "%" summary.Metrics.p5_satisfaction;
    Metric.v "switch.counters_fetched_per_epoch" "count" (per_epoch (float_of_int l.Pass.fetched));
    Metric.v "switch.rules_installed_per_epoch" "count" (per_epoch (float_of_int l.Pass.installed));
    Metric.v "switch.rules_removed_per_epoch" "count" (per_epoch (float_of_int l.Pass.removed));
    Metric.v "switch.occupancy_pct" "%" (per_epoch l.Pass.occupancy_pct_sum);
    Metric.v "switch.modelled_fetch_ms_p50" "ms" (delays (fun d -> d.Controller.fetch_ms));
    Metric.v "switch.modelled_save_ms_p50" "ms" (delays (fun d -> d.Controller.save_ms));
    Metric.v "core.promoted_words_per_epoch" "words" (per_epoch l.Pass.promoted_words);
    Metric.v "core.gc_minor_collections_per_epoch" "count" (per_epoch (float_of_int l.Pass.minor_gcs));
    Metric.v "core.gc_major_collections" "count" (float_of_int l.Pass.major_gcs);
    Metric.v "recovery.checkpoint_ms_p50" "ms" (p50 l.Pass.checkpoint_ms);
    Metric.v "recovery.restore_ms_p50" "ms" (p50 l.Pass.restore_ms);
    Metric.v "recovery.checkpoint_kb" "kB"
      (p50 (List.map (fun b -> float_of_int b /. 1024.0) l.Pass.checkpoint_bytes));
    Metric.v "recovery.journal_entries_per_epoch" "count" (per_epoch (float_of_int l.Pass.journal_entries));
    Metric.v "recovery.invariant_ms_per_epoch" "ms" (per_epoch l.Pass.invariant_ms);
    Metric.v "fault.fetch_retries_per_epoch" "count" (per_epoch (float_of_int rob.Metrics.fetch_retries));
    Metric.v "fault.stale_epochs_per_epoch" "count" (per_epoch (float_of_int rob.Metrics.stale_epochs));
    Metric.v "fault.sheds" "count" (float_of_int rob.Metrics.sheds);
    Metric.v "fault.recovery_reinstalls" "count" (float_of_int rob.Metrics.recovery_reinstalls);
    Metric.v "fault.install_failures" "count" (float_of_int rob.Metrics.install_failures);
    Metric.v "fault.missing_rules_per_epoch" "count" (per_epoch (float_of_int l.Pass.missing_rules));
    Metric.v "obs.trace_items_per_epoch" "count" (per_epoch (float_of_int l.Pass.trace_items));
    Metric.v "obs.export_ms" "ms" l.Pass.export_ms;
    Metric.v "trace_overhead_pct" "%" (100.0 *. (untraced_eps -. traced_eps) /. untraced_eps);
  ]

(* Shares of tick CPU time, the base of the layer -> end-to-end table. *)
let shares (l : Pass.layers) =
  let base = l.Pass.tick_cpu_ms in
  let pct x = 100.0 *. x /. base in
  Printf.sprintf
    "shares of tick CPU %.0f ms: configure %.1f%%, self %.1f%%, estimate %.1f%%, synth %.1f%%, truth %.1f%%, read %.1f%%, allocate %.2f%%; least nested residual %.4f ms"
    base (pct l.Pass.configure.Pass.cpu_ms) (pct l.Pass.tick_self_ms) (pct l.Pass.estimate.Pass.cpu_ms)
    (pct l.Pass.synth_ms) (pct l.Pass.truth_ms) (pct l.Pass.read_ms) (pct l.Pass.allocate.Pass.cpu_ms)
    l.Pass.nested_residual_min
