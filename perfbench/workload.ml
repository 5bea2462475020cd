(* The three benchmark workloads.  Each runs the DREAM strategy on the
   8-switch paper scenario; the workload seed picks the traffic (see
   [schedule]), the fault seed the injected failures.  README.md records
   why each workload was chosen. *)

module Scenario = Dream_workload.Scenario
module Config = Dream_core.Config

type t = Paper_mixed | Wide_tcam | Degraded_ops

let all = [ Paper_mixed; Wide_tcam; Degraded_ops ]

let name = function
  | Paper_mixed -> "paper_mixed"
  | Wide_tcam -> "wide_tcam"
  | Degraded_ops -> "degraded_ops"

let of_string s = List.find_opt (fun w -> name w = s) all

(* [dream-sim run]'s defaults: scenario seed 7, fault seed 97. *)
let default_seed = 7

let default_fault_seed ~seed = seed + 90

(* The task population (arrivals, durations, kinds, filters, switch
   mappings and per-task traffic profiles) is always the one the default
   seed draws, as the paper replays one task set over one trace; the
   workload seed redraws the traffic.  At the default seed
   the schedule is exactly [Arrival.schedule]'s, so a pass reproduces
   [dream-sim run]. *)
let schedule (scenario : Scenario.t) ~seed =
  let subs = Dream_workload.Arrival.schedule { scenario with Scenario.seed = default_seed } in
  if seed = default_seed then subs
  else begin
    let rng = Dream_util.Rng.create seed in
    List.map
      (fun (s : Dream_workload.Arrival.submission) ->
        let g = s.Dream_workload.Arrival.generator in
        { s with
          Dream_workload.Arrival.generator =
            Dream_traffic.Generator.create (Dream_util.Rng.split rng)
              ~topology:(Dream_traffic.Generator.topology g) ~profile:(Dream_traffic.Generator.profile g) })
      subs
  end

let fault_rate = 0.05

(* Checkpoint cadence of the warm standby in degraded_ops (and of the
   recovery probe in traced runs of the other workloads). *)
let checkpoint_every = 20

let strategy = Dream_alloc.Allocator.Dream Dream_alloc.Dream_allocator.default_config

let scenario ?(base = Scenario.default) w =
  match w with
  | Wide_tcam -> { base with Scenario.capacity = 4 * base.Scenario.capacity }
  | Paper_mixed | Degraded_ops -> base

let config w ~fault_seed ~telemetry =
  let base = { Config.default with Config.telemetry } in
  match w with
  | Paper_mixed | Wide_tcam -> base
  | Degraded_ops ->
    {
      base with
      Config.faults = Some (Dream_fault.Fault_model.uniform ~seed:fault_seed fault_rate);
      degraded = Some Config.default_degraded;
    }

(* degraded_ops adds the write paths: a write-ahead journal, a checkpoint
   restored by a warm standby every [checkpoint_every] epochs, and a
   telemetry bundle exported at run end. *)
let write_paths = function Degraded_ops -> true | Paper_mixed | Wide_tcam -> false
