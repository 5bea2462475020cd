(* A second epoch loop, written the way [Experiment.run] runs the
   controller, without any of the benchmark's timing or checks.  It produces
   the recorded outputs of goldens.ml and is the reference the self-tests
   compare passes against.  With [Arrival.schedule]'s own submissions it is
   [Experiment.run]. *)

module Controller = Dream_core.Controller
module Arrival = Dream_workload.Arrival
module Scenario = Dream_workload.Scenario

let run ~config (scenario : Scenario.t) (schedule : Arrival.submission list) =
  let c =
    Controller.create ~config ~strategy:Workload.strategy ~num_switches:scenario.Scenario.num_switches
      ~capacity:scenario.Scenario.capacity
  in
  let pending = ref schedule in
  for epoch = 0 to scenario.Scenario.total_epochs - 1 do
    let due, rest = List.partition (fun (s : Arrival.submission) -> s.Arrival.arrival <= epoch) !pending in
    pending := rest;
    List.iter
      (fun (s : Arrival.submission) ->
        ignore
          (Controller.submit c ~spec:s.Arrival.spec ~topology:s.Arrival.topology
             ~source:(Dream_traffic.Source.of_generator s.Arrival.generator)
             ~duration:s.Arrival.duration))
      due;
    Controller.tick c
  done;
  Controller.finalize c;
  Outputs.of_controller c

(* The outputs a workload must produce at a seed. *)
let outputs ?base w ~seed ~fault_seed =
  let scenario = Workload.scenario ?base w in
  run ~config:(Workload.config w ~fault_seed ~telemetry:None) scenario (Workload.schedule scenario ~seed)
