(* Prints the reference table of goldens.ml for the given workload seeds.
   Every workload runs once through Reference.run, with no journal,
   checkpoint or telemetry attached; at the default seed it must agree
   with [Experiment.run], the code behind [dream-sim run].

     dune exec perfbench/goldens_gen.exe -- 7 1013 0 1 2 *)

open Perfbench
module Experiment = Dream_sim.Experiment

let () =
  let seeds = List.tl (Array.to_list Sys.argv) |> List.map int_of_string in
  List.iter
    (fun seed ->
      List.iter
        (fun w ->
          let fault_seed = Workload.default_fault_seed ~seed in
          let o = Reference.outputs w ~seed ~fault_seed in
          if seed = Workload.default_seed then begin
            let r =
              Experiment.run
                ~config:(Workload.config w ~fault_seed ~telemetry:None)
                (Workload.scenario w) Workload.strategy
            in
            let e =
              { Outputs.summary = r.Experiment.summary; records = r.Experiment.records;
                rules_installed = r.Experiment.rules_installed; rules_fetched = r.Experiment.rules_fetched }
            in
            if Outputs.digest e <> Outputs.digest o then begin
              prerr_endline ("Reference.run disagrees with Experiment.run on " ^ Workload.name w);
              exit 1
            end
          end;
          Printf.printf "    { workload = %S; seed = %d; fault_seed = %d;\n      digest = %S;\n      headline = %S };\n%!"
            (Workload.name w) seed fault_seed (Outputs.digest o) (Outputs.headline o))
        Workload.all)
    seeds
