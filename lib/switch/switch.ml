type t = { id : Dream_traffic.Switch_id.t; tcam : Tcam.t }

let create ~id ~capacity = { id; tcam = Tcam.create ~capacity }

let id t = t.id

let tcam t = t.tcam

let capacity t = Tcam.capacity t.tcam

let network ~num_switches ~capacity =
  if num_switches <= 0 then
    invalid_arg (Printf.sprintf "Switch.network: num_switches must be positive, got %d" num_switches);
  if num_switches > Dream_traffic.Switch_id.max_switches then
    invalid_arg
      (Printf.sprintf "Switch.network: num_switches must be at most %d (Switch_id.max_switches), got %d"
         Dream_traffic.Switch_id.max_switches num_switches);
  if capacity <= 0 then
    invalid_arg (Printf.sprintf "Switch.network: capacity must be positive, got %d" capacity);
  Array.init num_switches (fun id -> create ~id ~capacity)
