(* A named measurement with its unit, and the result line the benchmark
   prints last. *)

type t = { name : string; unit_ : string; value : float }

let v name unit_ value = { name; unit_; value }

(* Every digit of the measurement; JSON has no NaN or infinity, so a
   non-finite value is reported as a failure by the caller. *)
let number f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let pp_line m = Printf.sprintf "%-40s %18.6f %s" m.name m.value m.unit_

let json_string s = "\"" ^ String.escaped s ^ "\""

let result_line ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string m.name) (number m.value)
             (json_string m.unit_))
         metrics)
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed body
