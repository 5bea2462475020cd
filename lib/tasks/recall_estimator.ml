module Switch_id = Dream_traffic.Switch_id

let missed_bound ~wildcards ~magnitude ~threshold =
  if magnitude <= threshold then 0
  else begin
    let by_volume = int_of_float (Float.floor (magnitude /. threshold)) in
    let by_leaves = if wildcards >= 62 then max_int else 1 lsl wildcards in
    min by_volume by_leaves
  end

(* Exact counters [detected] accepts, counting only those switch [sw] sees
   unless [sw] is negative; walked by index, so no list is built. *)
let rec detected_count m ~leaf_length ~detected sw i acc =
  if i < 0 then acc
  else begin
    let c = Monitor.get m i in
    detected_count m ~leaf_length ~detected sw (i - 1)
      (if
         Counter.is_exact c ~leaf_length
         && (sw < 0 || Switch_id.Set.mem sw c.Counter.switches)
         && detected c
       then acc + 1
       else acc)
  end

let rec missed_total m ~leaf_length ~threshold ~magnitude_total i acc =
  if i < 0 then acc
  else begin
    let c = Monitor.get m i in
    missed_total m ~leaf_length ~threshold ~magnitude_total (i - 1)
      (if Counter.is_exact c ~leaf_length then acc
       else
         acc
         + missed_bound
             ~wildcards:(Counter.wildcards c ~leaf_length)
             ~magnitude:(magnitude_total c) ~threshold)
  end

(* Items missed under the non-exact counters switch [sw] sees. *)
let rec missed_on m ~leaf_length ~threshold ~magnitude_on sw i acc =
  if i < 0 then acc
  else begin
    let c = Monitor.get m i in
    missed_on m ~leaf_length ~threshold ~magnitude_on sw (i - 1)
      (if Counter.is_exact c ~leaf_length || not (Switch_id.Set.mem sw c.Counter.switches) then acc
       else
         acc
         + missed_bound
             ~wildcards:(Counter.wildcards c ~leaf_length)
             ~magnitude:(magnitude_on c sw) ~threshold)
  end

let estimate monitor ~allocations ~detected ~magnitude_total ~magnitude_on =
  let spec = Monitor.spec monitor in
  let leaf_length = spec.Task_spec.leaf_length in
  let threshold = spec.Task_spec.threshold in
  let last = Monitor.num_counters monitor - 1 in
  let num_detected = detected_count monitor ~leaf_length ~detected (-1) last 0 in
  let missed = missed_total monitor ~leaf_length ~threshold ~magnitude_total last 0 in
  let global =
    if num_detected + missed = 0 then 1.0
    else float_of_int num_detected /. float_of_int (num_detected + missed)
  in
  let bottlenecks = Monitor.bottlenecked monitor ~allocations in
  let locals =
    Switch_id.Set.fold
      (fun sw acc ->
        let det = detected_count monitor ~leaf_length ~detected sw last 0 in
        (* Missed items are attributed to bottlenecked switches only, when
           any switch is bottlenecked. *)
        let missed =
          if Switch_id.Set.is_empty bottlenecks || Switch_id.Set.mem sw bottlenecks then
            missed_on monitor ~leaf_length ~threshold ~magnitude_on sw last 0
          else 0
        in
        let recall =
          if det + missed = 0 then 1.0 else float_of_int det /. float_of_int (det + missed)
        in
        Switch_id.Map.add sw recall acc)
      (Monitor.switches monitor) Switch_id.Map.empty
  in
  { Accuracy.global = Accuracy.clamp global; locals }
