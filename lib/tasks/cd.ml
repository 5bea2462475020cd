(* Exact counters whose deviation exceeds the threshold, walked from the
   last so that consing leaves them in prefix order. *)
let rec items monitor ~leaf_length ~threshold i acc =
  if i < 0 then acc
  else begin
    let c = Monitor.get monitor i in
    let deviation = Counter.cd_deviation c in
    items monitor ~leaf_length ~threshold (i - 1)
      (if Counter.is_exact c ~leaf_length && deviation > threshold then
         { Report.prefix = c.Counter.prefix; magnitude = deviation } :: acc
       else acc)
  end

let report monitor ~epoch =
  let spec = Monitor.spec monitor in
  let leaf_length = spec.Task_spec.leaf_length in
  let threshold = spec.Task_spec.threshold in
  let items = items monitor ~leaf_length ~threshold (Monitor.num_counters monitor - 1) [] in
  { Report.kind = spec.Task_spec.kind; epoch; items }

let estimate monitor ~allocations =
  let spec = Monitor.spec monitor in
  let threshold = spec.Task_spec.threshold in
  let magnitude_on (c : Counter.t) sw =
    (* Per-switch means are not tracked; apportion the total deviation by
       the switch's share of the counter's volume. *)
    let deviation = Counter.cd_deviation c in
    if c.Counter.total <= 0.0 then begin
      let n = Dream_traffic.Switch_id.Set.cardinal c.Counter.switches in
      if n = 0 then 0.0 else deviation /. float_of_int n
    end
    else deviation *. (Counter.volume_on c sw /. c.Counter.total)
  in
  Recall_estimator.estimate monitor ~allocations
    ~detected:(fun c -> Counter.cd_deviation c > threshold)
    ~magnitude_total:Counter.cd_deviation ~magnitude_on

let finish_epoch monitor = Monitor.iter Counter.update_mean monitor
