(* Exact counters over the threshold, walked from the last so that consing
   leaves them in prefix order. *)
let rec items monitor ~leaf_length ~threshold i acc =
  if i < 0 then acc
  else begin
    let c = Monitor.get monitor i in
    items monitor ~leaf_length ~threshold (i - 1)
      (if Counter.is_exact c ~leaf_length && c.Counter.total > threshold then
         { Report.prefix = c.Counter.prefix; magnitude = c.Counter.total } :: acc
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
  Recall_estimator.estimate monitor ~allocations
    ~detected:(fun c -> c.Counter.total > threshold)
    ~magnitude_total:(fun c -> c.Counter.total)
    ~magnitude_on:(fun c sw -> Counter.volume_on c sw)
