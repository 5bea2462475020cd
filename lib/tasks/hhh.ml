module Prefix = Dream_prefix.Prefix
module Switch_id = Dream_traffic.Switch_id
module Topology = Dream_traffic.Topology

type detection = { prefix : Prefix.t; residual : float; value : float }

(* Registers of the bottom-up walk, two per trie depth (a node's left or
   only child, and its right child), each holding one node's result:
   [unclaimed] volume not claimed by detected descendant HHHs, [over_sum]
   the total over-approximation of the detected HHHs below, [detected]
   whether any lies below. *)
let registers = 2 * (Prefix.address_bits + 2)

type cache = {
  mutable generation : int; (* the monitor generation [detections] describe; -1: none *)
  mutable detections : detection list;
  unclaimed : float array;
  over_sum : float array;
  detected : bool array;
}

let cache () =
  {
    generation = -1;
    detections = [];
    unclaimed = Array.make registers 0.0;
    over_sum = Array.make registers 0.0;
    detected = Array.make registers false;
  }

let over_approx ~threshold residual value =
  if value >= 1.0 then 0.0 else Float.max 0.0 (residual -. threshold)

(* A monitored counter: a trie leaf under the partition invariant. *)
let leaf w (spec : Task_spec.t) (c : Counter.t) o =
  let threshold = spec.Task_spec.threshold in
  let residual = c.Counter.total in
  if residual > threshold then begin
    let v =
      if Prefix.length c.Counter.prefix >= spec.Task_spec.leaf_length then 1.0
      else if residual > 2.0 *. threshold then 0.0
      else 0.5
    in
    w.detections <- { prefix = c.Counter.prefix; residual; value = v } :: w.detections;
    w.unclaimed.(o) <- 0.0;
    w.over_sum.(o) <- over_approx ~threshold residual v;
    w.detected.(o) <- true
  end
  else begin
    w.unclaimed.(o) <- residual;
    w.over_sum.(o) <- 0.0;
    w.detected.(o) <- false
  end

(* An unmonitored node whose [children] (0, 1 or 2) results sit in
   registers [l] (the left, or an only child) and [r].  Sums run left to
   right from 0, as a fold over the child list would. *)
let inner w (spec : Task_spec.t) bits len children l r o =
  let threshold = spec.Task_spec.threshold in
  let u = w.unclaimed and s = w.over_sum in
  let residual =
    if children = 2 then 0.0 +. u.(l) +. u.(r) else if children = 1 then 0.0 +. u.(l) else 0.0
  in
  let child_over =
    if children = 2 then 0.0 +. s.(l) +. s.(r) else if children = 1 then 0.0 +. s.(l) else 0.0
  in
  let below = children >= 1 && (w.detected.(l) || (children = 2 && w.detected.(r))) in
  if residual > threshold then begin
    (* All descendants monitored and below threshold: confirmed.  Else the
       over-approximated volume of descendant detections could hide a true
       HHH in one of the children; halve if so. *)
    let could_be_hhh =
      u.(l) +. s.(l) > threshold || (children = 2 && u.(r) +. s.(r) > threshold)
    in
    let v = if below && could_be_hhh then 0.5 else 1.0 in
    w.detections <- { prefix = Prefix.make ~bits ~length:len; residual; value = v } :: w.detections;
    u.(o) <- 0.0;
    s.(o) <- child_over +. over_approx ~threshold residual v;
    w.detected.(o) <- true
  end
  else begin
    u.(o) <- residual;
    s.(o) <- child_over;
    w.detected.(o) <- below
  end

(* Post-order over the structural trie the counter array implies, right
   subtree first: the node at [bits]/[len] spans counters [lo, hi) and
   leaves its result in register [o].  Detections are consed in that order,
   which leaves the list in prefix order (ancestors first). *)
let rec visit w m spec bits len lo hi o =
  let c = Monitor.get m lo in
  if Prefix.first_address c.Counter.prefix = bits && Prefix.length c.Counter.prefix = len then
    leaf w spec c o
  else begin
    let l = 2 * (len + 1) in
    let r = l + 1 in
    let children =
      if len = Prefix.address_bits then 0
      else begin
        let r_bits = bits lor (1 lsl (Prefix.address_bits - len - 1)) in
        let mid = Monitor.lower_bound m ~lo ~hi r_bits in
        if lo < mid && mid < hi then begin
          visit w m spec r_bits (len + 1) mid hi r;
          visit w m spec bits (len + 1) lo mid l;
          2
        end
        else if lo < mid then begin
          visit w m spec bits (len + 1) lo mid l;
          1
        end
        else begin
          visit w m spec r_bits (len + 1) mid hi l;
          1
        end
      end
    in
    inner w spec bits len children l r o
  end

let detections w m =
  let g = Monitor.generation m in
  if w.generation <> g then begin
    w.detections <- [];
    let n = Monitor.num_counters m in
    let spec = Monitor.spec m in
    let filter = spec.Task_spec.filter in
    if n > 0 then visit w m spec (Prefix.first_address filter) (Prefix.length filter) 0 n 0;
    w.generation <- g
  end;
  w.detections

let detect m = detections (cache ()) m

let report w monitor ~epoch =
  let spec = Monitor.spec monitor in
  let items =
    List.map (fun d -> { Report.prefix = d.prefix; magnitude = d.residual }) (detections w monitor)
  in
  { Report.kind = spec.Task_spec.kind; epoch; items }

let estimate_recall monitor =
  let spec = Monitor.spec monitor in
  let threshold = spec.Task_spec.threshold in
  let leaf_length = spec.Task_spec.leaf_length in
  let detections = detect monitor in
  let detected = List.length detections in
  (* Every coarse (non-exact) detection may stand in for several finer
     HHHs; bound the hidden ones by its residual volume, as the HH
     estimator bounds missed heavy hitters by prefix volume. *)
  let missed =
    List.fold_left
      (fun acc d ->
        if Prefix.length d.prefix >= leaf_length then acc
        else begin
          let hidden = int_of_float (Float.floor (d.residual /. threshold)) - 1 in
          acc + max 0 hidden
        end)
      0 detections
  in
  if detected + missed = 0 then 1.0
  else float_of_int detected /. float_of_int (detected + missed)

let rec sum_values acc = function [] -> acc | d :: rest -> sum_values (acc +. d.value) rest

(* The values the detections seen from switch [sw] contribute, summed in
   detection order, and how many there are.  Only bottleneck switches
   inherit the uncertain value; others are scored 1 (Section 5.3). *)
let rec local_sum topology sw bottleneck acc = function
  | [] -> acc
  | d :: rest ->
    let acc =
      if Switch_id.Set.mem sw (Topology.switch_set topology d.prefix) then
        acc +. (if bottleneck then d.value else 1.0)
      else acc
    in
    local_sum topology sw bottleneck acc rest

let rec local_count topology sw n = function
  | [] -> n
  | d :: rest ->
    local_count topology sw
      (if Switch_id.Set.mem sw (Topology.switch_set topology d.prefix) then n + 1 else n)
      rest

let estimate w monitor ~allocations =
  let detections = detections w monitor in
  let global =
    match detections with
    | [] -> 1.0
    | _ :: _ -> sum_values 0.0 detections /. float_of_int (List.length detections)
  in
  let topology = Monitor.topology monitor in
  let bottlenecks = Monitor.bottlenecked monitor ~allocations in
  let locals =
    Switch_id.Set.fold
      (fun sw acc ->
        let n = local_count topology sw 0 detections in
        let local =
          if n = 0 then 1.0
          else
            local_sum topology sw (Switch_id.Set.mem sw bottlenecks) 0.0 detections
            /. float_of_int n
        in
        Switch_id.Map.add sw local acc)
      (Monitor.switches monitor) Switch_id.Map.empty
  in
  { Accuracy.global = Accuracy.clamp global; locals }
