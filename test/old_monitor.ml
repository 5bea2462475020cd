(* The monitor as it was before the counter array: a [Prefix.Table] of
   counters, re-sorted into prefix order whenever a reader needs it, with
   merges that fold the whole table for their victims and sort them.  Kept
   verbatim (minus the codec) as the differential oracle of
   test_partition.ml; nothing outside test/ uses it. *)

module Counter = Dream_tasks.Counter
module Task_spec = Dream_tasks.Task_spec
module Prefix = Dream_prefix.Prefix
module Switch_id = Dream_traffic.Switch_id
module Topology = Dream_traffic.Topology
module Ewma = Dream_util.Ewma
module Heap = Dream_util.Heap
module Arena = Dream_util.Arena

(* Flat buffers of [Cover] (below), one arena per monitor so that builds
   stop allocating once the buffers reach their high-water mark.  Prefixes
   are kept as (first address, length) pairs and switch sets as their
   bitmasks. *)
type cover_buffers = {
  arena : Arena.t;
  mutable cand_valid : bool; (* the candidates describe the current counters *)
  mutable cand_n : int; (* candidates of the last build *)
  mutable cand_first : Arena.ints; (* candidate prefix: first address *)
  mutable cand_len : Arena.ints; (* candidate prefix: length *)
  mutable cand_t : Arena.ints; (* T set: switches freed by merging it *)
  mutable cand_cost : Arena.floats; (* total score of its descendant counters *)
  mutable cand_alive : Arena.ints; (* 0 once a merge has swallowed it *)
  mutable cand_live : Arena.ints; (* solve scratch: still selectable *)
  mutable cheapest : Arena.floats; (* per switch, see [Cover.min_cost_bound] *)
  mutable acc : Arena.floats; (* one-cell float accumulator *)
  (* the sorted counters, snapshotted for the build walk *)
  mutable ctr_first : Arena.ints;
  mutable ctr_len : Arena.ints;
  mutable ctr_eff : Arena.ints; (* effective switch set *)
  mutable ctr_score : Arena.floats;
  (* per-node results of the build walk, two registers per trie depth *)
  mutable reg_s : Arena.ints;
  mutable reg_t : Arena.ints;
  mutable reg_count : Arena.ints;
  mutable reg_cost : Arena.floats;
}

let cover_buffers () =
  let arena = Arena.create () in
  let ints slot = Arena.ints arena ~slot ~len:0 in
  let floats slot = Arena.floats arena ~slot ~len:0 in
  {
    arena;
    cand_valid = false;
    cand_n = 0;
    cand_first = ints 0;
    cand_len = ints 1;
    cand_t = ints 2;
    cand_cost = floats 0;
    cand_alive = ints 3;
    cand_live = ints 4;
    cheapest = floats 1;
    acc = floats 2;
    ctr_first = ints 5;
    ctr_len = ints 6;
    ctr_eff = ints 7;
    ctr_score = floats 3;
    reg_s = ints 8;
    reg_t = ints 9;
    reg_count = ints 10;
    reg_cost = floats 4;
  }

type t = {
  spec : Task_spec.t;
  topology : Topology.t;
  table : Counter.t Prefix.Table.t;
  staged : float Switch_id.Map.t Prefix.Table.t;
      (* ingest scratch, cleared per call — hoisted so the hot loop never
         allocates a fresh hash table per task per epoch *)
  mutable usage : int Switch_id.Map.t; (* entries per active switch, kept incrementally *)
  mutable active : Switch_id.Set.t; (* switches with a non-zero allocation *)
  mutable sorted_cache : Counter.t list option; (* counters in prefix order *)
  cover : cover_buffers;
}

(* The switches a counter actually occupies: its traffic switches that the
   allocator has granted at least one entry on. *)
let effective t (c : Counter.t) = Switch_id.Set.inter c.switches t.active

let bump_usage t set delta =
  t.usage <-
    Switch_id.Set.fold
      (fun sw acc ->
        let v = (match Switch_id.Map.find_opt sw acc with Some v -> v | None -> 0) + delta in
        if v = 0 then Switch_id.Map.remove sw acc else Switch_id.Map.add sw v acc)
      set t.usage

let add_counter t (c : Counter.t) =
  assert (not (Prefix.Table.mem t.table c.prefix));
  Prefix.Table.replace t.table c.prefix c;
  t.sorted_cache <- None;
  bump_usage t (effective t c) 1

let remove_counter t (c : Counter.t) =
  Prefix.Table.remove t.table c.prefix;
  t.sorted_cache <- None;
  bump_usage t (effective t c) (-1)

let new_counter t prefix =
  Counter.create ~prefix
    ~switches:(Topology.switch_set t.topology prefix)
    ~cd_history:t.spec.Task_spec.cd_history

let create ~spec ~topology =
  let t =
    {
      spec;
      topology;
      table = Prefix.Table.create 64;
      staged = Prefix.Table.create 64;
      usage = Switch_id.Map.empty;
      active = Topology.switch_set topology spec.Task_spec.filter;
      sorted_cache = None;
      cover = cover_buffers ();
    }
  in
  add_counter t (new_counter t spec.Task_spec.filter);
  t

let spec t = t.spec

let topology t = t.topology

let counters t =
  match t.sorted_cache with
  | Some cached -> cached
  | None ->
    let all = Prefix.Table.fold (fun _ c acc -> c :: acc) t.table [] in
    let sorted =
      List.sort (fun (a : Counter.t) (b : Counter.t) -> Prefix.compare a.prefix b.prefix) all
    in
    t.sorted_cache <- Some sorted;
    sorted

let num_counters t = Prefix.Table.length t.table

let find t p = Prefix.Table.find_opt t.table p

let switches t = Topology.switch_set t.topology t.spec.Task_spec.filter

let usage t sw = match Switch_id.Map.find_opt sw t.usage with Some v -> v | None -> 0

let active t = t.active

let usage_map t = t.usage

let rules_for t sw =
  if not (Switch_id.Set.mem sw t.active) then []
  else begin
    List.filter_map
      (fun (c : Counter.t) -> if Switch_id.Set.mem sw c.switches then Some c.prefix else None)
      (counters t)
  end

let ingest t readings =
  (* readings: per switch, (prefix, volume) pairs for this task's rules. *)
  let staged = t.staged in
  Prefix.Table.clear staged;
  List.iter
    (fun (sw, pairs) ->
      List.iter
        (fun (p, v) ->
          let m =
            match Prefix.Table.find_opt staged p with
            | Some m -> m
            | None -> Switch_id.Map.empty
          in
          Prefix.Table.replace staged p (Switch_id.Map.add sw v m))
        pairs)
    readings;
  Prefix.Table.iter
    (fun p c ->
      let volumes =
        match Prefix.Table.find_opt staged p with Some m -> m | None -> Switch_id.Map.empty
      in
      Counter.set_volumes c volumes)
    t.table

let allocation allocations sw =
  match Switch_id.Map.find_opt sw allocations with Some v -> v | None -> 0

let overloaded t ~allocations =
  Switch_id.Map.fold
    (fun sw used acc ->
      if used > allocation allocations sw then Switch_id.Set.add sw acc else acc)
    t.usage Switch_id.Set.empty

let bottlenecked t ~allocations =
  Switch_id.Set.filter
    (fun sw -> Switch_id.Set.mem sw t.active && usage t sw >= allocation allocations sw)
    (switches t)

(* ---- cover(): greedy weighted set cover over ancestor T sets ---- *)

module Cover = struct
  type solution = { ancestors : Prefix.t list; cost : float }

  type candidates = cover_buffers

  let address_bits = Prefix.address_bits

  let no_merge = Some { ancestors = []; cost = 0.0 }

  (* [Prefix.covers] on (first address, length) pairs. *)
  let covers a_bits a_len b_bits b_len =
    a_len <= b_len && b_bits lsr (address_bits - a_len) = a_bits lsr (address_bits - a_len)

  let set_at (buf : Arena.ints) i = Switch_id.Set.of_bits buf.{i}

  let rec snapshot b t i = function
    | [] -> ()
    | (c : Counter.t) :: rest ->
      b.ctr_first.{i} <- Prefix.first_address c.prefix;
      b.ctr_len.{i} <- Prefix.length c.prefix;
      b.ctr_eff.{i} <- (effective t c :> int);
      b.ctr_score.{i} <- c.score;
      snapshot b t (i + 1) rest

  (* First counter index in [lo, hi) whose first address is >= [key]. *)
  let rec bisect b lo hi key =
    if lo >= hi then lo
    else begin
      let mid = (lo + hi) / 2 in
      if b.ctr_first.{mid} < key then bisect b (mid + 1) hi key else bisect b lo mid key
    end

  let rec copy_prefix (src : Arena.ints) (dst : Arena.ints) i =
    if i > 0 then begin
      dst.{i - 1} <- src.{i - 1};
      copy_prefix src dst (i - 1)
    end

  let rec copy_prefix_floats (src : Arena.floats) (dst : Arena.floats) i =
    if i > 0 then begin
      dst.{i - 1} <- src.{i - 1};
      copy_prefix_floats src dst (i - 1)
    end

  (* Only reached when the counters do not partition the filter: a
     partition of n counters has at most n - 1 candidates. *)
  let grow b =
    let len = max 8 (2 * b.cand_n) in
    let bits = b.cand_first and plen = b.cand_len and t_sets = b.cand_t and costs = b.cand_cost in
    b.cand_first <- Arena.ints b.arena ~slot:0 ~len;
    b.cand_len <- Arena.ints b.arena ~slot:1 ~len;
    b.cand_t <- Arena.ints b.arena ~slot:2 ~len;
    b.cand_cost <- Arena.floats b.arena ~slot:0 ~len;
    copy_prefix bits b.cand_first b.cand_n;
    copy_prefix plen b.cand_len b.cand_n;
    copy_prefix t_sets b.cand_t b.cand_n;
    copy_prefix_floats costs b.cand_cost b.cand_n

  let push b bits len o =
    if b.cand_n >= Bigarray.Array1.dim b.cand_first then grow b;
    b.cand_first.{b.cand_n} <- bits;
    b.cand_len.{b.cand_n} <- len;
    b.cand_t.{b.cand_n} <- b.reg_t.{o};
    b.cand_cost.{b.cand_n} <- b.reg_cost.{o};
    b.cand_n <- b.cand_n + 1

  (* Post-order over the structural trie the sorted counters imply — every
     prefix on a path from the filter to a counter — without building it.
     The node at [bits]/[len] spans counters [lo, hi) and leaves its
     (S, T, cost, count) in register [o]; its children use registers
     [2 (len + 1)] (the left, or an only child) and [2 (len + 1) + 1] (the
     right), which no deeper node touches.  The right subtree is visited
     first: candidates are pushed in the order that walk finalises them,
     which [build] then reverses into the order callers see. *)
  let rec visit b bits len lo hi o =
    let value = b.ctr_first.{lo} = bits && b.ctr_len.{lo} = len in
    let first = if value then lo + 1 else lo in
    let l_reg = 2 * (len + 1) in
    let r_reg = l_reg + 1 in
    let children =
      if first >= hi || len = address_bits then 0
      else begin
        let r_bits = bits lor (1 lsl (address_bits - len - 1)) in
        let mid = bisect b first hi r_bits in
        if first < mid && mid < hi then begin
          visit b r_bits (len + 1) mid hi r_reg;
          visit b bits (len + 1) first mid l_reg;
          2
        end
        else if first < mid then begin
          visit b bits (len + 1) first mid l_reg;
          1
        end
        else begin
          visit b r_bits (len + 1) mid hi l_reg;
          1
        end
      end
    in
    if value then begin
      (* Partition invariant: a monitored node has no monitored
         descendants, so it is a leaf of the walk. *)
      b.reg_s.{o} <- b.ctr_eff.{lo};
      b.reg_t.{o} <- (Switch_id.Set.empty :> int);
      b.reg_cost.{o} <- b.ctr_score.{lo};
      b.reg_count.{o} <- 1
    end
    else begin
      if children = 2 then begin
        let l_s = set_at b.reg_s l_reg and r_s = set_at b.reg_s r_reg in
        b.reg_s.{o} <- (Switch_id.Set.union l_s r_s :> int);
        b.reg_t.{o} <-
          (Switch_id.Set.union
             (Switch_id.Set.union (set_at b.reg_t l_reg) (set_at b.reg_t r_reg))
             (Switch_id.Set.inter l_s r_s)
            :> int);
        b.reg_cost.{o} <- b.reg_cost.{l_reg} +. b.reg_cost.{r_reg};
        b.reg_count.{o} <- b.reg_count.{l_reg} + b.reg_count.{r_reg}
      end
      else if children = 1 then begin
        b.reg_s.{o} <- b.reg_s.{l_reg};
        b.reg_t.{o} <- b.reg_t.{l_reg};
        b.reg_cost.{o} <- b.reg_cost.{l_reg};
        b.reg_count.{o} <- b.reg_count.{l_reg}
      end
      else begin
        b.reg_s.{o} <- (Switch_id.Set.empty :> int);
        b.reg_t.{o} <- (Switch_id.Set.empty :> int);
        b.reg_cost.{o} <- 0.0;
        b.reg_count.{o} <- 0
      end;
      if (not (Switch_id.Set.is_empty (set_at b.reg_t o))) && b.reg_count.{o} >= 2 then
        push b bits len o
    end

  let rec reverse b i j =
    if i < j then begin
      let bits = b.cand_first.{i} and len = b.cand_len.{i} and t_set = b.cand_t.{i} in
      let cost = b.cand_cost.{i} in
      b.cand_first.{i} <- b.cand_first.{j};
      b.cand_len.{i} <- b.cand_len.{j};
      b.cand_t.{i} <- b.cand_t.{j};
      b.cand_cost.{i} <- b.cand_cost.{j};
      b.cand_first.{j} <- bits;
      b.cand_len.{j} <- len;
      b.cand_t.{j} <- t_set;
      b.cand_cost.{j} <- cost;
      reverse b (i + 1) (j - 1)
    end

  (* Lower the per-switch cheapest bound to candidate [i]'s cost on every
     switch of its T set, walking the mask from switch [sw]. *)
  let rec lower_cheapest b i mask sw =
    if mask <> 0 then begin
      if mask land 1 <> 0 then b.cheapest.{sw} <- Float.min b.cheapest.{sw} b.cand_cost.{i};
      lower_cheapest b i (mask lsr 1) (sw + 1)
    end

  let build t =
    let b = t.cover in
    let counters = counters t in
    let n = num_counters t in
    b.ctr_first <- Arena.ints b.arena ~slot:5 ~len:n;
    b.ctr_len <- Arena.ints b.arena ~slot:6 ~len:n;
    b.ctr_eff <- Arena.ints b.arena ~slot:7 ~len:n;
    b.ctr_score <- Arena.floats b.arena ~slot:3 ~len:n;
    let regs = 2 * (address_bits + 2) in
    b.reg_s <- Arena.ints b.arena ~slot:8 ~len:regs;
    b.reg_t <- Arena.ints b.arena ~slot:9 ~len:regs;
    b.reg_count <- Arena.ints b.arena ~slot:10 ~len:regs;
    b.reg_cost <- Arena.floats b.arena ~slot:4 ~len:regs;
    b.cand_first <- Arena.ints b.arena ~slot:0 ~len:n;
    b.cand_len <- Arena.ints b.arena ~slot:1 ~len:n;
    b.cand_t <- Arena.ints b.arena ~slot:2 ~len:n;
    b.cand_cost <- Arena.floats b.arena ~slot:0 ~len:n;
    b.cand_n <- 0;
    snapshot b t 0 counters;
    let filter = t.spec.Task_spec.filter in
    if n > 0 then
      visit b (Prefix.first_address filter) (Prefix.length filter) 0 n 0;
    (* Finalisation order reversed is pre-order, left subtree first:
       ancestors before descendants, in prefix order. *)
    reverse b 0 (b.cand_n - 1);
    b.cand_alive <- Arena.ints b.arena ~slot:3 ~len:b.cand_n;
    b.cand_live <- Arena.ints b.arena ~slot:4 ~len:b.cand_n;
    b.cheapest <- Arena.floats b.arena ~slot:1 ~len:Switch_id.max_switches;
    b.acc <- Arena.floats b.arena ~slot:2 ~len:1;
    Bigarray.Array1.fill b.cheapest Float.infinity;
    for i = 0 to b.cand_n - 1 do
      b.cand_alive.{i} <- 1;
      lower_cheapest b i b.cand_t.{i} 0
    done;
    b.cand_valid <- true;
    b

  (* A merge at [ancestor] turns that subtree into a single counter: every
     candidate inside it disappears; all others remain exactly valid (the
     merged counter's score is the sum of its victims').  The cheapest
     bounds are left untouched — they only ever under-estimate. *)
  let repair_after_merge b ancestor =
    let a_bits = Prefix.first_address ancestor and a_len = Prefix.length ancestor in
    for i = 0 to b.cand_n - 1 do
      if covers a_bits a_len b.cand_first.{i} b.cand_len.{i} then b.cand_alive.{i} <- 0
    done

  let rec repair_all b = function
    | [] -> ()
    | ancestor :: rest ->
      repair_after_merge b ancestor;
      repair_all b rest

  let rec max_cheapest b mask sw =
    if mask <> 0 then begin
      if mask land 1 <> 0 then b.acc.{0} <- Float.max b.acc.{0} b.cheapest.{sw};
      max_cheapest b (mask lsr 1) (sw + 1)
    end

  (* Lower bound on the cost of covering [f]: any solution must include,
     for each switch, a candidate at least as expensive as that switch's
     cheapest. *)
  let min_cost_bound b f =
    b.acc.{0} <- 0.0;
    max_cheapest b (f : Switch_id.Set.t :> int) 0;
    b.acc.{0}

  let prefix_at b i = Prefix.make ~bits:b.cand_first.{i} ~length:b.cand_len.{i}

  let gain b i uncovered =
    Switch_id.Set.cardinal (Switch_id.Set.inter (set_at b.cand_t i) uncovered)

  (* The live candidate with the lowest cost per newly covered switch; the
     first one on ties.  -1 when no live candidate covers anything. *)
  let rec best_ratio b uncovered i best best_gain =
    if i >= b.cand_n then best
    else begin
      let g = if b.cand_live.{i} = 0 then 0 else gain b i uncovered in
      if g = 0 then best_ratio b uncovered (i + 1) best best_gain
      else if
        best >= 0
        && b.cand_cost.{best} /. float_of_int best_gain <= b.cand_cost.{i} /. float_of_int g
      then best_ratio b uncovered (i + 1) best best_gain
      else best_ratio b uncovered (i + 1) i g
    end

  let rec greedy b chosen uncovered =
    if Switch_id.Set.is_empty uncovered then Some { ancestors = chosen; cost = b.acc.{0} }
    else begin
      let best = best_ratio b uncovered 0 (-1) 0 in
      if best < 0 then None
      else begin
        let bits = b.cand_first.{best} and len = b.cand_len.{best} in
        for i = 0 to b.cand_n - 1 do
          let q_bits = b.cand_first.{i} and q_len = b.cand_len.{i} in
          if covers q_bits q_len bits len || covers bits len q_bits q_len then b.cand_live.{i} <- 0
        done;
        b.acc.{0} <- b.acc.{0} +. b.cand_cost.{best};
        greedy b (prefix_at b best :: chosen)
          (Switch_id.Set.diff uncovered (set_at b.cand_t best))
      end
    end

  let solve_with b ~exclude f =
    if Switch_id.Set.is_empty f then no_merge
    else begin
      for i = 0 to b.cand_n - 1 do
        b.cand_live.{i} <-
          (match exclude with
          | Some p
            when covers b.cand_first.{i} b.cand_len.{i} (Prefix.first_address p) (Prefix.length p) ->
            0
          | Some _ | None -> b.cand_alive.{i})
      done;
      b.acc.{0} <- 0.0;
      greedy b [] f
    end

  let solve t ~exclude f = solve_with (build t) ~exclude f

  let rec alive_from b i acc =
    if i < 0 then acc
    else
      alive_from b (i - 1)
        (if b.cand_alive.{i} = 0 then acc
         else (prefix_at b i, set_at b.cand_t i, b.cand_cost.{i}) :: acc)

  let to_list b = alive_from b (b.cand_n - 1) []
end

(* ---- merge and divide ---- *)

let descendant_counters t ancestor =
  (* Unsorted on purpose: this runs inside the divide-and-merge loop and
     must not pay for the sorted-counters cache rebuild. *)
  Prefix.Table.fold
    (fun _ (c : Counter.t) acc -> if Prefix.covers ancestor c.prefix then c :: acc else acc)
    t.table []

let merge t ancestor =
  match descendant_counters t ancestor with
  | [] -> ()
  | [ c ] when Prefix.equal c.Counter.prefix ancestor ->
    () (* already monitoring exactly this prefix *)
  | victims ->
    (* Sort victims: [descendant_counters] folds a Hashtbl, whose order
       depends on insertion history.  The float sums below must not — a
       restored controller rebuilds its tables in a different order and
       still has to produce bit-identical merges. *)
    let victims =
      List.sort
        (fun (a : Counter.t) (b : Counter.t) -> Prefix.compare a.prefix b.prefix)
        victims
    in
    let merged = new_counter t ancestor in
    let volumes =
      List.fold_left
        (fun acc (c : Counter.t) ->
          Switch_id.Map.union (fun _ a b -> Some (a +. b)) acc c.volumes)
        Switch_id.Map.empty victims
    in
    let score = List.fold_left (fun acc (c : Counter.t) -> acc +. c.score) 0.0 victims in
    let mean_sum, has_mean =
      List.fold_left
        (fun (acc, has) (c : Counter.t) ->
          match Ewma.value c.mean with Some v -> (acc +. v, true) | None -> (acc, has))
        (0.0, false) victims
    in
    List.iter (remove_counter t) victims;
    add_counter t merged;
    Counter.set_volumes merged volumes;
    merged.Counter.score <- score;
    if has_mean then Ewma.seed merged.Counter.mean mean_sum

let apply_merges t solution = List.iter (merge t) solution.Cover.ancestors

let divide t (c : Counter.t) =
  match Prefix.children c.prefix with
  | None -> ()
  | Some (l, r) ->
    remove_counter t c;
    let spawn p =
      let child = new_counter t p in
      child.Counter.score <- c.score /. 2.0;
      begin
        match Ewma.value c.mean with
        | Some m -> Ewma.seed child.Counter.mean (m /. 2.0)
        | None -> ()
      end;
      add_counter t child;
      child
    in
    ignore (spawn l);
    ignore (spawn r)

(* ---- Algorithm 2 ---- *)

let total_allocation allocations =
  Switch_id.Map.fold (fun _ v acc -> acc + v) allocations 0

let shrink_to_fit t ~allocations =
  (* Merge minimum-cost covers until no switch exceeds its allocation.  If
     a cover cannot be found (single counter left on an overloaded switch),
     collapse to the root filter as a last resort. *)
  let rec go guard =
    let f = overloaded t ~allocations in
    if (not (Switch_id.Set.is_empty f)) && guard > 0 then begin
      match Cover.solve t ~exclude:None f with
      | Some ({ Cover.ancestors = _ :: _; _ } as sol) ->
        apply_merges t sol;
        go (guard - 1)
      | Some { Cover.ancestors = []; _ } | None ->
        if num_counters t > 1 then begin
          merge t t.spec.Task_spec.filter;
          go (guard - 1)
        end
    end
  in
  go (num_counters t + 8)

let divide_phase t ~allocations =
  let leaf_length = t.spec.Task_spec.leaf_length in
  let cmp (a : Counter.t) (b : Counter.t) = Float.compare a.score b.score in
  let heap = Heap.create ~cmp in
  List.iter
    (fun (c : Counter.t) ->
      if not (Counter.is_exact c ~leaf_length) then Heap.push heap c)
    (counters t);
  (* Cover candidates are expensive to build (a full pass over the counter
     trie), so build them at the first blocked divide and keep them across
     heap pops, repairing them in place after each merge. *)
  t.cover.cand_valid <- false;
  let candidates () = if t.cover.cand_valid then t.cover else Cover.build t in
  let push_children l r =
    let push p =
      match find t p with
      | Some c when not (Counter.is_exact c ~leaf_length) -> Heap.push heap c
      | Some _ | None -> ()
    in
    push l;
    push r
  in
  let budget = (4 * total_allocation allocations) + 64 in
  (* Paid divides (ones that must merge other counters to free entries)
     must beat the merge cost by a margin, or the configuration churns
     forever swapping near-equal marginal prefixes. *)
  let improvement_floor = t.spec.Task_spec.threshold /. 16.0 in
  let rec loop budget =
    if budget <= 0 then ()
    else begin
      match Heap.pop heap with
      | None -> ()
      | Some c ->
        (* Skip stale heap entries (counters merged away meanwhile). *)
        let live =
          match find t c.Counter.prefix with Some c' when c' == c -> true | Some _ | None -> false
        in
        if not live then loop budget
        else if c.Counter.score <= 0.0 then () (* max score <= 0: nothing worth dividing *)
        else begin
          match Prefix.children c.Counter.prefix with
          | None -> loop budget
          | Some (l, r) ->
            let s_l = Switch_id.Set.inter (Topology.switch_set t.topology l) t.active in
            let s_r = Switch_id.Set.inter (Topology.switch_set t.topology r) t.active in
            let extra = Switch_id.Set.inter s_l s_r in
            let f =
              Switch_id.Set.filter (fun sw -> usage t sw + 1 > allocation allocations sw) extra
            in
            if Switch_id.Set.is_empty f then begin
              (* A divide keeps cached candidates conservatively valid:
                 the divided counter's score equals its children's sum, S
                 sets are unchanged, and T sets can only have grown. *)
              divide t c;
              push_children l r;
              loop (budget - 1)
            end
            else begin
              let cands = candidates () in
              (* Any cover of f costs at least the per-switch cheapest
                 bound, so skip the solve outright when it cannot pay. *)
              if Cover.min_cost_bound cands f +. improvement_floor >= c.Counter.score then
                loop budget
              else begin
                match Cover.solve_with cands ~exclude:(Some c.Counter.prefix) f with
                | Some sol when sol.Cover.cost +. improvement_floor < c.Counter.score ->
                  apply_merges t sol;
                  Cover.repair_all cands sol.Cover.ancestors;
                  (* Re-check: the merge must actually have freed room. *)
                  let still_blocked =
                    Switch_id.Set.exists
                      (fun sw -> usage t sw + 1 > allocation allocations sw)
                      extra
                  in
                  if not still_blocked then begin
                    divide t c;
                    push_children l r
                  end;
                  loop (budget - 1)
                | Some _ | None -> loop (budget - 1)
              end
            end
        end
    end
  in
  loop budget

let recompute_usage t =
  t.usage <- Switch_id.Map.empty;
  Prefix.Table.iter (fun _ c -> bump_usage t (effective t c) 1) t.table

let set_active t active =
  if not (Switch_id.Set.equal active t.active) then begin
    t.active <- active;
    recompute_usage t
  end

let configure t ~allocations =
  let granted =
    Switch_id.Set.filter (fun sw -> allocation allocations sw >= 1) (switches t)
  in
  set_active t granted;
  shrink_to_fit t ~allocations;
  divide_phase t ~allocations

let divide_prefix t p = match find t p with Some c -> divide t c | None -> ()
