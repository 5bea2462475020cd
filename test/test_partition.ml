(* Differential tests for the counter array: the monitor that keeps its
   partition as one prefix-ordered array against the [Prefix.Table] monitor
   it replaced (test/old_monitor.ml), the array-walk HHH detection against
   the trie fold it replaced, the checkpoint codec of the array (byte-stable
   round trips, any counter order, non-partitions rejected), and the
   per-owner rule count of [Tcam] against a set model. *)

module Rng = Dream_util.Rng
module Codec = Dream_util.Codec
module Ewma = Dream_util.Ewma
module Prefix = Dream_prefix.Prefix
module Trie = Dream_prefix.Trie
module Switch_id = Dream_traffic.Switch_id
module Topology = Dream_traffic.Topology
module Aggregate = Dream_traffic.Aggregate
module Task_spec = Dream_tasks.Task_spec
module Counter = Dream_tasks.Counter
module Monitor = Dream_tasks.Monitor
module Hhh = Dream_tasks.Hhh
module Tcam = Dream_switch.Tcam

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* ---- the array monitor against the Prefix.Table monitor ---- *)

let filter = Prefix.of_string "10.0.0.0/22"

let random_setup rng =
  let k = [| 1; 2; 4; 8 |].(Rng.int rng 4) in
  let topology =
    Topology.create (Rng.create (Rng.int rng 1000)) ~filter ~num_switches:8 ~switches_per_task:k
  in
  let kind =
    [| Task_spec.Heavy_hitter; Task_spec.Hierarchical_heavy_hitter; Task_spec.Change_detection |].(Rng.int rng 3)
  in
  let leaf_length = [| 26; 30; 32 |].(Rng.int rng 3) in
  let spec = Task_spec.make ~kind ~filter ~leaf_length ~threshold:(1.0 +. Rng.float rng 20.0) () in
  (spec, topology)

(* One counter's whole state, floats as bits. *)
let fingerprint (c : Counter.t) =
  ( Prefix.to_string c.prefix,
    Int64.bits_of_float c.total,
    Int64.bits_of_float c.score,
    Option.map Int64.bits_of_float (Ewma.value c.mean),
    c.fresh,
    (c.switches :> int),
    List.map (fun (sw, v) -> (sw, Int64.bits_of_float v)) (Switch_id.Map.bindings c.volumes) )

let cover_list cands =
  List.map (fun (p, t_set, cost) -> (Prefix.to_string p, (t_set : Switch_id.Set.t :> int), Int64.bits_of_float cost)) cands

(* Everything a reader can observe of a monitor. *)
let observe_new m =
  ( List.map fingerprint (Monitor.counters m),
    Switch_id.Map.bindings (Monitor.usage_map m),
    List.init 8 (fun sw -> List.map Prefix.to_string (Monitor.rules_for m sw)),
    cover_list (Monitor.Cover.to_list (Monitor.Cover.build m)) )

let observe_old m =
  ( List.map fingerprint (Old_monitor.counters m),
    Switch_id.Map.bindings (Old_monitor.usage_map m),
    List.init 8 (fun sw -> List.map Prefix.to_string (Old_monitor.rules_for m sw)),
    cover_list (Old_monitor.Cover.to_list (Old_monitor.Cover.build m)) )

(* Readings as a fetch delivers them: per switch, that switch's rules with
   volumes — sometimes with a pair lost, a stale prefix added or the pairs
   out of order, and sometimes a switch reported twice. *)
let random_readings rng m =
  let volume () = if Rng.int rng 4 = 0 then 0.0 else Rng.float rng 30.0 in
  let per_switch sw =
    let pairs = List.map (fun p -> (p, volume ())) (Monitor.rules_for m sw) in
    let pairs = List.filter (fun _ -> Rng.int rng 10 <> 0) pairs in
    let pairs =
      if Rng.int rng 5 = 0 then
        (Prefix.nth_descendant filter ~length:28 (Rng.int rng 64), volume ()) :: pairs
      else pairs
    in
    if Rng.int rng 5 = 0 then List.rev pairs else pairs
  in
  let switches = Switch_id.Set.elements (Monitor.switches m) in
  let readings = List.map (fun sw -> (sw, per_switch sw)) switches in
  match switches with
  | sw :: _ when Rng.int rng 6 = 0 -> readings @ [ (sw, per_switch sw) ]
  | _ -> readings

let random_allocations rng m =
  Switch_id.Set.fold
    (fun sw acc -> Switch_id.Map.add sw (if Rng.int rng 8 = 0 then 0 else 1 + Rng.int rng 24) acc)
    (Monitor.switches m) Switch_id.Map.empty

(* A prefix inside the filter around a random counter: the counter itself,
   one of its ancestors, or one of its descendants. *)
let random_prefix rng m =
  let c = Monitor.get m (Rng.int rng (Monitor.num_counters m)) in
  let len = Prefix.length c.Counter.prefix in
  match Rng.int rng 3 with
  | 0 -> c.Counter.prefix
  | 1 -> Prefix.ancestor_at c.Counter.prefix (Prefix.length filter + Rng.int rng (len - Prefix.length filter + 1))
  | _ ->
    if len >= 32 then c.Counter.prefix
    else Prefix.nth_descendant c.Counter.prefix ~length:(len + 1) (Rng.int rng 2)

let prop_monitor =
  QCheck.Test.make ~name:"array monitor = Prefix.Table monitor (ingest/score/configure/divide/merge)"
    ~count:200 QCheck.small_nat (fun seed ->
      let rng = Rng.create (seed + 7) in
      let spec, topology = random_setup rng in
      let m = Monitor.create ~spec ~topology in
      let o = Old_monitor.create ~spec ~topology in
      let ok = ref (observe_new m = observe_old o) in
      for _ = 1 to 24 do
        (match Rng.int rng 6 with
        | 0 ->
          let readings = random_readings rng m in
          Monitor.ingest m readings;
          Old_monitor.ingest o readings
        | 1 ->
          (* The same scores and CD history on both, by position. *)
          List.iter2
            (fun (a : Counter.t) (b : Counter.t) ->
              let s = [| 0.0; 1.0; 2.5; Rng.float rng 40.0 |].(Rng.int rng 4) in
              a.score <- s;
              b.score <- s;
              if Rng.int rng 2 = 0 then begin
                Counter.update_mean a;
                Counter.update_mean b
              end)
            (Monitor.counters m) (Old_monitor.counters o)
        | 2 | 3 ->
          let allocations = random_allocations rng m in
          Monitor.configure m ~allocations;
          Old_monitor.configure o ~allocations
        | 4 ->
          let p = random_prefix rng m in
          Monitor.divide m p;
          Old_monitor.divide_prefix o p
        | _ ->
          let p = random_prefix rng m in
          Monitor.merge m p;
          Old_monitor.merge o p);
        ok := !ok && Monitor.is_partition m && observe_new m = observe_old o
      done;
      !ok)

(* ---- the array-walk HHH detection against the trie fold ---- *)

(* Detection as it was: a bindings array folded bottom-up through
   [Trie.fold_bindings_bottom_up] with per-node result lists, then sorted. *)
module Old_hhh = struct
  type node_result = { unclaimed : float; over_sum : float; has_detected : bool }

  let detect monitor =
    let spec = Monitor.spec monitor in
    let threshold = spec.Task_spec.threshold in
    let leaf_length = spec.Task_spec.leaf_length in
    let bindings =
      Array.map (fun (c : Counter.t) -> (c.Counter.prefix, c)) (Array.of_list (Monitor.counters monitor))
    in
    let detections = ref [] in
    let over_approx residual value =
      if value >= 1.0 then 0.0 else Float.max 0.0 (residual -. threshold)
    in
    let visit prefix (value : Counter.t option) (children : node_result list) =
      match value with
      | Some c ->
        let residual = c.Counter.total in
        if residual > threshold then begin
          let v =
            if Prefix.length prefix >= leaf_length then 1.0
            else if residual > 2.0 *. threshold then 0.0
            else 0.5
          in
          detections := { Hhh.prefix; residual; value = v } :: !detections;
          { unclaimed = 0.0; over_sum = over_approx residual v; has_detected = true }
        end
        else { unclaimed = residual; over_sum = 0.0; has_detected = false }
      | None ->
        let residual = List.fold_left (fun acc r -> acc +. r.unclaimed) 0.0 children in
        let child_over = List.fold_left (fun acc r -> acc +. r.over_sum) 0.0 children in
        let has_detected_below = List.exists (fun r -> r.has_detected) children in
        if residual > threshold then begin
          let v =
            if not has_detected_below then 1.0
            else if List.exists (fun r -> r.unclaimed +. r.over_sum > threshold) children then 0.5
            else 1.0
          in
          detections := { Hhh.prefix; residual; value = v } :: !detections;
          { unclaimed = 0.0; over_sum = child_over +. over_approx residual v; has_detected = true }
        end
        else { unclaimed = residual; over_sum = child_over; has_detected = has_detected_below }
    in
    ignore (Trie.fold_bindings_bottom_up ~root:spec.Task_spec.filter bindings ~f:visit);
    List.sort (fun (a : Hhh.detection) b -> Prefix.compare a.prefix b.prefix) !detections
end

let same_detections (a : Hhh.detection list) (b : Hhh.detection list) =
  List.length a = List.length b
  && List.for_all2
       (fun (x : Hhh.detection) (y : Hhh.detection) ->
         Prefix.equal x.prefix y.prefix && same_float x.residual y.residual
         && same_float x.value y.value)
       a b

(* One cache across random divides, merges and ingests: whatever changed
   last, the cached detections must be the fresh trie-fold ones. *)
let prop_hhh =
  QCheck.Test.make ~name:"array-walk HHH detection = trie fold, cached across changes" ~count:300
    QCheck.small_nat (fun seed ->
      let rng = Rng.create (seed + 500) in
      let spec, topology = random_setup rng in
      let spec = { spec with Task_spec.kind = Task_spec.Hierarchical_heavy_hitter } in
      let m = Monitor.create ~spec ~topology in
      let cache = Hhh.cache () in
      let ok = ref true in
      for _ = 1 to 30 do
        (match Rng.int rng 4 with
        | 0 | 1 -> Monitor.divide m (random_prefix rng m)
        | 2 -> Monitor.merge m (random_prefix rng m)
        | _ -> Monitor.ingest m (random_readings rng m));
        let shared = Hhh.detections cache m in
        ok :=
          !ok
          && same_detections shared (Old_hhh.detect m)
          && same_detections (Hhh.detect m) shared
          (* a second read of the same generation is the cached list *)
          && Hhh.detections cache m == shared
      done;
      !ok)

(* ---- checkpoint codec ---- *)

let emitted m =
  let w = Codec.writer () in
  Monitor.emit w m;
  Codec.contents w

let parse_doc ~spec ~topology doc = Monitor.parse (Codec.reader_of_string doc) ~spec ~topology

(* A configured monitor with measured volumes, scores and CD history. *)
let random_monitor rng =
  let spec, topology = random_setup rng in
  let m = Monitor.create ~spec ~topology in
  for _ = 1 to 1 + Rng.int rng 5 do
    Monitor.ingest m (random_readings rng m);
    Monitor.iter
      (fun c ->
        c.Counter.score <- Rng.float rng 20.0;
        Counter.update_mean c)
      m;
    Monitor.configure m ~allocations:(random_allocations rng m)
  done;
  (spec, topology, m)

(* The first index at or after [from] where [sub] occurs in [s]. *)
let find_from s sub from =
  let n = String.length sub in
  let rec at i =
    if i + n > String.length s then None else if String.sub s i n = sub then Some i else at (i + 1)
  in
  at from

(* The document split into its monitor header and one chunk per counter. *)
let split_counters doc =
  let marker = "[counter]\n" in
  let rec chunks s acc =
    match find_from s marker 1 with
    | Some i -> chunks (String.sub s i (String.length s - i)) (String.sub s 0 i :: acc)
    | None -> List.rev (s :: acc)
  in
  match find_from doc marker 0 with
  | None -> (doc, [])
  | Some i -> (String.sub doc 0 i, chunks (String.sub doc i (String.length doc - i)) [])

let prop_codec =
  QCheck.Test.make ~name:"emit -> parse -> emit is byte-identical, in any counter order" ~count:100
    QCheck.small_nat (fun seed ->
      let rng = Rng.create (seed + 900) in
      let spec, topology, m = random_monitor rng in
      let doc = emitted m in
      let back = parse_doc ~spec ~topology doc in
      let header, counters = split_counters doc in
      let shuffled =
        header ^ String.concat "" (List.map snd (List.sort compare (List.map (fun c -> (Rng.int rng 1000, c)) counters)))
      in
      let reordered = parse_doc ~spec ~topology shuffled in
      String.equal (emitted back) doc
      && String.equal (emitted reordered) doc
      && List.map fingerprint (Monitor.counters reordered) = List.map fingerprint (Monitor.counters m)
      && Switch_id.Map.equal Int.equal (Monitor.usage_map reordered) (Monitor.usage_map m))

(* A monitor document over the fixed /22 filter holding these counters. *)
let doc_of prefixes =
  let topology =
    Topology.create (Rng.create 3) ~filter ~num_switches:4 ~switches_per_task:2
  in
  let w = Codec.writer () in
  Codec.section w "monitor";
  Codec.int w "active" 1;
  Codec.int w "sw" (List.hd (Switch_id.Set.elements (Topology.switch_set topology filter)));
  Codec.int w "counters" (List.length prefixes);
  List.iter
    (fun p ->
      Counter.emit w
        (Counter.create ~prefix:(Prefix.of_string p) ~switches:Switch_id.Set.empty ~cd_history:0.8))
    prefixes;
  (topology, Codec.contents w)

let spec_22 = Task_spec.make ~kind:Task_spec.Heavy_hitter ~filter ~leaf_length:32 ~threshold:10.0 ()

let parses prefixes =
  let topology, doc = doc_of prefixes in
  parse_doc ~spec:spec_22 ~topology doc

(* [name] must fail to parse, with a reason that mentions [why]. *)
let rejects name ~why prefixes =
  match parses prefixes with
  | _ -> Alcotest.failf "%s: a non-partition must not parse" name
  | exception Codec.Parse_error e ->
    if find_from e.Codec.reason why 0 = None then
      Alcotest.failf "%s: reason %S does not say %S" name e.Codec.reason why

let test_parse_valid () =
  let m = parses [ "10.0.2.0/23"; "10.0.0.0/23" ] in
  Alcotest.(check (list string)) "sorted into prefix order" [ "10.0.0.0/23"; "10.0.2.0/23" ]
    (List.map (fun (c : Counter.t) -> Prefix.to_string c.prefix) (Monitor.counters m));
  Alcotest.(check bool) "a partition" true (Monitor.is_partition m)

let test_parse_duplicate () = rejects "duplicate" ~why:"duplicate" [ "10.0.0.0/23"; "10.0.2.0/23"; "10.0.0.0/23" ]

let test_parse_overlap () = rejects "overlap" ~why:"overlap" [ "10.0.0.0/23"; "10.0.0.0/24"; "10.0.2.0/23" ]

let test_parse_gap () =
  rejects "gap in the middle" ~why:"no counter covers" [ "10.0.0.0/24"; "10.0.2.0/23" ];
  rejects "gap at the end" ~why:"no counter covers" [ "10.0.0.0/23"; "10.0.2.0/24" ];
  rejects "gap at the start" ~why:"no counter covers" [ "10.0.1.0/24"; "10.0.2.0/23" ];
  rejects "no counters" ~why:"no counter covers" []

let test_parse_outside () =
  rejects "outside the filter" ~why:"outside" [ "10.0.0.0/23"; "10.0.2.0/23"; "10.0.4.0/24" ];
  rejects "wider than the filter" ~why:"outside" [ "10.0.0.0/21" ]

(* ---- Tcam per-owner rule counts ---- *)

let pool = Array.init 16 (fun i -> Prefix.nth_descendant (Prefix.of_string "10.0.0.0/24") ~length:28 i)

let prop_tcam_counts =
  QCheck.Test.make ~name:"Tcam.used_by = rules_of length; stats match a set model" ~count:300
    QCheck.small_nat (fun seed ->
      let rng = Rng.create (seed + 31) in
      let capacity = 4 + Rng.int rng 20 in
      let tcam = Tcam.create ~capacity in
      let model = Array.make 3 Prefix.Set.empty in
      let installs = ref 0 and removals = ref 0 and fetches = ref 0 in
      let used () = Array.fold_left (fun acc s -> acc + Prefix.Set.cardinal s) 0 model in
      let agg = Aggregate.empty in
      let ok = ref true in
      for _ = 1 to 40 do
        let owner = Rng.int rng 3 in
        let p = pool.(Rng.int rng 16) in
        (match Rng.int rng 6 with
        | 0 | 1 -> (
          match Tcam.install tcam ~owner p with
          | Ok () ->
            incr installs;
            model.(owner) <- Prefix.Set.add p model.(owner)
          | Error (`Capacity | `Duplicate) -> ())
        | 2 ->
          if Tcam.remove tcam ~owner p then begin
            incr removals;
            model.(owner) <- Prefix.Set.remove p model.(owner)
          end
        | 3 ->
          removals := !removals + Tcam.remove_owner tcam ~owner;
          model.(owner) <- Prefix.Set.empty
        | 4 -> (
          let target = Prefix.Set.of_list (List.filter (fun _ -> Rng.int rng 4 = 0) (Array.to_list pool)) in
          match Tcam.sync tcam ~owner ~prefixes:(Prefix.Set.elements target) with
          | { Tcam.added; removed } ->
            installs := !installs + added;
            removals := !removals + removed;
            model.(owner) <- target
          | exception Invalid_argument _ -> ())
        | _ ->
          if Rng.int rng 4 = 0 then begin
            Tcam.wipe tcam;
            Array.fill model 0 3 Prefix.Set.empty
          end
          else begin
            ignore (Tcam.read tcam ~owner agg);
            fetches := !fetches + Prefix.Set.cardinal model.(owner)
          end);
        let stats = Tcam.stats tcam in
        ok :=
          !ok
          && Tcam.used tcam = used ()
          && stats.Tcam.installs = !installs
          && stats.Tcam.removals = !removals
          && stats.Tcam.fetches = !fetches
          && List.for_all
               (fun o ->
                 Tcam.used_by tcam ~owner:o = Prefix.Set.cardinal model.(o)
                 && Tcam.used_by tcam ~owner:o = List.length (Tcam.rules_of tcam ~owner:o)
                 && List.equal Prefix.equal (Tcam.rules_of tcam ~owner:o) (Prefix.Set.elements model.(o)))
               [ 0; 1; 2 ]
      done;
      !ok)

let () =
  Alcotest.run "dream.partition"
    [
      ("monitor", [ QCheck_alcotest.to_alcotest prop_monitor ]);
      ("hhh", [ QCheck_alcotest.to_alcotest prop_hhh ]);
      ( "codec",
        [
          QCheck_alcotest.to_alcotest prop_codec;
          Alcotest.test_case "out of order parses sorted" `Quick test_parse_valid;
          Alcotest.test_case "duplicate counter rejected" `Quick test_parse_duplicate;
          Alcotest.test_case "overlap rejected" `Quick test_parse_overlap;
          Alcotest.test_case "gap rejected" `Quick test_parse_gap;
          Alcotest.test_case "outside the filter rejected" `Quick test_parse_outside;
        ] );
      ("tcam", [ QCheck_alcotest.to_alcotest prop_tcam_counts ]);
    ]
