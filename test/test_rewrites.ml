(* Differential tests for the allocation-free configure and rule-sync path:
   the bitmask switch set against [Set.Make (Int)], the flat cover
   candidates against the list-based cover they replaced, and the merge-walk
   rule sync against the [Prefix.Set] diff it replaced.  The replaced
   implementations live here, as oracles only.  Also: every entry point
   that sizes a network rejects more switches than a set can hold. *)

module Rng = Dream_util.Rng
module Codec = Dream_util.Codec
module Prefix = Dream_prefix.Prefix
module Trie = Dream_prefix.Trie
module Switch_id = Dream_traffic.Switch_id
module Topology = Dream_traffic.Topology
module Task_spec = Dream_tasks.Task_spec
module Counter = Dream_tasks.Counter
module Monitor = Dream_tasks.Monitor
module Fault_model = Dream_fault.Fault_model
module Switch = Dream_switch.Switch
module Tcam = Dream_switch.Tcam
module Data_plane = Dream_switch.Data_plane
module Journal = Dream_recovery.Journal
module Config = Dream_core.Config
module Controller = Dream_core.Controller
module Allocator = Dream_alloc.Allocator
module Dream_allocator = Dream_alloc.Dream_allocator
module Int_set = Set.Make (Int)

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* ---- Switch_id.Set against Set.Make (Int) ---- *)

let ids = QCheck.Gen.(list_size (int_range 0 12) (int_range 0 (Switch_id.max_switches - 1)))

let prop_switch_set =
  QCheck.Test.make ~name:"Switch_id.Set agrees with Set.Make (Int)" ~count:500
    (QCheck.make QCheck.Gen.(triple ids ids (int_range (-3) (Switch_id.max_switches + 2))))
    (fun (la, lb, x) ->
      let a = Switch_id.Set.of_list la and b = Switch_id.Set.of_list lb in
      let ia = Int_set.of_list la and ib = Int_set.of_list lb in
      let agree s i = Switch_id.Set.elements s = Int_set.elements i in
      let in_range = x >= 0 && x < Switch_id.max_switches in
      let pred y = y mod 3 = abs x mod 3 in
      let order s =
        let seen = ref [] in
        Switch_id.Set.iter (fun y -> seen := y :: !seen) s;
        List.rev !seen
      in
      agree a ia && agree b ib
      && Switch_id.set_of_list la = a
      && Switch_id.Set.is_empty a = Int_set.is_empty ia
      && Switch_id.Set.cardinal a = Int_set.cardinal ia
      && Switch_id.Set.mem x a = Int_set.mem x ia
      && ((not in_range)
         || agree (Switch_id.Set.add x a) (Int_set.add x ia)
            && agree (Switch_id.Set.singleton x) (Int_set.singleton x))
      && agree (Switch_id.Set.union a b) (Int_set.union ia ib)
      && agree (Switch_id.Set.inter a b) (Int_set.inter ia ib)
      && agree (Switch_id.Set.diff a b) (Int_set.diff ia ib)
      && Switch_id.Set.equal a b = Int_set.equal ia ib
      && Switch_id.Set.for_all pred a = Int_set.for_all pred ia
      && Switch_id.Set.exists pred a = Int_set.exists pred ia
      && agree (Switch_id.Set.filter pred a) (Int_set.filter pred ia)
      && order a = Int_set.elements ia
      && Switch_id.Set.fold (fun y acc -> y :: acc) a [] = Int_set.fold (fun y acc -> y :: acc) ia []
      && Switch_id.Set.of_bits (a :> int) = a)

let test_switch_set_range () =
  let rejects name f =
    match f () with
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
    | exception Invalid_argument _ -> ()
  in
  rejects "add max" (fun () -> Switch_id.Set.add Switch_id.max_switches Switch_id.Set.empty);
  rejects "singleton -1" (fun () -> Switch_id.Set.singleton (-1));
  rejects "of_list" (fun () -> Switch_id.Set.of_list [ 0; Switch_id.max_switches ]);
  rejects "of_bits" (fun () -> Switch_id.Set.of_bits (-1));
  let top = Switch_id.Set.singleton (Switch_id.max_switches - 1) in
  Alcotest.(check (list int)) "highest id" [ Switch_id.max_switches - 1 ] (Switch_id.Set.elements top);
  Alcotest.(check int) "max_switches" (Sys.int_size - 1) Switch_id.max_switches

(* ---- Monitor.Cover against the list-based cover ---- *)

(* The cover as it was before the flat rewrite: node records built by a
   bottom-up fold over the counter trie, candidates and greedy steps as
   lists. *)
module Old_cover = struct
  type node_info = { s : Switch_id.Set.t; t_set : Switch_id.Set.t; cost : float; count : int }

  type candidates = {
    cands : (Prefix.t * node_info) list;
    cheapest_per_switch : float Switch_id.Map.t;
  }

  let build m =
    let active = Monitor.active m in
    let bindings =
      Array.map (fun (c : Counter.t) -> (c.prefix, c)) (Array.of_list (Monitor.counters m))
    in
    let candidates = ref [] in
    let merge_info prefix (value : Counter.t option) children =
      match value with
      | Some c ->
        { s = Switch_id.Set.inter c.switches active; t_set = Switch_id.Set.empty; cost = c.score; count = 1 }
      | None ->
        let info =
          match children with
          | [ only ] -> only
          | [ l; r ] ->
            {
              s = Switch_id.Set.union l.s r.s;
              t_set =
                Switch_id.Set.union
                  (Switch_id.Set.union l.t_set r.t_set)
                  (Switch_id.Set.inter l.s r.s);
              cost = l.cost +. r.cost;
              count = l.count + r.count;
            }
          | _ -> { s = Switch_id.Set.empty; t_set = Switch_id.Set.empty; cost = 0.0; count = 0 }
        in
        if (not (Switch_id.Set.is_empty info.t_set)) && info.count >= 2 then
          candidates := (prefix, info) :: !candidates;
        info
    in
    ignore
      (Trie.fold_bindings_bottom_up ~root:(Monitor.spec m).Task_spec.filter bindings ~f:merge_info);
    let cands = !candidates in
    let cheapest_per_switch =
      List.fold_left
        (fun acc (_, info) ->
          Switch_id.Set.fold
            (fun sw acc ->
              let current =
                match Switch_id.Map.find_opt sw acc with Some v -> v | None -> Float.infinity
              in
              Switch_id.Map.add sw (Float.min current info.cost) acc)
            info.t_set acc)
        Switch_id.Map.empty cands
    in
    { cands; cheapest_per_switch }

  let repair_after_merge candidates ancestor =
    {
      candidates with
      cands = List.filter (fun (q, _) -> not (Prefix.covers ancestor q)) candidates.cands;
    }

  let min_cost_bound candidates f =
    Switch_id.Set.fold
      (fun sw acc ->
        let c =
          match Switch_id.Map.find_opt sw candidates.cheapest_per_switch with
          | Some v -> v
          | None -> Float.infinity
        in
        Float.max acc c)
      f 0.0

  let solve_with { cands; cheapest_per_switch = _ } ~exclude f =
    if Switch_id.Set.is_empty f then Some ([], 0.0)
    else begin
      let keep (prefix, _) =
        match exclude with None -> true | Some p -> not (Prefix.covers prefix p)
      in
      let rec greedy chosen cost uncovered candidates =
        if Switch_id.Set.is_empty uncovered then Some (chosen, cost)
        else begin
          let useful =
            List.filter_map
              (fun (prefix, info) ->
                let gain = Switch_id.Set.cardinal (Switch_id.Set.inter info.t_set uncovered) in
                if gain = 0 then None else Some (prefix, info, gain))
              candidates
          in
          let best =
            List.fold_left
              (fun acc (prefix, info, gain) ->
                let ratio = info.cost /. float_of_int gain in
                match acc with
                | Some (_, _, best_ratio) when best_ratio <= ratio -> acc
                | _ -> Some (prefix, info, ratio))
              None useful
          in
          match best with
          | None -> None
          | Some (prefix, info, _) ->
            let remaining =
              List.filter
                (fun (q, _) -> not (Prefix.covers q prefix || Prefix.covers prefix q))
                candidates
            in
            greedy (prefix :: chosen) (cost +. info.cost)
              (Switch_id.Set.diff uncovered info.t_set)
              remaining
        end
      in
      greedy [] 0.0 f (List.filter keep cands)
    end
end

let same_candidates flat old =
  let flat = Monitor.Cover.to_list flat in
  List.length flat = List.length old.Old_cover.cands
  && List.for_all2
       (fun (p, t_set, cost) (q, (info : Old_cover.node_info)) ->
         Prefix.equal p q && Switch_id.Set.equal t_set info.t_set && same_float cost info.cost)
       flat old.Old_cover.cands

let same_solution flat old =
  match (flat, old) with
  | None, None -> true
  | Some (sol : Monitor.Cover.solution), Some (ancestors, cost) ->
    List.length sol.ancestors = List.length ancestors
    && List.for_all2 Prefix.equal sol.ancestors ancestors
    && same_float sol.cost cost
  | Some _, None | None, Some _ -> false

(* A random configuration: a /22 filter spread over [k] switches, reshaped
   by a few divide-and-merge rounds under random scores and allocations
   (zeros included, so some switches go inactive), then scored once more
   from a small value set so that cost ties are common. *)
let random_monitor rng =
  let k = [| 2; 4; 8 |].(Rng.int rng 3) in
  let filter = Prefix.of_string "10.0.0.0/22" in
  let topology =
    Topology.create (Rng.create (Rng.int rng 1000)) ~filter ~num_switches:8 ~switches_per_task:k
  in
  let spec =
    Task_spec.make ~kind:Task_spec.Heavy_hitter ~filter ~leaf_length:32 ~threshold:10.0 ()
  in
  let m = Monitor.create ~spec ~topology in
  let score () =
    List.iter
      (fun (c : Counter.t) ->
        c.score <- [| 0.0; 1.0; 2.0; 3.0; 5.0; Rng.float rng 20.0 |].(Rng.int rng 6))
      (Monitor.counters m)
  in
  for _ = 1 to 1 + Rng.int rng 6 do
    score ();
    let allocations =
      Switch_id.Set.fold
        (fun sw acc -> Switch_id.Map.add sw (if Rng.int rng 8 = 0 then 0 else 1 + Rng.int rng 24) acc)
        (Monitor.switches m) Switch_id.Map.empty
    in
    Monitor.configure m ~allocations
  done;
  score ();
  m

let random_subset rng set = Switch_id.Set.filter (fun _ -> Rng.int rng 2 = 0) set

let random_exclude rng m (cands : (Prefix.t * Old_cover.node_info) list) =
  match Rng.int rng 3 with
  | 0 -> None
  | 1 ->
    let counters = Monitor.counters m in
    Some (List.nth counters (Rng.int rng (List.length counters))).Counter.prefix
  | _ -> (
    match cands with
    | [] -> None
    | _ -> Some (fst (List.nth cands (Rng.int rng (List.length cands)))))

let prop_cover =
  QCheck.Test.make ~name:"flat cover = list cover (order, bound, solve, repairs)" ~count:150
    QCheck.small_nat (fun seed ->
      let rng = Rng.create (seed + 1) in
      let m = random_monitor rng in
      let flat = Monitor.Cover.build m in
      let old = ref (Old_cover.build m) in
      let ok = ref (same_candidates flat !old) in
      for round = 0 to 3 do
        for _ = 1 to 6 do
          let f = random_subset rng (Monitor.switches m) in
          let exclude = random_exclude rng m (!old).Old_cover.cands in
          ok :=
            !ok
            && same_float (Monitor.Cover.min_cost_bound flat f) (Old_cover.min_cost_bound !old f)
            && same_solution
                 (Monitor.Cover.solve_with flat ~exclude f)
                 (Old_cover.solve_with !old ~exclude f)
            && same_solution
                 (Monitor.Cover.solve_with flat ~exclude:None f)
                 (Old_cover.solve_with !old ~exclude:None f)
        done;
        (* Repair as divide-and-merge does after applying a cover. *)
        if round < 3 then begin
          match (!old).Old_cover.cands with
          | [] -> ()
          | cands ->
            let ancestor = fst (List.nth cands (Rng.int rng (List.length cands))) in
            Monitor.Cover.repair_all flat [ ancestor ];
            old := Old_cover.repair_after_merge !old ancestor;
            ok := !ok && same_candidates flat !old
        end
      done;
      let f = Monitor.switches m in
      !ok
      && same_solution (Monitor.Cover.solve m ~exclude:None f)
           (Old_cover.solve_with (Old_cover.build m) ~exclude:None f))

(* ---- rule sync against the Prefix.Set diff ---- *)

module Old_sync = struct
  let jot journal entry = match journal with None -> () | Some sink -> Journal.append sink entry

  let remove_stale ~journal ~epoch dp ~owner ~desired ~budget =
    let desired = Prefix.Set.of_list desired in
    let budget = ref budget in
    List.iter
      (fun p ->
        if (not (Prefix.Set.mem p desired)) && !budget > 0 then begin
          jot journal
            (Journal.Delete { epoch; task_id = owner; switch = Data_plane.id dp; prefix = p });
          match Data_plane.remove dp ~owner p with
          | Ok _ -> decr budget
          | Error (`Down | `Unreachable) -> ()
        end)
      (Data_plane.rules_of dp ~owner);
    !budget

  let install_missing ~journal ~epoch dp ~owner ~desired ~budget =
    let installed = Prefix.Set.of_list (Data_plane.rules_of dp ~owner) in
    let budget = ref budget and added = ref Prefix.Set.empty and failures = ref 0 in
    Prefix.Set.iter
      (fun p ->
        if (not (Prefix.Set.mem p installed)) && !budget > 0 then begin
          jot journal
            (Journal.Install { epoch; task_id = owner; switch = Data_plane.id dp; prefix = p });
          match Data_plane.install dp ~owner p with
          | Ok () ->
            decr budget;
            added := Prefix.Set.add p !added
          | Error `Failed ->
            decr budget;
            incr failures
          | Error (`Capacity | `Duplicate | `Down | `Unreachable) -> ()
        end)
      (Prefix.Set.of_list desired);
    (!budget, !added, !failures)
end

(* Rules drawn from a small pool of nested prefixes, so installed and
   desired sets overlap, interleave and share first addresses. *)
let rule_pool =
  Array.init 24 (fun i ->
      let length = 26 + (i mod 4) in
      Prefix.nth_descendant (Prefix.of_string "10.0.0.0/24") ~length (i * 7 mod (1 lsl (length - 24))))

let random_rules rng =
  Array.to_list rule_pool |> List.filter (fun _ -> Rng.int rng 3 = 0) |> List.sort_uniq Prefix.compare

type net = { planes : Data_plane.t array; sink : Journal.sink }

(* Two identical networks: same capacities, same pre-installed rules, same
   fault schedule (install failures, maybe one switch down). *)
let random_nets rng ~switches ~owners =
  let capacity = 4 + Rng.int rng 30 in
  let failure_rate = [| 0.0; 0.2; 0.5 |].(Rng.int rng 3) in
  let fault_seed = Rng.int rng 10_000 in
  let down = if Rng.int rng 3 = 0 then Some (Rng.int rng switches) else None in
  let installed =
    Array.init switches (fun _ -> Array.init owners (fun _ -> random_rules rng))
  in
  let make () =
    let faults =
      Fault_model.create
        { Fault_model.zero with Fault_model.seed = fault_seed; install_failure_rate = failure_rate }
        ~num_switches:switches
    in
    (match down with
    | Some switch ->
      Fault_model.schedule_crash faults ~at:1 ~switch ~downtime:5;
      ignore (Fault_model.begin_epoch faults)
    | None -> ());
    let planes =
      Array.init switches (fun id ->
          let sw = Switch.create ~id ~capacity in
          Array.iteri
            (fun owner rules ->
              List.iter (fun p -> ignore (Tcam.install (Switch.tcam sw) ~owner p)) rules)
            installed.(id);
          Data_plane.create ~faults sw)
    in
    { planes; sink = Journal.memory () }
  in
  (make (), make ())

let prop_rule_sync =
  QCheck.Test.make ~name:"merge-walk rule sync = Prefix.Set diff" ~count:300 QCheck.small_nat
    (fun seed ->
      let rng = Rng.create (seed + 101) in
      let switches = 1 + Rng.int rng 3 and owners = 1 + Rng.int rng 4 in
      let walk, diff = random_nets rng ~switches ~owners in
      let desired = Array.init owners (fun _ -> Array.init switches (fun _ -> random_rules rng)) in
      let budget0 =
        Array.init switches (fun _ -> if Rng.int rng 2 = 0 then max_int else Rng.int rng 8)
      in
      let b_walk = Array.copy budget0 and b_diff = Array.copy budget0 in
      let epoch = Rng.int rng 100 in
      let ok = ref true in
      (* Pass 1 for every task, then pass 2, as a tick does. *)
      for owner = 0 to owners - 1 do
        for i = 0 to switches - 1 do
          b_walk.(i) <-
            Controller.Rule_sync.remove_stale ~journal:(Some walk.sink) ~epoch walk.planes.(i)
              ~owner ~desired:desired.(owner).(i) ~budget:b_walk.(i);
          b_diff.(i) <-
            Old_sync.remove_stale ~journal:(Some diff.sink) ~epoch diff.planes.(i) ~owner
              ~desired:desired.(owner).(i) ~budget:b_diff.(i)
        done
      done;
      let tally = Controller.Rule_sync.new_tally () in
      for owner = 0 to owners - 1 do
        for i = 0 to switches - 1 do
          b_walk.(i) <-
            Controller.Rule_sync.install_missing ~journal:(Some walk.sink) ~epoch walk.planes.(i)
              ~owner ~desired:desired.(owner).(i) ~budget:b_walk.(i) tally;
          let budget, added, failures =
            Old_sync.install_missing ~journal:(Some diff.sink) ~epoch diff.planes.(i) ~owner
              ~desired:desired.(owner).(i) ~budget:b_diff.(i)
          in
          b_diff.(i) <- budget;
          ok :=
            !ok
            && Prefix.Set.equal tally.Controller.Rule_sync.fresh added
            && tally.Controller.Rule_sync.landed = Prefix.Set.cardinal added
            && tally.Controller.Rule_sync.failed = failures
        done
      done;
      let entries net = List.map Journal.entry_to_string (Journal.entries net.sink) in
      let dump net = Array.map (fun dp -> Tcam.dump (Data_plane.tcam dp)) net.planes in
      !ok && b_walk = b_diff && entries walk = entries diff && dump walk = dump diff)

(* Without a journal the walk must touch the switches identically. *)
let test_rule_sync_no_journal () =
  let sw = Switch.create ~id:0 ~capacity:8 in
  let dp = Data_plane.create sw in
  List.iter (fun p -> ignore (Tcam.install (Switch.tcam sw) ~owner:1 (Prefix.of_string p)))
    [ "10.0.0.0/26"; "10.0.0.64/26"; "10.0.0.128/25" ];
  let desired = List.map Prefix.of_string [ "10.0.0.0/26"; "10.0.0.128/26"; "10.0.0.192/26" ] in
  let budget = Controller.Rule_sync.remove_stale ~journal:None ~epoch:0 dp ~owner:1 ~desired ~budget:1 in
  Alcotest.(check int) "one removal spent the budget" 0 budget;
  Alcotest.(check (list string)) "first stale rule removed"
    [ "10.0.0.0/26"; "10.0.0.128/25" ]
    (List.map Prefix.to_string (Data_plane.rules_of dp ~owner:1));
  let tally = Controller.Rule_sync.new_tally () in
  let budget =
    Controller.Rule_sync.install_missing ~journal:None ~epoch:0 dp ~owner:1 ~desired ~budget:10 tally
  in
  Alcotest.(check int) "two installs" 8 budget;
  Alcotest.(check int) "landed" 2 tally.Controller.Rule_sync.landed;
  Alcotest.(check int) "rules" 4 (Data_plane.rule_count dp ~owner:1)

(* ---- the switch-count cap ---- *)

let too_many = Switch_id.max_switches + 1

let contains s sub =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

let rejects name f =
  match f () with
  | _ -> Alcotest.failf "%s: %d switches must be rejected" name too_many
  | exception Invalid_argument msg ->
    Alcotest.(check bool) (name ^ " names the cap") true
      (contains msg (string_of_int Switch_id.max_switches))

let test_cap_switch_network () =
  rejects "Switch.network" (fun () -> Switch.network ~num_switches:too_many ~capacity:8);
  Alcotest.(check int) "62 switches are fine" Switch_id.max_switches
    (Array.length (Switch.network ~num_switches:Switch_id.max_switches ~capacity:8))

let strategy = Allocator.Dream Dream_allocator.default_config

let test_cap_controller_create () =
  rejects "Controller.create" (fun () ->
      Controller.create ~config:Config.default ~strategy ~num_switches:too_many ~capacity:8)

let test_cap_topology_create () =
  rejects "Topology.create" (fun () ->
      Topology.create (Rng.create 1) ~filter:(Prefix.of_string "10.0.0.0/16")
        ~num_switches:too_many ~switches_per_task:4)

(* Rewrite the first "num_switches N" line of a codec document. *)
let with_num_switches body n =
  let key = "\nnum_switches " in
  let start =
    let rec find i =
      if String.sub body i (String.length key) = key then i else find (i + 1)
    in
    find 0 + String.length key
  in
  let stop = String.index_from body start '\n' in
  String.sub body 0 start ^ string_of_int n ^ String.sub body stop (String.length body - stop)

let test_cap_topology_parse () =
  let topology =
    Topology.create (Rng.create 1) ~filter:(Prefix.of_string "10.0.0.0/16") ~num_switches:4
      ~switches_per_task:4
  in
  let w = Codec.writer () in
  Topology.emit w topology;
  let body = with_num_switches ("\n" ^ Codec.contents w) too_many in
  let body = String.sub body 1 (String.length body - 1) in
  rejects "Topology.parse" (fun () -> Topology.parse (Codec.reader_of_string body))

let test_cap_checkpoint () =
  let controller = Controller.create ~config:Config.default ~strategy ~num_switches:4 ~capacity:8 in
  let doc = Controller.snapshot controller in
  let magic = String.sub doc 0 (String.index doc '\n') in
  let body =
    match Codec.unseal ~magic doc with Ok body -> body | Error e -> Alcotest.fail e
  in
  (match Controller.restore (Codec.seal ~magic body) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "resealed snapshot must restore: %s" e);
  let forged = Codec.seal ~magic (with_num_switches body too_many) in
  rejects "Controller.restore" (fun () -> Controller.restore forged)

let () =
  Alcotest.run "dream.rewrites"
    [
      ( "switch-set",
        [
          QCheck_alcotest.to_alcotest prop_switch_set;
          Alcotest.test_case "id range" `Quick test_switch_set_range;
        ] );
      ("cover", [ QCheck_alcotest.to_alcotest prop_cover ]);
      ( "rule-sync",
        [
          QCheck_alcotest.to_alcotest prop_rule_sync;
          Alcotest.test_case "without a journal" `Quick test_rule_sync_no_journal;
        ] );
      ( "switch-cap",
        [
          Alcotest.test_case "Switch.network" `Quick test_cap_switch_network;
          Alcotest.test_case "Controller.create" `Quick test_cap_controller_create;
          Alcotest.test_case "Topology.create" `Quick test_cap_topology_create;
          Alcotest.test_case "Topology.parse" `Quick test_cap_topology_parse;
          Alcotest.test_case "checkpoint restore" `Quick test_cap_checkpoint;
        ] );
    ]
