module Prefix = Dream_prefix.Prefix
module Aggregate = Dream_traffic.Aggregate

type stats = { installs : int; removals : int; fetches : int }

(* One owner's installed prefixes and their number, kept in step so that
   counting an owner's rules does not walk the set. *)
type rules = { mutable set : Prefix.Set.t; mutable count : int }

type t = {
  capacity : int;
  tables : (int, rules) Hashtbl.t; (* owner -> installed prefixes *)
  mutable used : int;
  mutable installs : int;
  mutable removals : int;
  mutable fetches : int;
}

type delta = { added : int; removed : int }

let create ~capacity =
  if capacity <= 0 then invalid_arg "Tcam.create: capacity must be positive";
  { capacity; tables = Hashtbl.create 64; used = 0; installs = 0; removals = 0; fetches = 0 }

let capacity t = t.capacity

let used t = t.used

let free t = t.capacity - t.used

let table t owner =
  match Hashtbl.find_opt t.tables owner with
  | Some rules -> rules
  | None ->
    let rules = { set = Prefix.Set.empty; count = 0 } in
    Hashtbl.replace t.tables owner rules;
    rules

let used_by t ~owner =
  match Hashtbl.find t.tables owner with
  | rules -> rules.count
  | exception Not_found -> 0

let owners t =
  Hashtbl.fold (fun owner rules acc -> if rules.count = 0 then acc else owner :: acc) t.tables []

let rules_of t ~owner =
  match Hashtbl.find_opt t.tables owner with
  | Some rules -> Prefix.Set.elements rules.set
  | None -> []

let dump t =
  Hashtbl.fold
    (fun owner rules acc ->
      if rules.count = 0 then acc else (owner, Prefix.Set.elements rules.set) :: acc)
    t.tables []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let install t ~owner p =
  let rules = table t owner in
  if Prefix.Set.mem p rules.set then Error `Duplicate
  else if t.used >= t.capacity then Error `Capacity
  else begin
    rules.set <- Prefix.Set.add p rules.set;
    rules.count <- rules.count + 1;
    t.used <- t.used + 1;
    t.installs <- t.installs + 1;
    Ok ()
  end

let remove t ~owner p =
  match Hashtbl.find_opt t.tables owner with
  | None -> false
  | Some rules ->
    if Prefix.Set.mem p rules.set then begin
      rules.set <- Prefix.Set.remove p rules.set;
      rules.count <- rules.count - 1;
      t.used <- t.used - 1;
      t.removals <- t.removals + 1;
      true
    end
    else false

let remove_owner t ~owner =
  match Hashtbl.find_opt t.tables owner with
  | None -> 0
  | Some rules ->
    let n = rules.count in
    t.used <- t.used - n;
    t.removals <- t.removals + n;
    Hashtbl.remove t.tables owner;
    n

let sync t ~owner ~prefixes =
  let target = Prefix.Set.of_list prefixes in
  let rules = table t owner in
  let to_remove = Prefix.Set.diff rules.set target in
  let to_add = Prefix.Set.diff target rules.set in
  let removed = Prefix.Set.cardinal to_remove in
  let added = Prefix.Set.cardinal to_add in
  if t.used - removed + added > t.capacity then
    invalid_arg
      (Printf.sprintf "Tcam.sync: owner %d would exceed capacity (%d used, -%d +%d, cap %d)"
         owner t.used removed added t.capacity);
  rules.set <- target;
  rules.count <- rules.count - removed + added;
  t.used <- t.used - removed + added;
  t.removals <- t.removals + removed;
  t.installs <- t.installs + added;
  { added; removed }

let read t ~owner aggregate =
  let rules = rules_of t ~owner in
  t.fetches <- t.fetches + used_by t ~owner;
  (* Rule sets come out of the Prefix.Set in compare order, which is
     first-address order — exactly the sorted batch the flat store answers
     in one narrowing pass.  Element-wise identical to mapping
     [Aggregate.volume]. *)
  Aggregate.read_prefixes aggregate rules

let wipe t =
  Hashtbl.reset t.tables;
  t.used <- 0

let stats t = { installs = t.installs; removals = t.removals; fetches = t.fetches }

let reset_stats t =
  t.installs <- 0;
  t.removals <- 0;
  t.fetches <- 0
