type t = int

let equal = Int.equal
let compare = Int.compare
let pp ppf s = Format.fprintf ppf "sw%d" s

(* One bit per switch, kept below the sign bit so every set is a
   non-negative immediate int. *)
let max_switches = Sys.int_size - 1

module Set = struct
  type elt = t
  type t = int

  let empty = 0

  let is_empty s = s = 0

  let in_range x = x >= 0 && x < max_switches

  let bit x =
    if not (in_range x) then
      invalid_arg "Switch_id.Set: switch id outside [0, Switch_id.max_switches)";
    1 lsl x

  let mem x s = in_range x && s land (1 lsl x) <> 0

  let add x s = s lor bit x

  let singleton x = bit x

  let union a b = a lor b

  let inter a b = a land b

  let diff a b = a land lnot b

  let equal = Int.equal

  let rec cardinal_acc s n = if s = 0 then n else cardinal_acc (s land (s - 1)) (n + 1)

  let cardinal s = cardinal_acc s 0

  (* Every walk below visits bits in ascending order, the iteration order
     of [Set.Make (Int)]. *)
  let rec iter_from f s x =
    if s <> 0 then begin
      if s land 1 <> 0 then f x;
      iter_from f (s lsr 1) (x + 1)
    end

  let iter f s = iter_from f s 0

  let rec fold_from f s x acc =
    if s = 0 then acc
    else fold_from f (s lsr 1) (x + 1) (if s land 1 <> 0 then f x acc else acc)

  let fold f s acc = fold_from f s 0 acc

  let rec for_all_from p s x = s = 0 || ((s land 1 = 0 || p x) && for_all_from p (s lsr 1) (x + 1))

  let for_all p s = for_all_from p s 0

  let rec exists_from p s x = s <> 0 && ((s land 1 <> 0 && p x) || exists_from p (s lsr 1) (x + 1))

  let exists p s = exists_from p s 0

  let rec filter_from p s x acc =
    if s = 0 then acc
    else
      filter_from p (s lsr 1) (x + 1)
        (if s land 1 <> 0 && p x then acc lor (1 lsl x) else acc)

  let filter p s = filter_from p s 0 0

  let rec elements_from s x acc =
    if x < 0 then acc
    else elements_from s (x - 1) (if s land (1 lsl x) <> 0 then x :: acc else acc)

  let elements s = elements_from s (max_switches - 1) []

  let of_bits m =
    if m < 0 then invalid_arg "Switch_id.Set.of_bits: negative mask";
    m

  let rec of_list_acc l acc = match l with [] -> acc | x :: rest -> of_list_acc rest (add x acc)

  let of_list l = of_list_acc l empty
end

module Map = Map.Make (Int)

let set_of_list l = Set.of_list l

let pp_set ppf set =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ',') pp)
    (Set.elements set)
