(* The tail rule: a timing is summarised by its median and by the highest
   percentile that still has at least ten samples beyond it. *)

(* Percentiles the rule may pick, highest first. *)
let ladder = [ 99.9; 99.5; 99.0; 98.0; 95.0; 90.0; 75.0; 50.0 ]

(* Samples ranked strictly above the interpolation position of [p] in a
   sample of [n] (Dream_util.Stats.percentile interpolates linearly between
   closest ranks). *)
let beyond ~n p = n - 1 - int_of_float (floor (float_of_int (n - 1) *. p /. 100.0))

(* The tail percentile of a sample of [n]: p98 at 560 samples.  [None]
   below 20 samples, where not even the median has ten beyond it. *)
let rank n = List.find_opt (fun p -> beyond ~n p >= 10) ladder
