(* The benchmark's two clocks.  Wall time comes from the monotonic clock
   and is what end-to-end metrics report; CPU time is the clock the
   controller's Profile spans use, so self-times subtract like from like. *)

let wall_ms () = Int64.to_float (Monotonic_clock.now ()) /. 1e6

let cpu_ms () = Sys.time () *. 1000.0

type stamp = { wall : float; cpu : float }

let stamp () = { wall = wall_ms (); cpu = cpu_ms () }

(* [time f] runs [f] and returns its result with the wall and CPU
   milliseconds it took. *)
let time f =
  let s = stamp () in
  let x = f () in
  let e = stamp () in
  (x, e.wall -. s.wall, e.cpu -. s.cpu)

(* Words allocated so far, counting each word once: minor allocations
   plus direct major allocations (promoted words are already counted as
   minor). *)
let allocated_words (s : Gc.stat) = s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words
