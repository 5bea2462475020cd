(* Spans of a traced pass, kept in memory and written out at the end as
   JSON lines.  Each span times one call (or one per-epoch batch of calls)
   the benchmark makes into a layer's public functions: name, wall start
   and end (ms on the monotonic clock, relative to the pass start), CPU
   ms, the enclosing span, the epoch and the number of calls batched.
   Spans the benchmark takes around its own calls have the epoch loop
   ([epoch]) as parent; phases the controller's own Profile measures
   inside a tick carry CPU time only (start and end are null) and
   [core.tick] as parent. *)

type span = {
  name : string;
  start_ms : float option;
  end_ms : float option;
  cpu_ms : float;
  parent : string;
  epoch : int;
  items : int;
}

type t = { origin : float; mutable spans : span list; mutable count : int }

let create () = { origin = Clocks.wall_ms (); spans = []; count = 0 }

let add t s =
  t.spans <- s :: t.spans;
  t.count <- t.count + 1

(* [timed t ~name ~parent ~epoch ~items f] runs [f] as a span and returns
   its result with the wall and CPU ms it took. *)
let timed t ~name ~parent ~epoch ~items f =
  let s = Clocks.stamp () in
  let x = f () in
  let e = Clocks.stamp () in
  add t
    { name; start_ms = Some (s.Clocks.wall -. t.origin); end_ms = Some (e.Clocks.wall -. t.origin);
      cpu_ms = e.cpu -. s.cpu; parent; epoch; items };
  (x, e.wall -. s.wall, e.cpu -. s.cpu)

let phase t ~name ~epoch ~cpu_ms =
  add t { name; start_ms = None; end_ms = None; cpu_ms; parent = "core.tick"; epoch; items = 1 }

let to_json s =
  let module J = Dream_obs.Json in
  let opt = function Some v -> J.Float v | None -> J.Null in
  J.Obj
    [ ("name", J.Str s.name); ("start_ms", opt s.start_ms); ("end_ms", opt s.end_ms);
      ("cpu_ms", J.Float s.cpu_ms); ("parent", J.Str s.parent); ("epoch", J.Int s.epoch);
      ("items", J.Int s.items) ]

let write t ~path =
  let oc = open_out path in
  List.iter
    (fun s ->
      output_string oc (Dream_obs.Json.to_string (to_json s));
      output_char oc '\n')
    (List.rev t.spans);
  close_out oc
