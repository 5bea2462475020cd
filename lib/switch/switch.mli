(** One simulated switch: an identifier plus its TCAM measurement pool.

    The network is a flat set of these (DREAM is topology-agnostic: tasks
    only care which switches see their traffic). *)

type t

val create : id:Dream_traffic.Switch_id.t -> capacity:int -> t

val id : t -> Dream_traffic.Switch_id.t

val tcam : t -> Tcam.t

val capacity : t -> int

val network : num_switches:int -> capacity:int -> t array
(** [network ~num_switches ~capacity] builds switches 0..n-1 with equal
    capacity, indexed by id.
    @raise Invalid_argument if [num_switches <= 0], [num_switches >
    Switch_id.max_switches] or [capacity <= 0]. *)
