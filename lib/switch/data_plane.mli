(** Fallible data-plane interface to one switch.

    The controller talks to switches through this wrapper instead of
    touching {!Tcam} directly, so every operation it issues can fail the
    way a real southbound channel fails: the switch may be [`Down]
    (crashed, its TCAM contents lost), a counter fetch may [`Timeout], a
    fetched batch may come back with counters missing or perturbed, and a
    rule install may simply not land ([`Failed]).

    Without a fault model every operation reduces exactly to the
    underlying {!Tcam} call — same results, same stats — so fault-free
    runs are bit-for-bit identical to driving the TCAM directly. *)

type fetch_error = [ `Down | `Timeout | `Unreachable ]

type install_error = [ `Capacity | `Duplicate | `Down | `Failed | `Unreachable ]

type t

val create : ?faults:Dream_fault.Fault_model.t -> Switch.t -> t
(** The fault model is shared across the network's data planes; pass the
    same [t] to every switch so per-switch streams line up with ids. *)

val switch : t -> Switch.t

val id : t -> Dream_traffic.Switch_id.t

val tcam : t -> Tcam.t

val faults : t -> Dream_fault.Fault_model.t option

val down : t -> bool
(** Whether the switch is currently crashed (always [false] without a
    fault model). *)

val partitioned : t -> bool
(** Whether the control channel to this switch is currently partitioned:
    the TCAM keeps counting (unlike a crash) but every control operation
    returns [`Unreachable] until the window closes. *)

val latency_factor : t -> float
(** Control-channel latency multiplier for this switch (straggler
    inflation); 1.0 without a fault model. *)

val rules_of : t -> owner:int -> Dream_prefix.Prefix.t list

val rule_count : t -> owner:int -> int
(** [List.length (rules_of t ~owner)] without building the list; like
    {!rules_of}, it reads the TCAM even when the switch is down. *)

val read :
  t ->
  owner:int ->
  Dream_traffic.Aggregate.t ->
  ((Dream_prefix.Prefix.t * float) list, fetch_error) result
(** Fetch one task's counters.  A [`Timeout] still prices the fetch in the
    TCAM stats (the bytes were sent; the reply never came), so retries cost
    modelled control-loop time.  On success, individual counters may have
    been dropped ([counter_loss_rate]) or perturbed ([perturb_stddev]). *)

val install :
  t -> owner:int -> Dream_prefix.Prefix.t -> (unit, install_error) result

val remove :
  t -> owner:int -> Dream_prefix.Prefix.t -> (bool, [ `Down | `Unreachable ]) result

val crash : t -> unit
(** Wipe the switch's TCAM (crash semantics: state lost, no priced
    deletes).  The fault model decides {e when}; the controller applies it. *)

type audit_result = { strays_removed : int; missing_installed : int }

val audit :
  t ->
  expected:(int * Dream_prefix.Prefix.t list) list ->
  (audit_result, [ `Down | `Unreachable ]) result
(** Reconcile the switch's installed rules against [expected] (owner →
    prefixes, as produced by {!Tcam.dump}): stray rules are deleted first,
    then missing rules reinstalled, so the table never transiently exceeds
    capacity.  Used by controller recovery; [`Down] if the switch is
    currently crashed (it will be reconciled when it comes back). *)
