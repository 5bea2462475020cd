(** Monitor configuration of one task: the set of prefixes it currently
    counts, and the task-independent divide-and-merge algorithm
    (Algorithm 2) that reshapes this set to fit per-switch allocations.

    Invariant: the monitored prefixes always partition the task's flow
    filter — divide replaces a prefix by both children, merge replaces all
    descendants of an ancestor by that ancestor (the paper's footnote 6:
    merging to the common ancestor avoids overlapping counters).  A counter
    occupies one TCAM entry on every switch in its S set (the switches that
    can see its traffic).

    The partition is stored as one array in [Prefix.compare] order.  A
    divide puts the left child in the parent's slot and the right child
    next to it; a merge collapses the run of counters inside the ancestor to
    one slot.  Readers walk the array with {!get} or {!iter}. *)

type t

val create : spec:Task_spec.t -> topology:Dream_traffic.Topology.t -> t
(** Initial configuration: a single counter on the task's flow filter
    (Section 5.1: each new task starts with one counter). *)

val spec : t -> Task_spec.t

val topology : t -> Dream_traffic.Topology.t

val num_counters : t -> int

val get : t -> int -> Counter.t
(** [get t i] is the [i]-th counter in prefix order, for
    [0 <= i < num_counters t].  Counters never share a first address, so
    the order is also first-address order.
    @raise Invalid_argument outside that range. *)

val iter : (Counter.t -> unit) -> t -> unit
(** The counters in prefix order. *)

val counters : t -> Counter.t list
(** The counters in prefix order, as a fresh list (for tests and cold
    paths; hot readers use {!get} or {!iter}). *)

val lower_bound : t -> lo:int -> hi:int -> Dream_prefix.Prefix.address -> int
(** [lower_bound t ~lo ~hi a] is the first index in [\[lo, hi)] whose
    counter starts at or after address [a] ([hi] if none).  The counters
    below a trie node form the run of indices between two such bounds, so a
    caller can walk the trie the array implies without building it. *)

val find : t -> Dream_prefix.Prefix.t -> Counter.t option

val generation : t -> int
(** Bumped by every {!ingest}, {!divide} and {!merge} (configure divides
    and merges): results derived from the counters' prefixes and volumes
    stay valid while it holds still. *)

val switches : t -> Dream_traffic.Switch_id.Set.t
(** All switches that see the task's filter. *)

val usage : t -> Dream_traffic.Switch_id.t -> int
(** TCAM entries this task occupies on a switch. *)

val active : t -> Dream_traffic.Switch_id.Set.t
(** Switches the task currently installs rules on — those with a non-zero
    allocation.  A baseline allocator (e.g. Equal under extreme overload)
    can grant zero entries on a switch; the task then goes blind there
    instead of violating switch capacity. *)

val usage_map : t -> int Dream_traffic.Switch_id.Map.t

val rules_for : t -> Dream_traffic.Switch_id.t -> Dream_prefix.Prefix.t list
(** Prefixes to install on a switch (counters whose S contains it). *)

val ingest :
  t -> (Dream_traffic.Switch_id.t * (Dream_prefix.Prefix.t * float) list) list -> unit
(** Deliver fetched per-switch counter readings (Algorithm 1 line 2). *)

val bottlenecked :
  t -> allocations:int Dream_traffic.Switch_id.Map.t -> Dream_traffic.Switch_id.Set.t
(** Switches where the task has used its entire allocation — the switches
    whose missed events the local estimators should attribute (Section
    5.3). *)

module Cover : sig
  type solution = { ancestors : Dream_prefix.Prefix.t list; cost : float }
  (** Disjoint ancestors to merge, and the total score of the counters the
      merges destroy. *)

  val solve :
    t ->
    exclude:Dream_prefix.Prefix.t option ->
    Dream_traffic.Switch_id.Set.t ->
    solution option
  (** [solve t ~exclude f] finds a low-cost set of ancestors whose merging
      frees at least one entry on every switch in [f] (the cover() function
      of Section 5.2, greedy weighted set cover over the T_j sets).
      Candidates covering [exclude] are ignored (so a merge never destroys
      the counter about to be divided).  [None] if [f] cannot be covered.
      Equivalent to [solve_with (build t) ~exclude f]. *)

  (** {2 Reusable candidates}

      Divide-and-merge builds the candidates once and keeps them across
      merges.  They live in flat buffers owned by the monitor, so a later
      {!build} on the same monitor overwrites them. *)

  type candidates

  val build : t -> candidates
  (** Every ancestor whose merge would free an entry on some switch and
      destroy at least two counters, in prefix order (ancestors before
      their descendants), with its T set and cost. *)

  val to_list : candidates -> (Dream_prefix.Prefix.t * Dream_traffic.Switch_id.Set.t * float) list
  (** The candidates still alive, in build order: (ancestor, T set, cost). *)

  val min_cost_bound : candidates -> Dream_traffic.Switch_id.Set.t -> float
  (** A lower bound on the cost of any cover of the given switches: the
      largest per-switch cheapest candidate cost, over the candidates as
      built (repairs leave it a valid under-estimate). *)

  val solve_with :
    candidates ->
    exclude:Dream_prefix.Prefix.t option ->
    Dream_traffic.Switch_id.Set.t ->
    solution option
  (** {!solve} over already built candidates. *)

  val repair_all : candidates -> Dream_prefix.Prefix.t list -> unit
  (** Drop, in place, every candidate the merges at these ancestors
      swallowed (each ancestor itself and everything below it). *)
end

val divide : t -> Dream_prefix.Prefix.t -> unit
(** Replace the counter on exactly this prefix by its two children, each
    inheriting half its score and CD mean.  No-op when no counter is on the
    prefix or it is a /32. *)

val merge : t -> Dream_prefix.Prefix.t -> unit
(** Replace every counter under this prefix by one counter on it, carrying
    their summed volumes, score and CD mean (summed in prefix order).
    No-op when no counter lies strictly below it. *)

val configure : t -> allocations:int Dream_traffic.Switch_id.Map.t -> unit
(** Algorithm 2: first merge until no switch exceeds its allocation, then
    repeatedly divide the highest-scoring counter, paying for each divide
    with a cover-merge when it would overflow a switch, while the score
    outweighs the merge cost.  Scores must have been set by the task-
    dependent scorer beforehand. *)

val is_partition : t -> bool
(** Whether the counters exactly partition the filter (test hook). *)

val emit : Dream_util.Codec.writer -> t -> unit
(** Append the active-switch set and every counter (in prefix order) to a
    checkpoint document.  The spec and topology are serialized by the
    owning task, not here. *)

val parse :
  Dream_util.Codec.reader ->
  spec:Task_spec.t ->
  topology:Dream_traffic.Topology.t ->
  t
(** Inverse of {!emit}; counters may be listed in any order, and
    per-switch usage is recomputed.  @raise Dream_util.Codec.Parse_error on
    mismatch, or when the counters do not partition the filter (one lies
    outside it, repeats, overlaps another, or addresses are left
    uncovered). *)
