module Prefix = Dream_prefix.Prefix
module Fault_model = Dream_fault.Fault_model

type fetch_error = [ `Down | `Timeout | `Unreachable ]

type install_error = [ `Capacity | `Duplicate | `Down | `Failed | `Unreachable ]

type t = { switch : Switch.t; faults : Fault_model.t option }

let create ?faults switch = { switch; faults }

let switch t = t.switch

let id t = Switch.id t.switch

let tcam t = Switch.tcam t.switch

let faults t = t.faults

let down t =
  match t.faults with None -> false | Some fm -> Fault_model.is_down fm (id t)

let partitioned t =
  match t.faults with None -> false | Some fm -> Fault_model.is_partitioned fm (id t)

let latency_factor t =
  match t.faults with None -> 1.0 | Some fm -> Fault_model.latency_factor fm (id t)

let rules_of t ~owner = Tcam.rules_of (tcam t) ~owner

let rule_count t ~owner = Tcam.used_by (tcam t) ~owner

let read t ~owner aggregate =
  if down t then Error `Down
    (* A partition is not a timeout: nothing is routed, so the fetch is
       never issued, never priced, and consumes no data-stream draws.  The
       TCAM keeps counting underneath. *)
  else if partitioned t then Error `Unreachable
  else begin
    (* The fetch is issued (and priced through the TCAM stats) before the
       timeout verdict: a timed-out batch costs the control loop the same
       wire time as a successful one. *)
    let pairs = Tcam.read (tcam t) ~owner aggregate in
    match t.faults with
    | None -> Ok pairs
    | Some fm ->
      if Fault_model.fetch_times_out fm (id t) then Error `Timeout
      else begin
        let surviving =
          List.filter_map
            (fun (p, v) ->
              if Fault_model.lose_counter fm (id t) then None
              else Some (p, Fault_model.perturb fm (id t) v))
            pairs
        in
        Ok surviving
      end
  end

let install t ~owner p =
  if down t then Error `Down
  else if partitioned t then Error `Unreachable
  else begin
    match t.faults with
    | Some fm when Fault_model.install_fails fm (id t) -> Error `Failed
    | Some _ | None -> (Tcam.install (tcam t) ~owner p :> (unit, install_error) result)
  end

let remove t ~owner p =
  if down t then Error `Down
  else if partitioned t then Error `Unreachable
  else Ok (Tcam.remove (tcam t) ~owner p)

let crash t =
  Tcam.wipe (tcam t)

type audit_result = { strays_removed : int; missing_installed : int }

let audit t ~expected =
  if down t then Error `Down
  else if partitioned t then Error `Unreachable
  else begin
    let tcam = tcam t in
    let expected_sets =
      List.map (fun (owner, rules) -> (owner, Prefix.Set.of_list rules)) expected
    in
    let want_of owner =
      match List.assoc_opt owner expected_sets with
      | Some set -> set
      | None -> Prefix.Set.empty
    in
    let removed = ref 0 in
    let installed = ref 0 in
    (* Pass 1: delete strays first so reinstalls can never transiently
       overflow the table (the expected state fit before the crash). *)
    List.iter
      (fun (owner, rules) ->
        let want = want_of owner in
        List.iter
          (fun p ->
            if (not (Prefix.Set.mem p want)) && Tcam.remove tcam ~owner p then incr removed)
          rules)
      (Tcam.dump tcam);
    (* Pass 2: reinstall missing rules.  Recovery runs over the reliable
       control channel (retried until acked), so installs bypass the
       fault model's per-message install failures. *)
    List.iter
      (fun (owner, want) ->
        let have = Prefix.Set.of_list (Tcam.rules_of tcam ~owner) in
        Prefix.Set.iter
          (fun p ->
            if not (Prefix.Set.mem p have) then begin
              match Tcam.install tcam ~owner p with
              | Ok () -> incr installed
              | Error (`Capacity | `Duplicate) -> ()
            end)
          want)
      expected_sets;
    Ok { strays_removed = !removed; missing_installed = !installed }
  end
