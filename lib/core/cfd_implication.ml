open Conddep_relational

let () = Guard.register_probe "cfd_implication.implies"

(* Exact CFD implication (coNP-complete, [9]; Table 1).

   Σ ⊭ φ iff some model of Σ violates φ; since a violation involves at most
   two tuples and CFD satisfaction is closed under sub-instances, Σ ⊭ φ iff
   there is a TWO-tuple instance of φ's relation satisfying Σ's CFDs on
   that relation and violating φ.  (Σ's CFDs on other relations are
   satisfied by leaving those relations empty.)  We search for such a pair
   by backtracking over per-attribute candidate values; two fresh values
   per infinite-domain attribute suffice to realize every relevant
   equality pattern between the two tuples. *)

exception Budget_exceeded

let candidates constraints rel_schema =
  Array.map
    (fun attr ->
      let name = Attribute.name attr in
      match Domain.values (Attribute.domain attr) with
      | Some vs -> vs
      | None ->
          let consts =
            List.concat_map
              (fun nf ->
                List.filter_map
                  (fun (a, v) -> if String.equal a name then Some v else None)
                  (Cfd.nf_constants nf))
              constraints
            |> List.sort_uniq Value.compare
          in
          let fresh1 = Domain.fresh (Attribute.domain attr) ~avoid:consts in
          let fresh2 =
            Domain.fresh (Attribute.domain attr) ~avoid:(consts @ Option.to_list fresh1)
          in
          consts @ Option.to_list fresh1 @ Option.to_list fresh2)
    (Array.of_list (Schema.attrs rel_schema))

type compiled = { k_tx : (int * Pattern.cell) list; k_a : int; k_ta : Pattern.cell }

let compile rel_schema (nf : Cfd.nf) =
  {
    k_tx =
      List.map2 (fun a c -> (Schema.position rel_schema a, c)) nf.Cfd.nf_x nf.nf_tx;
    k_a = Schema.position rel_schema nf.nf_a;
    k_ta = nf.nf_ta;
  }

(* Three-valued check of a compiled CFD on an ordered pair of partial
   tuples: [Some false] = definitely violated, [Some true] = definitely
   satisfied whatever the unassigned fields become is not decidable cheaply,
   so we only report [Some false] when a violation is certain and [None]
   otherwise. *)
let pair_violates k (t1 : Value.t option array) (t2 : Value.t option array) =
  let lhs_matches =
    List.fold_left
      (fun acc (pos, cell) ->
        match acc with
        | Some false -> Some false
        | _ -> (
            match t1.(pos), t2.(pos) with
            | Some v1, Some v2 ->
                if Value.equal v1 v2 && Pattern.match_cell v1 cell then acc else Some false
            | _, _ -> None))
      (Some true) k.k_tx
  in
  match lhs_matches with
  | Some false -> false
  | None -> false (* cannot tell yet *)
  | Some true -> (
      match t1.(k.k_a), t2.(k.k_a) with
      | Some v1, Some v2 ->
          not (Value.equal v1 v2 && Pattern.match_cell v1 k.k_ta)
      | _, _ -> false)

let fully_assigned t = Array.for_all Option.is_some t

(* Does the completed pair violate φ? *)
let violates_goal goal t1 t2 =
  let lhs =
    List.for_all
      (fun (pos, cell) ->
        match t1.(pos), t2.(pos) with
        | Some v1, Some v2 -> Value.equal v1 v2 && Pattern.match_cell v1 cell
        | _, _ -> false)
      goal.k_tx
  in
  lhs
  &&
  match t1.(goal.k_a), t2.(goal.k_a) with
  | Some v1, Some v2 -> not (Value.equal v1 v2 && Pattern.match_cell v1 goal.k_ta)
  | _, _ -> false

let implies_exn ?budget ?(max_nodes = 4_000_000) schema ~sigma (phi : Cfd.nf) =
  Telemetry.with_span "cfd_implication.implies" @@ fun () ->
  let budget = Guard.resolve budget in
  Guard.probe ~budget "cfd_implication.implies";
  let rel_schema = Db_schema.find schema phi.Cfd.nf_rel in
  let sigma_rel = List.filter (fun nf -> String.equal nf.Cfd.nf_rel phi.nf_rel) sigma in
  let cands = candidates (phi :: sigma_rel) rel_schema in
  let compiled = List.map (compile rel_schema) sigma_rel in
  let goal = compile rel_schema phi in
  let arity = Schema.arity rel_schema in
  let t1 = Array.make arity None and t2 = Array.make arity None in
  let nodes = ref 0 in
  (* Σ must hold on all four ordered pairs over {t1, t2}. *)
  let sigma_violated () =
    List.exists
      (fun k ->
        pair_violates k t1 t2 || pair_violates k t2 t1 || pair_violates k t1 t1
        || pair_violates k t2 t2)
      compiled
  in
  (* Assign position [pos] of both tuples, then recurse. *)
  let rec search pos =
    incr nodes;
    if !nodes > max_nodes then raise Budget_exceeded;
    Guard.tick budget;
    if sigma_violated () then false
    else if pos >= arity then
      fully_assigned t1 && fully_assigned t2 && violates_goal goal t1 t2
    else
      List.exists
        (fun v1 ->
          t1.(pos) <- Some v1;
          let found =
            List.exists
              (fun v2 ->
                t2.(pos) <- Some v2;
                let r = search (pos + 1) in
                t2.(pos) <- None;
                r)
              cands.(pos)
          in
          t1.(pos) <- None;
          found)
        cands.(pos)
  in
  not (search 0)

(* Three-valued form, sharing {!Implication.outcome}: the backtracking
   search is exact, so the only [Undetermined] sources are the local
   [max_nodes] cap ([Guard.Fuel]) and the shared budget. *)
let decide ?budget ?max_nodes schema ~sigma phi =
  match implies_exn ?budget ?max_nodes schema ~sigma phi with
  | true -> Implication.Implied
  | false -> Implication.Not_implied
  | exception Budget_exceeded -> Implication.Undetermined Guard.Fuel
  | exception Guard.Exhausted r -> Implication.Undetermined r
