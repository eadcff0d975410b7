open Conddep_relational
open Conddep_core
open Conddep_consistency
open Conddep_generator
open Helpers

(* Property-based tests over randomly generated schemas and workloads:
   the generator's guarantees, Theorem 3.2, Theorem 5.1 soundness, and
   differential tests between the exact and heuristic procedures. *)

(* A generated (schema, Σ) pair driven by a single seed, so shrinking works
   on the seed.  Small configurations keep the exact procedures fast. *)
let seed_gen = QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000)

let small_schema_config =
  {
    Schema_gen.num_relations = 4;
    min_arity = 2;
    max_arity = 4;
    finite_ratio = 0.3;
    finite_dom_min = 2;
    finite_dom_max = 4;
  }

let small_workload_config = { Workload.default with num_constraints = 12 }

let make_workload ~consistent seed =
  let rng = Rng.make seed in
  let schema = Schema_gen.generate rng small_schema_config in
  let sigma =
    if consistent then Workload.consistent rng small_workload_config schema
    else Workload.random rng small_workload_config schema
  in
  (schema, sigma)

(* --- generator guarantees -------------------------------------------------- *)

let prop_consistent_sets_have_witness seed =
  let schema, sigma = make_workload ~consistent:true seed in
  let db = Workload.witness_db schema in
  Sigma.nf_holds db sigma

let prop_generated_constraints_validate seed =
  let schema, sigma = make_workload ~consistent:false seed in
  match Sigma.validate schema (Sigma.of_nf sigma) with Ok () -> true | Error _ -> false

(* --- Theorem 3.2: CIND-only sets are always consistent --------------------- *)

let prop_cind_witness_construction seed =
  let schema, sigma = make_workload ~consistent:false seed in
  let cinds = sigma.Sigma.ncinds in
  match Witness.database ~max_tuples:20_000 schema cinds with
  | db ->
      (not (Database.is_empty db)) && List.for_all (Cind.nf_holds db) cinds
  | exception Witness.Too_large _ -> QCheck.assume_fail ()

(* --- Theorem 5.1: heuristic soundness -------------------------------------- *)

let prop_random_checking_sound seed =
  let schema, sigma = make_workload ~consistent:false seed in
  match Random_checking.check ~k:5 ~rng:(Rng.make (seed + 1)) schema sigma with
  | Random_checking.Consistent db ->
      (not (Database.is_empty db)) && Sigma.nf_holds db sigma
  | Random_checking.Unknown _ -> true

let prop_checking_sound seed =
  let schema, sigma = make_workload ~consistent:false seed in
  match Checking.check ~k:5 ~rng:(Rng.make (seed + 1)) schema sigma with
  | Checking.Consistent db -> (not (Database.is_empty db)) && Sigma.nf_holds db sigma
  | Checking.Inconsistent | Checking.Unknown _ -> true

(* Checking should accept (almost) all generator-consistent sets; we assert
   full soundness and record acceptance as a hard property only for the
   witness-backed generator, mirroring the near-100% accuracy of Fig 11(a). *)
let prop_checking_accepts_consistent seed =
  let schema, sigma = make_workload ~consistent:true seed in
  match Checking.check ~k:20 ~rng:(Rng.make (seed + 1)) schema sigma with
  | Checking.Consistent db -> Sigma.nf_holds db sigma
  | Checking.Inconsistent -> false (* definitive answers must never be wrong *)
  | Checking.Unknown _ -> true (* incompleteness is allowed, unsoundness is not *)

(* --- differential: SAT backend vs exact CFD consistency --------------------- *)

let prop_sat_matches_exact seed =
  let schema, sigma = make_workload ~consistent:false seed in
  let cfds = sigma.Sigma.ncfds in
  List.for_all
    (fun rel ->
      let rel = Conddep_relational.Schema.name rel in
      let exact = Cfd_consistency.consistent_rel schema ~rel cfds in
      let sat = Cfd_checking.consistent_rel_sat schema cfds ~rel <> None in
      exact = sat)
    (Db_schema.relations schema)

(* Chase-based CFD_Checking is sound: a witness tuple implies exact
   consistency, a refutation exact inconsistency. *)
let prop_chase_cfd_checking_sound seed =
  let schema, sigma = make_workload ~consistent:false seed in
  let cfds = sigma.Sigma.ncfds in
  List.for_all
    (fun rel ->
      let rel = Conddep_relational.Schema.name rel in
      let rel_cfds = List.filter (fun nf -> nf.Cfd.nf_rel = rel) cfds in
      match
        Cfd_checking.consistent_rel ~backend:Cfd_checking.Chase_backend ~k_cfd:20
          ~rng:(Rng.make (seed + 2)) schema rel_cfds ~rel
      with
      | Cfd_checking.Tuple _ -> Cfd_consistency.consistent_rel schema ~rel cfds
      | Cfd_checking.No_tuple ->
          not (Cfd_consistency.consistent_rel schema ~rel cfds)
      | Cfd_checking.Gave_up -> true)
    (Db_schema.relations schema)

(* [Sigma.constant_values] is the sorted distinct list of [Sigma.constants]. *)
let prop_constant_values seed =
  let _, sigma = make_workload ~consistent:false seed in
  Sigma.constant_values sigma
  = List.sort_uniq Value.compare (List.map (fun (_, _, v) -> v) (Sigma.constants sigma))

(* --- normalization and satisfaction ----------------------------------------- *)

(* On a database whose only nonempty relation is R, [Sigma.nf_holds_single]
   (CFD(R) and the CINDs from R) agrees with [Sigma.nf_holds] (all of Σ).
   The schema gains a relation no constraint mentions, and R ranges over
   all relations.  R's one to three tuples take each field from Σ's
   constants on that attribute or the generator's witness value, so both
   verdicts occur. *)
let prop_nf_holds_single seed =
  let schema, sigma = make_workload ~consistent:(seed mod 2 = 0) seed in
  let lonely =
    Schema.make "lonely"
      [ Attribute.make "p" Domain.string_inf; Attribute.make "q" Domain.bool_dom ]
  in
  let schema = Db_schema.make (Db_schema.relations schema @ [ lonely ]) in
  let rng = Rng.make (seed + 3) in
  let r = Rng.pick rng (Db_schema.relations schema) in
  let rel = Schema.name r in
  let consts = Sigma.constants sigma in
  let field attr =
    let name = Attribute.name attr in
    let pool =
      Workload.witness_value attr
      :: List.filter_map
           (fun (r', a, v) ->
             if r' = rel && a = name && Domain.mem (Attribute.domain attr) v then Some v
             else None)
           consts
    in
    Rng.pick rng pool
  in
  let db =
    List.fold_left
      (fun db _ -> Database.add_tuple db rel (Tuple.make (List.map field (Schema.attrs r))))
      (Database.empty schema)
      (List.init (1 + Rng.int rng 3) Fun.id)
  in
  Sigma.nf_holds db sigma = Sigma.nf_holds_single db sigma ~rel

let prop_normalization_roundtrip seed =
  let _, sigma = make_workload ~consistent:false seed in
  List.for_all
    (fun nf ->
      match Cind.normalize (Cind.nf_to_cind nf) with
      | [ nf' ] -> Cind.nf_equal (Cind.canon_nf nf) (Cind.canon_nf nf')
      | _ -> false)
    sigma.Sigma.ncinds

let prop_nf_satisfaction_agrees seed =
  let schema, sigma = make_workload ~consistent:false seed in
  let db = Workload.dirty_database (Rng.make (seed + 3)) schema ~tuples_per_rel:4 ~error_rate:0.3 in
  List.for_all
    (fun nf ->
      let cind = Cind.nf_to_cind nf in
      Cind.holds db cind = List.for_all (Cind.nf_holds db) (Cind.normalize cind))
    sigma.Sigma.ncinds
  && List.for_all
       (fun nf ->
         let cfd = Cfd.nf_to_cfd nf in
         Cfd.holds db cfd = List.for_all (Cfd.nf_holds db) (Cfd.normalize cfd))
       sigma.Sigma.ncfds

(* The first-order readings of Logic must agree with the native semantics
   on arbitrary databases. *)
let prop_logic_agrees seed =
  let schema, sigma = make_workload ~consistent:false seed in
  let db =
    Workload.dirty_database (Rng.make (seed + 7)) schema ~tuples_per_rel:4
      ~error_rate:0.4
  in
  List.for_all
    (fun nf ->
      Cind.nf_holds db nf = Logic.holds db (Logic.cind_to_formula schema nf))
    sigma.Sigma.ncinds
  && List.for_all
       (fun nf ->
         Cfd.nf_holds db nf = Logic.holds db (Logic.cfd_to_formula schema nf))
       sigma.Sigma.ncfds

(* --- implication sanity ------------------------------------------------------ *)

(* Every member of Σ is implied by Σ; a CIND with a fresh RHS pattern
   constant on an unused attribute is not implied by the empty Σ. *)
let prop_members_implied seed =
  let schema, sigma = make_workload ~consistent:false seed in
  let cinds = List.filteri (fun i _ -> i < 3) sigma.Sigma.ncinds in
  List.for_all
    (fun psi ->
      match Implication.decide ~max_states:20_000 schema ~sigma:cinds psi with
      | Implication.Implied -> true
      | Implication.Not_implied -> false
      | Implication.Undetermined _ -> QCheck.assume_fail ())
    cinds

let prop_cfd_members_implied seed =
  let schema, sigma = make_workload ~consistent:false seed in
  let cfds = List.filteri (fun i _ -> i < 3) sigma.Sigma.ncfds in
  List.for_all
    (fun phi ->
      match Cfd_implication.decide ~max_nodes:200_000 schema ~sigma:cfds phi with
      | Implication.Implied -> true
      | Implication.Not_implied -> false
      | Implication.Undetermined _ -> QCheck.assume_fail ())
    cfds

(* Exact CIND implication agrees with proof-checked derivations: anything
   the inference rules derive must be semantically implied (soundness of I,
   Theorem 3.3, spot-checked on random projections/augmentations). *)
let prop_rule_conclusions_implied seed =
  let schema, sigma = make_workload ~consistent:false seed in
  match sigma.Sigma.ncinds with
  | [] -> true
  | psi :: _ -> (
      let rng = Rng.make (seed + 4) in
      let m = List.length psi.Cind.nf_x in
      let indices =
        if m = 0 then [] else List.filteri (fun i _ -> i <= Rng.int rng m) psi.nf_x |> List.mapi (fun i _ -> i)
      in
      match
        Inference.apply schema [| psi |] (Inference.Proj_perm { prem = 0; indices })
      with
      | Error _ -> true
      | Ok derived -> (
          match
            Implication.decide ~max_states:20_000 schema ~sigma:[ psi ] derived
          with
          | Implication.Implied -> true
          | Implication.Not_implied -> false
          | Implication.Undetermined _ -> QCheck.assume_fail ()))

(* Constructive Thm 3.5: over infinite domains, proof search must agree
   with the semantic decision, and every emitted proof must check. *)
let prop_proof_search_complete seed =
  let rng = Rng.make seed in
  let schema =
    Schema_gen.generate rng { small_schema_config with Schema_gen.finite_ratio = 0.0 }
  in
  let sigma =
    (Workload.random rng { small_workload_config with Workload.cfd_fraction = 0. } schema)
      .Sigma.ncinds
  in
  let sigma = List.filteri (fun i _ -> i < 6) sigma in
  List.for_all
    (fun psi ->
      match
        ( Implication.decide ~max_states:20_000 schema ~sigma psi,
          Proof_search.derive ~max_states:20_000 schema ~sigma psi )
      with
      | Implication.Undetermined _, _ -> QCheck.assume_fail ()
      | Implication.Implied, Some proof -> (
          match Inference.proves schema ~sigma proof psi with
          | Ok _ -> true
          | Error _ -> false)
      | Implication.Not_implied, None -> true
      | Implication.Implied, None | Implication.Not_implied, Some _ -> false)
    sigma

(* Fast detection must agree with the reference implementation on random
   dirty databases. *)
let prop_fast_detect_agrees seed =
  let schema, sigma = make_workload ~consistent:false seed in
  let db =
    Workload.dirty_database (Rng.make (seed + 8)) schema ~tuples_per_rel:6
      ~error_rate:0.3
  in
  List.for_all
    (fun nf ->
      let norm l =
        List.sort
          (fun (a1, b1) (a2, b2) ->
            match Conddep_relational.Tuple.compare a1 a2 with
            | 0 -> Conddep_relational.Tuple.compare b1 b2
            | c -> c)
          l
      in
      norm (Cfd.nf_violations db nf)
      = norm (Conddep_cleaning.Fast_detect.cfd_violations db nf))
    sigma.Sigma.ncfds
  && List.for_all
       (fun nf ->
         List.sort Conddep_relational.Tuple.compare
           (Conddep_cleaning.Detect.cind_violations db nf)
         = List.sort Conddep_relational.Tuple.compare
             (Conddep_cleaning.Fast_detect.cind_violations db nf))
       sigma.Sigma.ncinds

(* View propagation is sound: when the base satisfies Σ, materialized views
   satisfy the propagated constraints. *)
let prop_view_propagation_sound seed =
  let schema, sigma = make_workload ~consistent:true seed in
  let rng = Rng.make (seed + 9) in
  let views =
    List.mapi
      (fun i rel ->
        let attrs = Conddep_relational.Schema.attr_names rel in
        let keep = List.filter (fun _ -> Rng.bool rng) attrs in
        let keep = if keep = [] then [ List.hd attrs ] else keep in
        Views.make
          ~name:(Printf.sprintf "v%d" i)
          ~base:(Conddep_relational.Schema.name rel)
          ~keep)
      (Db_schema.relations schema)
  in
  let base = Workload.witness_db schema in
  if not (Sigma.nf_holds base sigma) then false
  else
    let db = Views.materialize schema views base in
    Sigma.nf_holds db (Views.propagate views sigma)

(* --- chase soundness ---------------------------------------------------------- *)

let prop_terminal_chase_satisfies_cinds seed =
  let schema, sigma = make_workload ~consistent:false seed in
  let cind_only = { Sigma.ncfds = []; ncinds = sigma.Sigma.ncinds } in
  let compiled = Conddep_chase.Chase.compile schema cind_only in
  let rel = Conddep_relational.Schema.name (List.hd (Db_schema.relations schema)) in
  (* instantiate the seed's finite-domain variables first (the paper's
     valuation ρ): leftover finite variables would be concretized to domain
     values that may trigger patterns the chase never saw *)
  let seed_db =
    Conddep_chase.Chase.instantiate_finite_vars (Rng.make (seed + 6))
      (Conddep_chase.Chase.seed_tuple schema ~rel)
  in
  match
    Conddep_chase.Chase.run ~instantiated:true
      ~config:{ Conddep_chase.Chase.default_config with threshold = 200; max_steps = 2000 }
      ~rng:(Rng.make (seed + 5)) schema compiled seed_db
  with
  | Conddep_chase.Chase.Undefined _ -> true
  | Conddep_chase.Chase.Exhausted _ -> true
  | Conddep_chase.Chase.Terminal db ->
      let avoid = List.map (fun (_, _, v) -> v) (Sigma.constants cind_only) in
      let concrete = Conddep_chase.Template.to_database ~avoid db in
      List.for_all (Cind.nf_holds concrete) cind_only.ncinds

let () =
  Alcotest.run "properties"
    [
      ( "generator",
        [
          qtest ~count:60 "consistent sets hold on the hidden witness" seed_gen
            prop_consistent_sets_have_witness;
          qtest ~count:60 "generated constraints validate" seed_gen
            prop_generated_constraints_validate;
        ] );
      ( "theorem-3.2",
        [
          qtest ~count:40 "cross-product witness satisfies CINDs" seed_gen
            prop_cind_witness_construction;
        ] );
      ( "theorem-5.1",
        [
          qtest ~count:30 "RandomChecking sound" seed_gen prop_random_checking_sound;
          qtest ~count:30 "Checking sound" seed_gen prop_checking_sound;
          qtest ~count:30 "Checking never rejects consistent sets wrongly" seed_gen
            prop_checking_accepts_consistent;
        ] );
      ( "differential",
        [
          qtest ~count:30 "SAT backend matches exact consistency" seed_gen
            prop_sat_matches_exact;
          qtest ~count:30 "chase CFD_Checking sound" seed_gen
            prop_chase_cfd_checking_sound;
          qtest ~count:40 "fast detection agrees with reference" seed_gen
            prop_fast_detect_agrees;
        ] );
      ( "normalization",
        [
          qtest ~count:60 "nf roundtrip" seed_gen prop_normalization_roundtrip;
          qtest ~count:30 "nf satisfaction agrees" seed_gen prop_nf_satisfaction_agrees;
          qtest ~count:100 "one-relation satisfaction checks only that relation"
            seed_gen prop_nf_holds_single;
          qtest ~count:30 "FO readings agree with native semantics" seed_gen
            prop_logic_agrees;
          qtest ~count:60 "constant values sorted and distinct" seed_gen
            prop_constant_values;
        ] );
      ( "implication",
        [
          qtest ~count:15 "CIND members implied" seed_gen prop_members_implied;
          qtest ~count:15 "CFD members implied" seed_gen prop_cfd_members_implied;
          qtest ~count:15 "rule conclusions semantically implied" seed_gen
            prop_rule_conclusions_implied;
          qtest ~count:25 "proof search complete over infinite domains" seed_gen
            prop_proof_search_complete;
        ] );
      ( "chase",
        [
          qtest ~count:20 "terminal chase satisfies CINDs" seed_gen
            prop_terminal_chase_satisfies_cinds;
        ] );
      ( "views",
        [
          qtest ~count:40 "view propagation sound" seed_gen
            prop_view_propagation_sound;
        ] );
    ]
