open Conddep_relational
open Conddep_chase
open Conddep_consistency
open Conddep_generator
open Helpers

(* The delta-driven chase's differential guarantee (DESIGN.md §10): it
   executes the same canonical operation schedule as the naive oracle
   [Naive_chase] (full rescans built from [Chase.fd_step] and
   [Chase.ind_step]), so for equal inputs and random seeds both produce
   bit-identical outcomes and final templates.  RandomChecking's witnesses
   are identical at any jobs count.  Plus the fault probes on the delta
   engine's entry points. *)

let small_workload seed =
  let rng = Rng.make seed in
  let schema =
    Schema_gen.generate rng { Schema_gen.default with num_relations = 4 }
  in
  let sigma =
    Workload.random rng { Workload.default with num_constraints = 24 } schema
  in
  (schema, sigma)

(* Printed form = structural identity: Template.pp prints tuples in list
   order, so equal strings mean equal templates including internal order. *)
let outcome_repr = function
  | Chase.Terminal t -> Fmt.str "terminal:%a" Template.pp t
  | Chase.Undefined r -> "undefined:" ^ r
  | Chase.Exhausted r -> "exhausted:" ^ Guard.reason_to_string r

let chase_both ~instantiated seed =
  let schema, sigma = small_workload seed in
  let compiled = Chase.compile schema sigma in
  let db = Chase.seed_tuple schema ~rel:(List.hd (Db_schema.rel_names schema)) in
  let rng () = Rng.make ((seed * 7) + 1) in
  let config = Chase.default_config in
  ( Chase.run ~instantiated ~config ~rng:(rng ()) schema compiled db,
    Naive_chase.run ~instantiated ~config ~rng:(rng ()) schema compiled db )

let prop_chase_equiv ~instantiated seed =
  let delta, naive = chase_both ~instantiated seed in
  (match (delta, naive) with
  | Chase.Terminal t1, Chase.Terminal t2 ->
      if not (Template.equal t1 t2) then
        Alcotest.failf "seed %d: Template.equal failed" seed
  | _ -> ());
  String.equal (outcome_repr delta) (outcome_repr naive)

let seed_gen lo hi =
  QCheck.make ~print:string_of_int QCheck.Gen.(int_range lo hi)

(* RandomChecking end to end: identical verdicts and identical witness
   databases at jobs 1 and jobs 4. *)
let rc_repr = function
  | Random_checking.Consistent db -> Fmt.str "consistent:%a" Database.pp db
  | Random_checking.Unknown r -> "unknown:" ^ Guard.reason_to_string r

let prop_random_checking_equiv seed =
  let schema, sigma = small_workload seed in
  let run jobs =
    rc_repr
      (Random_checking.check ~jobs ~k:8 ~rng:(Rng.make seed) schema sigma)
  in
  String.equal (run 1) (run 4)

(* --- fault probes on the delta engine's entry points -------------------------- *)

let test_delta_run_fault () =
  let schema, sigma = small_workload 13 in
  let compiled = Chase.compile schema sigma in
  Guard.arm ~site:"chase.delta" Guard.Raise;
  Fun.protect ~finally:Guard.disarm_all @@ fun () ->
  match
    Chase.run ~config:Chase.default_config ~rng:(Rng.make 3)
      schema compiled
      (Chase.seed_tuple schema ~rel:(List.hd (Db_schema.rel_names schema)))
  with
  | Chase.Exhausted (Guard.Fault s) -> check_string "site" "chase.delta" s
  | r -> Alcotest.failf "expected Fault, got %s" (outcome_repr r)

let test_delta_drain_fault () =
  let schema, sigma = small_workload 13 in
  Guard.arm ~site:"chase.delta.drain" Guard.Raise;
  Fun.protect ~finally:Guard.disarm_all @@ fun () ->
  match Random_checking.check ~rng:(Rng.make 2) schema sigma with
  | Random_checking.Unknown (Guard.Fault s) ->
      check_string "site" "chase.delta.drain" s
  | Random_checking.Unknown r ->
      Alcotest.failf "expected Fault, got %s" (Guard.reason_to_string r)
  | Random_checking.Consistent _ -> Alcotest.fail "armed fault must fire"

let () =
  Alcotest.run "chase_engines"
    [
      ( "equivalence",
        [
          qtest ~count:40 "chase outcomes identical across engines"
            (seed_gen 0 500)
            (prop_chase_equiv ~instantiated:false);
          qtest ~count:40 "instantiated chase identical across engines"
            (seed_gen 501 1000)
            (prop_chase_equiv ~instantiated:true);
          qtest ~count:8 "RandomChecking identical across jobs counts"
            (seed_gen 0 200) prop_random_checking_equiv;
        ] );
      ( "faults",
        [
          Alcotest.test_case "chase.delta probe surfaces" `Quick
            test_delta_run_fault;
          Alcotest.test_case "chase.delta.drain probe surfaces" `Quick
            test_delta_drain_fault;
        ] );
    ]
