open Conddep_relational
open Conddep_core
open Conddep_sat
open Conddep_chase
open Conddep_consistency
open Conddep_generator
open Helpers

(* Resource governance and fault injection: budget mechanics, graceful
   degradation of every engine (Unknown, never a crash or a wrong answer),
   and determinism of budgeted verdicts. *)

let reason = Alcotest.testable Guard.pp_reason (fun a b -> a = b)

let check_reason = Alcotest.check reason

(* Under the fault-injection CI job (GUARD_FAULTS=all) every probe running
   under a limited budget raises [Fault _]; tests that otherwise pin an
   exact exhaustion reason accept that as an equally graceful outcome. *)
let env_faults_armed =
  match Sys.getenv_opt "GUARD_FAULTS" with
  | None | Some "" -> false
  | Some _ -> true

let check_cutoff msg expected actual =
  match actual with
  | Guard.Fault _ when env_faults_armed -> ()
  | r -> check_reason msg expected r

(* --- budget mechanics ------------------------------------------------------ *)

let test_unlimited () =
  check_bool "make () is unlimited" true (Guard.is_unlimited (Guard.make ()));
  let b = Guard.unlimited in
  for _ = 1 to 10_000 do
    Guard.tick b
  done;
  Guard.check b;
  check_bool "unlimited never spends" true (Guard.state b = None)

let test_fuel_sticky () =
  let b = Guard.make ~fuel:3 () in
  Guard.tick b;
  Guard.tick b;
  Guard.tick b;
  (match Guard.tick b with
  | () -> Alcotest.fail "fuel should be exhausted"
  | exception Guard.Exhausted r -> check_reason "fuel reason" Guard.Fuel r);
  (* sticky: every subsequent poll raises the same reason *)
  (match Guard.check b with
  | () -> Alcotest.fail "spent budget must stay spent"
  | exception Guard.Exhausted r -> check_reason "sticky reason" Guard.Fuel r);
  check_bool "state reports spent" true (Guard.state b = Some Guard.Fuel)

let test_deadline () =
  let b = Guard.make ~timeout_s:0.02 () in
  let t0 = Unix.gettimeofday () in
  match
    while true do
      Guard.check b
    done
  with
  | () -> assert false
  | exception Guard.Exhausted r ->
      check_reason "deadline reason" Guard.Deadline r;
      check_bool "deadline prompt" true (Unix.gettimeofday () -. t0 < 1.0)

let test_cancellation () =
  let tok = Guard.token () in
  let b = Guard.make ~cancel:tok () in
  Guard.check b;
  Guard.cancel tok;
  match Guard.check b with
  | () -> Alcotest.fail "cancelled budget should raise"
  | exception Guard.Exhausted r -> check_reason "cancel reason" Guard.Cancelled r

let test_recoverable () =
  let shared = Guard.unlimited in
  check_bool "local fuel is recoverable" true
    (Guard.recoverable ~shared Guard.Fuel);
  check_bool "faults never are" false
    (Guard.recoverable ~shared (Guard.Fault "x"));
  let spent = Guard.make ~fuel:1 () in
  (try
     Guard.tick spent;
     Guard.tick spent
   with Guard.Exhausted _ -> ());
  check_bool "spent shared budget propagates" false
    (Guard.recoverable ~shared:spent Guard.Fuel)

let test_ambient_scoping () =
  let outer = Guard.ambient () in
  let b = Guard.make ~fuel:10 () in
  Guard.with_ambient b (fun () ->
      check_bool "scoped ambient visible" true (Guard.ambient () == b));
  check_bool "ambient restored" true (Guard.ambient () == outer);
  check_bool "resolve None is ambient" true (Guard.resolve None == outer);
  check_bool "resolve Some is itself" true (Guard.resolve (Some b) == b)

(* --- SAT degradation -------------------------------------------------------- *)

(* random 3-CNF, same shape as test_sat's differential generator *)
let random_cnf rng ~num_vars ~num_clauses =
  let clause () =
    List.init 3 (fun _ ->
        let v = 1 + Rng.int rng num_vars in
        if Rng.bool rng then v else -v)
  in
  Cnf.make ~num_vars (List.init num_clauses (fun _ -> clause ()))

let test_sat_degrades_never_lies () =
  let rng = Rng.make 77 in
  let unknowns = ref 0 in
  for _ = 1 to 120 do
    let num_vars = 6 + Rng.int rng 8 in
    let cnf = random_cnf rng ~num_vars ~num_clauses:(4 * num_vars) in
    let truth =
      match Solver.solve_brute cnf with
      | Solver.Sat _ -> true
      | Solver.Unsat -> false
      | Solver.Unknown _ -> Alcotest.fail "brute force within its range"
    in
    (* starve the CDCL search: it may give up, but must never contradict *)
    match Solver.solve ~max_conflicts:2 ~max_decisions:6 cnf with
    | Solver.Sat model ->
        check_bool "claimed Sat has a model" true (Cnf.eval model cnf);
        check_bool "agrees with brute force" true truth
    | Solver.Unsat -> check_bool "agrees with brute force" false truth
    | Solver.Unknown r ->
        incr unknowns;
        check_reason "starved solver reports fuel" Guard.Fuel r
  done;
  check_bool "the tight limit actually bites" true (!unknowns > 0)

let test_brute_force_cap () =
  let cnf = Cnf.make ~num_vars:25 [ [ 1 ] ] in
  match Solver.solve_brute cnf with
  | Solver.Unknown r -> check_reason "typed give-up" Guard.Fuel r
  | _ -> Alcotest.fail "brute force beyond 24 variables must answer Unknown"

let test_sat_budget () =
  let rng = Rng.make 5 in
  let cnf = random_cnf rng ~num_vars:30 ~num_clauses:130 in
  match Solver.solve ~budget:(Guard.make ~fuel:3 ()) cnf with
  | Solver.Unknown r -> check_cutoff "budgeted solve" Guard.Fuel r
  | _ -> Alcotest.fail "3 fuel cannot decide a 30-var instance"

(* --- a needle workload (hard for random search) ----------------------------- *)

let needle_schema_config relations =
  {
    Schema_gen.num_relations = relations;
    min_arity = 3;
    max_arity = 5;
    finite_ratio = 1.0;
    finite_dom_min = 2;
    finite_dom_max = 2;
  }

(* Needle CFDs joined with pattern-free CINDs: per-relation secrets are
   findable, the joint valuation is not, and every witness tuple triggers
   an inclusion — so Checking must actually search. *)
let needle_workload ~seed ~relations ~cinds =
  let rng = Rng.make seed in
  let schema = Schema_gen.generate rng (needle_schema_config relations) in
  let sigma = Workload.needle_cfds rng schema in
  let cind_config = { Workload.default with max_pattern = 0 } in
  let cinds =
    List.init cinds (Workload.gen_cind rng cind_config schema ~consistent:false)
  in
  (schema, { sigma with Sigma.ncinds = cinds })

let small_workload seed =
  let rng = Rng.make seed in
  let schema =
    Schema_gen.generate rng { Schema_gen.default with num_relations = 4 }
  in
  let sigma =
    Workload.random rng { Workload.default with num_constraints = 24 } schema
  in
  (schema, sigma)

(* --- graceful degradation under deadlines ----------------------------------- *)

let test_checking_deadline () =
  let schema, sigma = needle_workload ~seed:3 ~relations:8 ~cinds:20 in
  let t0 = Unix.gettimeofday () in
  let result =
    Checking.check ~budget:(Guard.make ~timeout_s:0.2 ()) ~k:1_000_000
      ~rng:(Rng.make 1) schema sigma
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  check_bool "terminates promptly" true (elapsed < 2.0);
  match result with
  | Checking.Unknown r -> check_cutoff "deadline surfaced" Guard.Deadline r
  | Checking.Consistent _ | Checking.Inconsistent ->
      Alcotest.fail "the needle workload cannot be decided in 0.2s"

let test_implication_deadline () =
  (* exhaustion surfaces as a typed Undetermined, never an exception *)
  let schema, sigma = needle_workload ~seed:3 ~relations:8 ~cinds:20 in
  match sigma.Sigma.ncinds with
  | [] -> Alcotest.fail "workload has CINDs"
  | psi :: rest -> (
      match
        Implication.decide
          ~budget:(Guard.make ~fuel:50 ())
          schema ~sigma:rest psi
      with
      | Implication.Implied | Implication.Not_implied ->
          () (* small instances may decide within the fuel *)
      | Implication.Undetermined r -> check_cutoff "fuel surfaced" Guard.Fuel r)

(* --- determinism of budgeted degradation ------------------------------------- *)

let describe_result = function
  | Checking.Consistent db -> Fmt.str "consistent:%a" Database.pp db
  | Checking.Inconsistent -> "inconsistent"
  | Checking.Unknown r -> Fmt.str "unknown:%s" (Guard.reason_to_string r)

let test_budgeted_determinism () =
  (* same schema, Σ, seed and fuel budget => byte-identical verdict+reason;
     fuel (unlike wall-clock) is exactly reproducible *)
  let run seed fuel =
    let schema, sigma = needle_workload ~seed:11 ~relations:6 ~cinds:12 in
    describe_result
      (Checking.check ~budget:(Guard.make ~fuel ()) ~k:50 ~rng:(Rng.make seed)
         schema sigma)
  in
  check_string "same budget, same verdict" (run 4 20_000) (run 4 20_000);
  check_string "other seed reproducible too" (run 9 1_000) (run 9 1_000)

let test_guards_disabled_identical () =
  (* An effectively-infinite budget must not perturb verdicts.  With
     GUARD_FAULTS armed the premise is intentionally false (env faults fire
     only under limited budgets), so the comparison is skipped there. *)
  if env_faults_armed then ()
  else
    let run budget =
      let schema, sigma = small_workload 21 in
      describe_result (Checking.check ?budget ~rng:(Rng.make 2) schema sigma)
    in
    check_string "verdict unchanged under a huge budget" (run None)
      (run (Some (Guard.make ~fuel:max_int ())))

(* --- fault injection: Unknown (Fault _), never a crash ----------------------- *)

let checking_fault_sites =
  (* every probe on the Checking pipeline's chase-backend path *)
  [ "checking.check"; "checking.preprocess"; "checking.cfd"; "chase.fd_fixpoint" ]

let test_checking_fault_sweep () =
  let schema, sigma = small_workload 13 in
  List.iter
    (fun site ->
      Guard.arm ~site Guard.Raise;
      Fun.protect ~finally:Guard.disarm_all @@ fun () ->
      match Checking.check ~rng:(Rng.make 2) schema sigma with
      | Checking.Unknown (Guard.Fault s) ->
          check_string (site ^ " surfaces") site s
      | r -> Alcotest.failf "site %s: expected Unknown (Fault _), got %s" site
               (describe_result r))
    checking_fault_sites

let test_random_checking_fault () =
  let schema, sigma = small_workload 13 in
  Guard.arm ~site:"checking.random" Guard.Raise;
  Fun.protect ~finally:Guard.disarm_all @@ fun () ->
  match Random_checking.check ~rng:(Rng.make 2) schema sigma with
  | Random_checking.Unknown (Guard.Fault s) -> check_string "site" "checking.random" s
  | Random_checking.Unknown r ->
      Alcotest.failf "expected Fault, got %s" (Guard.reason_to_string r)
  | Random_checking.Consistent _ -> Alcotest.fail "armed fault must fire"

let test_chase_fault () =
  let schema, sigma = small_workload 13 in
  let compiled = Chase.compile schema sigma in
  Guard.arm ~site:"chase.run" Guard.Raise;
  Fun.protect ~finally:Guard.disarm_all @@ fun () ->
  match
    Chase.run ~config:Chase.default_config ~rng:(Rng.make 3) schema compiled
      (Chase.seed_tuple schema ~rel:(List.hd (Db_schema.rel_names schema)))
  with
  | Chase.Exhausted (Guard.Fault s) -> check_string "site" "chase.run" s
  | Chase.Exhausted r -> Alcotest.failf "expected Fault, got %s" (Guard.reason_to_string r)
  | Chase.Terminal _ | Chase.Undefined _ -> Alcotest.fail "armed fault must fire"

let test_sat_fault () =
  Guard.arm ~site:"sat.solve" Guard.Raise;
  Fun.protect ~finally:Guard.disarm_all @@ fun () ->
  match Solver.solve (Cnf.make ~num_vars:1 [ [ 1 ] ]) with
  | Solver.Unknown (Guard.Fault s) -> check_string "site" "sat.solve" s
  | _ -> Alcotest.fail "armed fault must surface as Unknown"

(* the three-valued implication procedures answer Undetermined (Fault _) *)
let expect_undetermined_fault site f =
  Guard.arm ~site Guard.Raise;
  Fun.protect ~finally:Guard.disarm_all @@ fun () ->
  match f () with
  | Implication.Undetermined (Guard.Fault s) -> check_string site site s
  | o -> Alcotest.failf "site %s: expected a fault, got %a" site Implication.pp_outcome o

(* bool/option APIs let the exception propagate — typed, not a crash *)
let expect_fault site f =
  Guard.arm ~site Guard.Raise;
  Fun.protect ~finally:Guard.disarm_all @@ fun () ->
  match f () with
  | _ -> Alcotest.failf "site %s: armed fault must fire" site
  | exception Guard.Exhausted (Guard.Fault s) -> check_string site site s

let test_bool_api_faults () =
  let schema, sigma = small_workload 13 in
  (match sigma.Sigma.ncinds with
  | psi :: rest ->
      expect_undetermined_fault "implication.implies" (fun () ->
          Implication.decide schema ~sigma:rest psi)
  | [] -> Alcotest.fail "workload has CINDs");
  match sigma.Sigma.ncfds with
  | phi :: rest ->
      expect_undetermined_fault "cfd_implication.implies" (fun () ->
          Cfd_implication.decide schema ~sigma:rest phi);
      expect_fault "cfd_consistency.witness" (fun () ->
          Cfd_consistency.consistent_rel schema ~rel:phi.Cfd.nf_rel
            sigma.Sigma.ncfds)
  | [] -> Alcotest.fail "workload has CFDs"

let test_fault_after_countdown () =
  let b = Guard.make ~fuel:1000 () in
  Guard.arm ~site:"countdown.site" ~after:2 Guard.Raise;
  Fun.protect ~finally:Guard.disarm_all @@ fun () ->
  Guard.probe ~budget:b "countdown.site";
  Guard.probe ~budget:b "countdown.site";
  match Guard.probe ~budget:b "countdown.site" with
  | () -> Alcotest.fail "third probe should fire"
  | exception Guard.Exhausted (Guard.Fault s) ->
      check_string "site" "countdown.site" s

let () =
  Alcotest.run "guard"
    [
      ( "budget",
        [
          Alcotest.test_case "unlimited" `Quick test_unlimited;
          Alcotest.test_case "fuel exhaustion is sticky" `Quick test_fuel_sticky;
          Alcotest.test_case "deadline" `Quick test_deadline;
          Alcotest.test_case "cancellation" `Quick test_cancellation;
          Alcotest.test_case "recoverable" `Quick test_recoverable;
          Alcotest.test_case "ambient scoping" `Quick test_ambient_scoping;
        ] );
      ( "sat",
        [
          Alcotest.test_case "starved CDCL never lies" `Quick
            test_sat_degrades_never_lies;
          Alcotest.test_case "brute force cap is typed" `Quick test_brute_force_cap;
          Alcotest.test_case "budgeted solve" `Quick test_sat_budget;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "Checking under a deadline" `Quick
            test_checking_deadline;
          Alcotest.test_case "implication under fuel" `Quick
            test_implication_deadline;
          Alcotest.test_case "budgeted verdicts are deterministic" `Quick
            test_budgeted_determinism;
          Alcotest.test_case "guards disabled: verdicts unchanged" `Quick
            test_guards_disabled_identical;
        ] );
      ( "faults",
        [
          Alcotest.test_case "Checking pipeline sweep" `Quick
            test_checking_fault_sweep;
          Alcotest.test_case "RandomChecking" `Quick test_random_checking_fault;
          Alcotest.test_case "chase" `Quick test_chase_fault;
          Alcotest.test_case "sat" `Quick test_sat_fault;
          Alcotest.test_case "boolean APIs raise typed" `Quick test_bool_api_faults;
          Alcotest.test_case "countdown arming" `Quick test_fault_after_countdown;
        ] );
    ]
