open Conddep_relational
open Conddep_consistency
open Conddep_generator
open Helpers

(* The domain pool and the parallel checking paths: deterministic fork-join
   and first-success combinators, pool shutdown under fault injection, and
   — the property the whole design hangs on — bit-identical verdicts and
   witnesses at any [jobs] count. *)

(* --- pool combinators -------------------------------------------------------- *)

let test_map_order () =
  let xs = List.init 40 Fun.id in
  let expect = List.map (fun i -> i * i) xs in
  Parallel.with_pool ~jobs:4 (fun pool ->
      Alcotest.(check (list int))
        "submission order" expect
        (Parallel.map pool (fun i -> i * i) xs));
  (* jobs = 1 runs inline on the caller; same contract *)
  Parallel.with_pool ~jobs:1 (fun pool ->
      Alcotest.(check (list int))
        "inline pool" expect
        (Parallel.map pool (fun i -> i * i) xs))

let test_map_least_exception () =
  (* several tasks raise; map must surface the least-indexed failure *)
  Parallel.with_pool ~jobs:4 (fun pool ->
      match
        Parallel.map pool
          (fun i -> if i mod 2 = 1 then failwith (string_of_int i) else i)
          (List.init 8 Fun.id)
      with
      | (_ : int list) -> Alcotest.fail "odd tasks raise"
      | exception Failure s -> check_string "least index" "1" s)

let test_first_success_least_index () =
  Parallel.with_pool ~jobs:4 (fun pool ->
      let r =
        Parallel.first_success pool
          (fun i _tok -> if i >= 1 then Some i else None)
          [ 0; 1; 2; 3 ]
      in
      (* 2 and 3 also succeed, but the sequential loop would have stopped
         at 1 — the least-index rule must select exactly that *)
      Alcotest.(check (option int)) "least Some wins" (Some 1) r;
      Alcotest.(check (option int))
        "all None is None" None
        (Parallel.first_success pool (fun _ _ -> None) [ 0; 1; 2 ]))

let test_default_jobs_clamped () =
  let saved = Parallel.default_jobs () in
  Fun.protect ~finally:(fun () -> Parallel.set_default_jobs saved) @@ fun () ->
  Parallel.set_default_jobs 0;
  check_bool "clamped to >= 1" true (Parallel.default_jobs () >= 1);
  Parallel.set_default_jobs 3;
  check_int "override visible" 3 (Parallel.default_jobs ())

(* --- shutdown: idempotent, also mid-fault ------------------------------------ *)

let test_shutdown_idempotent () =
  let pool = Parallel.create ~jobs:3 () in
  ignore (Parallel.map pool Fun.id [ 1; 2; 3 ]);
  Parallel.shutdown pool;
  Parallel.shutdown pool;
  (* second call is a no-op *)
  Parallel.shutdown pool

let test_shutdown_fault_injection () =
  (* A fault armed at the shutdown probe must not leak worker domains or
     break idempotence: the raise surfaces, the finaliser still joins the
     workers, and a repeat call is a clean no-op. *)
  let pool = Parallel.create ~jobs:3 () in
  Guard.arm ~site:"parallel.pool.shutdown" Guard.Raise;
  (Fun.protect ~finally:Guard.disarm_all @@ fun () ->
   match Parallel.shutdown pool with
   | () -> Alcotest.fail "armed shutdown fault must fire"
   | exception Guard.Exhausted (Guard.Fault s) ->
       check_string "site" "parallel.pool.shutdown" s);
  (* disarmed now: repeats are no-ops, no hang, no double-join *)
  Parallel.shutdown pool;
  Parallel.shutdown pool

let test_with_pool_fault_preserves_failure () =
  (* with_pool must not let a shutdown fault mask the body's own failure *)
  Guard.arm ~site:"parallel.pool.shutdown" Guard.Raise;
  Fun.protect ~finally:Guard.disarm_all @@ fun () ->
  match Parallel.with_pool ~jobs:2 (fun _ -> failwith "body") with
  | (_ : unit) -> Alcotest.fail "body raises"
  | exception Failure s -> check_string "original failure wins" "body" s

(* --- crash isolation: rescue, breaker, respawn ------------------------------- *)

let test_crashed_tasks_rescued_and_breaker_trips () =
  (* every worker-level wrapper faults: each slot is rescued inline on the
     caller, results stay complete and ordered, and the run of consecutive
     faults trips the breaker to inline execution *)
  Supervise.clear_trail ();
  let pool = Parallel.create ~jobs:4 ~breaker_after:2 () in
  Fun.protect ~finally:(fun () -> Guard.disarm_all (); Parallel.shutdown pool)
  @@ fun () ->
  Guard.arm ~site:"parallel.worker" Guard.Raise;
  let xs = List.init 12 Fun.id in
  let expect = List.map (fun i -> i * 7) xs in
  Alcotest.(check (list int))
    "all tasks complete despite crashing workers" expect
    (Parallel.map pool (fun i -> i * 7) xs);
  check_bool "breaker tripped" true (Parallel.breaker_tripped pool);
  check_bool "pool degradation recorded" true
    (List.exists
       (fun d -> d.Supervise.d_stage = "parallel.pool")
       (Supervise.degradation_trail ()));
  (* post-breaker batches run inline: correct without any rescue *)
  Alcotest.(check (list int))
    "post-breaker map still correct" expect
    (Parallel.map pool (fun i -> i * 7) xs);
  (match Parallel.last_exhaustion pool with
  | Some (Guard.Fault s) -> check_string "exhaustion site" "parallel.worker" s
  | other ->
      Alcotest.failf "expected Fault, got %s"
        (match other with
        | None -> "none"
        | Some r -> Guard.reason_to_string r))

let test_exhaustion_survives_shutdown () =
  (* the sticky reason must not be lost when the pool is torn down with
     the fault still in flight — the bug class this accessor exists for *)
  let pool = Parallel.create ~jobs:2 () in
  Guard.arm ~site:"parallel.worker" ~after:0 ~times:1 Guard.Raise;
  (Fun.protect ~finally:Guard.disarm_all @@ fun () ->
   ignore (Parallel.map pool Fun.id (List.init 8 Fun.id)));
  Parallel.shutdown pool;
  match Parallel.last_exhaustion pool with
  | Some (Guard.Fault s) ->
      check_string "reason preserved across shutdown" "parallel.worker" s
  | _ -> Alcotest.fail "exhaustion reason lost in teardown"

let test_dead_workers_respawn () =
  (* two fires at the worker-loop probe kill two domains between tasks;
     the supervisor must respawn both and the pool keeps working *)
  Guard.arm ~site:"parallel.worker.loop" ~after:0 ~times:2 Guard.Raise;
  let pool = Parallel.create ~jobs:3 () in
  Fun.protect ~finally:(fun () -> Guard.disarm_all (); Parallel.shutdown pool)
  @@ fun () ->
  (* deaths happen asynchronously in the dying domains' exit handlers;
     poll briefly (bounded at ~5s so a broken supervisor fails, not hangs) *)
  let rec await n =
    if Parallel.respawn_count pool < 2 && n > 0 then begin
      Unix.sleepf 0.001;
      await (n - 1)
    end
  in
  await 5_000;
  check_int "both deaths respawned" 2 (Parallel.respawn_count pool);
  check_bool "no breaker trip for respawned deaths" false
    (Parallel.breaker_tripped pool);
  let xs = List.init 10 Fun.id in
  Alcotest.(check (list int))
    "pool still correct after respawns" xs (Parallel.map pool Fun.id xs)

(* --- verdict determinism across jobs counts ---------------------------------- *)

let describe = function
  | Random_checking.Consistent db -> Fmt.str "consistent:%a" Database.pp db
  | Random_checking.Unknown r -> Fmt.str "unknown:%s" (Guard.reason_to_string r)

let gen_workload ?(relations = 4) ?(constraints = 24) ~consistent seed =
  let rng = Rng.make seed in
  let schema =
    Schema_gen.generate rng
      { Schema_gen.default with num_relations = relations }
  in
  let gen = if consistent then Workload.consistent else Workload.random in
  ( schema,
    gen rng { Workload.default with num_constraints = constraints } schema )

let test_jobs_identical_witness () =
  (* a satisfiable Σ: the parallel fan-out must return the same verdict
     AND the same witness database as the sequential loop, bit for bit *)
  let schema, sigma = gen_workload ~consistent:true 5 in
  let run jobs =
    describe (Random_checking.check ~jobs ~rng:(Rng.make 2) schema sigma)
  in
  let seq = run 1 in
  check_bool "witness found" true
    (String.length seq >= 10 && String.sub seq 0 10 = "consistent");
  check_string "jobs=2 identical" seq (run 2);
  check_string "jobs=4 identical" seq (run 4)

let test_jobs_identical_unknown () =
  (* an adversarial Σ where the K runs exhaust: the typed give-up reason
     must be identical at any jobs count too *)
  let schema, sigma = gen_workload ~consistent:false 13 in
  let run jobs =
    describe
      (Random_checking.check ~jobs ~k:12 ~k_cfd:6 ~rng:(Rng.make 7) schema sigma)
  in
  let seq = run 1 in
  check_string "jobs=2 identical" seq (run 2);
  check_string "jobs=4 identical" seq (run 4)

let describe_checking = function
  | Checking.Consistent db -> Fmt.str "consistent:%a" Database.pp db
  | Checking.Inconsistent -> "inconsistent"
  | Checking.Unknown r -> Fmt.str "unknown:%s" (Guard.reason_to_string r)

let test_checking_jobs_1_vs_4 () =
  (* the full pipeline: jobs=1 (chase only) and jobs=4 (the chase-then-SAT
     cascade) agree on a satisfiable and an unconstrained random Σ that
     preprocessing decides *)
  List.iter
    (fun (consistent, seed) ->
      let schema, sigma = gen_workload ~consistent seed in
      let run jobs =
        describe_checking (Checking.check ~jobs ~rng:(Rng.make 4) schema sigma)
      in
      let seq = run 1 in
      check_string
        (Fmt.str "seed %d jobs=4 identical" seed)
        seq (run 4))
    [ (true, 5); (false, 21) ]

(* Workloads large enough that some need RandomChecking, the SAT pipeline,
   or end Inconsistent or Unknown (8 relations, 300 constraints). *)
let cascade_workloads =
  List.map (fun seed -> (true, seed)) [ 1; 2; 3; 6; 14 ]
  @ List.map (fun seed -> (false, seed)) [ 1; 2; 5; 14 ]

let gen_large ~consistent seed =
  gen_workload ~relations:8 ~constraints:300 ~consistent seed

let test_checking_jobs_2_vs_4 () =
  (* every jobs >= 2 runs the same cascade: verdict and printed witness
     agree between jobs=2 and jobs=4 *)
  List.iter
    (fun (consistent, seed) ->
      let schema, sigma = gen_large ~consistent seed in
      let run jobs =
        describe_checking (Checking.check ~jobs ~rng:(Rng.make 4) schema sigma)
      in
      check_string
        (Fmt.str "%s seed %d jobs=2 vs jobs=4"
           (if consistent then "consistent" else "random")
           seed)
        (run 2) (run 4))
    cascade_workloads

let test_cascade_telemetry () =
  (* the SAT pipeline runs only when the chase pipeline has no witness, and
     jobs=2 never needs a pool *)
  let sat_calls = Telemetry.counter "checking.cfd.sat_backend_calls" in
  let spawned = Telemetry.counter "parallel.domains_spawned" in
  Telemetry.enable ();
  Fun.protect ~finally:Telemetry.disable @@ fun () ->
  let run (schema, sigma) =
    let s0 = Telemetry.count sat_calls and d0 = Telemetry.count spawned in
    let r =
      describe_checking (Checking.check ~jobs:2 ~rng:(Rng.make 4) schema sigma)
    in
    (r, Telemetry.count sat_calls - s0, Telemetry.count spawned - d0)
  in
  (* decided by the chase pipeline's preprocessing *)
  let schema, sigma = gen_workload ~consistent:true 5 in
  let r, sat, dom = run (schema, sigma) in
  check_bool "preprocessing decides it" true
    (match
       Preprocessing.run ~backend:Cfd_checking.Chase_backend
         ~budget:Guard.unlimited ~rng:(Rng.make 4) schema sigma
     with
    | Preprocessing.Consistent _ -> true
    | _ -> false);
  check_bool "witness found" true (String.starts_with ~prefix:"consistent" r);
  check_int "no SAT backend calls" 0 sat;
  check_int "no domains spawned" 0 dom;
  (* the chase pipeline calls it Inconsistent: SAT runs and confirms *)
  let r, sat, dom = run (gen_large ~consistent:false 5) in
  check_string "inconsistent" "inconsistent" r;
  check_bool "SAT backend consulted" true (sat > 0);
  check_int "no domains spawned" 0 dom

(* --- work stealing: chunked combinators and the cost model ------------------ *)

let test_chunked_map_order () =
  let xs = List.init 97 Fun.id in
  let expect = List.map (fun i -> i * 3) xs in
  List.iter
    (fun chunk ->
      Parallel.with_pool ~jobs:4 (fun pool ->
          Alcotest.(check (list int))
            (Printf.sprintf "chunk=%d" chunk)
            expect
            (Parallel.chunked_map pool ~chunk (fun i -> i * 3) xs)))
    [ 1; 2; 7; 97; 200 ]

let test_chunked_map_least_exception () =
  (* failures inside a chunk must still surface the least submission index *)
  Parallel.with_pool ~jobs:4 (fun pool ->
      match
        Parallel.chunked_map pool ~chunk:5
          (fun i -> if i >= 3 then failwith (string_of_int i) else i)
          (List.init 20 Fun.id)
      with
      | (_ : int list) -> Alcotest.fail "tasks >= 3 raise"
      | exception Failure s -> check_string "least index" "3" s)

let test_chunked_first_success_least_index () =
  List.iter
    (fun chunk ->
      Parallel.with_pool ~jobs:4 (fun pool ->
          let r =
            Parallel.chunked_first_success pool ~chunk
              (fun i _tok -> if i >= 4 then Some i else None)
              (List.init 64 Fun.id)
          in
          Alcotest.(check (option int))
            (Printf.sprintf "chunk=%d least success" chunk)
            (Some 4) r))
    [ 1; 3; 64 ]

let test_estimate_thresholds () =
  (* jobs=1 and tiny batches must stay off the pool entirely *)
  check_bool "jobs=1 sequential" false
    (Parallel.estimate ~tasks:1000 ~jobs:1 ()).Parallel.use_pool;
  check_bool "tiny batch sequential" false
    (Parallel.estimate ~tasks:3 ~jobs:4 ()).Parallel.use_pool;
  check_bool "large batch pooled" true
    (Parallel.estimate ~tasks:64 ~jobs:4 ()).Parallel.use_pool;
  (* explicit chunk is respected; default chunk spreads tasks over jobs *)
  check_int "explicit chunk" 7
    (Parallel.estimate ~chunk:7 ~tasks:64 ~jobs:4 ()).Parallel.chunk;
  let plan = Parallel.estimate ~tasks:64 ~jobs:4 () in
  check_bool "default chunk positive" true (plan.Parallel.chunk >= 1);
  check_bool "default chunk bounded" true (plan.Parallel.chunk <= 64);
  (* raising min_tasks forces more workloads sequential *)
  check_bool "min_tasks honoured" false
    (Parallel.estimate ~min_tasks:100 ~tasks:64 ~jobs:4 ()).Parallel.use_pool

let test_steals_counted () =
  (* one long task pins the caller; the pool's other lanes drain the rest,
     which (with round-robin submission) requires stealing.  The counter
     is cumulative process state, so only its delta is asserted — and on
     a 1-core host preemption may still let lane owners drain their own
     deques, so the assertion is only that stealing never corrupts
     results (order) while the counter stays monotone. *)
  let steals () =
    match List.assoc_opt "parallel.steals" (Telemetry.counter_snapshot ()) with
    | Some n -> n
    | None -> 0
  in
  let before = steals () in
  let xs = List.init 48 Fun.id in
  Parallel.with_pool ~jobs:4 (fun pool ->
      Alcotest.(check (list int))
        "results in order" xs
        (Parallel.chunked_map pool ~chunk:1 Fun.id xs));
  let after = steals () in
  check_bool "steal counter monotone" true (after >= before)

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "map preserves submission order" `Quick
            test_map_order;
          Alcotest.test_case "map re-raises least-indexed failure" `Quick
            test_map_least_exception;
          Alcotest.test_case "first_success selects least index" `Quick
            test_first_success_least_index;
          Alcotest.test_case "default_jobs clamp and override" `Quick
            test_default_jobs_clamped;
        ] );
      ( "work stealing",
        [
          Alcotest.test_case "chunked_map order at any chunk" `Quick
            test_chunked_map_order;
          Alcotest.test_case "chunked_map re-raises least index" `Quick
            test_chunked_map_least_exception;
          Alcotest.test_case "chunked_first_success least index" `Quick
            test_chunked_first_success_least_index;
          Alcotest.test_case "estimate thresholds and chunking" `Quick
            test_estimate_thresholds;
          Alcotest.test_case "steal counter monotone, results exact" `Quick
            test_steals_counted;
        ] );
      ( "shutdown",
        [
          Alcotest.test_case "idempotent" `Quick test_shutdown_idempotent;
          Alcotest.test_case "idempotent under fault injection" `Quick
            test_shutdown_fault_injection;
          Alcotest.test_case "with_pool preserves body failure" `Quick
            test_with_pool_fault_preserves_failure;
        ] );
      ( "crash isolation",
        [
          Alcotest.test_case "crashed tasks rescued; breaker trips" `Quick
            test_crashed_tasks_rescued_and_breaker_trips;
          Alcotest.test_case "exhaustion reason survives shutdown" `Quick
            test_exhaustion_survives_shutdown;
          Alcotest.test_case "dead worker domains respawn" `Quick
            test_dead_workers_respawn;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "witness identical at any jobs count" `Quick
            test_jobs_identical_witness;
          Alcotest.test_case "unknown reason identical at any jobs count" `Quick
            test_jobs_identical_unknown;
          Alcotest.test_case "Checking jobs=1 == jobs=4" `Quick
            test_checking_jobs_1_vs_4;
          Alcotest.test_case "Checking jobs=2 == jobs=4" `Quick
            test_checking_jobs_2_vs_4;
          Alcotest.test_case "cascade runs SAT only when needed" `Quick
            test_cascade_telemetry;
        ] );
    ]
