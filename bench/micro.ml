open Bechamel
open Toolkit
open Conddep_relational
open Conddep_core
open Conddep_generator

(* Bechamel micro-benchmarks: one Test.make per table and figure of the
   evaluation, on fixed representative workloads, plus the baseline
   procedures the paper compares against conceptually (FD closure, IND
   membership).  These complement the sweeps of Figures/Tables with
   statistically sound per-operation costs. *)

module B = Conddep_fixtures.Bank

let fixed_workload ~consistent ~n seed =
  let rng = Rng.make seed in
  let schema = Schema_gen.generate rng (Workloads.schema_config Workloads.Quick) in
  let sigma =
    if consistent then Workload.consistent rng (Workloads.workload_config n) schema
    else Workload.random rng (Workloads.workload_config n) schema
  in
  (schema, sigma)

let tests () =
  let schema_c, sigma_c = fixed_workload ~consistent:true ~n:200 101 in
  let schema_r, sigma_r = fixed_workload ~consistent:false ~n:200 102 in
  let cfd_schema, cfd_sigma = fixed_workload ~consistent:true ~n:300 103 in
  let cfds = cfd_sigma.Sigma.ncfds in
  let rel0 = List.hd (Db_schema.rel_names cfd_schema) in
  let chain_inf_schema, chain_inf_sigma, chain_inf_goal =
    (* the Table 2 PSPACE family at k = 16 *)
    let extra i = Attribute.make (Printf.sprintf "f%d" i) Domain.string_inf in
    let schema =
      Db_schema.make
        [
          Schema.make "src" [ Attribute.make "a" Domain.string_inf ];
          Schema.make "mid" (Attribute.make "a" Domain.string_inf :: List.init 16 extra);
          Schema.make "tgt" [ Attribute.make "a" Domain.string_inf ];
        ]
    in
    let ind lhs rhs =
      {
        Cind.nf_name = lhs ^ rhs;
        nf_lhs = lhs;
        nf_rhs = rhs;
        nf_x = [ "a" ];
        nf_y = [ "a" ];
        nf_xp = [];
        nf_yp = [];
      }
    in
    (schema, [ ind "src" "mid"; ind "mid" "tgt" ], ind "src" "tgt")
  in
  [
    (* Table 1: the EXPTIME implication decision on the Example 3.4 input *)
    Test.make ~name:"table1/cind-implication-finite"
      (Staged.stage (fun () ->
           Cind_api.implies B.schema ~sigma:B.implication_sigma B.implication_goal));
    (* Table 1: the proof checker on the Example 3.4 derivation *)
    Test.make ~name:"table1/inference-proof-check"
      (Staged.stage (fun () ->
           Inference.proves B.schema ~sigma:B.implication_sigma B.example_3_4_proof
             B.implication_goal));
    (* Table 1: exact (NP) CFD consistency on one relation *)
    Test.make ~name:"table1/cfd-consistency-exact"
      (Staged.stage (fun () ->
           Cfd_consistency.consistent_rel cfd_schema ~rel:rel0 cfds));
    (* Table 2: the PSPACE-style membership search without finite domains *)
    Test.make ~name:"table2/cind-implication-infinite"
      (Staged.stage (fun () ->
           Cind_api.implies chain_inf_schema ~sigma:chain_inf_sigma chain_inf_goal));
    (* Fig 10(a): the two CFD_Checking backends on the same relation *)
    Test.make ~name:"fig10a/cfd-checking-chase"
      (Staged.stage (fun () ->
           Cind_api.consistent ~backend:Cind_api.Chase_backend ~rng:(Rng.make 1)
             cfd_schema cfds ~rel:rel0));
    Test.make ~name:"fig10a/cfd-checking-sat"
      (Staged.stage (fun () ->
           Cind_api.consistent ~backend:Cind_api.Sat_backend ~rng:(Rng.make 1)
             cfd_schema cfds ~rel:rel0));
    (* Fig 10(b): bounded-valuation chase checking at K_CFD = 16 *)
    Test.make ~name:"fig10b/cfd-checking-k16"
      (Staged.stage (fun () ->
           Cind_api.consistent ~backend:Cind_api.Chase_backend ~k_cfd:16
             ~rng:(Rng.make 2) cfd_schema
             (List.filter (fun nf -> nf.Cfd.nf_rel = rel0) cfds)
             ~rel:rel0));
    (* Fig 11(a)/(b): the two heuristics on a consistent mixed set *)
    Test.make ~name:"fig11ab/random-checking-consistent"
      (Staged.stage (fun () ->
           Cind_api.to_bool
             (Cind_api.random_check ~k:20 ~rng:(Rng.make 3) schema_c sigma_c)));
    Test.make ~name:"fig11ab/checking-consistent"
      (Staged.stage (fun () ->
           Cind_api.to_bool (Cind_api.check ~k:20 ~rng:(Rng.make 3) schema_c sigma_c)));
    (* Fig 11(c): the two heuristics on a random mixed set *)
    Test.make ~name:"fig11c/random-checking-random"
      (Staged.stage (fun () ->
           Cind_api.to_bool
             (Cind_api.random_check ~k:20 ~rng:(Rng.make 4) schema_r sigma_r)));
    Test.make ~name:"fig11c/checking-random"
      (Staged.stage (fun () ->
           Cind_api.to_bool (Cind_api.check ~k:20 ~rng:(Rng.make 4) schema_r sigma_r)));
    (* Fig 11(d): dependency-graph preprocessing alone on the mixed set *)
    Test.make ~name:"fig11d/preprocessing"
      (Staged.stage (fun () ->
           Cind_api.preprocess ~rng:(Rng.make 5) schema_c sigma_c));
    (* baselines the conditional analyses generalize *)
    Test.make ~name:"baseline/fd-closure"
      (Staged.stage (fun () ->
           Fd.implies
             [
               Fd.make ~rel:"r" ~x:[ "a" ] ~y:[ "b" ];
               Fd.make ~rel:"r" ~x:[ "b" ] ~y:[ "c" ];
             ]
             (Fd.make ~rel:"r" ~x:[ "a" ] ~y:[ "c" ])));
    Test.make ~name:"baseline/ind-membership"
      (Staged.stage (fun () ->
           Ind.implies
             [
               Ind.make ~lhs:"r" ~x:[ "a"; "b" ] ~rhs:"s" ~y:[ "c"; "d" ];
               Ind.make ~lhs:"s" ~x:[ "c" ] ~rhs:"t" ~y:[ "e" ];
             ]
             (Ind.make ~lhs:"r" ~x:[ "a" ] ~rhs:"t" ~y:[ "e" ])));
    (* the paper's running example: violation detection over Fig 1 *)
    Test.make ~name:"detection/bank-sigma"
      (Staged.stage (fun () -> Sigma.holds B.dirty_db B.sigma));
  ]

(* --- parallel execution micro section ----------------------------------------

   Measures the PR-tracked perf trajectory and writes it to
   BENCH_parallel.json:

   - RandomChecking on the Fig 10(b) needle profile (per-relation secrets,
     pattern-free CINDs — random search must grind through K runs) at
     1 / 2 / 4 domains, same seed.  The K runs are independent, so on
     multicore hardware wall-clock scales with the domain count; the
     verdict is asserted bit-identical across jobs counts.  The JSON
     records the machine's [recommended_domain_count] so a 1-core CI
     container's flat numbers read as what they are.
   - The batch facade: [check_many] against N singleton [check] calls. *)

let needle_schema_config relations =
  {
    Schema_gen.num_relations = relations;
    min_arity = 3;
    max_arity = 5;
    finite_ratio = 1.0;
    finite_dom_min = 2;
    finite_dom_max = 2;
  }

let needle_workload ~seed ~relations ~cinds =
  let rng = Rng.make seed in
  let schema = Schema_gen.generate rng (needle_schema_config relations) in
  let sigma = Workload.needle_cfds rng schema in
  let cind_config = { Workload.default with max_pattern = 0 } in
  let cinds =
    List.init cinds (Workload.gen_cind rng cind_config schema ~consistent:false)
  in
  (schema, { sigma with Sigma.ncinds = cinds })

let parallel_section () =
  Util.header "Parallel execution (BENCH_parallel.json)";
  let schema, sigma = needle_workload ~seed:3 ~relations:8 ~cinds:20 in
  let k = 96 in
  let check jobs =
    Cind_api.random_check ~jobs ~k ~k_cfd:40 ~rng:(Rng.make 7) schema sigma
  in
  let verdict = function
    | Cind_api.Yes (Some db) -> Fmt.str "consistent:%a" Database.pp db
    | Cind_api.Yes None -> "consistent"
    | Cind_api.No -> "no"
    | Cind_api.Unknown r -> "unknown:" ^ Guard.reason_to_string r
  in
  let timings = ref [] in
  Util.row "%-28s %-12s %-10s@." "benchmark" "time(s)" "verdict";
  List.iter
    (fun jobs ->
      Util.with_series_metrics (Printf.sprintf "micro-parallel/jobs=%d" jobs)
      @@ fun () ->
      let r, s = Util.time (fun () -> check jobs) in
      timings := (Printf.sprintf "random_checking_needle_jobs%d_s" jobs, s) :: !timings;
      Util.row "%-28s %-12.4f %-10s@."
        (Printf.sprintf "needle k=%d jobs=%d" k jobs)
        s
        (match r with
        | Cind_api.Yes _ -> "consistent"
        | Cind_api.No -> "no"
        | Cind_api.Unknown _ -> "unknown"))
    [ 1; 2; 4 ];
  let identical =
    let v1 = verdict (check 1) in
    List.for_all (fun jobs -> String.equal v1 (verdict (check jobs))) [ 2; 4 ]
  in
  Util.row "verdicts bit-identical across jobs counts: %b@." identical;
  (* batch facade overhead: [check_many] at jobs=1 must track N singleton
     [check] calls (the cost model keeps jobs=1 and tiny batches off the
     pool entirely), and its verdicts must be bit-identical to theirs *)
  let bschema, bsigma = needle_workload ~seed:5 ~relations:4 ~cinds:8 in
  let n_batch = 8 in
  let sigmas = List.init n_batch (fun _ -> bsigma) in
  let show_verdict = function
    | Cind_api.Yes (Some db) -> Fmt.str "yes:%a" Database.pp db
    | Cind_api.Yes None -> "yes"
    | Cind_api.No -> "no"
    | Cind_api.Unknown r -> "unknown:" ^ Guard.reason_to_string r
  in
  let batch jobs () =
    List.map show_verdict
      (Cind_api.check_many ~jobs ~k:4 ~k_cfd:10 ~rng:(Rng.make 21) bschema
         sigmas)
  in
  let singletons () =
    List.map
      (fun rng ->
        show_verdict (Cind_api.check ~jobs:1 ~k:4 ~k_cfd:10 ~rng bschema bsigma))
      (Rng.split_n (Rng.make 21) n_batch)
  in
  let vs, single_s = Util.time singletons in
  let vb1, batch1_s = Util.time (batch 1) in
  let vb4, batch4_s = Util.time (batch 4) in
  let batch_identical = List.equal String.equal vs vb1 && List.equal String.equal vb1 vb4 in
  let batch_overhead = if single_s > 0. then batch1_s /. single_s else Float.nan in
  Util.row "%-28s %-12.4f@."
    (Printf.sprintf "batch n=%d singletons" n_batch)
    single_s;
  Util.row "%-28s %-12.4f (overhead %.3fx)@."
    (Printf.sprintf "check_many n=%d jobs=1" n_batch)
    batch1_s batch_overhead;
  Util.row "%-28s %-12.4f@."
    (Printf.sprintf "check_many n=%d jobs=4" n_batch)
    batch4_s;
  Util.row "batch verdicts bit-identical to singletons: %b@." batch_identical;
  let jobs1_s = List.assoc "random_checking_needle_jobs1_s" !timings in
  let jobs4_s = List.assoc "random_checking_needle_jobs4_s" !timings in
  let oc = open_out "BENCH_parallel.json" in
  let j = Printf.fprintf in
  j oc "{\n";
  List.iter
    (fun (key, s) -> j oc "  %S: %.6f,\n" key s)
    (List.rev !timings);
  j oc "  \"needle_speedup_jobs4\": %.4f,\n"
    (if jobs4_s > 0. then jobs1_s /. jobs4_s else Float.nan);
  j oc "  \"verdicts_identical_across_jobs\": %b,\n" identical;
  j oc "  \"batch_singletons_s\": %.6f,\n" single_s;
  j oc "  \"batch_check_many_jobs1_s\": %.6f,\n" batch1_s;
  j oc "  \"batch_check_many_jobs4_s\": %.6f,\n" batch4_s;
  j oc "  \"batch_overhead_jobs1\": %.4f,\n" batch_overhead;
  j oc "  \"batch_speedup_jobs4\": %.4f,\n"
    (if batch4_s > 0. then single_s /. batch4_s else Float.nan);
  j oc "  \"batch_identical_to_singletons\": %b,\n" batch_identical;
  let cores = Stdlib.Domain.recommended_domain_count () in
  (* honest reporting: a 1-core host cannot measure multicore speedup, and
     the speedup numbers above then reflect scheduling overhead only *)
  j oc "  \"host_cores\": %d,\n" cores;
  j oc "  \"skipped_multicore\": %b,\n" (cores = 1);
  j oc "  \"recommended_domain_count\": %d\n" cores;
  j oc "}\n";
  close_out oc;
  Util.row "wrote BENCH_parallel.json (host_cores=%d%s)@." cores
    (if cores = 1 then ", skipped_multicore" else "")

(* --- per-phase profile breakdown (BENCH_profile.json) ------------------------

   The needle RandomChecking workload of [parallel_section], run under the
   profiler at jobs 1 and 4: a per-span (calls, total, self) breakdown per
   jobs count, the artifact that tells the parallel-batching and CDCL work
   where the 0.42x fan-out actually goes (task bodies vs pool waits vs
   preprocessing).  Coverage is the profiled self-time sum over wall
   clock; above 1.0 under --jobs it reads as average active domains. *)

let profile_section () =
  Util.header "Per-phase profile: needle at jobs 1 vs 4 (BENCH_profile.json)";
  let schema, sigma = needle_workload ~seed:3 ~relations:8 ~cinds:20 in
  let k = 96 in
  let was_profiling = Telemetry.profiling () in
  Telemetry.enable_profiling ();
  let runs =
    List.map
      (fun jobs ->
        (* fresh attribution per jobs count; trace buffers (a --profile
           whole-run trace) are deliberately untouched *)
        Telemetry.profile_reset ();
        let _, wall =
          Util.time (fun () ->
              Telemetry.with_span "bench.needle" (fun () ->
                  Cind_api.random_check ~jobs ~k ~k_cfd:40 ~rng:(Rng.make 7)
                    schema sigma))
        in
        let phases = Telemetry.self_time_table () in
        let sum_self =
          List.fold_left (fun acc (_, _, _, s) -> acc +. s) 0. phases
        in
        (jobs, wall, (if wall > 0. then sum_self /. wall else Float.nan), phases))
      [ 1; 4 ]
  in
  if not was_profiling then Telemetry.disable_profiling ();
  Util.row "%-10s %-12s %-10s %s@." "jobs" "wall(s)" "coverage" "top spans (self)";
  List.iter
    (fun (jobs, wall, coverage, phases) ->
      let top =
        List.filteri (fun i _ -> i < 3) phases
        |> List.map (fun (name, _, _, self) ->
               Printf.sprintf "%s=%s" name (Telemetry.dur_to_string self))
        |> String.concat " "
      in
      Util.row "%-10d %-12.4f %-10.2f %s@." jobs wall coverage top)
    runs;
  let oc = open_out "BENCH_profile.json" in
  let j = Printf.fprintf in
  j oc "{\n";
  j oc "  \"workload\": \"needle seed=3 relations=8 cinds=20 k=%d k_cfd=40\",\n" k;
  j oc "  \"jobs\": [\n";
  List.iteri
    (fun i (jobs, wall, coverage, phases) ->
      j oc "    {\"jobs\": %d, \"wall_s\": %.6f, \"coverage\": %.4f, \"phases\": [\n"
        jobs wall coverage;
      List.iteri
        (fun pi (name, calls, total, self) ->
          j oc
            "      {\"span\": %S, \"calls\": %d, \"total_s\": %.6f, \"self_s\": \
             %.6f}%s\n"
            name calls total self
            (if pi = List.length phases - 1 then "" else ","))
        phases;
      j oc "    ]}%s\n" (if i = List.length runs - 1 then "" else ","))
    runs;
  j oc "  ]\n";
  j oc "}\n";
  close_out oc;
  Util.row "wrote BENCH_profile.json@."

let run () =
  parallel_section ();
  profile_section ();
  Util.header "Bechamel micro-benchmarks (one per table/figure)";
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  let grouped = Test.make_grouped ~name:"conddep" (tests ()) in
  let raw = Benchmark.all cfg instances grouped in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let ns =
          match Analyze.OLS.estimates ols with Some (e :: _) -> e | _ -> Float.nan
        in
        let r2 = Option.value ~default:Float.nan (Analyze.OLS.r_square ols) in
        (name, ns, r2) :: acc)
      results []
    |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)
  in
  Fmt.pr "%-45s %-16s %-8s@." "benchmark" "time/run" "r^2";
  List.iter
    (fun (name, ns, r2) ->
      let pretty =
        if Float.is_nan ns then "n/a"
        else if ns > 1e9 then Printf.sprintf "%.3f s" (ns /. 1e9)
        else if ns > 1e6 then Printf.sprintf "%.3f ms" (ns /. 1e6)
        else if ns > 1e3 then Printf.sprintf "%.3f us" (ns /. 1e3)
        else Printf.sprintf "%.1f ns" ns
      in
      Fmt.pr "%-45s %-16s %-8.4f@." name pretty r2)
    rows
