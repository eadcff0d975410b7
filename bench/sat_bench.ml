open Conddep_relational
open Conddep_core
open Conddep_generator
open Util
module Solver = Conddep_sat.Solver
module Cnf = Conddep_sat.Cnf

(* The `sat` section (BENCH_sat.json): the CDCL solver measured two ways.

   Part 1 races the chase and SAT backends of CFD_Checking over a
   constraints-per-relation sweep (the Fig 10(a) axis) and records the
   winner of every point — the paper's own framing of the two backends
   (SAT4j wins small, the chase scales better).  The winners are listed
   in sweep order because the race may flip more than once.

   Part 2 solves seeded random 3-CNF at the phase-transition ratio
   (m/n ~ 4.26, the empirically hardest density) and compares against the
   recorded measurement of the retired chronological (pre-learning)
   engine on the same instances: at quick scale the verdicts must equal
   the recorded ones pointwise, and CI gates the CDCL total against the
   recorded chronological total.

   Each race row also records the chase backend's deterministic work
   counters over the point ([race_counters]), which CI compares exactly
   with the committed file; wall times stay informational. *)

(* --- part 1: chase vs SAT race over the Fig 10(a) axis ----------------------- *)

let race_counters =
  [ "chase.fd_steps"; "chase.delta.drained"; "checking.cfd.kcfd_retries" ]

let winner ~chase_s ~sat_s = if sat_s <= chase_s then "sat" else "chase"

let race_sweep scale =
  let sconfig = Workloads.schema_config ~finite_ratio:0.25 scale in
  let schema = Schema_gen.generate (Rng.make 1000) sconfig in
  let rels = Db_schema.rel_names schema in
  let reps = 3 in
  row "%-14s %-12s %-12s %-8s@." "cfds/relation" "chase(s)" "sat(s)" "winner";
  List.map
    (fun per_rel ->
      let result = ref (0, 0., 0.) in
      let before = Telemetry.counter_snapshot () in
      with_series_metrics (Printf.sprintf "sat-race/cfds=%d" per_rel)
        (fun () ->
          let rng = Rng.make (1000 + per_rel) in
          let total = per_rel * sconfig.Schema_gen.num_relations in
          let sigma =
            Workload.cfds_only rng
              (Workloads.workload_config total)
              schema ~consistent:true
          in
          let cfds = sigma.Sigma.ncfds in
          let check backend () =
            List.iter
              (fun rel ->
                ignore
                  (Cind_api.consistent ~backend ~k_cfd:50 ~rng:(Rng.make 1)
                     schema cfds ~rel))
              rels
          in
          let time_backend backend =
            mean (List.init reps (fun _ -> snd (time (check backend))))
          in
          let chase_s = time_backend Cind_api.Chase_backend in
          let sat_s = time_backend Cind_api.Sat_backend in
          result := (per_rel, chase_s, sat_s));
      let diff = counter_diff before (Telemetry.counter_snapshot ()) in
      let counters =
        List.map
          (fun name -> (name, Option.value ~default:0 (List.assoc_opt name diff)))
          race_counters
      in
      let per_rel, chase_s, sat_s = !result in
      row "%-14d %-12.4f %-12.4f %-8s@." per_rel chase_s sat_s
        (winner ~chase_s ~sat_s);
      (per_rel, chase_s, sat_s, counters))
    (Workloads.fig10a_cfds_per_relation scale)

(* --- part 2: CDCL on random 3-CNF against the chronological baseline ------ *)

(* The chronological engine's quick-scale sweep (4 seeds per n, seeds
   1337n + i), measured before that engine was removed: total solve time
   over the sweep and the per-n verdict strings. *)
let chrono_baseline_total_s = 0.183885

let chrono_baseline_verdicts =
  [
    (40, "sat,unsat,sat,unsat");
    (60, "sat,unsat,unsat,sat");
    (80, "sat,unsat,sat,sat");
    (100, "unsat,sat,sat,unsat");
  ]

(* Uniform random 3-CNF at clause/variable ratio ~4.26 — the SAT/UNSAT
   phase transition, where both verdicts occur and search is empirically
   hardest.  Three distinct variables per clause, independent signs, fully
   determined by the seed. *)
let random_3cnf rng n =
  let m = int_of_float (Float.round (4.26 *. float_of_int n)) in
  let clause () =
    let rec distinct acc k =
      if k = 0 then acc
      else
        let v = 1 + Rng.int rng n in
        if List.mem v acc then distinct acc k
        else distinct (v :: acc) (k - 1)
    in
    List.map (fun v -> if Rng.bool rng then v else -v) (distinct [] 3)
  in
  Cnf.make ~num_vars:n (List.init m (fun _ -> clause ()))

let verdict = function
  | Solver.Sat _ -> "sat"
  | Solver.Unsat -> "unsat"
  | Solver.Unknown _ -> "unknown"

let cnf_sweep ~ns ~seeds_per_n =
  row "%-6s %-9s %-12s %-10s@." "n" "clauses" "cdcl(s)" "verdicts";
  List.map
    (fun n ->
      let result = ref (0., "") in
      with_series_metrics (Printf.sprintf "sat-cnf/n=%d" n) (fun () ->
          let solved =
            List.init seeds_per_n (fun i ->
                let cnf = random_3cnf (Rng.make ((1337 * n) + i)) n in
                let r, s = time (fun () -> Solver.solve cnf) in
                (verdict r, s))
          in
          let total = List.fold_left (fun acc (_, s) -> acc +. s) 0. solved in
          result := (total, String.concat "," (List.map fst solved)));
      let cdcl_s, verdicts = !result in
      let m = int_of_float (Float.round (4.26 *. float_of_int n)) in
      row "%-6d %-9d %-12.4f %-10s@." n (m * seeds_per_n) cdcl_s verdicts;
      (n, cdcl_s, verdicts))
    ns

(* --- the section -------------------------------------------------------------- *)

let run scale =
  header "SAT: chase-vs-SAT race + CDCL on random 3-CNF (BENCH_sat.json)";
  let race = race_sweep scale in
  let ns, seeds_per_n =
    match scale with
    | Workloads.Quick -> ([ 40; 60; 80; 100 ], 4)
    | Workloads.Full -> ([ 50; 100; 150; 200 ], 6)
  in
  let cnf = cnf_sweep ~ns ~seeds_per_n in
  (* the sweep is the baseline's own at quick scale: a verdict that moved
     is a solver bug *)
  if scale = Workloads.Quick then
    assert (List.map (fun (n, _, v) -> (n, v)) cnf = chrono_baseline_verdicts);
  let hardest_n, h_cdcl, _ = List.nth cnf (List.length cnf - 1) in
  let cdcl_total = List.fold_left (fun a (_, c, _) -> a +. c) 0. cnf in
  let oc = open_out "BENCH_sat.json" in
  let j = Printf.fprintf in
  j oc "{\n";
  j oc "  \"race\": [\n";
  List.iteri
    (fun i (k, chase_s, sat_s, counters) ->
      j oc
        "    {\"cfds_per_relation\": %d, \"chase_s\": %.6f, \"sat_s\": %.6f, \
         \"winner\": %S, \"counters\": {%s}}%s\n"
        k chase_s sat_s
        (winner ~chase_s ~sat_s)
        (String.concat ", "
           (List.map (fun (name, v) -> Printf.sprintf "%S: %d" name v) counters))
        (if i = List.length race - 1 then "" else ","))
    race;
  j oc "  ],\n";
  j oc "  \"winners\": [%s],\n"
    (String.concat ", "
       (List.map
          (fun (_, chase_s, sat_s, _) -> Printf.sprintf "%S" (winner ~chase_s ~sat_s))
          race));
  j oc "  \"cnf\": [\n";
  List.iteri
    (fun i (n, cdcl_s, verdicts) ->
      j oc "    {\"n\": %d, \"cdcl_s\": %.6f, \"verdicts\": %S}%s\n" n cdcl_s
        verdicts
        (if i = List.length cnf - 1 then "" else ","))
    cnf;
  j oc "  ],\n";
  j oc "  \"hardest_n\": %d,\n" hardest_n;
  j oc "  \"cdcl_hardest_s\": %.6f,\n" h_cdcl;
  j oc "  \"cdcl_total_s\": %.6f,\n" cdcl_total;
  j oc "  \"chrono_baseline\": {\n";
  j oc "    \"total_s\": %.6f,\n" chrono_baseline_total_s;
  j oc "    \"cnf\": [\n";
  List.iteri
    (fun i (n, verdicts) ->
      j oc "      {\"n\": %d, \"verdicts\": %S}%s\n" n verdicts
        (if i = List.length chrono_baseline_verdicts - 1 then "" else ","))
    chrono_baseline_verdicts;
  j oc "    ]\n";
  j oc "  }\n";
  j oc "}\n";
  close_out oc;
  row "wrote BENCH_sat.json (CDCL total %.4fs; chronological baseline %.4fs)@."
    cdcl_total chrono_baseline_total_s
