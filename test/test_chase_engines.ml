open Conddep_relational
open Conddep_core
open Conddep_chase
open Conddep_consistency
open Conddep_generator
open Helpers

(* The delta-driven chase's differential guarantee (DESIGN.md §10): it
   executes the same canonical operation schedule as the naive oracle
   [Naive_chase] (full rescans built from [Chase.fd_step] and
   [Chase.ind_step]), so for equal inputs and random seeds both produce
   bit-identical outcomes and final templates.  [Chase.fd_fixpoint] alone
   is held to [Naive_chase.fd_fixpoint] on wide CFD sets, compiled
   beforehand and compiled lazily, and its work counters are pinned.  RandomChecking's witnesses are identical at any
   jobs count.  Plus the fault probes on the delta engine's entry points. *)

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

(* --- FD saturation alone: Chase.fd_fixpoint vs Naive_chase.fd_fixpoint -------- *)

(* The random-j1 shape: a relation with over a hundred CFDs of a generated
   CFD-only Σ (consistent for even seeds, random for odd ones), chased from
   its seed tuple, then from K_CFD-style random valuations of the terminal
   template's finite-domain variables. *)
let wide_rel_inputs seed =
  let rng = Rng.make seed in
  let schema =
    Schema_gen.generate rng { Schema_gen.default with num_relations = 2 }
  in
  let sigma =
    Workload.cfds_only rng
      { Workload.default with num_constraints = 240 }
      schema ~consistent:(seed mod 2 = 0)
  in
  let rel = List.hd (Db_schema.rel_names schema) in
  let nfs = Sigma.cfds_on sigma rel in
  let cfds = Chase.cfd_set (List.map (Chase.compile_cfd schema) nfs) in
  let start = Chase.seed_tuple schema ~rel in
  let avoid = Sigma.constant_values sigma in
  let demanded = Chase.conclusion_constants cfds in
  let prefer r a =
    List.filter_map
      (fun ((r', a'), v) -> if r = r' && a = a' then Some v else None)
      demanded
  in
  let valuations =
    match Chase.fd_fixpoint cfds start with
    | Chase.Terminal t ->
        List.init 3 (fun _ -> Chase.instantiate_finite_vars ~prefer ~avoid rng t)
    | Chase.Undefined _ | Chase.Exhausted _ -> []
  in
  (schema, nfs, start :: valuations)

(* Several tuples in each of 3 relations whose cells are drawn from a few
   variables and constants, against a generated CFD-only Σ (consistent for
   even seeds, random for odd ones) whose compiled order interleaves the
   relations. *)
let multi_rel_input seed =
  let rng = Rng.make seed in
  let schema =
    Schema_gen.generate rng
      { Schema_gen.default with num_relations = 3; max_arity = 6 }
  in
  let sigma =
    Workload.cfds_only rng
      { Workload.default with num_constraints = 150 }
      schema ~consistent:(seed mod 2 = 0)
  in
  let consts = Sigma.constants sigma in
  (* constants: the hidden witness's for a consistent Σ, Σ's own otherwise *)
  let cell rel attr =
    let name = Attribute.name attr in
    let pool =
      if seed mod 2 = 0 then [ Workload.witness_value attr ]
      else
        List.filter_map
          (fun (r, a, v) -> if r = rel && a = name then Some v else None)
          consts
    in
    if pool <> [] && Rng.int rng 3 = 0 then Template.C (Rng.pick rng pool)
    else Template.V { Template.vrel = rel; vattr = name; vidx = Rng.int rng 3 }
  in
  let db =
    List.fold_left
      (fun db r ->
        let rel = Schema.name r in
        let tuple () = Array.of_list (List.map (cell rel) (Schema.attrs r)) in
        List.fold_left (fun db t -> Template.add db rel t) db
          (List.init 6 (fun _ -> tuple ())))
      (Template.empty schema) (Db_schema.relations schema)
  in
  (schema, sigma, db)

(* Relation changes along Σ's CFD order: more changes than relations means
   some relation's CFDs resume after another relation's. *)
let rel_switches (sigma : Sigma.nf) =
  let rec go n = function
    | a :: (b :: _ as rest) ->
        go (if String.equal a.Cfd.nf_rel b.Cfd.nf_rel then n else n + 1) rest
    | [ _ ] | [] -> n
  in
  go 0 sigma.Sigma.ncfds

let kind = function
  | Chase.Terminal _ -> `Terminal
  | Chase.Undefined _ -> `Undefined
  | Chase.Exhausted _ -> `Exhausted

(* Run the naive fixpoint and the delta engine, on a set compiled
   beforehand and on a fresh lazily compiled one, over every input; fail
   on the first printed outcome that differs from the naive one, and
   return the delta engine's outcome kinds. *)
let fd_differential ?max_steps label schema nfs dbs =
  let compiled = List.map (Chase.compile_cfd schema) nfs in
  List.map
    (fun db ->
      let naive = Naive_chase.fd_fixpoint ?max_steps compiled db in
      let delta = Chase.fd_fixpoint ?max_steps (Chase.cfd_set compiled) db in
      let lazily =
        Chase.fd_fixpoint ?max_steps (Chase.lazy_cfd_set schema nfs) db
      in
      List.iter
        (fun (engine, o) ->
          if not (String.equal (outcome_repr o) (outcome_repr naive)) then
            Alcotest.failf "%s: %s %s@.naive %s" label engine (outcome_repr o)
              (outcome_repr naive))
        [ ("delta", delta); ("lazy", lazily) ];
      kind delta)
    dbs

let test_fd_wide_relation () =
  let kinds =
    List.concat_map
      (fun seed ->
        let schema, nfs, dbs = wide_rel_inputs seed in
        let n = List.length nfs in
        if n < 100 then Alcotest.failf "seed %d: only %d CFDs on the relation" seed n;
        fd_differential (Printf.sprintf "wide seed %d" seed) schema nfs dbs)
      (List.init 12 Fun.id)
  in
  check_bool "some input clashes" true (List.mem `Undefined kinds);
  check_bool "some input saturates" true (List.mem `Terminal kinds)

let test_fd_multi_relation () =
  let kinds =
    List.concat_map
      (fun seed ->
        let schema, sigma, db = multi_rel_input seed in
        if rel_switches sigma <= 3 then
          Alcotest.failf "seed %d: CFD order does not interleave relations" seed;
        let label = Printf.sprintf "multi seed %d" seed in
        let nfs = sigma.Sigma.ncfds in
        fd_differential label schema nfs [ db ]
        @ fd_differential ~max_steps:2 (label ^ " max_steps 2") schema nfs [ db ])
      (List.init 30 Fun.id)
  in
  check_bool "some input clashes" true (List.mem `Undefined kinds);
  check_bool "some input saturates" true (List.mem `Terminal kinds);
  check_bool "some input runs out of steps" true (List.mem `Exhausted kinds)

(* A seeded fixpoint: a saturated template plus one tuple, chased with only
   that tuple dirty, gives the oracle's outcome.  As in RandomChecking,
   the tuples of a multi-relation input arrive one at a time, each added
   to the fixpoint of the ones before, until a clash. *)
let test_fd_seeded () =
  let kinds =
    List.concat_map
      (fun seed ->
        let schema, sigma, db = multi_rel_input seed in
        let compiled = List.map (Chase.compile_cfd schema) sigma.Sigma.ncfds in
        let cfds = Chase.cfd_set compiled in
        let rec go saturated kinds = function
          | [] -> kinds
          | (rel, t) :: rest -> (
              let db = Template.add saturated rel t in
              let naive = Naive_chase.fd_fixpoint compiled db in
              let seeded = Chase.fd_fixpoint ~seed:[ (rel, t) ] cfds db in
              if not (String.equal (outcome_repr seeded) (outcome_repr naive)) then
                Alcotest.failf "multi seed %d: seeded %s@.naive %s" seed
                  (outcome_repr seeded) (outcome_repr naive);
              match seeded with
              | Chase.Terminal saturated -> go saturated (`Terminal :: kinds) rest
              | outcome -> kind outcome :: kinds)
        in
        go (Template.empty schema) []
          (List.concat_map
             (fun rel -> List.map (fun t -> (rel, t)) (Template.tuples db rel))
             (Db_schema.rel_names schema)))
      (List.init 30 Fun.id)
  in
  check_bool "some input clashes" true (List.mem `Undefined kinds);
  check_bool "some input saturates" true (List.mem `Terminal kinds)

(* Deterministic work counters of fixed wide inputs, pinned exactly: FD
   steps, the tuples re-examined (drained) and not re-examined (skipped)
   summed over every CFD visit, and the CFDs compiled during the
   fixpoint.  A faster FD engine keeps the first three, and a lazily
   compiled set does the same work as one compiled beforehand.  Skipped
   is 0 here: within one saturation pass the worklist is only cleared at
   the end, so it holds every live tuple. *)
let fd_counters set db =
  let names =
    [ "chase.fd_steps"; "chase.delta.drained"; "chase.delta.skipped"; "chase.cfds_compiled" ]
  in
  let count name = Telemetry.count (Telemetry.counter name) in
  let was_enabled = Telemetry.enabled () in
  Telemetry.enable ();
  Fun.protect ~finally:(fun () -> if not was_enabled then Telemetry.disable ())
  @@ fun () ->
  let before = List.map count names in
  let outcome = Chase.fd_fixpoint set db in
  (kind outcome, List.map2 (fun name b -> (name, count name - b)) names before)

(* [expected] holds the first three counters; [lazily_compiled] is the
   lazy set's compile count.  A fixpoint that saturates visits every CFD
   in its last pick, so there it is the whole set. *)
let check_fd_counters label schema nfs db ~kind:k ~lazily_compiled expected =
  List.iter
    (fun (engine, set, compiled) ->
      let label = label ^ " " ^ engine in
      let k', counters = fd_counters set db in
      check_bool (label ^ " outcome kind") true (k = k');
      List.iter2
        (fun (name, expected) (_, got) -> check_int (label ^ " " ^ name) expected got)
        (expected @ [ ("chase.cfds_compiled", compiled) ])
        counters)
    [
      ("compiled", Chase.cfd_set (List.map (Chase.compile_cfd schema) nfs), 0);
      ("lazy", Chase.lazy_cfd_set schema nfs, lazily_compiled);
    ]

let test_fd_counters_pinned () =
  let schema, nfs, dbs = wide_rel_inputs 0 in
  check_fd_counters "wide seed 0" schema nfs (List.hd dbs) ~kind:`Terminal
    ~lazily_compiled:121
    [ ("chase.fd_steps", 13); ("chase.delta.drained", 812); ("chase.delta.skipped", 0) ];
  let schema, sigma, db = multi_rel_input 2 in
  check_fd_counters "multi seed 2" schema sigma.Sigma.ncfds db ~kind:`Terminal
    ~lazily_compiled:150
    [ ("chase.fd_steps", 37); ("chase.delta.drained", 3612); ("chase.delta.skipped", 0) ]

(* A seed tuple against 120 CFDs of one relation whose 3rd clashes: the
   1st forces b = "x", the 2nd needs a = "k" and never matches, the 3rd
   demands b = "y".  The lazy set compiles those three and no other. *)
let test_fd_early_clash () =
  let schema = string_schema "r" [ "a"; "b" ] in
  let cfd name tx ta =
    Cfd.make ~name ~rel:"r" ~x:[ "a" ] ~y:[ "b" ] [ { Cfd.rx = [ tx ]; ry = [ ta ] } ]
  in
  let nfs =
    List.concat_map Cfd.normalize
      ([ cfd "x" wildcard (const "x"); cfd "k" (const "k") wildcard; cfd "y" wildcard (const "y") ]
      @ List.init 117 (fun i ->
            let c = Printf.sprintf "c%d" i in
            cfd c (const c) (const c)))
  in
  check_int "CFDs" 120 (List.length nfs);
  let db = Chase.seed_tuple schema ~rel:"r" in
  check_bool "identical to naive" true
    (fd_differential "early clash" schema nfs [ db ] = [ `Undefined ]);
  check_fd_counters "early clash" schema nfs db ~kind:`Undefined ~lazily_compiled:3
    [ ("chase.fd_steps", 1); ("chase.delta.drained", 4); ("chase.delta.skipped", 0) ]

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
      ( "fd-fixpoint",
        [
          Alcotest.test_case "wide relation identical to naive" `Quick
            test_fd_wide_relation;
          Alcotest.test_case "three relations identical to naive" `Quick
            test_fd_multi_relation;
          Alcotest.test_case "seeded fixpoint identical to naive" `Quick
            test_fd_seeded;
          Alcotest.test_case "work counters pinned" `Quick
            test_fd_counters_pinned;
          Alcotest.test_case "lazy set stops compiling at the first clash"
            `Quick test_fd_early_clash;
        ] );
      ( "faults",
        [
          Alcotest.test_case "chase.delta probe surfaces" `Quick
            test_delta_run_fault;
          Alcotest.test_case "chase.delta.drain probe surfaces" `Quick
            test_delta_drain_fault;
        ] );
    ]
