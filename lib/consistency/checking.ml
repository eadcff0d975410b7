open Conddep_relational
open Conddep_core

(* Algorithm Checking (Fig 9): preProcessing first; when it has no
   definitive answer, run RandomChecking on each remaining weakly connected
   component of the reduced dependency graph.  The component's constraints
   include the non-triggering CFDs accumulated during preProcessing, so a
   component witness extends to a witness for all of Σ by leaving every
   other relation empty — which we verify before answering. *)

type result =
  | Consistent of Database.t
  | Inconsistent
  | Unknown of Guard.reason

let () = Guard.register_probe "checking.check"

let m_calls = Telemetry.counter "checking.calls" ~doc:"top-level Checking invocations"
let m_consistent = Telemetry.counter "checking.results_consistent" ~doc:"Checking answers with a verified witness"
let m_inconsistent = Telemetry.counter "checking.results_inconsistent" ~doc:"Checking answers: dependency graph emptied"
let m_unknown = Telemetry.counter "checking.results_unknown" ~doc:"Checking answers: budgets exhausted"
let m_components_tried = Telemetry.counter "checking.components_tried" ~doc:"weakly connected components run through RandomChecking"

(* One full pipeline (preProcessing + per-component RandomChecking) with a
   fixed backend. *)
let pipeline ?backend ~budget ?config ?k ?k_cfd ~jobs ~rng schema
    (sigma : Sigma.nf) =
  try
    Guard.probe ~budget "checking.check";
    match Preprocessing.run ?backend ~budget ?k_cfd ~rng schema sigma with
    | Preprocessing.Consistent db -> Consistent db
    | Preprocessing.Inconsistent -> Inconsistent
    | Preprocessing.Unknown components ->
        (* [Guard.Fuel] is the ordinary "budgets K / K_CFD exhausted"
           answer; a component cut short for a sharper reason (deadline,
           fault, ...) reports that reason instead — first one wins. *)
        let rec try_components reason = function
          | [] -> Unknown reason
          | (members, component_sigma) :: rest -> (
              Guard.check budget;
              Telemetry.incr m_components_tried;
              match
                Random_checking.check ~budget ?config ?k ?k_cfd
                  ~seed_rels:members ~jobs ~rng schema component_sigma
              with
              | Random_checking.Consistent db when Sigma.nf_holds db sigma ->
                  Consistent db
              | Random_checking.Consistent _ -> try_components reason rest
              | Random_checking.Unknown r ->
                  let reason =
                    match reason with Guard.Fuel -> r | _ -> reason
                  in
                  try_components reason rest)
        in
        try_components Guard.Fuel components
  with Guard.Exhausted r -> Unknown r

(* Merge of the chase-based and SAT-based pipelines (Fig 10a's two
   backends), run as a cascade on the caller.  Soundness:
   - [Consistent] is verified against Σ by either pipeline, so whichever
     arrives is correct; the chase witness is preferred, so a chase
     [Consistent] is the answer without running SAT;
   - SAT-pipeline [Inconsistent] is definitive (the SAT backend is a
     complete decision procedure for the single-tuple CFD problem, and
     raises rather than answer under exhaustion);
   - chase-pipeline [Inconsistent] is heuristic (its CFD_Checking is
     K_CFD-bounded, Fig 10b): it is held as provisional and reported only
     if the SAT pipeline ends [Unknown].
   The two verdicts cannot contradict: a verified witness proves Σ
   consistent, which a sound SAT [Inconsistent] would refute. *)
let merge chase_r sat_r =
  match (chase_r, sat_r) with
  (* Injected faults are never swallowed, not even by a verified witness
     from the sibling — same invariant as [Guard.recoverable]. *)
  | Unknown (Guard.Fault _ as f), _ | _, Unknown (Guard.Fault _ as f) ->
      Unknown f
  | Consistent db, _ -> Consistent db
  | _, Consistent db -> Consistent db
  | _, Inconsistent -> Inconsistent
  | Inconsistent, Unknown _ -> Inconsistent
  | Unknown r1, Unknown r2 ->
      Unknown (match r1 with Guard.Fuel -> r2 | _ -> r1)

(* The chase arm runs first; the SAT arm runs only when the merge could
   still use it, i.e. unless the chase arm found the (preferred) witness or
   faulted.  Each arm runs to completion on its own generator, so the
   answer does not depend on timing or on the jobs count above 1. *)
let check_cascade ~budget ?config ?k ?k_cfd ~jobs ~rng schema sigma =
  (* Fixed split order: chase first, SAT second. *)
  let rng_chase = Rng.split rng in
  let rng_sat = Rng.split rng in
  let inner_jobs = max 1 (jobs / 2) in
  let arm backend rng =
    pipeline ~backend ~budget:(Guard.child budget) ?config ?k ?k_cfd
      ~jobs:inner_jobs ~rng schema sigma
  in
  match arm Cfd_checking.Chase_backend rng_chase with
  | (Consistent _ | Unknown (Guard.Fault _)) as r -> r
  | chase_r -> merge chase_r (arm Cfd_checking.Sat_backend rng_sat)

(* The degradation ladder, driven by [Supervise.Policy].  Rungs, most
   capable first:

     parallel: chase-then-SAT cascade (jobs >= 2)
       ->  sequential: chase pipeline

   Both rungs are sound and seed-deterministic.  The sequential rung is the
   jobs=1 pipeline, so stepping down may answer [Unknown] where the cascade
   decides, or report a different witness.

   Within a rung, transient failures (injected faults, a local allocation
   ceiling — never deterministic heuristic give-ups, which re-run
   identically) are retried by [Supervise.with_retry]; each attempt
   replays a snapshot of the entry rng, so a fault-free re-run yields the
   bit-identical verdict the fault-free run would have produced on that
   rung.  When retries run out, the ladder steps down one rung and
   records the step on the degradation trail; the last rung's answer is
   final.  The SAT -> chase rung lives below, in
   [Cfd_checking.consistent_rel]. *)
let check ?backend ?budget ?config ?k ?k_cfd ?jobs ?policy ?recorder
    ~rng schema (sigma : Sigma.nf) =
  Telemetry.incr m_calls;
  (* Checking consults all of Σ (preProcessing walks the full dependency
     graph), so the read set is Σ itself plus every relation it mentions
     — recorded up front, on the caller, so no recorder is ever touched
     from a pool domain. *)
  (match recorder with
  | None -> ()
  | Some _ ->
      List.iter
        (fun (c : Cind.nf) ->
          Read_set.record_cind recorder c;
          Read_set.record_rel recorder c.Cind.nf_lhs;
          Read_set.record_rel recorder c.Cind.nf_rhs)
        sigma.Sigma.ncinds;
      List.iter
        (fun (f : Cfd.nf) ->
          Read_set.record_cfd recorder f;
          Read_set.record_rel recorder f.Cfd.nf_rel)
        sigma.Sigma.ncfds);
  let budget = Guard.resolve budget in
  let policy = Supervise.Policy.resolve policy in
  let jobs =
    match jobs with Some j -> max 1 j | None -> Parallel.default_jobs ()
  in
  Telemetry.with_span "checking.check" @@ fun () ->
  let run_once ~jobs rng =
    match backend with
    | None when jobs >= 2 ->
        check_cascade ~budget ?config ?k ?k_cfd ~jobs ~rng schema sigma
    | _ ->
        pipeline ?backend ~budget ?config ?k ?k_cfd ~jobs ~rng schema
          sigma
  in
  let result =
    if policy.Supervise.Policy.retries = 0 && not policy.Supervise.Policy.degrade
    then
      (* Supervision off: exactly the historical path (and rng use), so
         unsupervised callers and the 0-fault hot path pay nothing. *)
      run_once ~jobs rng
    else begin
      (* Snapshot before anything else touches the stream: every attempt
         on every rung replays the same generator state. *)
      let rng0 = Rng.copy rng in
      let transient r =
        match r with
        | Guard.Fault _ | Guard.Memory -> Guard.state budget = None
        | Guard.Deadline | Guard.Fuel | Guard.Cancelled -> false
      in
      let rungs =
        (if backend = None && jobs >= 2 then [ (jobs, "parallel") ] else [])
        @ [ (1, "sequential") ]
      in
      let rec walk = function
        | [] -> assert false
        | (rung_jobs, name) :: rest -> (
            let degrade_to reason =
              match rest with
              | (_, next) :: _ when policy.Supervise.Policy.degrade ->
                  Supervise.record_degradation ~stage:"checking" ~from_:name
                    ~to_:next ~reason;
                  Some (walk rest)
              | _ -> None
            in
            match
              Supervise.with_retry ~policy ~rng ~budget (fun ~attempt:_ ->
                  match run_once ~jobs:rung_jobs (Rng.copy rng0) with
                  | (Consistent _ | Inconsistent) as v -> Supervise.Done v
                  | Unknown r when transient r -> Supervise.Transient r
                  | Unknown _ as v -> Supervise.Done v)
            with
            | Ok v -> v
            | Error r -> (
                match degrade_to (Guard.reason_to_string r) with
                | Some v -> v
                | None -> Unknown r)
            | exception e -> (
                (* A non-Exhausted exception out of a rung (e.g. a pool
                   failure the rescue path could not absorb) degrades
                   like a fault; on the last rung it propagates as the
                   internal error it is. *)
                match degrade_to (Printexc.to_string e) with
                | Some v -> v
                | None -> raise e))
      in
      walk rungs
    end
  in
  (match result with
  | Consistent _ -> Telemetry.incr m_consistent
  | Inconsistent -> Telemetry.incr m_inconsistent
  | Unknown _ -> Telemetry.incr m_unknown);
  result

let to_bool = function Consistent _ -> true | Inconsistent | Unknown _ -> false

(* Warm the global interner with the schema's symbols once per batch, so
   the per-item Depgraph / Preprocessing passes — whichever domain they
   run on — hit a populated table instead of each paying the first-touch
   insertions. *)
let intern_schema schema =
  List.iter
    (fun rel ->
      ignore (Interner.symbol rel);
      List.iter
        (fun a -> ignore (Interner.symbol a))
        (Schema.attr_names (Db_schema.find schema rel)))
    (Db_schema.rel_names schema)

(* Batch entry point: one schema, N dependency sets.  Item i behaves
   bit-identically to [check ~jobs:1] on generator i of
   [Rng.split_n rng N], at any batch jobs count.
   What the batch shares: the policy/budget resolution, the interner
   warm-up above, and one pool whose domain spawns are amortised over
   every item (items are the coarse work units the work-stealing deques
   balance; each item runs its own pipeline sequentially). *)
let check_many ?backend ?budget ?config ?k ?k_cfd ?jobs ?chunk ?policy
    ~rng schema (sigmas : Sigma.nf list) =
  let budget = Guard.resolve budget in
  let policy = Supervise.Policy.resolve policy in
  let jobs =
    match jobs with Some j -> max 1 j | None -> Parallel.default_jobs ()
  in
  Telemetry.with_span "checking.check_many" @@ fun () ->
  let n = List.length sigmas in
  intern_schema schema;
  let items = List.combine (Rng.split_n rng n) sigmas in
  (* Every attempt runs from a copy of the item's generator, so a batch
     rung that partially consumed a stream can be replayed sequentially
     with bit-identical results. *)
  let run_one (rng_i, sigma_i) =
    check ?backend ~budget ?config ?k ?k_cfd ~jobs:1 ~policy
      ~rng:(Rng.copy rng_i) schema sigma_i
  in
  let plan = Parallel.estimate ?chunk ~tasks:n ~jobs () in
  if not plan.Parallel.use_pool then List.map run_one items
  else
    try
      Parallel.with_pool ~jobs (fun pool ->
          Parallel.chunked_map pool ~chunk:plan.Parallel.chunk run_one items)
    with
    | Guard.Exhausted _ as e -> raise e
    | e when policy.Supervise.Policy.degrade ->
        (* The ladder's batch rung: a pool failure the rescue path could
           not absorb degrades the whole batch to the sequential loop —
           items re-run from their pristine generator copies. *)
        Supervise.record_degradation ~stage:"checking.check_many"
          ~from_:"pool" ~to_:"sequential" ~reason:(Printexc.to_string e);
        List.map run_one items
