open Conddep_relational
open Conddep_core
open Conddep_chase

(* Algorithm RandomChecking (Fig 5), in the improved form the paper
   implemented (end of Section 5.2): start from a single-tuple template in
   a random relation and run the instantiated chase, invoking CFD_Checking
   every time an IND step adds a tuple, so that constant bindings imposed
   by CFDs instantiate variables before random valuations are drawn.  Up to
   K runs are attempted; a run fails when CFD_Checking fails or a relation
   exceeds the threshold T.

   Soundness (Theorem 5.1): a [Consistent] answer always carries a concrete
   witness database, and we re-verify Σ against it before answering. *)

type result =
  | Consistent of Database.t
  | Unknown of Guard.reason

let () = Guard.register_probe "checking.random"

let m_runs = Telemetry.counter "checking.random.runs" ~doc:"RandomChecking chase runs attempted (K budget consumed)"
let m_successes = Telemetry.counter "checking.random.successes" ~doc:"RandomChecking runs ending in a verified witness"

let chase_run ~budget ~config ~k_cfd ~avoid ~rng schema ~cinds cfds db =
  let pool = Pool.make ~n:config.Chase.pool_size in
  (* IND steps fill unknown fields with pool *variables* (instantiated:
     false): the interleaved CFD_Checking then chooses finite-domain values
     consistently, retrying up to K_CFD valuations — the improvement at the
     end of Section 5.2.  Baking random constants in at creation time would
     make almost every run die on the first CFD clash.

     The round-robin cursor resumes after the last applied CIND instead of
     restarting from the head of the (shuffled) list, and re-examines only
     tuples enqueued since the CIND was last checked, reseeding its
     worklists whenever CFD_Checking rewrote the template in between.
     Each run owns its cursor and so its own witness index (the index is
     not domain-safe); CFD substitutions between IND steps are caught by
     the cursor's and the index's physical-identity staleness checks.

     The template CFD_Checking returns is FD-saturated, and an IND step
     adds one tuple to it: only that tuple can be part of a violating
     pair, so it alone seeds the next CFD_Checking's fixpoint. *)
  let cinds = Rng.shuffle rng cinds in
  let cursor =
    Chase.Ind_cursor.create ~instantiated:false
      ~threshold:config.Chase.threshold pool schema cinds
  in
  let rec loop ?seed db steps =
    if steps > config.Chase.max_steps then begin
      Guard.reraise_if_spent budget;
      None
    end
    else begin
      Guard.tick budget;
      match
        Cfd_checking.check_template_outcome ~budget ~k_cfd ~avoid ?seed ~rng
          cfds db
      with
      | Cfd_checking.Contradiction | Cfd_checking.Exhausted_k -> None
      | Cfd_checking.Instantiated db -> (
          match Chase.Ind_cursor.step ~budget cursor ~rng db with
          | Chase.Ind_cursor.Step_applied { db = db'; rel; tuple } ->
              loop ~seed:[ (rel, tuple) ] db' (steps + 1)
          | Chase.Ind_cursor.Step_none -> Some db (* chase_I terminal *)
          | Chase.Ind_cursor.Step_overflow _ -> None)
    end
  in
  loop db 0

let check ?budget ?(config = Chase.default_config) ?(k = 20) ?(k_cfd = 100)
    ?seed_rels ?jobs ~rng schema (sigma : Sigma.nf) =
  let budget = Guard.resolve budget in
  let jobs =
    match jobs with Some j -> max 1 j | None -> Parallel.default_jobs ()
  in
  try
    Guard.probe ~budget "checking.random";
    let compiled = Chase.compile schema sigma in
    (* both shared by the runs, so built eagerly: domains may read them *)
    let cfds = Chase.cfd_set compiled.Chase.cfds in
    let avoid = Lazy.from_val (Sigma.constant_values sigma) in
    let seed_rels =
      match seed_rels with Some rels -> rels | None -> Db_schema.rel_names schema
    in
    if seed_rels = [] then Unknown Guard.Fuel
    else begin
      (* One run.  In first-success terms (least submission index wins):
         - [Some (Ok db)]   — verified witness: stop, answer Consistent;
         - [Some (Error r)] — the child budget's deadline / fuel pool /
           parent cancellation ran dry, or a fault fired: these are the
           shared limits, so stop and answer Unknown;
         - [None]           — the run failed on its own local limits (or
           was cancelled as a racing loser): keep trying. *)
      let attempt run_rng tok =
        let child = Guard.child ~cancel:tok budget in
        Telemetry.incr m_runs;
        match
          let rel = Rng.pick run_rng seed_rels in
          let db = Chase.seed_tuple schema ~rel in
          Telemetry.with_span "checking.random_run" @@ fun () ->
          chase_run ~budget:child ~config ~k_cfd ~avoid ~rng:run_rng schema
            ~cinds:compiled.Chase.cinds cfds db
        with
        | Some terminal ->
            let concrete = Template.to_database ~avoid:(Lazy.force avoid) terminal in
            if (not (Database.is_empty concrete)) && Sigma.nf_holds concrete sigma
            then begin
              Telemetry.incr m_successes;
              Some (Ok concrete)
            end
            else None
        | None -> None
        | exception Guard.Exhausted Guard.Cancelled when Guard.is_cancelled tok
          ->
            None
        | exception Guard.Exhausted r -> Some (Error r)
      in
      (* The cost model decides up front whether this fan-out is worth a
         pool at all: at jobs = 1 — or for a K too small to amortise
         domain spawns — the runs execute as a plain sequential loop with
         no pool, no tokens plumbing and no task traffic, so the small
         case pays exactly the single-threaded cost.  Either way the
         generator stream is split one run at a time in submission order:
         splitting wave by wave (or run by run) from the same stream
         yields exactly the per-run generators one big [split_n] would,
         so run i is reproducible at any jobs count and any chunk size;
         least-index selection within a wave composes with the sequential
         wave order into global least-index selection. *)
      let plan = Parallel.estimate ~tasks:k ~jobs () in
      let outcome =
        if not plan.Parallel.use_pool then
          let rec go remaining =
            if remaining <= 0 then None
            else
              match Rng.split_n rng 1 with
              | [ run_rng ] -> (
                  match attempt run_rng (Guard.token ()) with
                  | Some _ as stop -> stop
                  | None -> go (remaining - 1))
              | _ -> assert false
          in
          go k
        else
          (* Fan the K runs out in chunked waves of a few chunk-loads per
             runner rather than materialising K generators (and tokens) up
             front — K can be set very large when the caller governs by
             deadline instead. *)
          let wave = min k (plan.Parallel.chunk * jobs * 4) in
          Parallel.with_pool ~jobs (fun pool ->
              let rec waves remaining =
                if remaining <= 0 then None
                else
                  let c = min wave remaining in
                  match
                    Parallel.chunked_first_success pool
                      ~chunk:plan.Parallel.chunk attempt (Rng.split_n rng c)
                  with
                  | Some _ as stop -> stop
                  | None -> waves (remaining - c)
              in
              waves k)
      in
      match outcome with
      | Some (Ok db) -> Consistent db
      | Some (Error r) -> Unknown r
      | None ->
          (* K exhausted: the heuristic gave up on its own step budget. *)
          Guard.reraise_if_spent budget;
          Unknown Guard.Fuel
    end
  with Guard.Exhausted r -> Unknown r

let to_bool = function Consistent _ -> true | Unknown _ -> false
