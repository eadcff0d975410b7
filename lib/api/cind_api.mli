open Conddep_relational
open Conddep_core
open Conddep_chase
open Conddep_consistency

(** The single stable entry point for drivers ([bin/], [bench/],
    external users).  Every decision procedure in the library is exposed
    here as a three-valued {!verdict} with a uniform option set —
    [?budget] (shared {!Guard} budget, default ambient), [?policy]
    (supervision, default ambient) and, where a call can use more than
    one domain, [?jobs] (domains for the work-stealing runtime, default
    {!Parallel.default_jobs}) — plus a [_many] batch form wherever the
    underlying layer offers one.

    The facade never changes answers: every function is a thin,
    documented mapping onto the corresponding [lib/core] /
    [lib/consistency] entry point, and each [_many] form is bit-identical
    (verdicts {e and} witnesses) to the corresponding sequence of
    singleton calls at any jobs count.  Drivers should depend on this
    module only; the underlying modules remain public for library users
    who need engine-level control (templates, deltas, compiled forms). *)

(** {1 Verdicts} *)

type verdict =
  | Yes of Database.t option
      (** The property holds ([consistent] / [implied]); the payload is a
          verifying witness database when the procedure produces one
          ([None] for implication, whose certificate is the absence of a
          counterexample model). *)
  | No  (** Definitively inconsistent / not implied. *)
  | Unknown of Guard.reason
      (** Undetermined: [Guard.Fuel] for a procedure's own heuristic cap
          (the paper's K / K_CFD bounds, [max_states]); deadline, memory,
          cancellation or fault when a shared budget cut the run short. *)

val to_bool : verdict -> bool
(** The papers' boolean reading: [true] only for [Yes _]. *)

val pp_verdict : Format.formatter -> verdict -> unit
(** ["yes"], ["no"] or ["unknown (<reason>)"] — witness elided. *)

type backend = Cfd_checking.backend =
  | Chase_backend  (** heuristic, K_CFD-bounded (Fig 10a, "chase") *)
  | Sat_backend  (** complete, CDCL-based (Fig 10a, "SAT4j") *)

(** {1 Consistency of Σ (CINDs + CFDs, Algorithm Checking)} *)

val check :
  ?backend:backend ->
  ?budget:Guard.t ->
  ?policy:Supervise.Policy.t ->
  ?jobs:int ->
  ?config:Chase.config ->
  ?k:int ->
  ?k_cfd:int ->
  ?recorder:Read_set.t ->
  rng:Rng.t ->
  Db_schema.t ->
  Sigma.nf ->
  verdict
(** Full pipeline (Fig 9): preProcessing + per-component RandomChecking.
    [Yes (Some db)] carries the verified witness; [No] is definitive
    (the Fig 7 reduction emptied the dependency graph); [Unknown r]
    found no witness within the budgets.  [jobs >= 2] with no forced
    [backend] runs the chase pipeline, then the SAT pipeline unless the
    chase found a witness; [jobs = 1] runs the chase pipeline only, so
    its answers can differ from those at [jobs >= 2].  [recorder]
    collects the read set for incremental callers (see {!Read_set}).
    Maps {!Checking.check}. *)

val check_many :
  ?backend:backend ->
  ?budget:Guard.t ->
  ?policy:Supervise.Policy.t ->
  ?jobs:int ->
  ?chunk:int ->
  ?config:Chase.config ->
  ?k:int ->
  ?k_cfd:int ->
  rng:Rng.t ->
  Db_schema.t ->
  Sigma.nf list ->
  verdict list
(** Batch {!check} of N dependency sets against one schema.  Verdict i is
    bit-identical (including the witness) to
    [check ~jobs:1 ~rng:(List.nth (Rng.split_n rng N) i) ...
    (List.nth sigmas i)] at any jobs count; the batch shares one
    policy/budget resolution, one interner warm-up and one work-stealing
    pool ([chunk] items per task).
    Maps {!Checking.check_many}; see there for the shared-budget
    caveat. *)

val random_check :
  ?budget:Guard.t ->
  ?policy:Supervise.Policy.t ->
  ?jobs:int ->
  ?config:Chase.config ->
  ?k:int ->
  ?k_cfd:int ->
  ?seed_rels:string list ->
  rng:Rng.t ->
  Db_schema.t ->
  Sigma.nf ->
  verdict
(** Procedure RandomChecking alone (Fig 8), without the preProcessing
    reduction: K independent chase-and-instantiate runs.  Sound but not
    complete — never answers [No].  Maps {!Random_checking.check}. *)

(** {1 Single-relation CFD consistency (Sections 5.2–5.3)} *)

val consistent :
  ?backend:backend ->
  ?budget:Guard.t ->
  ?policy:Supervise.Policy.t ->
  ?avoid:Value.t list ->
  ?k_cfd:int ->
  ?recorder:Read_set.t ->
  rng:Rng.t ->
  Db_schema.t ->
  Cfd.nf list ->
  rel:string ->
  verdict
(** Is CFD([rel]) consistent?  [Yes (Some db)] carries a single-tuple
    witness database (fresh values dodge [avoid]).  [No] is definitive
    from either backend: an Unsat from [Sat_backend] (complete), or a
    forced-propagation contradiction from [Chase_backend].
    [Unknown Guard.Fuel] is reserved for [Chase_backend]'s genuine
    heuristic give-up (its K_CFD-bounded search proves nothing by
    failing).  A single relation decides sequentially.  Maps
    {!Cfd_checking.consistent_rel}. *)

val consistent_many :
  ?backend:backend ->
  ?budget:Guard.t ->
  ?policy:Supervise.Policy.t ->
  ?jobs:int ->
  ?chunk:int ->
  ?avoid:Value.t list ->
  ?k_cfd:int ->
  rng:Rng.t ->
  Db_schema.t ->
  Cfd.nf list ->
  rels:string list ->
  verdict list
(** Batch {!consistent} over many relations against one CFD set, with
    the per-relation filtering done once.  Verdict i is bit-identical to
    [consistent ~rng:(List.nth (Rng.split_n rng N) i) ... ~rel] at any
    jobs count.  Maps {!Cfd_checking.consistent_many}. *)

(** {1 Implication (Sections 3–4, Table 1)} *)

val implies :
  ?budget:Guard.t ->
  ?policy:Supervise.Policy.t ->
  ?max_states:int ->
  ?recorder:Read_set.t ->
  Db_schema.t ->
  sigma:Cind.nf list ->
  Cind.nf ->
  verdict
(** Exact CIND implication [Σ |= ψ] (Theorems 3.4/3.5).  [Yes None] /
    [No] are exact; [Unknown Guard.Fuel] past [max_states] explored
    shapes.  A single goal decides sequentially.  [recorder] collects the CINDs found
    applicable during the search (see {!Read_set}).  Maps
    {!Implication.decide}. *)

val implies_many :
  ?budget:Guard.t ->
  ?policy:Supervise.Policy.t ->
  ?jobs:int ->
  ?chunk:int ->
  ?max_states:int ->
  Db_schema.t ->
  sigma:Cind.nf list ->
  Cind.nf list ->
  verdict list
(** Batch {!implies} of many goals against one Σ, compiling Σ once and
    fanning the (rng-free, hence trivially deterministic) per-goal
    searches over the work-stealing pool.  Maps
    {!Implication.implies_many}. *)

val implies_cfd :
  ?budget:Guard.t ->
  ?policy:Supervise.Policy.t ->
  ?max_nodes:int ->
  Db_schema.t ->
  sigma:Cfd.nf list ->
  Cfd.nf ->
  verdict
(** Exact CFD implication (coNP-complete).  Maps
    {!Cfd_implication.decide}. *)

(** {1 preProcessing alone (Fig 7)} *)

val preprocess :
  ?backend:backend ->
  ?budget:Guard.t ->
  ?policy:Supervise.Policy.t ->
  ?k_cfd:int ->
  rng:Rng.t ->
  Db_schema.t ->
  Sigma.nf ->
  verdict
(** The reduction of Fig 7 by itself: [Yes (Some db)] when the emptied
    graph already yields a witness, [No] when inconsistency is detected
    syntactically, [Unknown Guard.Fuel] when undecided components remain
    for RandomChecking.  Maps {!Preprocessing.run}. *)
