open Conddep_relational
open Conddep_core
open Conddep_chase

(** Algorithm Checking (Fig 9): preProcessing + per-component
    RandomChecking.  Sound: [Consistent] carries a verified witness;
    [Inconsistent] is definitive (Fig 7's reduction emptied the graph);
    [Unknown r] means no witness was found within the budgets, with [r]
    saying which budget gave out ([Guard.Fuel] for the paper's own K /
    K_CFD limits; deadline, cancellation, or fault otherwise).
    [Guard.Exhausted] never escapes [check]. *)

type result =
  | Consistent of Database.t
  | Inconsistent
  | Unknown of Guard.reason

val check :
  ?backend:Cfd_checking.backend ->
  ?budget:Guard.t ->
  ?config:Chase.config ->
  ?k:int ->
  ?k_cfd:int ->
  ?jobs:int ->
  ?policy:Supervise.Policy.t ->
  ?recorder:Read_set.t ->
  rng:Rng.t ->
  Db_schema.t ->
  Sigma.nf ->
  result
(** [budget] defaults to the ambient budget ([Guard.resolve]).

    [recorder] collects the read set: Checking consults all of Σ, so the
    whole of [sigma] and every relation it mentions are recorded (up
    front, never from a pool domain — see {!Read_set} for the
    over-approximation contract).

    [jobs] (default {!Parallel.default_jobs}): with [jobs >= 2] and no
    forced [backend], the chase-based and SAT-based pipelines run as a
    cascade on the caller, each on its own split of [rng] — the chase
    pipeline first; its verified witness is the answer.  Otherwise the
    SAT pipeline runs: its witness or definitive [Inconsistent] wins,
    and a chase [Inconsistent] (heuristic, K_CFD-bounded) is reported
    only when the SAT side ends [Unknown].  Each pipeline fans its
    RandomChecking runs over [max 1 (jobs / 2)] domains.  Verdicts and
    witnesses agree at every [jobs >= 2]; [jobs = 1] is the chase-only
    pipeline on [rng] itself, so it may answer [Unknown] where
    [jobs >= 2] decides, and its witnesses generally differ.  With a
    forced [backend], [jobs] only parallelises RandomChecking (whose
    verdict is seed-deterministic at any jobs count).

    [policy] (default: the ambient {!Supervise.Policy}, itself off unless
    the caller — e.g. [cindtool] — enables it) supervises the run.
    Transient failures (injected faults, a local allocation ceiling) are
    retried with the same rng snapshot, so a fault-free re-run yields the
    bit-identical fault-free verdict; when retries run out the ladder
    degrades [parallel -> sequential] (the sequential rung is the [jobs =
    1] pipeline above, and the step is recorded on the
    {!Supervise.degradation_trail}).  Deterministic give-ups — [Unknown
    Fuel] from the paper's K / K_CFD caps, shared deadline or fuel
    exhaustion — are never retried: re-running them is wasted work that
    cannot change the answer.  With supervision off, the historical
    behaviour (and rng consumption) is preserved exactly. *)

val check_many :
  ?backend:Cfd_checking.backend ->
  ?budget:Guard.t ->
  ?config:Chase.config ->
  ?k:int ->
  ?k_cfd:int ->
  ?jobs:int ->
  ?chunk:int ->
  ?policy:Supervise.Policy.t ->
  rng:Rng.t ->
  Db_schema.t ->
  Sigma.nf list ->
  result list
(** [check_many ~rng schema sigmas] checks N dependency sets against one
    schema.  Result i is bit-identical (verdict {e and} witness) to
    [check ~jobs:1 ~rng:(List.nth (Rng.split_n rng N) i) schema
    (List.nth sigmas i)] at any jobs count — the batch form changes
    wall-clock, never answers.  The batch shares one policy/budget
    resolution, one interner warm-up over the schema, and one domain pool
    across all items; items
    are the coarse tasks the work-stealing runtime balances ([chunk]
    items per task, default {!Parallel.estimate}-chosen), and each item's
    own pipeline runs sequentially.  With [jobs = 1] — or a batch too
    small for {!Parallel.estimate} to justify domains — no pool is
    created at all.

    A shared [budget] is drained by all items jointly (exhaustion is
    sticky, so items after the cut answer [Unknown] quickly); pass
    per-item budgets via N singleton calls when strict sequential
    budget-equivalence matters.  If the pool itself fails (beyond what
    crash isolation absorbs) and [policy] allows degradation, the batch
    re-runs sequentially — recorded on the degradation trail as
    [checking.check_many: pool -> sequential]. *)

val to_bool : result -> bool
(** The paper's boolean answer: [true] only for [Consistent]. *)
