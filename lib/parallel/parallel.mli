(** A fixed-size work-stealing domain pool with fork-join [map], chunked
    batching and first-success racing, built on the OCaml 5 stdlib only
    (Domain / Mutex / Condition / Atomic).

    The pool exists so the paper's embarrassingly parallel heuristic —
    [RandomChecking]'s K independent chase runs (Fig 5) — and the [*_many]
    batch entry points can use the hardware without giving up
    reproducibility.  Each runner (the submitting caller plus
    [jobs - 1] worker domains) owns a deque; submission distributes tasks
    round-robin, a runner pops its own deque first and steals the oldest
    task from a pseudo-randomly chosen victim when it runs dry
    ([parallel.steals] counts these).  Stealing is pure scheduling — it
    never affects results:

    - {b Determinism.} Combinators return (or select) results by
      submission index, never by completion order.  Callers derive
      per-task RNGs with {!Rng.split_n} before submitting, so the verdict
      for a fixed seed is bit-identical at any [jobs] count.  (Telemetry
      counts are {e not} deterministic — losers do a hardware-dependent
      amount of work before observing cancellation; see DESIGN.md §9.)
    - {b Cancellation.} Racing is cooperative via {!Guard} tokens: each
      task gets a token, and once a winner is known the losers' tokens are
      cancelled, so tasks that poll a {!Guard.child} budget unwind with
      [Exhausted Cancelled] promptly.
    - {b Budgets.} Tasks inherit the submitting caller's ambient budget
      (ambient is domain-local); pass explicit {!Guard.child} budgets for
      deadline/fuel sharing across the fan-out.

    Worker-count note: domains are heavyweight; pools are meant to be
    short-lived (create, fan out, {!shutdown}) or scoped via {!with_pool}.
    [jobs = 1] never spawns a domain — everything runs inline on the
    caller, which is also the fallback wherever determinism is easier to
    see sequentially.

    {b Crash isolation.}  A task whose worker-level wrapper fails (the
    [parallel.worker] probe, or any exception escaping the task plumbing)
    never poisons the pool: the slot is marked and re-run inline on the
    submitting caller after the join ("rescue"), so combinators still
    return complete, deterministic results — task failure stays a
    per-slot [Error]/exception story, pool failure does not exist as an
    outcome.  A worker domain that dies between tasks (the
    [parallel.worker.loop] probe sits before the queue take, so a dying
    domain never holds a task) respawns a replacement, up to a cap.  K
    consecutive worker-level faults trip a {e circuit breaker}
    ([breaker_after], default 4) that routes every subsequent batch to
    the caller's inline sequential loop and records a
    [parallel.pool: domains -> inline] step on the {!Supervise}
    degradation trail.  First worker-level exhaustion is preserved in
    the pool ({!last_exhaustion}) across {!shutdown} — teardown drains
    the queue on the caller rather than abandoning counted batch
    wrappers. *)

type pool

type plan = { use_pool : bool; chunk : int }
(** What {!estimate} recommends for a workload: whether spawning domains
    is worth it at all, and how many items to pack per task. *)

val estimate : ?chunk:int -> ?min_tasks:int -> tasks:int -> jobs:int -> unit -> plan
(** The cost model behind the batching entry points.  Domains cost
    hundreds of microseconds to spawn and every task pays queue/join
    traffic, so below a workload-size threshold the pool is pure
    overhead: [estimate] returns [use_pool = false] whenever [jobs <= 1]
    or [tasks < min_tasks] (default 4) — callers then run a plain
    sequential loop and pay exactly the single-threaded cost.  Otherwise
    [chunk] (when not forced by the caller) is sized so each runner gets
    a few chunks to balance with, capped at 32 so one chunk never
    serialises a visible fraction of the batch.  The plan is advisory;
    determinism never depends on it. *)

val default_jobs : unit -> int
(** The process default for [?jobs] parameters: the [JOBS] environment
    variable when set to a positive integer, else 1.  CI sets [JOBS=4] to
    exercise the parallel paths across the whole test suite; [cindtool
    --jobs N] overrides it for the process. *)

val set_default_jobs : int -> unit
(** Override {!default_jobs} for this process (clamped to [>= 1]). *)

val create : ?breaker_after:int -> ?max_respawns:int -> jobs:int -> unit -> pool
(** Spawn [jobs - 1] worker domains (the submitting caller is the [jobs]-th
    worker during {!map}/{!first_success}).  [jobs <= 1] creates an inline
    pool with no domains.  [breaker_after] (default 4) is the number of
    {e consecutive} worker-level faults that trips the circuit breaker;
    [max_respawns] (default [2 * (jobs - 1)]) caps how many replacement
    domains the supervisor may spawn over the pool's lifetime. *)

val shutdown : pool -> unit
(** Stop the workers, drain any still-queued batch tasks on the caller
    (preserving an in-flight exhaustion instead of losing it with the
    workers), and join every domain — including supervisor respawns.
    Idempotent — a second call (including from a [Fun.protect] finaliser
    after a fault) is a no-op. *)

val breaker_tripped : pool -> bool
(** Has the circuit breaker routed this pool to inline execution? *)

val respawn_count : pool -> int
(** Worker domains respawned by the supervisor so far. *)

val last_exhaustion : pool -> Guard.reason option
(** The first worker-level exhaustion seen by this pool, if any; survives
    {!shutdown}. *)

val with_pool : jobs:int -> (pool -> 'a) -> 'a
(** [with_pool ~jobs f] scopes a pool around [f]; {!shutdown} always runs. *)

val jobs : pool -> int
(** The runner count this pool was created with (caller included). *)

val map : pool -> ('a -> 'b) -> 'a list -> 'b list
(** Fork-join map, in submission order.  Tasks run on the pool's runners
    (the caller works its own deque and steals instead of blocking);
    each task runs under the submitting caller's ambient budget.  If any
    task raises, [map] waits for the rest, then re-raises the
    least-indexed exception.  Equivalent to {!chunked_map} with
    [~chunk:1]. *)

val chunked_map : pool -> ?chunk:int -> ('a -> 'b) -> 'a list -> 'b list
(** {!map} with task batching: [chunk] consecutive items (default: the
    {!estimate} chunk for this pool's job count) are packed into one
    schedulable task, so per-task queue/join overhead is paid once per
    chunk instead of once per item.  Results, error selection (least
    index) and crash-isolation rescue are identical to {!map} — chunking
    is invisible except in wall-clock and in the
    [parallel.batches]/[parallel.batch_size] counters. *)

val first_success :
  pool -> ('a -> Guard.token -> 'b option) -> 'a list -> 'b option
(** [first_success pool f xs] runs [f x_i tok_i] for every [x_i] and
    returns the [Some] of the {e least submission index}, cancelling the
    tokens of all tasks with a strictly greater index as soon as a better
    candidate is known.  Cancelled tasks count as [None] whatever they
    would have returned.  The least-index rule is what makes racing
    deterministic: it selects exactly the result a sequential
    first-success loop would have stopped at, independent of completion
    order.  A task raising [Guard.Exhausted Cancelled] counts as [None]
    (it is a cancelled loser); any other exception is a stopping outcome
    like [Some] — the least-indexed stopping outcome wins, and if it is an
    exception it is re-raised.  Equivalent to {!chunked_first_success}
    with [~chunk:1]. *)

val chunked_first_success :
  pool -> ?chunk:int -> ('a -> Guard.token -> 'b option) -> 'a list -> 'b option
(** {!first_success} with task batching.  Within a chunk, items run in
    index order; every item keeps its own token, and an item whose index
    is already beaten by a lower stopping outcome is skipped exactly as a
    cancelled task counts as [None] — so the selected result is still the
    one the sequential loop would have stopped at, at any [jobs] count
    and any chunk size. *)
