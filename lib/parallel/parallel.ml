(* Work-stealing domain pool with fork-join map, chunked batching and
   first-success racing.  Stdlib-only (Domain / Mutex / Condition /
   Atomic); see parallel.mli for the determinism contract.

   Shape: one mutex-guarded FIFO deque per runner — slot 0 is the
   submitting caller, slots 1..jobs-1 are worker domains.  Submission
   distributes tasks round-robin across the deques; a runner pops its own
   deque first and, finding it empty, steals the oldest task from a
   victim chosen by a pseudo-random rotation over the other runners (the
   rotation is scheduling-only state: results are selected by submission
   index, never by who ran what).  Idle workers sleep on a condition
   variable guarded by the pool mutex; a shared [pending] count of
   not-yet-taken tasks is what they re-check before waiting, so a push
   cannot slip between "deques empty" and "wait" (the missed-wakeup
   hazard of per-deque locks).

   Batching: combinators go through [exec_units], which runs an array of
   non-raising thunks ("units") to completion; [chunked_map] /
   [chunked_first_success] pack K consecutive items into one unit so that
   tiny items amortise the per-unit queue/join traffic, and
   {!estimate} decides — before a pool even exists — whether a workload
   is worth domains at all.  Results and errors travel through per-batch
   arrays, synchronised by the batch countdown (mutex + condition), which
   is also the happens-before edge that lets the caller read
   worker-written slots after the join.

   Crash isolation (unchanged from the fork-join pool): a task whose
   worker-level wrapper dies never poisons the pool — the slot is marked
   crashed and re-run inline on the caller after the join ("rescue"; the
   [parallel.worker] probe fires before the unit body, so a crashed unit
   has not started).  A worker domain that dies between tasks is
   respawned into its slot by its own exit handler, up to a cap; its
   deque stays stealable meanwhile, so no task is ever stranded.  K
   consecutive worker-level faults trip a circuit breaker that routes
   every later batch to the caller's inline loop — the pool's own
   parallel-to-sequential degradation. *)

let m_pools = Telemetry.counter "parallel.pools" ~doc:"domain pools created"

let m_domains =
  Telemetry.counter "parallel.domains_spawned" ~doc:"worker domains spawned by pools"

let m_tasks = Telemetry.counter "parallel.tasks" ~doc:"tasks executed by pool runners"

let m_steals =
  Telemetry.counter "parallel.steals"
    ~doc:"tasks taken from another runner's deque (work-stealing)"

let m_batches =
  Telemetry.counter "parallel.batches"
    ~doc:"chunked task units submitted by the batching combinators"

let m_batch_size =
  Telemetry.counter "parallel.batch_size"
    ~doc:"items packed into chunked task units (cumulative; / parallel.batches = mean chunk)"

let m_cancels =
  Telemetry.counter "parallel.cancel_signals"
    ~doc:"loser tokens cancelled by first_success"

let m_task_faults =
  Telemetry.counter "parallel.tasks_crashed"
    ~doc:"tasks whose worker-level wrapper caught an exception"

let m_rescued =
  Telemetry.counter "parallel.tasks_rescued"
    ~doc:"crashed tasks re-run inline on the submitting caller"

let m_respawns =
  Telemetry.counter "parallel.worker_respawns"
    ~doc:"worker domains respawned after dying between tasks"

let m_breaker_trips =
  Telemetry.counter "parallel.breaker_trips"
    ~doc:"pool circuit breakers tripped to inline execution"

let () =
  List.iter Guard.register_probe
    [ "parallel.task"; "parallel.worker"; "parallel.worker.loop"; "parallel.pool.shutdown" ]

(* --- default job count --- *)

let default_jobs_cell = ref None

let default_jobs () =
  match !default_jobs_cell with
  | Some j -> j
  | None ->
      let j =
        match Sys.getenv_opt "JOBS" with
        | Some s -> (
            match int_of_string_opt (String.trim s) with
            | Some k when k >= 1 -> k
            | _ -> 1)
        | None -> 1
      in
      default_jobs_cell := Some j;
      j

let set_default_jobs j = default_jobs_cell := Some (max 1 j)

(* --- cost model --- *)

type plan = { use_pool : bool; chunk : int }

(* Aim for a few chunks per runner so stealing has granularity to balance
   with, capped so one chunk never serialises a visible fraction of the
   batch. *)
let default_chunk ~tasks ~jobs =
  max 1 (min 32 ((tasks + (jobs * 4) - 1) / (jobs * 4)))

let estimate ?chunk ?(min_tasks = 4) ~tasks ~jobs () =
  let jobs = max 1 jobs in
  let chunk =
    match chunk with
    | Some c -> max 1 c
    | None -> default_chunk ~tasks ~jobs
  in
  if jobs <= 1 || tasks < max 2 min_tasks then { use_pool = false; chunk }
  else { use_pool = true; chunk }

(* --- pool --- *)

type deque = { qm : Mutex.t; q : (unit -> unit) Queue.t }

type pool = {
  mutex : Mutex.t;
  nonempty : Condition.t;
  runners : deque array; (* slot 0 = submitting caller, 1.. = workers *)
  pending : int Atomic.t; (* tasks pushed but not yet taken, all deques *)
  steal_seed : int array;
      (* per-slot xorshift state for victim rotation; each cell is only
         touched by its own (single) runner, so no lock is needed *)
  jobs : int;
  mutable stopped : bool;
  mutable domains : unit Domain.t list;
  mutable shut : bool;
  breaker_after : int;
  max_respawns : int;
  breaker : bool Atomic.t;
  consecutive_faults : int Atomic.t;
  mutable respawns : int; (* under [mutex] *)
  mutable exhaustion : Guard.reason option;
      (* first worker-level exhaustion seen, under [mutex]; preserved
         across teardown so shutdown cannot lose an in-flight reason *)
}

let jobs pool = pool.jobs

let trip_breaker pool why =
  if Atomic.compare_and_set pool.breaker false true then begin
    Telemetry.incr m_breaker_trips;
    Supervise.record_degradation ~stage:"parallel.pool" ~from_:"domains"
      ~to_:"inline" ~reason:why
  end

let note_exhaustion pool e =
  match e with
  | Guard.Exhausted r ->
      Mutex.lock pool.mutex;
      if pool.exhaustion = None then pool.exhaustion <- Some r;
      Mutex.unlock pool.mutex
  | _ -> ()

let note_task_fault pool e =
  Telemetry.incr m_task_faults;
  note_exhaustion pool e;
  let faults = 1 + Atomic.fetch_and_add pool.consecutive_faults 1 in
  if faults >= pool.breaker_after then
    trip_breaker pool
      (match e with
      | Guard.Exhausted r -> Guard.reason_to_string r
      | e -> Printexc.to_string e)

let note_task_ok pool =
  if Atomic.get pool.consecutive_faults <> 0 then
    Atomic.set pool.consecutive_faults 0

let xorshift s =
  let s = s lxor (s lsl 13) in
  let s = s lxor (s lsr 7) in
  let s = s lxor (s lsl 17) in
  if s = 0 then 0x9E3779B9 else s

let try_deque d =
  Mutex.lock d.qm;
  let t = Queue.take_opt d.q in
  Mutex.unlock d.qm;
  t

(* Take a task: own deque first (oldest-first — within a batch all tasks
   are peers, so FIFO keeps rescue-relevant early slots moving), then
   steal from the other runners, visited once each starting at a
   pseudo-random victim.  Returns the task and whether it was stolen. *)
let take pool ~slot =
  match try_deque pool.runners.(slot) with
  | Some t ->
      ignore (Atomic.fetch_and_add pool.pending (-1));
      Some (t, false)
  | None ->
      let n = Array.length pool.runners in
      if n <= 1 then None
      else begin
        let s = xorshift pool.steal_seed.(slot) in
        pool.steal_seed.(slot) <- s;
        let start = (s land max_int) mod (n - 1) in
        let rec scan k =
          if k >= n - 1 then None
          else
            let victim = (slot + 1 + ((start + k) mod (n - 1))) mod n in
            match try_deque pool.runners.(victim) with
            | Some t ->
                ignore (Atomic.fetch_and_add pool.pending (-1));
                Telemetry.incr m_steals;
                Some (t, true)
            | None -> scan (k + 1)
        in
        scan 0
      end

let run_taken (t, stolen) =
  if stolen then Telemetry.with_span "parallel.task.steal" t else t ()

(* Workers drain every deque even after [stopped] is set, so a batch in
   flight when shutdown begins still completes rather than hanging its
   joiner. *)
let rec worker pool slot =
  (* The crash-injection point for the domain itself: it sits before the
     take, so a dying worker never holds a task — batch wrappers are
     total, which is what keeps joins hang-free however many workers
     die. *)
  Guard.probe "parallel.worker.loop";
  match take pool ~slot with
  | Some taken ->
      run_taken taken;
      worker pool slot
  | None ->
      (* Nothing visible right now.  [pending > 0] with empty deques means
         a push is in flight (the count is bumped before the pushes land):
         spin through rather than sleep, since the wakeup broadcast may
         already have happened. *)
      if Atomic.get pool.pending > 0 then begin
        Domain.cpu_relax ();
        worker pool slot
      end
      else
        (* The idle wait is a span of its own: in a trace it shows each
           worker track alternating wait/run — the fan-out efficiency
           picture BENCH_parallel.json cannot show.  The span body ends
           after the pool mutex is released, so sink emission never runs
           under it. *)
        let stop =
          Telemetry.with_span "parallel.worker.wait" (fun () ->
              Mutex.lock pool.mutex;
              while Atomic.get pool.pending = 0 && not pool.stopped do
                Condition.wait pool.nonempty pool.mutex
              done;
              let stop = pool.stopped && Atomic.get pool.pending = 0 in
              Mutex.unlock pool.mutex;
              stop)
        in
        if not stop then worker pool slot

(* The supervisor: each worker domain runs under an exit handler that, if
   the worker died (rather than drained and stopped), respawns a
   replacement into the same slot — unless the pool is stopping, the
   breaker has tripped, or the respawn cap is hit (then the death counts
   toward the breaker).  The dead slot's deque stays stealable either
   way, so no queued task is stranded. *)
let rec spawn_worker pool slot =
  Telemetry.incr m_domains;
  Domain.spawn (fun () ->
      try worker pool slot with e -> on_worker_death pool slot e)

and on_worker_death pool slot e =
  note_exhaustion pool e;
  let faults = 1 + Atomic.fetch_and_add pool.consecutive_faults 1 in
  Mutex.lock pool.mutex;
  let respawn =
    (not pool.stopped)
    && (not (Atomic.get pool.breaker))
    && pool.respawns < pool.max_respawns
  in
  if respawn then begin
    pool.respawns <- pool.respawns + 1;
    Telemetry.incr m_respawns;
    (* Spawn while holding the mutex: shutdown sets [stopped] and snapshots
       [domains] under the same lock, so a replacement is either visible to
       the join or never created. *)
    pool.domains <- spawn_worker pool slot :: pool.domains
  end;
  Mutex.unlock pool.mutex;
  if (not respawn) && faults >= pool.breaker_after then
    trip_breaker pool
      (match e with
      | Guard.Exhausted r -> Guard.reason_to_string r
      | e -> Printexc.to_string e)

let create ?(breaker_after = 4) ?max_respawns ~jobs () =
  Telemetry.incr m_pools;
  let jobs = max 1 jobs in
  let n = jobs - 1 in
  let pool =
    {
      mutex = Mutex.create ();
      nonempty = Condition.create ();
      runners =
        Array.init jobs (fun _ -> { qm = Mutex.create (); q = Queue.create () });
      pending = Atomic.make 0;
      steal_seed = Array.init jobs (fun i -> (i + 1) * 0x2545F491);
      jobs;
      stopped = false;
      domains = [];
      shut = false;
      breaker_after = max 1 breaker_after;
      max_respawns = (match max_respawns with Some m -> max 0 m | None -> 2 * max 1 n);
      breaker = Atomic.make false;
      consecutive_faults = Atomic.make 0;
      respawns = 0;
      exhaustion = None;
    }
  in
  pool.domains <- List.init n (fun i -> spawn_worker pool (i + 1));
  pool

let breaker_tripped pool = Atomic.get pool.breaker
let respawn_count pool =
  Mutex.lock pool.mutex;
  let r = pool.respawns in
  Mutex.unlock pool.mutex;
  r

let last_exhaustion pool =
  Mutex.lock pool.mutex;
  let r = pool.exhaustion in
  Mutex.unlock pool.mutex;
  r

let shutdown pool =
  if not pool.shut then
    (* The probe is the fault-injection point; the finaliser guarantees
       that even a fault mid-shutdown stops and joins every worker, so a
       raise here degrades gracefully and a repeat call is a no-op. *)
    Fun.protect
      ~finally:(fun () ->
        Mutex.lock pool.mutex;
        pool.stopped <- true;
        Condition.broadcast pool.nonempty;
        (* Snapshot under the lock: [stopped] is set, so no dying worker
           can register a respawn this join would miss. *)
        let ds = pool.domains in
        pool.domains <- [];
        pool.shut <- true;
        Mutex.unlock pool.mutex;
        (* Drain on the caller: batch wrappers are total and counted, so
           running leftovers here completes their batch and preserves an
           in-flight exhaustion instead of abandoning it with the
           workers. *)
        let rec drain () =
          match take pool ~slot:0 with
          | Some (t, _) ->
              t ();
              drain ()
          | None -> ()
        in
        drain ();
        List.iter Domain.join ds)
      (fun () -> Guard.probe "parallel.pool.shutdown")

let with_pool ~jobs f =
  let pool = create ~jobs () in
  match f pool with
  | v ->
      shutdown pool;
      v
  | exception e ->
      (* Preserve the original failure; a shutdown fault must not mask it
         (the finaliser above has already joined the workers either way). *)
      (try shutdown pool with Guard.Exhausted _ -> ());
      raise e

(* --- batch execution --- *)

(* Run every thunk (they must not raise — combinators capture into their
   own arrays) and return once all have completed.  Tasks run under the
   submitting caller's ambient budget, whichever domain picks them up.
   Worker-level failures (the [parallel.worker] probe, or anything else
   that escapes the wrapper) mark the slot crashed; crashed slots are
   re-run inline on the caller after the join, so no task is ever lost
   and a sticky exhaustion surfaces on the caller instead of dying with
   the worker. *)
let exec_units pool units =
  let n = Array.length units in
  if n > 0 then begin
    let amb = Guard.ambient () in
    if pool.domains = [] || Atomic.get pool.breaker then
      (* Inline (and post-breaker) path: the caller runs everything; there
         is no worker wrapper to crash, so no rescue pass is needed. *)
      Array.iter
        (fun u ->
          Telemetry.incr m_tasks;
          Telemetry.with_span "parallel.task.run" u)
        units
    else begin
      let crashed = Array.make n false in
      let wrap i u () =
        Telemetry.incr m_tasks;
        Telemetry.with_span "parallel.task.run" (fun () ->
            match
              Guard.with_ambient amb (fun () ->
                  (* Worker-crash injection point: before the unit body,
                     so a crashed slot never started and the rescue below
                     cannot double-run effects. *)
                  Guard.probe "parallel.worker";
                  u ())
            with
            | () -> note_task_ok pool
            | exception e ->
                crashed.(i) <- true;
                note_task_fault pool e)
      in
      let batch_mutex = Mutex.create () in
      let batch_done = Condition.create () in
      let remaining = ref n in
      let counted i () =
        wrap i units.(i) ();
        Mutex.lock batch_mutex;
        decr remaining;
        if !remaining = 0 then Condition.broadcast batch_done;
        Mutex.unlock batch_mutex
      in
      (* Distribute round-robin across every runner's deque — slot 0 (the
         caller's own) included, so the caller starts on task 0 just as
         the fork-join pool did.  [pending] is bumped before the pushes
         land: a worker that sees count > 0 with empty deques spins
         through instead of sleeping past the broadcast. *)
      let nq = Array.length pool.runners in
      ignore (Atomic.fetch_and_add pool.pending n);
      for i = 0 to n - 1 do
        let d = pool.runners.(i mod nq) in
        Mutex.lock d.qm;
        Queue.push (counted i) d.q;
        Mutex.unlock d.qm
      done;
      Mutex.lock pool.mutex;
      Condition.broadcast pool.nonempty;
      Mutex.unlock pool.mutex;
      (* Help-first join: work the deques (own first, then steal) until
         every deque is empty.  Tasks never move between deques, so one
         full empty scan means every task has been taken by someone whose
         counted wrapper is total — then block on the countdown. *)
      let rec help () =
        match take pool ~slot:0 with
        | Some taken ->
            run_taken taken;
            help ()
        | None ->
            Telemetry.with_span "parallel.join.wait" (fun () ->
                Mutex.lock batch_mutex;
                while !remaining > 0 do
                  Condition.wait batch_done batch_mutex
                done;
                Mutex.unlock batch_mutex)
      in
      help ();
      (* Rescue pass: crashed slots re-run in index order on the caller
         (already under its own ambient), so results stay deterministic
         and complete even when every worker-level run failed. *)
      Array.iteri
        (fun i u ->
          if crashed.(i) then begin
            Telemetry.incr m_rescued;
            u ()
          end)
        units
    end
  end

(* --- combinators --- *)

(* Contiguous [start, stop) ranges covering 0..n-1 in chunks. *)
let chunk_ranges n chunk =
  let rec go acc start =
    if start >= n then List.rev acc
    else
      let stop = min n (start + chunk) in
      go ((start, stop) :: acc) stop
  in
  Array.of_list (go [] 0)

let resolve_chunk pool chunk n =
  match chunk with
  | Some c -> max 1 c
  | None -> default_chunk ~tasks:n ~jobs:pool.jobs

let chunked_map pool ?chunk f xs =
  match xs with
  | [] -> []
  | xs ->
      let arr = Array.of_list xs in
      let n = Array.length arr in
      let chunk = resolve_chunk pool chunk n in
      let results = Array.make n None in
      let errors = Array.make n None in
      let units =
        Array.map
          (fun (start, stop) () ->
            Telemetry.incr m_batches;
            Telemetry.add m_batch_size (stop - start);
            for i = start to stop - 1 do
              try
                Guard.probe "parallel.task";
                results.(i) <- Some (f arr.(i))
              with e -> errors.(i) <- Some e
            done)
          (chunk_ranges n chunk)
      in
      exec_units pool units;
      Array.iter (function Some e -> raise e | None -> ()) errors;
      Array.to_list (Array.map (function Some v -> v | None -> assert false) results)

let map pool f xs = chunked_map pool ~chunk:1 f xs

(* Outcome of one racing task, in the least-index selection order:
   [Stop] beats everything at a lower index; [Pass] means "keep looking". *)
type 'b outcome =
  | Pass
  | Stop_some of 'b
  | Stop_exn of exn

let cancel_from tokens j0 =
  Array.iteri
    (fun j tok ->
      if j >= j0 && not (Guard.is_cancelled tok) then begin
        Telemetry.incr m_cancels;
        Guard.cancel tok
      end)
    tokens

let chunked_first_success pool ?chunk f xs =
  match xs with
  | [] -> None
  | xs ->
      let arr = Array.of_list xs in
      let n = Array.length arr in
      let tokens = Array.init n (fun _ -> Guard.token ()) in
      if pool.domains = [] || Atomic.get pool.breaker then begin
        (* Inline path IS the sequential loop the parallel path must
           reproduce: evaluate in index order, stop at the first Some —
           chunking is a scheduling notion and does not exist here. *)
        let rec go i =
          if i >= n then None
          else
            match f arr.(i) tokens.(i) with
            | Some v -> Some v
            | None -> go (i + 1)
            | exception Guard.Exhausted Guard.Cancelled -> go (i + 1)
        in
        go 0
      end
      else begin
        let chunk = resolve_chunk pool chunk n in
        let outcomes = Array.make n Pass in
        (* [best] is the least index known to hold a stopping outcome;
           it only ever decreases, so every cancellation targets an index
           strictly greater than the final winner — tasks at or below the
           winner always run uncancelled, which is what makes the scan
           below agree with the sequential loop. *)
        let best = Atomic.make n in
        let stop i o =
          outcomes.(i) <- o;
          let rec lower () =
            let b = Atomic.get best in
            if i < b && not (Atomic.compare_and_set best b i) then lower ()
          in
          lower ();
          cancel_from tokens (Atomic.get best + 1)
        in
        let item i =
          try
            Guard.probe "parallel.task";
            match f arr.(i) tokens.(i) with
            | Some v -> stop i (Stop_some v)
            | None -> ()
          with
          | Guard.Exhausted Guard.Cancelled -> ()
          | e -> stop i (Stop_exn e)
        in
        let units =
          Array.map
            (fun (start, stop_) () ->
              Telemetry.incr m_batches;
              Telemetry.add m_batch_size (stop_ - start);
              for i = start to stop_ - 1 do
                (* An index above [best] is already beaten (its token is
                   cancelled); skipping it is the in-chunk analogue of a
                   cancelled task counting as None, and cannot change the
                   winner — indices at or below [best] always run. *)
                if i <= Atomic.get best then item i
              done)
            (chunk_ranges n chunk)
        in
        exec_units pool units;
        let rec scan i =
          if i >= n then None
          else
            match outcomes.(i) with
            | Stop_some v -> Some v
            | Stop_exn e -> raise e
            | Pass -> scan (i + 1)
        in
        scan 0
      end

let first_success pool f xs = chunked_first_success pool ~chunk:1 f xs
