(* The verdict benchmark on the paper's workloads (Section 6, Fig 11).

   One closed-loop client (one request at a time) feeds generated .cind
   documents through the public facades, Cind_api and Cind_session, and
   checks every verdict.  The program under test receives only the printed
   documents: workload generation happens first, is excluded from set-up,
   and its output goes through Dsl.Printer and back through Dsl.Parser.

   Workloads, and why each was chosen:
   - consistent-j2: consistent Σ (the Fig 11a family), each checked with
     [Cind_api.check ~jobs:2 ~k:20].  Known answer (Yes), so it gives the
     paper's accuracy metric.  The domain pool and the chase-vs-SAT
     portfolio race run next to preprocessing and RandomChecking; after
     the timed loop every Σ is checked again at jobs=1, whose verdict must
     not contradict, and a traced run repeats its requests at jobs=1 as
     the base of the work inflation ratio.
   - random-j1: random Σ (Fig 11c).  Preprocessing and the dependency graph
     decide these without a chase run: the bypass workload for chase
     optimisations and the main one for preprocessing.
   - session-edits: eight incremental sessions, each driven by a cyclic
     script of writes, each write followed by a suite of reads; the verdict
     cache and its invalidation both show up in request latency.

   Scale.  Each check input has its own schema in the paper's setting and
   card(Σ) from 500 to 1000 (consistent) or 3000 (random); each session
   holds 500 dependencies.  Request costs are heavy-tailed — a few inputs
   in a hundred exhaust K = 20 RandomChecking runs and cost a hundred
   times the median — so a run holds many distinct inputs and reports
   medians: at the Fig 11a scale (card 2500–5000) a run on a 2-core host
   held too few requests for its figures to repeat from seed to seed.  The
   consistent median also moves with the share of inputs that need
   RandomChecking runs, so that stream holds 256 inputs (64 moved its
   median by a sixth from seed to seed, 256 by a fiftieth).  A consistent stream at jobs=1 is not a workload of
   its own: at this scale its median request sits between the inputs
   preprocessing decides alone and those needing RandomChecking runs, and
   on a 2-core host its median moved by a fifth from seed to seed.

   Untraced runs keep telemetry off and give the end-to-end metrics.  Traced
   runs measure the same requests untraced and then traced (the ratio is
   the tracing overhead), with bench-side spans around every call into a
   layer and the library's own spans and counters switched on. *)

open Conddep_relational
open Conddep_core
open Conddep_generator
module Parser = Conddep_dsl.Parser
module Printer = Conddep_dsl.Printer

(* ---- configuration ------------------------------------------------------ *)

type workload = Consistent_j2 | Random_j1 | Session_edits

let workloads =
  [ ("consistent-j2", Consistent_j2); ("random-j1", Random_j1); ("session-edits", Session_edits) ]

type size = {
  schema : Schema_gen.config;
  card_lo : int;  (** consistent Σ cardinality, inclusive range *)
  card_hi : int;
  random_card : int;
  consistent_pool : int;  (** distinct consistent Σ per run, requested cyclically *)
  random_pool : int;  (** distinct random Σ per run, requested cyclically *)
  sessions : int;  (** independent sessions per run, requested in turn *)
  session_card : int;
  session_tuples : int;  (** generated tuples per relation *)
  goals : int;  (** implication goal pool of the session suite *)
  edit_pairs : int;  (** remove/add pairs per script cycle *)
  setup_reps : int;  (** set-up repetitions; setup_s is their median *)
}

(* Per-request Guard deadline. *)
let deadline_s = 20.0

(* Largest finite domain of a session schema: implication materialises every
   assignment of a CIND's free finite RHS fields, |dom|^k children, before
   its state cap applies. *)
let session_dom_max = 10

(* The sessions' implication search cap. *)
let max_states = 1000

(* 20 relations, arity 3–15, 20% finite attributes with domains 2–100, Σ 75%
   CFDs: the paper's experimental setting. *)
let paper =
  {
    schema =
      {
        Schema_gen.num_relations = 20;
        min_arity = 3;
        max_arity = 15;
        finite_ratio = 0.20;
        finite_dom_min = 2;
        finite_dom_max = 100;
      };
    card_lo = 500;
    card_hi = 1000;
    random_card = 3000;
    consistent_pool = 256;
    random_pool = 64;
    sessions = 8;
    session_card = 500;
    session_tuples = 20;
    goals = 8;
    edit_pairs = 4;
    setup_reps = 3;
  }

let toy =
  {
    schema =
      {
        Schema_gen.num_relations = 6;
        min_arity = 3;
        max_arity = 6;
        finite_ratio = 0.20;
        finite_dom_min = 2;
        finite_dom_max = 10;
      };
    card_lo = 60;
    card_hi = 120;
    random_card = 100;
    consistent_pool = 3;
    random_pool = 3;
    sessions = 2;
    session_card = 60;
    session_tuples = 4;
    goals = 3;
    edit_pairs = 2;
    setup_reps = 2;
  }

let nproc () = Stdlib.Domain.recommended_domain_count ()

let jobs_of = function
  | Consistent_j2 -> max 1 (min 2 (nproc ()))
  | Random_j1 | Session_edits -> 1

(* ---- measurement helpers ------------------------------------------------ *)

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)

let span = Telemetry.with_span

let median xs =
  match List.sort compare xs with
  | [] -> 0.0
  | s ->
      let a = Array.of_list s and n = List.length s in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The highest percentile with at least ten samples beyond it: the value of
   rank n-10 in ascending order (1-based), named as a percentile of n. *)
let tail latencies =
  let a = Array.of_list latencies in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then (0.0, 0.0)
  else if n <= 10 then (a.(n - 1), 100.0)
  else (a.(n - 11), 100.0 *. float (n - 10) /. float n)

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* ---- verdict bookkeeping ------------------------------------------------ *)

type outcome = Decided | Undecided | Failed of string

let classify_unknown = function
  | Guard.Fuel -> Undecided
  | r -> Failed ("unknown (" ^ Guard.reason_to_string r ^ ")")

(* Run one request under its own deadline budget, so a runaway request ends
   as a typed Unknown Deadline and the run still finishes. *)
let guarded f =
  let budget = Guard.make ~timeout_s:deadline_s () in
  match Guard.with_ambient budget (fun () -> f budget) with
  | v -> Ok v
  | exception Guard.Exhausted r -> Ok (Cind_api.Unknown r)
  | exception e -> Error (Printexc.to_string e)

let verdict_kind = function
  | Cind_api.Yes _ -> "yes"
  | No -> "no"
  | Unknown r -> "unknown:" ^ Guard.reason_to_string r

type tally = {
  mutable sent : int;  (** requests *)
  mutable answers : int;  (** answers checked: one per check, one per session query *)
  mutable decided : int;  (** answers that were Yes or No *)
  mutable failures : (int * string) list;  (** request index, reason *)
}

let new_tally () = { sent = 0; answers = 0; decided = 0; failures = [] }

let record tally i = function
  | Decided -> tally.decided <- tally.decided + 1
  | Undecided -> ()
  | Failed why -> tally.failures <- (i, why) :: tally.failures

(* One answer and its verdict check. *)
let answer tally i outcome =
  tally.answers <- tally.answers + 1;
  record tally i outcome

let decided_share tally = ratio (float tally.decided) (float tally.answers)

(* Failures are counted per request: a request that fails two checks still
   counts once. *)
let failed_count tally =
  List.length (List.sort_uniq compare (List.map fst tally.failures))

(* ---- report ------------------------------------------------------------- *)

type metric = { name : string; value : float; unit : string }

type report = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  notes : string list;  (** human-readable lines printed before the result *)
}

let m name unit value = { name; value; unit }

(* The program's own telemetry, read after a traced phase. *)
module Layers = struct
  let counter name =
    Option.value ~default:0 (List.assoc_opt name (Telemetry.counter_snapshot ()))
    |> float

  let gauge name =
    Option.value ~default:0 (List.assoc_opt name (Telemetry.gauge_snapshot ()))
    |> float

  let spans () = Telemetry.self_time_table ()

  let find table name =
    List.find_opt (fun (n, _, _, _) -> n = name) table

  let self table name =
    match find table name with Some (_, _, _, s) -> s | None -> 0.0

  let total table name =
    match find table name with Some (_, _, t, _) -> t | None -> 0.0

  let calls table name =
    match find table name with Some (_, c, _, _) -> float c | None -> 0.0

  (* Wall time inside the bench-side root spans ("bench.*" at depth 0). *)
  let bench_covered () =
    List.fold_left
      (fun acc (n : Telemetry.profile_node) ->
        if String.length n.p_name > 6 && String.sub n.p_name 0 6 = "bench." then
          acc +. n.p_total_s
        else acc)
      0.0 (Telemetry.profile_tree ())
end

let () =
  Telemetry.register_gauge "interner.values"
    ~doc:"distinct values interned into the global id table"
    Interner.value_count;
  Telemetry.register_gauge "interner.symbols"
    ~doc:"distinct relation/attribute symbols interned" Interner.symbol_count

let peak_heap_mb () =
  let s = Gc.quick_stat () in
  float s.Gc.top_heap_words *. float (Sys.word_size / 8) /. 1048576.0

(* GC activity of the traced phase, per request, and the run's peak heap. *)
let gc_metrics (g0 : Gc.stat) (g1 : Gc.stat) requests =
  let per x = ratio x (float requests) in
  [
    m "gc.minor_collections" "count/req"
      (per (float (g1.minor_collections - g0.minor_collections)));
    m "gc.major_collections" "count/req"
      (per (float (g1.major_collections - g0.major_collections)));
    m "gc.minor_words" "words/req" (per (g1.minor_words -. g0.minor_words));
    m "gc.top_heap_mb" "MB" (peak_heap_mb ());
  ]

(* Per-layer table shared by every workload: each metric is present on
   every workload, 0 where the workload does not reach the layer. *)
let layer_metrics ~requests ~parse_s ~parse_bytes =
  let t = Layers.spans () and c = Layers.counter in
  let runs = c "checking.random.runs" in
  let hits = c "incremental.hits" and misses = c "incremental.misses" in
  [
    m "consistency.random_run.self_s" "s" (Layers.self t "checking.random_run");
    m "consistency.random.runs" "count" runs;
    m "consistency.random.success_ratio" "ratio"
      (ratio (c "checking.random.successes") runs);
    m "consistency.preprocess.self_s" "s" (Layers.self t "checking.preprocess");
    m "consistency.depgraph.build_s" "s" (Layers.total t "checking.depgraph.build");
    m "consistency.preprocess.components" "count" (c "checking.preprocess.components");
    m "consistency.cfd.kcfd_retries" "count" (c "checking.cfd.kcfd_retries");
    m "chase.ind_steps" "count" (c "chase.ind_steps");
    m "chase.fd_steps" "count" (c "chase.fd_steps");
    m "chase.pool_picks" "count" (c "chase.pool_picks");
    m "chase.threshold_hits" "count" (c "chase.threshold_hits");
    m "chase.delta.drained" "count" (c "chase.delta.drained");
    m "chase.index_rebuilds" "count" (c "chase.index_rebuilds");
    m "sat.solve.self_s" "s" (Layers.self t "sat.solve");
    m "sat.solve_calls" "count" (c "sat.solve_calls");
    m "sat.conflicts" "count" (c "sat.conflicts");
    m "sat.propagations" "count" (c "sat.propagations");
    m "parallel.worker.wait_s" "s" (Layers.total t "parallel.worker.wait");
    m "parallel.task.run_s" "s" (Layers.total t "parallel.task.run");
    m "parallel.domains_spawned" "count" (c "parallel.domains_spawned");
    m "parallel.pools" "count" (c "parallel.pools");
    m "parallel.steals" "count" (c "parallel.steals");
    m "core.implies.calls" "count" (Layers.calls t "implication.implies");
    m "core.implies.self_s" "s" (Layers.self t "implication.implies");
    m "core.holds_s" "s" (Layers.total t "bench.session.holds");
    m "incremental.hits" "count" hits;
    m "incremental.misses" "count" misses;
    m "incremental.invalidations" "count" (c "incremental.invalidations");
    m "incremental.hit_ratio" "ratio" (ratio hits (hits +. misses));
    m "incremental.edit_s" "s" (Layers.total t "bench.session.edit");
    m "incremental.query_s" "s"
      (List.fold_left
         (fun acc n -> acc +. Layers.total t n)
         0.0
         [ "bench.session.consistent"; "bench.session.implies"; "bench.session.holds" ]);
    m "dsl.parse_s" "s" parse_s;
    m "dsl.bytes_per_s" "B/s" (ratio parse_bytes parse_s);
    m "guard.fuel_exhausted" "count" (c "guard.fuel_exhausted");
    m "guard.deadline_hits" "count" (c "guard.deadline_hits");
    m "supervise.retries" "count" (c "supervise.retries");
    m "supervise.degraded" "count" (c "supervise.degraded");
    m "interner.values" "count" (Layers.gauge "interner.values");
    m "interner.symbols" "count" (Layers.gauge "interner.symbols");
    m "trace.requests" "count" (float requests);
  ]

(* The per-span self-time table of a traced phase, for the human output. *)
let span_table_notes () =
  List.filteri (fun i _ -> i < 25) (Layers.spans ())
  |> List.map (fun (n, calls, total, self) ->
         Printf.sprintf "  %-34s calls=%-8d total=%.4fs self=%.4fs" n calls total self)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

(* Folded stacks of a traced run, relative to the working directory. *)
let out_dir = Filename.concat ".bench_build" "perfbench-out"

let write_folded ~label =
  mkdir_p out_dir;
  let path = Filename.concat out_dir (label ^ ".folded") in
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> Telemetry.write_folded oc);
  path

(* ---- inputs ------------------------------------------------------------- *)

let workload_config card =
  { Workload.default with num_constraints = card; cfd_fraction = 0.75 }

let print_document schema (sigma : Sigma.nf) instances =
  Printer.document_to_string { Parser.schema; sigma = Sigma.of_nf sigma; instances }

type check_input = {
  text : string;  (** the printed .cind document *)
  card : int;  (** card(Σ) as generated *)
  expect_consistent : bool;  (** consistent by construction *)
  rng_seed : int;  (** the request's RandomChecking seed *)
}

let check_input ~expect_consistent ~rng_seed schema sigma =
  {
    text = print_document schema sigma [];
    card = Sigma.nf_cardinality sigma;
    expect_consistent;
    rng_seed;
  }

let check_inputs size workload ~seed =
  let rng = Rng.make seed in
  let pool = if workload = Random_j1 then size.random_pool else size.consistent_pool in
  List.init pool (fun i ->
      let schema = Schema_gen.generate (Rng.make (Rng.int rng 1_000_000_000)) size.schema in
      let sub = Rng.make (Rng.int rng 1_000_000_000) in
      match workload with
      | Random_j1 ->
          check_input ~expect_consistent:false ~rng_seed:(seed + i) schema
            (Workload.random sub (workload_config size.random_card) schema)
      | _ ->
          let card = size.card_lo + (i mod 6) * (size.card_hi - size.card_lo) / 5 in
          check_input ~expect_consistent:true ~rng_seed:(seed + i) schema
            (Workload.consistent sub (workload_config card) schema))
  |> Array.of_list

exception Bad_input of string

(* Parse one document; the parsed Σ must keep the generated cardinality. *)
let parse_document ~card text =
  match span "bench.dsl.parse" (fun () -> Parser.parse text) with
  | Error e -> raise (Bad_input ("parse error: " ^ e))
  | Ok doc ->
      let nf = Sigma.normalize doc.Parser.sigma in
      if Sigma.cardinality doc.sigma <> card || Sigma.nf_cardinality nf <> card then
        raise
          (Bad_input
             (Printf.sprintf "card(Σ) %d after the round trip, %d generated"
                (Sigma.nf_cardinality nf) card));
      (doc, nf)

(* ---- host speed ---------------------------------------------------------- *)

(* On a shared 2-core virtual machine the CPU speed was seen to drift by up
   to 1.6x, in phases of seconds to many minutes, with a CPU-bound loop's
   wall and CPU time moving together.  So a fixed piece of stdlib-only
   work, independent of the program, is timed between requests (every
   [reference_every] seconds) and before each set-up, and the reported
   times are scaled to the host speed at which that work takes
   [nominal_ref_s].  The notes keep the raw wall-clock figures. *)
let reference_work () =
  let h = Hashtbl.create 1024 in
  for i = 0 to 4095 do
    Hashtbl.replace h ((i * 7919) land 65535) i
  done;
  let l = List.init 2048 (fun i -> (i * 7919) land 4095) in
  ignore (Sys.opaque_identity (List.sort compare l, Hashtbl.length h))

let reference_every = 0.05
let nominal_ref_s = 0.0005

(* Best of three passes, to drop a single interrupted pass. *)
let reference_time () =
  let t = ref infinity in
  for _ = 1 to 3 do
    t := Float.min !t (snd (timed reference_work))
  done;
  !t

let at_nominal_speed t ~ref_t = t *. nominal_ref_s /. ref_t

(* Set-up runs [reps] times from a compacted heap; the median time, at
   nominal host speed, is reported and the last result kept.  The heap is
   compacted again before the timed loop, so set-up garbage is not
   collected on its clock. *)
let repeat_setup reps f =
  let rec go k times =
    Gc.compact ();
    let ref_t = reference_time () in
    let x, t = timed f in
    let t = at_nominal_speed t ~ref_t in
    if k <= 1 then begin
      Gc.compact ();
      (x, median (t :: times))
    end
    else go (k - 1) (t :: times)
  in
  go reps []

(* ---- closed loop and the shared measurement ----------------------------- *)

type order = Timed of float | Replay of int

(* Closed loop: the next request is sent when the previous one returns.
   [Timed s] sends until s seconds have passed, then on to a multiple of
   [period] requests (at least one period), so that a stateful stream ends
   where it started; [Replay n] sends exactly the first n requests again.
   Each request comes back with the reference time current when it ran. *)
let closed_loop ?(period = 1) order request =
  let t0 = now () in
  let rec go k acc ref_t ref_at =
    let more =
      match order with
      | Timed s -> k = 0 || k mod period <> 0 || now () -. t0 < s
      | Replay n -> k < n
    in
    if not more then (List.rev acc, now () -. t0)
    else if now () -. ref_at >= reference_every then
      go k acc (span "bench.reference" reference_time) (now ())
    else go (k + 1) ((request k, ref_t) :: acc) ref_t ref_at
  in
  go 0 [] 0.0 neg_infinity

(* What a workload hands to {!measure}. *)
type 'r stream = {
  loop : order -> ('r * float) list * float;
      (** requests with their reference times, and the loop's wall time *)
  latency : 'r -> float;
  key : 'r -> int;  (** which recurring request: an input, or a script step *)
  check : 'r list -> unit;
      (** verdict checks of all the requests a run sent, in the order sent *)
  reparse : unit -> unit;  (** the set-up's parsing, once more *)
  companion : traced:bool -> 'r list -> float;
      (** requests the verdict checks compare against, sent after the
          measured ones and before [check]; in a traced run returns the work
          inflation ratio *)
}

(* Every request recurs during a run (the inputs and the session script
   are cyclic).  The reported p50 is the median over distinct requests of
   the median of each one's scaled latencies; the raw wall-clock
   distribution goes to the notes. *)
let latency_metrics note ~wall st timed_reqs =
  let by_key = Hashtbl.create 64 in
  List.iter
    (fun (r, ref_t) ->
      let k = st.key r in
      Hashtbl.replace by_key k
        (at_nominal_speed (st.latency r) ~ref_t
        :: Option.value ~default:[] (Hashtbl.find_opt by_key k)))
    timed_reqs;
  let p50 = 1000.0 *. median (Hashtbl.fold (fun _ ls acc -> median ls :: acc) by_key []) in
  let lat = List.map (fun (r, _) -> st.latency r *. 1000.0) timed_reqs in
  let refs = List.map (fun (_, ref_t) -> ref_t *. 1000.0) timed_reqs in
  let tail_ms, pct = tail lat and n = List.length lat in
  note
    (Printf.sprintf
       "latency: %d requests over %d distinct, p50 %.3f ms at nominal speed; wall clock: p50 \
        %.3f ms, tail p%.1f %.3f ms, verdicts_per_s %.3f; reference work %.4f ms (nominal \
        %.4f)"
       n (Hashtbl.length by_key) p50 (median lat) pct tail_ms (ratio (float n) wall)
       (median refs) (nominal_ref_s *. 1000.0));
  m "latency_p50_ms" "ms" p50

(* Sum of a loop's request latencies at nominal host speed. *)
let scaled_total st reqs =
  List.fold_left (fun acc (r, ref_t) -> acc +. at_nominal_speed (st.latency r) ~ref_t) 0.0 reqs

(* Untraced: one timed loop and the end-to-end metrics.  Traced: a warm-up
   loop over a third of the time, then the same requests again untraced,
   then again with the profiler on; the per-layer metrics cover the traced
   phase (parsing and requests), and the tracing overhead compares the two
   replays at nominal host speed.  Every request of a run, warm-up
   included, goes through the verdict checks once, after the measurements. *)
let measure ~label ~seconds ~trace ~setup_s ~parse_bytes tally note st =
  if not trace then begin
    let timed_reqs, wall = st.loop (Timed seconds) in
    let reqs = List.map fst timed_reqs in
    ignore (st.companion ~traced:false reqs);
    st.check reqs;
    [
      m "setup_s" "s" setup_s;
      latency_metrics note ~wall st timed_reqs;
      m "decided_share" "ratio" (decided_share tally);
    ]
  end
  else begin
    let warm, _ = st.loop (Timed (seconds /. 3.0)) in
    let n = List.length warm in
    let untraced, _ = st.loop (Replay n) in
    Telemetry.reset ();
    Telemetry.enable_profiling ();
    let g0 = Gc.quick_stat () in
    let traced, traced_wall =
      timed (fun () ->
          st.reparse ();
          fst (st.loop (Replay n)))
    in
    let g1 = Gc.quick_stat () in
    let covered = Layers.bench_covered () in
    let parse_s = Layers.total (Layers.spans ()) "bench.dsl.parse" in
    let layers = layer_metrics ~requests:n ~parse_s ~parse_bytes in
    note ("per-span self time, traced " ^ label ^ ":");
    List.iter note (span_table_notes ());
    note ("folded stacks: " ^ write_folded ~label);
    let inflation = st.companion ~traced:true (List.map fst traced) in
    Telemetry.disable_profiling ();
    Telemetry.disable ();
    st.check (List.map fst (warm @ untraced @ traced));
    let untraced_s = scaled_total st untraced and traced_s = scaled_total st traced in
    note
      (Printf.sprintf "tracing overhead: %d requests, %.4fs untraced, %.4fs traced at nominal speed"
         n untraced_s traced_s);
    layers @ gc_metrics g0 g1 n
    @ [
        m "parallel.work_inflation" "ratio" inflation;
        m "trace.coverage" "ratio" (ratio covered traced_wall);
        m "trace.overhead" "ratio" (ratio traced_s untraced_s);
      ]
  end

(* ---- check workloads ---------------------------------------------------- *)

type request = {
  input : int;
  verdict : (Cind_api.verdict, string) result;
  latency : float;
}

let check_once ~jobs (schema, nf) input =
  guarded (fun budget ->
      span "bench.api.check" (fun () ->
          Cind_api.check ~budget ~policy:Supervise.Policy.supervised ~jobs ~k:20
            ~rng:(Rng.make input.rng_seed) schema nf))

(* Every verdict is checked: a Yes witness must satisfy Σ (Sigma.nf_holds),
   a No on a consistent-by-construction Σ is wrong, the same input (same
   RandomChecking seed) must give the same verdict every time, and a
   definitive verdict must not contradict the definitive jobs=1 verdict on
   the same Σ, where [base] has one. *)
let check_verdicts tally inputs parsed base reqs =
  let first = Hashtbl.create 16 in
  List.iteri
    (fun k r ->
      tally.sent <- tally.sent + 1;
      let input = inputs.(r.input) and _, nf = parsed.(r.input) in
      let outcome =
        match r.verdict with
        | Error e -> Failed ("raised " ^ e)
        | Ok (Cind_api.Unknown reason) -> classify_unknown reason
        | Ok No when input.expect_consistent ->
            Failed "no on a consistent-by-construction set"
        | Ok No -> Decided
        | Ok (Yes None) -> Failed "yes without a witness"
        | Ok (Yes (Some db)) ->
            if Sigma.nf_holds db nf then Decided
            else Failed "witness violates Σ"
      in
      answer tally k outcome;
      (match (r.verdict, Hashtbl.find_opt base r.input) with
      | Ok (Cind_api.Yes _), Some (Ok Cind_api.No) | Ok No, Some (Ok (Yes _)) ->
          record tally k (Failed "contradicts the jobs=1 verdict")
      | _ -> ());
      match r.verdict with
      | Ok v -> (
          match Hashtbl.find_opt first r.input with
          | None -> Hashtbl.add first r.input (verdict_kind v)
          | Some kind when kind <> verdict_kind v ->
              record tally k (Failed ("verdict changed from " ^ kind))
          | Some _ -> ())
      | Error _ -> ())
    reqs

let run_checks ?(label = "checks") size ~jobs ~seconds
    ~trace inputs =
  let tally = new_tally () and notes = ref [] in
  let note line = notes := line :: !notes in
  let parse_all () =
    Array.map
      (fun input ->
        let doc, nf = parse_document ~card:input.card input.text in
        (doc.Parser.schema, nf))
      inputs
  in
  let parsed, setup_s = repeat_setup size.setup_reps parse_all in
  let loop ~jobs order =
    closed_loop order (fun k ->
        let i = k mod Array.length inputs in
        let verdict, latency = timed (fun () -> check_once ~jobs parsed.(i) inputs.(i)) in
        { input = i; verdict; latency })
  in
  (* jobs=1 over the same inputs: the verdicts of the cross-check, and in a
     traced run the base of the work inflation (summed random_run self
     time, jobs=N over jobs=1, on the same requests) *)
  let base = Hashtbl.create 64 in
  let companion ~traced reqs =
    if jobs = 1 then 0.0
    else begin
      let at_n = Layers.self (Layers.spans ()) "checking.random_run" in
      Telemetry.profile_reset ();
      let base_reqs =
        if traced then List.map fst (fst (loop ~jobs:1 (Replay (List.length reqs))))
        else
          List.sort_uniq compare (List.map (fun r -> r.input) reqs)
          |> List.map (fun i ->
                 { input = i; verdict = check_once ~jobs:1 parsed.(i) inputs.(i); latency = 0.0 })
      in
      List.iter (fun r -> Hashtbl.replace base r.input r.verdict) base_reqs;
      let at_1 = Layers.self (Layers.spans ()) "checking.random_run" in
      if traced then
        note
          (Printf.sprintf "work inflation: random_run self %.4fs at jobs=%d, %.4fs at jobs=1"
             at_n jobs at_1);
      ratio at_n at_1
    end
  in
  let metrics =
    measure ~label ~seconds ~trace ~setup_s
      ~parse_bytes:(float (Array.fold_left (fun acc i -> acc + String.length i.text) 0 inputs))
      tally note
      {
        loop = loop ~jobs;
        latency = (fun r -> r.latency);
        key = (fun r -> r.input);
        check = check_verdicts tally inputs parsed base;
        reparse = (fun () -> ignore (parse_all ()));
        companion;
      }
  in
  (tally, metrics, List.rev !notes)

(* ---- session workload --------------------------------------------------- *)

type edit =
  | Remove_cind of Cind.nf
  | Add_cind of Cind.nf
  | Remove_cfd of Cfd.nf
  | Add_cfd of Cfd.nf
  | Insert of string * Tuple.t list

type session_input = {
  s_text : string;  (** schema, Σ and the generated database *)
  s_card : int;
  goals_text : string;  (** the implication goal pool, as CINDs *)
  goals_card : int;
  s_seed : int;
}

let session_input size ~seed =
  let rng = Rng.make seed in
  let schema =
    Schema_gen.generate
      (Rng.make (Rng.int rng 1_000_000_000))
      { size.schema with finite_dom_max = session_dom_max }
  in
  let wconfig = workload_config size.session_card in
  let sigma = Workload.consistent (Rng.make (Rng.int rng 1_000_000_000)) wconfig schema in
  let dirty =
    Workload.dirty_database (Rng.make (Rng.int rng 1_000_000_000)) schema
      ~tuples_per_rel:size.session_tuples ~error_rate:0.1
  in
  let witness = Workload.witness_db schema in
  let instances =
    List.map
      (fun rel ->
        let tuples db = Relation.tuples (Database.relation db (Schema.name rel)) in
        (Schema.name rel, tuples witness @ tuples dirty))
      (Db_schema.relations schema)
  in
  (* goals generated apart from Σ, half from the consistent family, so
     implication answers vary *)
  let grng = Rng.make (Rng.int rng 1_000_000_000) in
  let goals =
    List.init size.goals (fun i ->
        Workload.gen_cind grng wconfig schema ~consistent:(i mod 2 = 0) i)
  in
  let goals_nf = { Sigma.ncfds = []; ncinds = goals } in
  {
    s_text = print_document schema sigma instances;
    s_card = Sigma.nf_cardinality sigma;
    goals_text = print_document schema goals_nf [];
    goals_card = List.length goals;
    s_seed = seed;
  }

let session_inputs size ~seed =
  let rng = Rng.make seed in
  Array.init size.sessions (fun _ -> session_input size ~seed:(Rng.int rng 1_000_000_000))

(* One script cycle: remove/restore pairs of CINDs and CFDs, then re-insert
   a batch of tuples already in the database.  Every pair restores the set
   Σ and a re-insert leaves the database's contents unchanged while still
   bumping the relation's generation.  A restored dependency goes to the end
   of Σ, though, and a removal of one of two equal dependencies is not
   undone, so the first cycles may change Σ; {!settle} runs cycles until
   one leaves Σ and the database as they were. *)
let script size rng (nf : Sigma.nf) db rels =
  let pick xs = List.nth xs (Rng.int rng (List.length xs)) in
  List.concat
    (List.init size.edit_pairs (fun i ->
         let cind = pick nf.ncinds and cfd = pick nf.ncfds in
         let rel = List.nth rels (i mod List.length rels) in
         let batch =
           List.filteri (fun j _ -> j < 5) (Relation.tuples (Database.relation db rel))
         in
         [ Remove_cind cind; Add_cind cind; Remove_cfd cfd; Add_cfd cfd; Insert (rel, batch) ]))
  |> Array.of_list

let apply s = function
  | Remove_cind c -> Cind_session.remove_cind s c
  | Add_cind c -> Cind_session.add_cind s c
  | Remove_cfd c -> Cind_session.remove_cfd s c
  | Add_cfd c -> Cind_session.add_cfd s c
  | Insert (rel, tuples) -> Cind_session.insert_tuples s ~rel tuples

(* Apply the script's writes, without reads, until a whole cycle leaves Σ
   (order included) and the database unchanged.  From then on every cycle
   passes through the same states, so step k of any cycle has the verdicts
   of step k of the oracle's settled cycle. *)
let settle s script =
  let state () =
    (Cind_session.sigma s, Fmt.str "%a" Database.pp (Cind_session.database s))
  in
  let rec go k =
    let before = state () in
    Array.iter (apply s) script;
    if state () <> before then
      if k < 4 then go (k + 1) else raise (Bad_input "session script does not settle")
  in
  go 1

type answer = V of Cind_api.verdict | B of bool

(* The read suite after each write: consistent on every relation, implies
   over the goal pool, then holds. *)
let suite s ~rels ~goals =
  let consistent =
    List.map
      (fun rel -> V (span "bench.session.consistent" (fun () -> Cind_session.consistent s ~rel)))
      rels
  in
  let implies =
    List.map (fun g -> V (span "bench.session.implies" (fun () -> Cind_session.implies s g))) goals
  in
  Array.of_list
    (consistent @ implies @ [ B (span "bench.session.holds" (fun () -> Cind_session.holds s)) ])

let build_session ~cache ~seed schema (nf : Sigma.nf) db =
  span "bench.session.build" @@ fun () ->
  let s = Cind_session.create ~cache ~jobs:1 ~max_states ~seed schema in
  List.iter (Cind_session.add_cfd s) nf.ncfds;
  List.iter (Cind_session.add_cind s) nf.ncinds;
  Database.iter
    (fun r ->
      match Relation.tuples r with
      | [] -> ()
      | tuples -> Cind_session.insert_tuples s ~rel:(Schema.name (Relation.schema r)) tuples)
    db;
  s

type step = {
  slot : int;  (** session and script position, the same every cycle *)
  answers : (answer array, string) result;
  step_latency : float;
}

let session_step ?(slot = 0) s ~rels ~goals edit =
  let run () =
    let budget = Guard.make ~timeout_s:deadline_s () in
    Guard.with_ambient budget (fun () ->
        Option.iter (fun e -> span "bench.session.edit" (fun () -> apply s e)) edit;
        suite s ~rels ~goals)
  in
  let answers, step_latency =
    timed (fun () -> try Ok (run ()) with e -> Error (Printexc.to_string e))
  in
  { slot; answers; step_latency }

let answer_repr = function
  | B b -> string_of_bool b
  | V v -> verdict_kind v

let witness_string db = Fmt.str "%a" Database.pp db

(* The i-th step of a session (request k of the run) must match the
   cache-free oracle's step (i mod cycle) verdict for verdict, witnesses
   included; every oracle witness of [consistent ~rel] must satisfy
   CFD(rel). *)
let check_session tally steps oracle ~rels =
  let nrels = List.length rels in
  let verified = Hashtbl.create 64 in
  let cycle = Array.length oracle in
  (* per (oracle step, query): the oracle's printed witness, and the last
     cached witness found equal to it (a cache hit returns the same value) *)
  let printed = Hashtbl.create 64 and matched = Hashtbl.create 64 in
  let same_witness slot cached fresh =
    match Hashtbl.find_opt matched slot with
    | Some d when d == cached -> true
    | _ ->
        let want =
          match Hashtbl.find_opt printed slot with
          | Some w -> w
          | None ->
              let w = witness_string fresh in
              Hashtbl.add printed slot w;
              w
        in
        let ok = witness_string cached = want in
        if ok then Hashtbl.replace matched slot cached;
        ok
  in
  List.iteri
    (fun i (k, st) ->
      tally.sent <- tally.sent + 1;
      let expected, sigma = oracle.(i mod cycle) in
      match (st.answers, expected) with
      | Error e, _ -> answer tally k (Failed ("raised " ^ e))
      | _, Error e -> answer tally k (Failed ("oracle raised " ^ e))
      | Ok got, Ok want ->
          Array.iteri
            (fun q a ->
              let w = want.(q) in
              let same =
                match (a, w) with
                | V (Yes (Some d1)), V (Yes (Some d2)) -> same_witness (i mod cycle, q) d1 d2
                | _ -> answer_repr a = answer_repr w
              in
              answer tally k
                (if not same then
                   Failed
                     (Printf.sprintf "query %d: %s, oracle %s" q (answer_repr a)
                        (answer_repr w))
                 else match a with V (Unknown r) -> classify_unknown r | _ -> Decided);
              match w with
              | V (Yes (Some db)) when q < nrels && not (Hashtbl.mem verified (i mod cycle, q)) ->
                  Hashtbl.add verified (i mod cycle, q) ();
                  let cfds = Sigma.cfds_on sigma (List.nth rels q) in
                  if not (Sigma.nf_holds db { Sigma.ncfds = cfds; ncinds = [] }) then
                    record tally k (Failed "witness violates CFD(rel)")
              | _ -> ())
            got)
    steps

type live_session = {
  input : session_input;
  schema : Db_schema.t;
  nf : Sigma.nf;
  db : Database.t;
  goals : Cind.nf list;
  rels : string list;
  session : Cind_session.t;
  script : edit array;
}

let run_session ?(label = "session") size ~seconds ~trace
    inputs =
  let tally = new_tally () and notes = ref [] in
  let note line = notes := line :: !notes in
  let parse input =
    let doc, nf = parse_document ~card:input.s_card input.s_text in
    let _, goals = parse_document ~card:input.goals_card input.goals_text in
    match Parser.database doc with
    | Error e -> raise (Bad_input ("instances: " ^ e))
    | Ok db -> (doc.Parser.schema, nf, db, goals.Sigma.ncinds)
  in
  (* set-up: parse, build and settle each session, one cold pass of the
     read suite *)
  let setup () =
    Array.map
      (fun input ->
        let schema, nf, db, goals = parse input in
        let rels = Db_schema.rel_names schema in
        let session = build_session ~cache:true ~seed:input.s_seed schema nf db in
        let script = script size (Rng.make (input.s_seed + 2)) nf db rels in
        settle session script;
        ignore (session_step session ~rels ~goals None);
        { input; schema; nf; db; goals; rels; session; script })
      inputs
  in
  let live, setup_s = repeat_setup size.setup_reps setup in
  let nsessions = Array.length live in
  let cycle = 5 * size.edit_pairs in
  (* request k goes to session k mod S, at its script step (k / S) mod cycle *)
  let request k =
    let l = live.(k mod nsessions) and i = k / nsessions mod cycle in
    session_step ~slot:(k mod (nsessions * cycle)) l.session ~rels:l.rels ~goals:l.goals
      (Some l.script.(i))
  in
  (* per session, the first min(n, cycle) steps of the settled script
     replayed on a cache-free session: the oracle for every cached step *)
  let check steps =
    Array.iteri
      (fun j l ->
        let mine = List.filteri (fun k _ -> k mod nsessions = j) steps in
        let mine = List.mapi (fun i st -> ((i * nsessions) + j, st)) mine in
        let fresh = build_session ~cache:false ~seed:l.input.s_seed l.schema l.nf l.db in
        settle fresh l.script;
        let oracle =
          Array.init (min (List.length mine) cycle) (fun i ->
              let st = session_step fresh ~rels:l.rels ~goals:l.goals (Some l.script.(i)) in
              (st.answers, Cind_session.sigma fresh))
        in
        check_session tally mine oracle ~rels:l.rels)
      live
  in
  let metrics =
    measure ~label ~seconds ~trace ~setup_s
      ~parse_bytes:
        (Array.fold_left
           (fun acc i -> acc +. float (String.length i.s_text + String.length i.goals_text))
           0.0 inputs)
      tally note
      {
        loop = (fun order -> closed_loop ~period:(nsessions * cycle) order request);
        latency = (fun st -> st.step_latency);
        key = (fun st -> st.slot);
        check;
        reparse = (fun () -> Array.iter (fun i -> ignore (parse i)) inputs);
        companion = (fun ~traced:_ _ -> 0.0);
      }
  in
  Array.iter
    (fun l ->
      let st = Cind_session.stats l.session in
      note
        (Printf.sprintf "session: cycle %d steps, cache hits %d, misses %d, invalidations %d"
           cycle st.hits st.misses st.invalidations))
    live;
  (tally, metrics, List.rev !notes)

(* ---- entry point -------------------------------------------------------- *)

let finish ~workload_name ~jobs ~generate_s ~trace (tally, metrics, notes) =
  let failed = failed_count tally in
  let failure_notes =
    List.filteri (fun i _ -> i < 10) (List.rev tally.failures)
    |> List.map (fun (k, why) -> Printf.sprintf "FAILED request %d: %s" k why)
  in
  let metrics =
    if trace then m "bench.generate_s" "s" generate_s :: metrics else metrics
  in
  {
    correct = failed = 0;
    attempted = max 1 tally.sent;
    failed;
    metrics;
    notes =
      [
        Printf.sprintf "workload %s: nproc=%d jobs=%d generate_s=%.3f" workload_name
          (nproc ()) jobs generate_s;
      ]
      @ notes
      @ [
          Printf.sprintf "attempted %d, failed %d (failed_share %.4f), decided %d of %d answers"
            tally.sent failed
            (ratio (float failed) (float tally.sent))
            tally.decided tally.answers;
        ]
      @ failure_notes;
  }

(* Checks of caller-made inputs, e.g. a deliberately mislabelled one. *)
let run_check_inputs ?(label = "checks") ?(generate_s = 0.0) size ~jobs ~seconds
    ~trace inputs =
  finish ~workload_name:label ~jobs ~generate_s ~trace
    (run_checks ~label size ~jobs ~seconds ~trace inputs)

let run size workload ~seed ~seconds ~trace =
  let name = fst (List.find (fun (_, w) -> w = workload) workloads) in
  let jobs = jobs_of workload in
  let label = Printf.sprintf "%s-seed%d" name seed in
  match workload with
  | Session_edits ->
      let input, generate_s = timed (fun () -> session_inputs size ~seed) in
      finish ~workload_name:label ~jobs ~generate_s ~trace
        (run_session ~label size ~seconds ~trace input)
  | Consistent_j2 | Random_j1 ->
      let inputs, generate_s = timed (fun () -> check_inputs size workload ~seed) in
      run_check_inputs ~label ~generate_s size ~jobs ~seconds ~trace inputs

let json_of_report r =
  let metric x =
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" x.name x.value x.unit
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    r.correct r.attempted r.failed
    (String.concat ", " (List.map metric r.metrics))
