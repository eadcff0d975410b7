(* A CDCL SAT solver — conflict-driven clause learning with two-watched-
   literal propagation, first-UIP conflict analysis, non-chronological
   backjumping, EVSIDS activity branching and LBD-scored learned-clause
   deletion — standing in for SAT4j in the paper's SAT-based CFD_Checking:
   any complete solver preserves the algorithm's accuracy; only absolute
   running times differ.  [solve_brute] is the exhaustive oracle the tests
   check it against. *)

type result =
  | Sat of bool array (* indexed by variable, index 0 unused *)
  | Unsat
  | Unknown of Guard.reason (* search stopped by a budget, limit or fault *)

let () = Guard.register_probe "sat.solve"
let () = Guard.register_probe "sat.analyze"

let m_solves = Telemetry.counter "sat.solve_calls" ~doc:"CNF instances handed to the SAT solver"
let m_decisions = Telemetry.counter "sat.decisions" ~doc:"branching decisions"
let m_propagations = Telemetry.counter "sat.propagations" ~doc:"literals assigned by unit propagation"
let m_conflicts = Telemetry.counter "sat.conflicts" ~doc:"clauses falsified during propagation"
let m_restarts = Telemetry.counter "sat.restarts" ~doc:"conflict-limited Luby restarts taken (window = restart_base * luby(i))"
let m_learned = Telemetry.counter "sat.learned" ~doc:"asserting clauses learned by first-UIP conflict analysis"
let m_learned_deleted = Telemetry.counter "sat.learned_deleted" ~doc:"learned clauses removed by LBD-scored database reductions"
let m_backjumps = Telemetry.counter "sat.backjump_levels" ~doc:"decision levels skipped by non-chronological backjumps (beyond the one chronological level)"
let m_minimized = Telemetry.counter "sat.minimized_lits" ~doc:"learnt literals removed by recursive self-subsumption minimization"
let m_sat = Telemetry.counter "sat.results_sat" ~doc:"instances decided satisfiable"
let m_unsat = Telemetry.counter "sat.results_unsat" ~doc:"instances decided unsatisfiable"
let m_unknown = Telemetry.counter "sat.results_unknown" ~doc:"instances left undecided: budget, conflict/decision limit or fault"

(* LBD ("glue") of each learned clause, recorded as a unitless value into
   the log-scale duration buckets: the histogram machinery is shared, so a
   bucket bound of "5" reads as LBD <= 5, not seconds. *)
let h_lbd = Telemetry.histogram "sat.lbd"

exception Found_unsat

(* luby i: the i-th term (1-based) of the Luby restart sequence
   1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ... — the universally near-optimal
   schedule for restarting Las Vegas searches. *)
let rec luby i =
  let k = ref 1 in
  while (1 lsl !k) - 1 < i do incr k done;
  if (1 lsl !k) - 1 = i then 1 lsl (!k - 1)
  else luby (i - (1 lsl (!k - 1)) + 1)

let lit_index l = if l > 0 then 2 * l else (2 * -l) + 1

(* Remove duplicate literals; detect tautological clauses (contain l and -l). *)
let simplify_clause clause =
  let sorted = List.sort_uniq Int.compare clause in
  if List.exists (fun l -> List.mem (-l) sorted) sorted then None else Some sorted

(* === the CDCL core =========================================================== *)

(* Clauses live in one growable arena indexed by integer id: the original
   clauses first (never deleted), learned clauses appended behind them.
   Database reduction compacts the learned segment in place and rebuilds
   the watch lists, remapping the implication reasons that point into it. *)
type clause = {
  lits : int array; (* mutable in place: positions 0/1 are the watches *)
  learned : bool;
  mutable lbd : int; (* glue: distinct decision levels at learn time *)
}

let no_reason = -1

type cdcl = {
  num_vars : int;
  mutable clauses : clause array; (* arena; [0, n_clauses) live *)
  mutable n_clauses : int;
  n_orig : int; (* clauses below this index are the problem clauses *)
  (* assignment + implication graph *)
  assign : int array; (* 0 unassigned, 1 true, -1 false *)
  level : int array; (* decision level at which each variable was set *)
  reason : int array; (* clause id that propagated the variable, or no_reason *)
  trail : int array;
  mutable trail_len : int;
  mutable qhead : int;
  trail_lim : int array; (* trail length at the start of each decision level *)
  mutable dlevel : int;
  (* two-watched-literal scheme, keyed by falsified-literal index *)
  watch : int list array;
  (* EVSIDS branching *)
  activity : float array;
  mutable var_inc : float;
  heap : int array; (* binary max-heap of variables ordered by activity *)
  heap_pos : int array; (* variable -> heap index, -1 when absent *)
  mutable heap_len : int;
  pos_occ : int array; (* positive-literal occurrences, initial phase choice *)
  occ : int array; (* total occurrences, initial phase choice *)
  saved : int array; (* phase saving: last value each variable held, 0 if never *)
  (* first-UIP analysis scratch *)
  seen : bool array;
}

let lit_value st l =
  let v = st.assign.(abs l) in
  if v = 0 then 0 else if (l > 0) = (v = 1) then 1 else -1

(* --- activity heap ----------------------------------------------------------- *)

(* Max-heap on activity with variable index as a deterministic tie-break,
   so branching (and therefore verdict shape) is reproducible. *)
let heap_lt st a b =
  st.activity.(a) < st.activity.(b)
  || (st.activity.(a) = st.activity.(b) && a > b)

let heap_swap st i j =
  let a = st.heap.(i) and b = st.heap.(j) in
  st.heap.(i) <- b;
  st.heap.(j) <- a;
  st.heap_pos.(b) <- i;
  st.heap_pos.(a) <- j

let rec heap_up st i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if heap_lt st st.heap.(parent) st.heap.(i) then begin
      heap_swap st i parent;
      heap_up st parent
    end
  end

let rec heap_down st i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let best = ref i in
  if l < st.heap_len && heap_lt st st.heap.(!best) st.heap.(l) then best := l;
  if r < st.heap_len && heap_lt st st.heap.(!best) st.heap.(r) then best := r;
  if !best <> i then begin
    heap_swap st i !best;
    heap_down st !best
  end

let heap_insert st v =
  if st.heap_pos.(v) < 0 then begin
    st.heap.(st.heap_len) <- v;
    st.heap_pos.(v) <- st.heap_len;
    st.heap_len <- st.heap_len + 1;
    heap_up st st.heap_pos.(v)
  end

let heap_pop st =
  let v = st.heap.(0) in
  st.heap_len <- st.heap_len - 1;
  st.heap_pos.(v) <- -1;
  if st.heap_len > 0 then begin
    st.heap.(0) <- st.heap.(st.heap_len);
    st.heap_pos.(st.heap.(0)) <- 0;
    heap_down st 0
  end;
  v

(* --- EVSIDS ------------------------------------------------------------------ *)

let var_decay = 1.0 /. 0.95
let rescale_limit = 1e100

let bump_var st v =
  st.activity.(v) <- st.activity.(v) +. st.var_inc;
  if st.activity.(v) > rescale_limit then begin
    for u = 1 to st.num_vars do
      st.activity.(u) <- st.activity.(u) *. (1.0 /. rescale_limit)
    done;
    st.var_inc <- st.var_inc *. (1.0 /. rescale_limit)
  end;
  if st.heap_pos.(v) >= 0 then heap_up st st.heap_pos.(v)

let decay_activities st = st.var_inc <- st.var_inc *. var_decay

(* --- trail ------------------------------------------------------------------- *)

let push_assign st l reason =
  let v = abs l in
  st.assign.(v) <- (if l > 0 then 1 else -1);
  st.level.(v) <- st.dlevel;
  st.reason.(v) <- reason;
  st.trail.(st.trail_len) <- l;
  st.trail_len <- st.trail_len + 1

(* Undo every decision level above [lvl], saving phases and re-offering the
   freed variables to the branching heap.  [trail_lim.(d)] is the trail
   length just before level [d]'s decision, so keeping levels [0..lvl]
   means keeping [trail_lim.(lvl + 1)] entries. *)
let cancel_until st lvl =
  if st.dlevel > lvl then begin
    let keep = st.trail_lim.(lvl + 1) in
    for i = st.trail_len - 1 downto keep do
      let v = abs st.trail.(i) in
      st.saved.(v) <- st.assign.(v);
      st.assign.(v) <- 0;
      st.reason.(v) <- no_reason;
      heap_insert st v
    done;
    st.trail_len <- keep;
    st.qhead <- keep;
    st.dlevel <- lvl
  end

(* --- clause arena ------------------------------------------------------------ *)

let watch_clause st ci =
  let c = st.clauses.(ci).lits in
  st.watch.(lit_index c.(0)) <- ci :: st.watch.(lit_index c.(0));
  st.watch.(lit_index c.(1)) <- ci :: st.watch.(lit_index c.(1))

let add_clause st cl =
  if st.n_clauses = Array.length st.clauses then begin
    let grown =
      Array.make (max 16 (2 * st.n_clauses)) { lits = [||]; learned = false; lbd = 0 }
    in
    Array.blit st.clauses 0 grown 0 st.n_clauses;
    st.clauses <- grown
  end;
  let ci = st.n_clauses in
  st.clauses.(ci) <- cl;
  st.n_clauses <- ci + 1;
  watch_clause st ci;
  ci

(* --- unit propagation -------------------------------------------------------- *)

(* Watched-literal propagation recording implication reasons.  Returns the
   id of a falsified clause, or [no_reason] when a fixpoint is reached. *)
let propagate st =
  let conflict = ref no_reason in
  while !conflict = no_reason && st.qhead < st.trail_len do
    let l = st.trail.(st.qhead) in
    st.qhead <- st.qhead + 1;
    let falsified = -l in
    let wl = lit_index falsified in
    let pending = st.watch.(wl) in
    st.watch.(wl) <- [];
    let rec process = function
      | [] -> ()
      | ci :: rest ->
          let c = st.clauses.(ci).lits in
          (* Keep the falsified literal at position 1. *)
          if c.(0) = falsified then begin
            c.(0) <- c.(1);
            c.(1) <- falsified
          end;
          if lit_value st c.(0) = 1 then begin
            st.watch.(wl) <- ci :: st.watch.(wl);
            process rest
          end
          else begin
            let len = Array.length c in
            let rec find_watch k =
              if k >= len then -1
              else if lit_value st c.(k) <> -1 then k
              else find_watch (k + 1)
            in
            let k = find_watch 2 in
            if k >= 0 then begin
              c.(1) <- c.(k);
              c.(k) <- falsified;
              let wl' = lit_index c.(1) in
              st.watch.(wl') <- ci :: st.watch.(wl');
              process rest
            end
            else begin
              st.watch.(wl) <- ci :: st.watch.(wl);
              match lit_value st c.(0) with
              | -1 ->
                  Telemetry.incr m_conflicts;
                  conflict := ci;
                  st.watch.(wl) <- List.rev_append rest st.watch.(wl)
              | 0 ->
                  Telemetry.incr m_propagations;
                  push_assign st c.(0) ci;
                  process rest
              | _ -> process rest
            end
          end
    in
    process pending
  done;
  !conflict

(* --- first-UIP conflict analysis --------------------------------------------- *)

(* Recursive self-subsumption minimization (MiniSat's litRedundant): a
   below-current-level learnt literal q is redundant — implied by the rest
   of the clause — when its variable was propagated by a reason clause
   whose every other literal is level-0, already in the learnt clause
   ([seen] is still set for exactly the learnt variables when this runs),
   or itself recursively redundant.  Redundancy is a property of the
   variable alone (its cone in the fixed implication graph), so verdicts
   are memoized per variable; antecedents sit strictly earlier on the
   trail, so the recursion is well-founded.  Dropping all redundant
   literals simultaneously is sound: each one's derivation bottoms out in
   kept literals and level-0 facts. *)
let minimize_learnt st learnt =
  let memo = Hashtbl.create 16 in
  let rec redundant v =
    match Hashtbl.find_opt memo v with
    | Some r -> r
    | None ->
        let r =
          st.reason.(v) <> no_reason
          && Array.for_all
               (fun u ->
                 let w = abs u in
                 w = v || st.level.(w) = 0 || st.seen.(w) || redundant w)
               st.clauses.(st.reason.(v)).lits
        in
        Hashtbl.replace memo v r;
        r
  in
  List.filter (fun q -> not (redundant (abs q))) learnt

(* Resolve the conflicting clause backwards along the trail until exactly
   one literal of the current decision level remains — the first unique
   implication point.  Returns the asserting learned clause (UIP negation
   first, a highest-remaining-level literal second) and the backjump level
   (the second-highest level in the clause; 0 for a unit).  Every variable
   met on the way gets an EVSIDS bump. *)
let analyze st confl =
  let learnt = ref [] in
  let counter = ref 0 in
  let to_clear = ref [] in
  let p = ref 0 in
  let c = ref confl in
  let idx = ref (st.trail_len - 1) in
  let continue = ref true in
  while !continue do
    let lits = st.clauses.(!c).lits in
    (* [lits.(0)] of a reason clause is the literal it propagated — skip it
       when resolving on that literal (the first round resolves nothing and
       visits the whole conflict clause). *)
    let start = if !p = 0 then 0 else 1 in
    for i = start to Array.length lits - 1 do
      let q = lits.(i) in
      let v = abs q in
      if (not st.seen.(v)) && st.level.(v) > 0 then begin
        st.seen.(v) <- true;
        to_clear := v :: !to_clear;
        bump_var st v;
        if st.level.(v) >= st.dlevel then incr counter
        else learnt := q :: !learnt
      end
    done;
    (* next seen literal walking the trail backwards *)
    while not st.seen.(abs st.trail.(!idx)) do decr idx done;
    let lit = st.trail.(!idx) in
    decr idx;
    st.seen.(abs lit) <- false;
    decr counter;
    if !counter = 0 then begin
      p := lit;
      continue := false
    end
    else begin
      p := lit;
      c := st.reason.(abs lit)
    end
  done;
  (* shrink before the seen flags are cleared — [minimize_learnt] reads
     them to know which variables the clause already contains *)
  let learnt_min = minimize_learnt st !learnt in
  Telemetry.add m_minimized (List.length !learnt - List.length learnt_min);
  List.iter (fun v -> st.seen.(v) <- false) !to_clear;
  (* asserting literal first; swap a maximum-level literal into position 1
     so it can serve as the second watch after the backjump *)
  let lits = Array.of_list (- !p :: learnt_min) in
  let blevel =
    if Array.length lits = 1 then 0
    else begin
      let max_i = ref 1 in
      for i = 2 to Array.length lits - 1 do
        if st.level.(abs lits.(i)) > st.level.(abs lits.(!max_i)) then max_i := i
      done;
      let tmp = lits.(1) in
      lits.(1) <- lits.(!max_i);
      lits.(!max_i) <- tmp;
      st.level.(abs lits.(1))
    end
  in
  (* LBD: distinct decision levels among the clause's literals *)
  let lbd =
    let seen_levels = Hashtbl.create 8 in
    Array.iter (fun l -> Hashtbl.replace seen_levels st.level.(abs l) ()) lits;
    Hashtbl.length seen_levels
  in
  (lits, blevel, lbd)

(* --- learned-clause database reduction ---------------------------------------

   Periodically drop the less useful half of the learned clauses, scored by
   LBD (higher glue = less useful).  Binary clauses, glue clauses
   (LBD <= 2) and clauses currently locked as implication reasons are kept
   forever.  The arena is compacted in place; watch lists are rebuilt and
   trail reasons remapped through the compaction map. *)

let locked st ci =
  let l0 = st.clauses.(ci).lits.(0) in
  lit_value st l0 = 1 && st.reason.(abs l0) = ci

let reduce_db st =
  (* deletion candidates: learned, longer than binary, LBD > 2, not locked *)
  let cands = ref [] in
  for ci = st.n_orig to st.n_clauses - 1 do
    let cl = st.clauses.(ci) in
    if cl.learned && Array.length cl.lits > 2 && cl.lbd > 2 && not (locked st ci)
    then cands := ci :: !cands
  done;
  let cands = Array.of_list !cands in
  (* drop the worse half: highest LBD first, longer clauses first within a
     tie, older (lower id) first beyond that — all deterministic *)
  Array.sort
    (fun a b ->
      let ca = st.clauses.(a) and cb = st.clauses.(b) in
      let c = compare cb.lbd ca.lbd in
      if c <> 0 then c
      else
        let c = compare (Array.length cb.lits) (Array.length ca.lits) in
        if c <> 0 then c else compare a b)
    cands;
  let n_drop = Array.length cands / 2 in
  if n_drop > 0 then begin
    let drop = Hashtbl.create (2 * n_drop) in
    Array.iteri (fun i ci -> if i < n_drop then Hashtbl.replace drop ci ()) cands;
    (* compact the arena, building old-id -> new-id *)
    let remap = Array.make st.n_clauses no_reason in
    let w = ref st.n_orig in
    for ci = 0 to st.n_orig - 1 do
      remap.(ci) <- ci
    done;
    for ci = st.n_orig to st.n_clauses - 1 do
      if not (Hashtbl.mem drop ci) then begin
        st.clauses.(!w) <- st.clauses.(ci);
        remap.(ci) <- !w;
        incr w
      end
    done;
    st.n_clauses <- !w;
    (* remap trail reasons (locked clauses were kept, so every live reason
       survives compaction) *)
    for i = 0 to st.trail_len - 1 do
      let v = abs st.trail.(i) in
      if st.reason.(v) <> no_reason then st.reason.(v) <- remap.(st.reason.(v))
    done;
    (* rebuild the watch lists from scratch *)
    Array.fill st.watch 0 (Array.length st.watch) [];
    for ci = 0 to st.n_clauses - 1 do
      watch_clause st ci
    done;
    Telemetry.add m_learned_deleted n_drop
  end;
  n_drop

(* --- branching ---------------------------------------------------------------- *)

let pick_branch st =
  let rec pop () =
    if st.heap_len = 0 then None
    else
      let v = heap_pop st in
      if st.assign.(v) <> 0 then pop ()
      else
        (* Saved phase first (so a restarted search resumes in familiar
           territory); otherwise the polarity occurring more often. *)
        Some
          (match st.saved.(v) with
          | 1 -> v
          | -1 -> -v
          | _ -> if 2 * st.pos_occ.(v) >= st.occ.(v) then v else -v)
  in
  pop ()

(* --- the CDCL search loop ------------------------------------------------------ *)

let solve_cdcl ~budget ~max_conflicts ~max_decisions ~restart_base ~reduce_base
    ~num_vars units long =
  let clause_of l = { lits = Array.of_list l; learned = false; lbd = 0 } in
  let n_orig = List.length long in
  let arena = Array.of_list (List.map clause_of long) in
  let st =
    {
      num_vars;
      clauses =
        (if n_orig = 0 then Array.make 4 { lits = [||]; learned = false; lbd = 0 }
         else arena);
      n_clauses = n_orig;
      n_orig;
      assign = Array.make (num_vars + 1) 0;
      level = Array.make (num_vars + 1) 0;
      reason = Array.make (num_vars + 1) no_reason;
      trail = Array.make (num_vars + 1) 0;
      trail_len = 0;
      qhead = 0;
      trail_lim = Array.make (num_vars + 2) 0;
      dlevel = 0;
      watch = Array.make ((2 * num_vars) + 2) [];
      activity = Array.make (num_vars + 1) 0.;
      var_inc = 1.0;
      heap = Array.make (num_vars + 1) 0;
      heap_pos = Array.make (num_vars + 1) (-1);
      heap_len = 0;
      pos_occ = Array.make (num_vars + 1) 0;
      occ = Array.make (num_vars + 1) 0;
      saved = Array.make (num_vars + 1) 0;
      seen = Array.make (num_vars + 1) false;
    }
  in
  for ci = 0 to st.n_clauses - 1 do
    watch_clause st ci;
    Array.iter
      (fun l ->
        let v = abs l in
        st.occ.(v) <- st.occ.(v) + 1;
        if l > 0 then st.pos_occ.(v) <- st.pos_occ.(v) + 1)
      st.clauses.(ci).lits
  done;
  (* occurrence counts seed the activities, so the first decisions branch
     on the most-constrained variables *)
  for v = 1 to num_vars do
    st.activity.(v) <- float_of_int st.occ.(v) *. 1e-9;
    heap_insert st v
  done;
  try
    (* Assert top-level unit clauses at level 0. *)
    List.iter
      (fun l ->
        match lit_value st l with
        | -1 -> raise Found_unsat
        | 0 -> push_assign st l no_reason
        | _ -> ())
      units;
    let conflicts = ref 0 and decisions = ref 0 in
    (* Conflict-limited Luby restarts.  Learned clauses, activities and
       saved phases all survive a restart, so the search never repeats a
       refuted subtree; the windows grow without bound, which (with the
       glue/binary clauses kept forever) preserves completeness.
       restart_base <= 0 disables restarts. *)
    let restart_count = ref 0 and window_conflicts = ref 0 in
    let window () =
      if restart_base <= 0 then max_int
      else restart_base * luby (!restart_count + 1)
    in
    let restart_limit = ref (window ()) in
    (* Learned-database reductions: the first after [reduce_base] learned
       clauses, each later cap 50% larger — the live database grows
       logarithmically in the conflict count.  reduce_base <= 0 disables
       deletion. *)
    let reduce_limit = ref (if reduce_base <= 0 then max_int else reduce_base) in
    let live_learned = ref 0 in
    let result = ref None in
    while !result = None do
      let confl = propagate st in
      if confl <> no_reason then begin
        incr conflicts;
        incr window_conflicts;
        if !conflicts > max_conflicts then raise (Guard.Exhausted Guard.Fuel);
        Guard.tick budget;
        if st.dlevel = 0 then raise Found_unsat;
        Guard.probe ~budget "sat.analyze";
        let lits, blevel, lbd =
          Telemetry.with_span "sat.analyze" (fun () -> analyze st confl)
        in
        Telemetry.incr m_learned;
        Telemetry.observe h_lbd (float_of_int lbd);
        Telemetry.add m_backjumps (st.dlevel - blevel - 1);
        cancel_until st blevel;
        if Array.length lits = 1 then push_assign st lits.(0) no_reason
        else begin
          let ci = add_clause st { lits; learned = true; lbd } in
          incr live_learned;
          push_assign st lits.(0) ci
        end;
        decay_activities st;
        if !live_learned >= !reduce_limit then begin
          let dropped = reduce_db st in
          live_learned := !live_learned - dropped;
          reduce_limit := !reduce_limit + (!reduce_limit / 2)
        end;
        if !window_conflicts >= !restart_limit && st.dlevel > 0 then begin
          Telemetry.incr m_restarts;
          incr restart_count;
          window_conflicts := 0;
          restart_limit := window ();
          cancel_until st 0
        end
      end
      else begin
        match pick_branch st with
        | None ->
            let model = Array.make (num_vars + 1) false in
            for v = 1 to num_vars do
              model.(v) <- st.assign.(v) = 1
            done;
            result := Some (Sat model)
        | Some l ->
            Telemetry.incr m_decisions;
            incr decisions;
            if !decisions > max_decisions then raise (Guard.Exhausted Guard.Fuel);
            Guard.tick budget;
            st.dlevel <- st.dlevel + 1;
            st.trail_lim.(st.dlevel) <- st.trail_len;
            push_assign st l no_reason
      end
    done;
    Option.get !result
  with Found_unsat -> Unsat

(* === shared front end ======================================================== *)

let solve_raw ~budget ~max_conflicts ~max_decisions ~restart_base ~reduce_base
    cnf =
  let num_vars = Cnf.num_vars cnf in
  let simplified = List.filter_map simplify_clause (Cnf.clauses cnf) in
  if List.exists (fun c -> c = []) simplified then Unsat
  else
    let units = List.filter_map (function [ l ] -> Some l | _ -> None) simplified in
    let long = List.filter (fun c -> List.length c >= 2) simplified in
    solve_cdcl ~budget ~max_conflicts ~max_decisions ~restart_base ~reduce_base
      ~num_vars units long

let solve ?budget ?(max_conflicts = max_int) ?(max_decisions = max_int)
    ?(restart_base = 64) ?(reduce_base = 2000) cnf =
  let budget = Guard.resolve budget in
  Telemetry.incr m_solves;
  Telemetry.with_span "sat.solve" @@ fun () ->
  let result =
    try
      Guard.probe ~budget "sat.solve";
      solve_raw ~budget ~max_conflicts ~max_decisions ~restart_base ~reduce_base
        cnf
    with Guard.Exhausted r -> Unknown r
  in
  (match result with
  | Sat _ -> Telemetry.incr m_sat
  | Unsat -> Telemetry.incr m_unsat
  | Unknown _ -> Telemetry.incr m_unknown);
  result

let is_sat ?budget cnf =
  match solve ?budget cnf with
  | Sat _ -> true
  | Unsat -> false
  | Unknown r -> raise (Guard.Exhausted r)

(* Exhaustive reference solver for testing (exponential; small inputs only).
   Beyond its capacity it answers Unknown — a typed degradation, matching
   the CDCL solver's contract — instead of raising. *)
let solve_brute cnf =
  let n = Cnf.num_vars cnf in
  if n > 24 then Unknown Guard.Fuel
  else begin
  let assignment = Array.make (n + 1) false in
  let rec go v =
    if v > n then if Cnf.eval assignment cnf then Some (Array.copy assignment) else None
    else begin
      assignment.(v) <- false;
      match go (v + 1) with
      | Some _ as r -> r
      | None ->
          assignment.(v) <- true;
          go (v + 1)
    end
  in
    match go 1 with Some m -> Sat m | None -> Unsat
  end
