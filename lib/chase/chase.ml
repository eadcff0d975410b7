open Conddep_relational
open Conddep_core

(* The extended chase of Section 5.1.

   Chase operations transform database templates:

   - IND(ψ): for a tuple ta of Ra with ta[Xp] = tp[Xp], if no tuple of Rb
     matches ta on the embedded inclusion and carries tp[Yp], add one; its
     unconstrained fields take random variables from the bounded pools (or,
     in the *instantiated* chase, random constants for finite-domain
     attributes).
   - FD(φ): for tuples t1, t2 with t1[X] = t2[X] ≍ tp[X] violating the
     conclusion, identify values by replacing the smaller cell by the
     larger (variables sit below constants), substituting globally; the
     operation is undefined when two distinct constants clash.

   The instantiated chase chase_I additionally bounds every relation by the
   threshold T; exceeding it makes the chase undefined (Section 5.2).  A
   step budget guards against ping-pong between pool re-use and merging.

   The fixpoint follows one *canonical schedule* (see DESIGN.md §10):

   - the next FD operation is the first CFD in compiled order that has a
     violating pair, applied to the lexicographically least such pair
     (tuples ordered by [Template.tuple_compare], pair normalized so the
     smaller tuple comes first);
   - the next IND operation is found by a round-robin cursor over the
     CINDs (resuming after the last applied one — fairness), applied to
     the least triggering tuple without a witness.

   The engine is delta-driven: dirty-tuple worklists mean only tuples
   added or rewritten since they were last checked are re-examined.
   Because the schedule is a function of template *content* only, a naive
   fixpoint that rescans everything at every step (built from [fd_step]
   and [ind_step]) performs the same operation sequence, consumes the
   random stream identically, and returns bit-identical outcomes — the
   differential guarantee the test suite checks. *)

type config = {
  pool_size : int; (* N: maximum size of each var[A] *)
  threshold : int; (* T: maximum tuples per relation in chase_I *)
  max_steps : int; (* safety budget on chase operations *)
}

let () =
  List.iter Guard.register_probe
    [ "chase.run"; "chase.fd_fixpoint"; "chase.delta"; "chase.delta.drain" ]

let m_runs = Telemetry.counter "chase.runs" ~doc:"full chase invocations"
let m_fd_steps = Telemetry.counter "chase.fd_steps" ~doc:"FD(phi) applications (value identifications)"
let m_ind_steps = Telemetry.counter "chase.ind_steps" ~doc:"IND(psi) applications (witness tuples added)"
let m_fd_undefined = Telemetry.counter "chase.fd_undefined" ~doc:"FD(phi) constant clashes (chase undefined)"
let m_threshold_hits = Telemetry.counter "chase.threshold_hits" ~doc:"IND(psi) refusals: relation at the bound T"
let m_budget_exceeded = Telemetry.counter "chase.budget_exceeded" ~doc:"chase loops stopped by the step budget"
let m_drained = Telemetry.counter "chase.delta.drained" ~doc:"dirty worklist entries drained (tuples re-examined)"
let m_skipped = Telemetry.counter "chase.delta.skipped" ~doc:"tuple re-checks skipped versus a full rescan"
let m_cfds_compiled = Telemetry.counter "chase.cfds_compiled" ~doc:"CFDs compiled to positions (eagerly, or at their first FD-pick visit)"

let default_config = { pool_size = 2; threshold = 2000; max_steps = 20_000 }

type outcome =
  | Terminal of Template.t
  | Undefined of string
  | Exhausted of Guard.reason

(* --- compiled constraints (attribute names resolved to positions) --- *)

type compiled_cind = {
  i_uid : int; (* process-unique, keys the witness index *)
  i_name : string;
  i_lhs : string;
  i_rhs : string;
  i_xp : (int * Value.t) list;
  i_copy : (int * int) list;
  i_yp : (int * Value.t) list;
  i_rest : (int * string * Domain.t) list; (* unconstrained RHS fields *)
}

(* Compilation can happen on any domain (pool tasks compile
   independently), so the uid source is atomic. *)
let cind_uids = Atomic.make 0

type compiled_cfd = {
  f_name : string;
  f_rel : string;
  f_tx : (int * Pattern.cell) list;
  f_a : int;
  f_attr : string; (* the attribute at [f_a] *)
  f_ta : Pattern.cell;
}

let compile_cind schema (nf : Cind.nf) =
  let r1 = Db_schema.find schema nf.Cind.nf_lhs in
  let r2 = Db_schema.find schema nf.nf_rhs in
  let copy =
    List.map2 (fun a b -> (Schema.position r1 a, Schema.position r2 b)) nf.nf_x nf.nf_y
  in
  let yp = List.map (fun (b, v) -> (Schema.position r2 b, v)) nf.nf_yp in
  let determined = Array.make (Schema.arity r2) false in
  List.iter (fun (_, ypos) -> determined.(ypos) <- true) copy;
  List.iter (fun (pos, _) -> determined.(pos) <- true) yp;
  let rest =
    List.filteri (fun pos _ -> not determined.(pos)) (Schema.attrs r2)
    |> List.map (fun attr ->
           (Schema.position r2 (Attribute.name attr), Attribute.name attr, Attribute.domain attr))
  in
  {
    i_uid = Atomic.fetch_and_add cind_uids 1;
    i_name = nf.nf_name;
    i_lhs = nf.nf_lhs;
    i_rhs = nf.nf_rhs;
    i_xp = List.map (fun (a, v) -> (Schema.position r1 a, v)) nf.nf_xp;
    i_copy = copy;
    i_yp = yp;
    i_rest = rest;
  }

(* [position attr] resolves an attribute of the CFD's relation. *)
let compile_cfd_with ~position (nf : Cfd.nf) =
  Telemetry.incr m_cfds_compiled;
  {
    f_name = nf.Cfd.nf_name;
    f_rel = nf.nf_rel;
    f_tx = List.map2 (fun a c -> (position a, c)) nf.nf_x nf.nf_tx;
    f_a = position nf.nf_a;
    f_attr = nf.nf_a;
    f_ta = nf.nf_ta;
  }

let compile_cfd schema (nf : Cfd.nf) =
  compile_cfd_with ~position:(Schema.position (Db_schema.find schema nf.Cfd.nf_rel)) nf

type compiled = { cinds : compiled_cind list; cfds : compiled_cfd list }

let compile schema (sigma : Sigma.nf) =
  {
    cinds = List.map (compile_cind schema) sigma.Sigma.ncinds;
    cfds = List.map (compile_cfd schema) sigma.ncfds;
  }

(* --- CFD sets ------------------------------------------------------------------

   The CFDs an FD fixpoint chases with, in compiled order.  A lazy set
   holds normal forms and compiles each CFD the first time an FD pick
   visits it: a fixpoint that dies on a clash among the first CFDs of a
   wide relation never pays for the rest.  Its positions come from one
   attribute -> position table per relation, built at the relation's
   first compile.  A lazy set mutates its slots, so it belongs to one
   domain; a set built from compiled CFDs is never written and may be
   shared. *)

type cfd_slot = Compiled of compiled_cfd | Pending of Cfd.nf

type cfd_set = {
  s_slots : cfd_slot array;
  s_rels : string list; (* constrained relations, first-appearance order *)
  s_schema : Db_schema.t option; (* [Some] for a lazy set *)
  s_positions : (string, (string, int) Hashtbl.t) Hashtbl.t;
}

let slot_rel = function Compiled c -> c.f_rel | Pending nf -> nf.Cfd.nf_rel

let make_set schema slots =
  let rels =
    Array.fold_left
      (fun acc slot ->
        let rel = slot_rel slot in
        if List.exists (String.equal rel) acc then acc else rel :: acc)
      [] slots
  in
  { s_slots = slots; s_rels = List.rev rels; s_schema = schema; s_positions = Hashtbl.create 4 }

let cfd_set cfds = make_set None (Array.of_list (List.map (fun c -> Compiled c) cfds))

let lazy_cfd_set schema nfs =
  make_set (Some schema) (Array.of_list (List.map (fun nf -> Pending nf) nfs))

let set_position set schema rel =
  let tbl =
    match Hashtbl.find_opt set.s_positions rel with
    | Some tbl -> tbl
    | None ->
        let r = Db_schema.find schema rel in
        let tbl = Hashtbl.create (Schema.arity r) in
        List.iteri (fun i a -> Hashtbl.replace tbl (Attribute.name a) i) (Schema.attrs r);
        Hashtbl.add set.s_positions rel tbl;
        tbl
  in
  fun attr ->
    match Hashtbl.find_opt tbl attr with
    | Some i -> i
    | None ->
        invalid_arg (Printf.sprintf "Schema.position: no attribute %S in %s" attr rel)

(* The [i]th CFD, compiled on first use. *)
let set_cfd set i =
  match set.s_slots.(i) with
  | Compiled c -> c
  | Pending nf ->
      let schema = Option.get set.s_schema in
      let c = compile_cfd_with ~position:(set_position set schema nf.Cfd.nf_rel) nf in
      set.s_slots.(i) <- Compiled c;
      c

(* --- dirty-tuple worklists ---------------------------------------------------

   A worklist maps a relation name to the tuples that must be re-examined
   against the dependencies over that relation.  Entries may be stale
   (rewritten away by a substitution since they were enqueued — the
   rewritten version is enqueued separately) or duplicated; draining
   filters by membership and selection is by canonical minimum, so neither
   affects the schedule. *)

type worklist = (string, Template.tuple list ref) Hashtbl.t

let wl_create () : worklist = Hashtbl.create 8

let wl_push (wl : worklist) rel t =
  match Hashtbl.find_opt wl rel with
  | Some r -> r := t :: !r
  | None -> Hashtbl.add wl rel (ref [ t ])

let wl_take (wl : worklist) rel =
  match Hashtbl.find_opt wl rel with Some r -> !r | None -> []

(* --- FD(φ) --- *)

type fd_result =
  | Fd_changed of Template.t
  | Fd_unchanged
  | Fd_undefined of string

(* What one FD(φ) application to a violating pair would do. *)
type fd_action =
  | Act_clash of string (* chase undefined: distinct constants *)
  | Act_subst of (Template.var * Template.cell) list (* nonempty *)

(* Evaluate the pair (t1, t2) — which may be a self-pair (t, t): a single
   tuple matching tp[X] can clash with a constant conclusion pattern all
   by itself.  Returns [None] when the pair does not violate [cfd]. *)
let fd_violation cfd (t1 : Template.tuple) (t2 : Template.tuple) =
  let lhs_agree_and_match =
    List.for_all
      (fun (pos, cell) ->
        Template.cell_equal t1.(pos) t2.(pos)
        && Template.cell_matches_pattern t1.(pos) cell)
      cfd.f_tx
  in
  if not lhs_agree_and_match then None
  else
    let a1 = t1.(cfd.f_a) and a2 = t2.(cfd.f_a) in
    match cfd.f_ta with
    | Pattern.Wildcard -> (
        if Template.cell_equal a1 a2 then None
        else
          match a1, a2 with
          | Template.C _, Template.C _ ->
              Some
                (Act_clash
                   (Fmt.str "FD(%s): distinct constants %a, %a" cfd.f_name
                      Template.pp_cell a1 Template.pp_cell a2))
          | _ ->
              (* replace the smaller cell by the larger one *)
              let small, large =
                if Template.cell_compare a1 a2 < 0 then (a1, a2) else (a2, a1)
              in
              let var =
                match small with Template.V v -> v | Template.C _ -> assert false
              in
              Some (Act_subst [ (var, large) ]))
    | Pattern.Const a ->
        let conflict c =
          match c with
          | Template.C v -> not (Value.equal v a)
          | Template.V _ -> false
        in
        if conflict a1 || conflict a2 then
          Some
            (Act_clash
               (Fmt.str "FD(%s): constant clashes with pattern %a" cfd.f_name
                  Value.pp a))
        else
          let substs =
            match a1, a2 with
            | Template.V v1, Template.V v2 when Template.var_compare v1 v2 = 0 ->
                [ (v1, Template.C a) ]
            | Template.V v1, Template.V v2 -> [ (v1, Template.C a); (v2, Template.C a) ]
            | Template.V v, Template.C _ | Template.C _, Template.V v ->
                [ (v, Template.C a) ]
            | Template.C _, Template.C _ -> []
          in
          if substs = [] then None else Some (Act_subst substs)

(* Canonical pair selection: fold violating pairs keeping the least
   normalized pair (u <= v) under the lexicographic tuple order.  The
   violation itself is only evaluated when the pair key improves on the
   current best — the common case is a cheap two-comparison skip. *)
let fd_consider cfd best t1 t2 =
  let u, v =
    if Template.tuple_compare t1 t2 <= 0 then (t1, t2) else (t2, t1)
  in
  let better =
    match best with
    | None -> true
    | Some (bu, bv, _) -> (
        match Template.tuple_compare u bu with
        | 0 -> Template.tuple_compare v bv < 0
        | c -> c < 0)
  in
  if not better then best
  else match fd_violation cfd u v with None -> best | Some act -> Some (u, v, act)

(* The least violating pair of [cfd] among (pending × all) pairs, self-pairs
   included. *)
let fd_least cfd pending all =
  List.fold_left
    (fun best p -> List.fold_left (fun best t -> fd_consider cfd best p t) best all)
    None pending

(* First CFD (compiled order) with a violating pair; least pair — searched
   over (dirty × relation) pairs only.  Invariant: every
   violating pair contains at least one dirty tuple — initially all tuples
   are dirty, a pair of clean tuples was examined violation-free and both
   its tuples are unchanged since (substitutions enqueue the rewritten
   versions), and worklists are only cleared when a full saturation pass
   found no violation at all.  Neither changes during a pick, so each
   relation's view (live worklist entries, their count, its tuples, the
   tuples skipped) is built once, at the first CFD visited on it; the
   counters still count one re-examination per CFD visit. *)
let fd_pick_delta set db (dirty : worklist) =
  let views = Hashtbl.create 8 in
  let view rel =
    match Hashtbl.find_opt views rel with
    | Some v -> v
    | None ->
        let v =
          match wl_take dirty rel with
          | [] -> None
          | pending ->
              let live = List.filter (Template.mem db rel) pending in
              let n = List.length live in
              Some (live, n, Template.tuples db rel, max 0 (Template.cardinal db rel - n))
        in
        Hashtbl.add views rel v;
        v
  in
  let slots = set.s_slots in
  let rec go i =
    if i >= Array.length slots then None
    else
      match view (slot_rel slots.(i)) with
      | None -> go (i + 1)
      | Some (live, n, all, skipped) -> (
          Telemetry.add m_drained n;
          Telemetry.add m_skipped skipped;
          match fd_least (set_cfd set i) live all with
          | Some (_, _, act) -> Some act
          | None -> go (i + 1))
  in
  go 0

(* One FD saturation pass.  [max_steps] is local fuel (fresh per pass,
   like the old per-call [fd_fixpoint] bound); [on_delta] observes every
   substitution's tuple-level change set, which the caller feeds back into
   its worklists and the witness index.  On a violation-free pass the FD
   worklists are cleared: together with the invariant above this certifies
   there is no violating pair at all. *)
let fd_saturate ~budget ~max_steps ~on_delta set (dirty : worklist) db =
  let fuel = Guard.make ~fuel:max_steps () in
  let rec go db =
    match fd_pick_delta set db dirty with
    | None ->
        Hashtbl.reset dirty;
        Ok db
    | Some (Act_clash why) ->
        Telemetry.incr m_fd_undefined;
        Error why
    | Some (Act_subst bindings) ->
        Telemetry.incr m_fd_steps;
        Guard.tick fuel;
        Guard.tick budget;
        let db' =
          List.fold_left
            (fun db (var, cell) ->
              let db', d = Template.subst_track db var cell in
              on_delta ~before:db ~after:db' d;
              db')
            db bindings
        in
        go db'
  in
  go db

(* One FD(φ) application (canonical least violating pair, found by a full
   rescan) — kept as a building block for tests and callers stepping
   manually. *)
let fd_step cfd db =
  let all = Template.tuples db cfd.f_rel in
  match fd_least cfd all all with
  | None -> Fd_unchanged
  | Some (_, _, Act_clash why) -> Fd_undefined why
  | Some (_, _, Act_subst bindings) ->
      Fd_changed
        (List.fold_left (fun db (var, cell) -> Template.subst db var cell) db bindings)

(* Chase with CFDs only, to fixpoint.  The step bound is local fuel: its
   exhaustion means this particular fixpoint attempt gave up, which callers
   may absorb (a failed heuristic attempt); shared-budget exhaustion also
   surfaces as [Exhausted] but with the shared budget marked spent, which
   callers must propagate (Guard.recoverable makes the distinction).
   Without [seed] every tuple of a constrained relation starts dirty; a
   caller that knows [db] minus the [seed] tuples is FD-saturated passes
   only those, which keeps the worklist invariant and so the schedule. *)
let fd_fixpoint ?budget ?(max_steps = 10_000) ?seed set db =
  let budget = Guard.resolve budget in
  let dirty = wl_create () in
  let on_delta ~before:_ ~after:_ (d : Template.delta) =
    List.iter (fun (rel, t) -> wl_push dirty rel t) d.Template.d_added
  in
  (match seed with
  | Some tuples -> List.iter (fun (rel, t) -> wl_push dirty rel t) tuples
  | None ->
      List.iter
        (fun rel -> List.iter (wl_push dirty rel) (Template.tuples db rel))
        set.s_rels);
  try
    Guard.probe ~budget "chase.fd_fixpoint";
    match fd_saturate ~budget ~max_steps ~on_delta set dirty db with
    | Ok db -> Terminal db
    | Error why -> Undefined why
  with Guard.Exhausted r ->
    Telemetry.incr m_budget_exceeded;
    Exhausted r

(* --- IND(ψ) --- *)

let triggers cind (ta : Template.tuple) =
  List.for_all
    (fun (pos, v) -> Template.cell_equal ta.(pos) (Template.C v))
    cind.i_xp

let has_witness cind db (ta : Template.tuple) =
  List.exists
    (fun (tb : Template.tuple) ->
      List.for_all (fun (xpos, ypos) -> Template.cell_equal tb.(ypos) ta.(xpos)) cind.i_copy
      && List.for_all
           (fun (pos, v) -> Template.cell_equal tb.(pos) (Template.C v))
           cind.i_yp)
    (Template.tuples db cind.i_rhs)

(* --- witness index ---

   [has_witness] above scans the whole RHS relation once per LHS tuple per
   IND step, which dominates chase time as templates grow.  The index
   replaces the scan by a hash lookup: each RHS tuple is keyed by its
   projection onto the copied positions and the tp[Yp] positions, so a
   witness for [ta] exists iff the key built from ta[Xq] and tp[Yp] is
   present.  Cells are encoded as integers — constants by their interned
   value id ([Interner.id]), variables by a small per-index counter — so
   key comparison never traverses values.

   Staleness is detected by physical identity of the RHS relation's tuple
   list: templates are persistent and share untouched relation stores, so
   [ix_src != Template.tuples db rel] exactly means *that relation*
   changed since the last refresh.  A stale index is rebuilt in one O(|R|)
   pass; the IND cursor avoids even that by maintaining the entries
   incrementally (multiset semantics: two RHS tuples may share a key, so
   inserts [Hashtbl.add] and deletions [Hashtbl.remove] one binding). *)

let m_index_rebuilds =
  Telemetry.counter "chase.index_rebuilds" ~doc:"witness-index full rebuilds (RHS relation changed)"

let m_index_maint =
  Telemetry.counter "chase.index_maintenance"
    ~doc:"incremental witness-index key updates (adds + removes)"

type cind_index = {
  mutable ix_src : Template.tuple list; (* RHS tuple list the entries reflect *)
  ix_tbl : (int list, unit) Hashtbl.t;
  ix_vars : (Template.var, int) Hashtbl.t; (* local variable encoder *)
  mutable ix_nvars : int;
}

type witness_index = (int, cind_index) Hashtbl.t

let witness_index () : witness_index = Hashtbl.create 16

let encode_cell ix = function
  | Template.C v -> 2 * Interner.id v
  | Template.V var -> (
      match Hashtbl.find_opt ix.ix_vars var with
      | Some id -> (2 * id) + 1
      | None ->
          let id = ix.ix_nvars in
          ix.ix_nvars <- id + 1;
          Hashtbl.add ix.ix_vars var id;
          (2 * id) + 1)

(* Key of an RHS tuple: its cells at the copied positions, then at the
   tp[Yp] positions.  A witness must carry the constant at each Yp
   position, so a variable there encodes differently and (correctly)
   never matches the probe. *)
let witness_key ix cind (tb : Template.tuple) =
  List.map (fun (_, ypos) -> encode_cell ix tb.(ypos)) cind.i_copy
  @ List.map (fun (pos, _) -> encode_cell ix tb.(pos)) cind.i_yp

(* Probe for an LHS tuple: ta's cells at the source positions, then the
   tp[Yp] constants themselves. *)
let probe_key ix cind (ta : Template.tuple) =
  List.map (fun (xpos, _) -> encode_cell ix ta.(xpos)) cind.i_copy
  @ List.map (fun (_, v) -> encode_cell ix (Template.C v)) cind.i_yp

let cind_index_for (wix : witness_index) cind db =
  let ix =
    match Hashtbl.find_opt wix cind.i_uid with
    | Some ix -> ix
    | None ->
        let ix =
          { ix_src = []; ix_tbl = Hashtbl.create 64; ix_vars = Hashtbl.create 16; ix_nvars = 0 }
        in
        Hashtbl.replace wix cind.i_uid ix;
        ix
  in
  let src = Template.tuples db cind.i_rhs in
  if ix.ix_src != src then begin
    Telemetry.incr m_index_rebuilds;
    Hashtbl.reset ix.ix_tbl;
    List.iter (fun tb -> Hashtbl.add ix.ix_tbl (witness_key ix cind tb) ()) src;
    ix.ix_src <- src
  end;
  ix

(* Incremental maintenance: apply one insert / one substitution delta to
   every *materialized* index whose RHS relation was rewritten and whose
   entries were fresh w.r.t. the pre-change template.  Anything else is
   left stale and lazily rebuilt on next use — never corrupted. *)
let index_note_insert (wix : witness_index) cinds ~before ~after rel tb =
  List.iter
    (fun cind ->
      if String.equal cind.i_rhs rel then
        match Hashtbl.find_opt wix cind.i_uid with
        | None -> ()
        | Some ix ->
            if ix.ix_src == Template.tuples before rel then begin
              Hashtbl.add ix.ix_tbl (witness_key ix cind tb) ();
              ix.ix_src <- Template.tuples after rel;
              Telemetry.incr m_index_maint
            end)
    cinds

let index_note_subst (wix : witness_index) cinds ~before ~after (d : Template.delta) =
  if d.Template.d_removed <> [] then
    List.iter
      (fun cind ->
        match Hashtbl.find_opt wix cind.i_uid with
        | None -> ()
        | Some ix ->
            let rel = cind.i_rhs in
            let src_before = Template.tuples before rel in
            let src_after = Template.tuples after rel in
            if src_before != src_after && ix.ix_src == src_before then begin
              List.iter
                (fun (r, t) ->
                  if String.equal r rel then begin
                    Hashtbl.remove ix.ix_tbl (witness_key ix cind t);
                    Telemetry.incr m_index_maint
                  end)
                d.Template.d_removed;
              List.iter
                (fun (r, t) ->
                  if String.equal r rel then begin
                    Hashtbl.add ix.ix_tbl (witness_key ix cind t) ();
                    Telemetry.incr m_index_maint
                  end)
                d.Template.d_added;
              ix.ix_src <- src_after
            end)
      cinds

(* Build the witness tuple IND(ψ) inserts for [ta].  In instantiated mode,
   unconstrained finite-domain fields take random constants instead of pool
   variables (Section 5.2, simplification (a)). *)
let witness_tuple ~instantiated pool rng schema cind (ta : Template.tuple) =
  let r2 = Db_schema.find schema cind.i_rhs in
  let tb = Array.make (Schema.arity r2) (Template.C (Value.Int 0)) in
  List.iter (fun (xpos, ypos) -> tb.(ypos) <- ta.(xpos)) cind.i_copy;
  List.iter (fun (pos, v) -> tb.(pos) <- Template.C v) cind.i_yp;
  List.iter
    (fun (pos, attr, dom) ->
      match Domain.values dom with
      | Some vs when instantiated -> tb.(pos) <- Template.C (Rng.pick rng vs)
      | _ -> tb.(pos) <- Pool.pick pool rng ~rel:cind.i_rhs ~attr)
    cind.i_rest;
  tb

type ind_result =
  | Ind_changed of Template.t
  | Ind_unchanged
  | Ind_overflow of string

(* Canonical IND selection: the least (by tuple order) triggering tuple
   without a witness among [candidates].  The order comparison runs before
   the (costlier) trigger/witness evaluation, so dominated candidates are
   skipped cheaply. *)
let ind_min_firing cind ~witnessed candidates =
  List.fold_left
    (fun best ta ->
      match best with
      | Some b when Template.tuple_compare b ta <= 0 -> best
      | _ -> if triggers cind ta && not (witnessed ta) then Some ta else best)
    None candidates

(* One IND(ψ) application to the least triggering tuple without witness,
   found by a full rescan (witness checks scan the RHS relation).  The
   relation-size threshold T is enforced unconditionally — Section 5.1
   frames the whole extension as a chase over bounded-size tables. *)
let ind_step ~instantiated ~threshold pool rng schema cind db =
  let witnessed = has_witness cind db in
  match ind_min_firing cind ~witnessed (Template.tuples db cind.i_lhs) with
  | None -> Ind_unchanged
  | Some ta ->
      if Template.cardinal db cind.i_rhs >= threshold then begin
        Telemetry.incr m_threshold_hits;
        Ind_overflow
          (Printf.sprintf "IND(%s): relation %s exceeds threshold T" cind.i_name
             cind.i_rhs)
      end
      else begin
        Telemetry.incr m_ind_steps;
        let tb = witness_tuple ~instantiated pool rng schema cind ta in
        Ind_changed (Template.add db cind.i_rhs tb)
      end

(* --- round-robin IND cursor --------------------------------------------------

   Replaces the old head-restart [try_cinds] loop in both [run] and
   RandomChecking's interleaved chase: the scan for the next IND operation
   resumes after the last applied CIND (wrapping), so every CIND is
   visited between two applications of any one of them — fairness.

   The cursor keeps one pending worklist per CIND, holding exactly the
   tuples that could newly fire it: seeded with the LHS relation, extended
   by inserts into that relation (via [note_*]), shrunk when a full
   evaluation finds a tuple non-firing.
   Non-firing is stable — inserts only ever *add* witnesses, and a
   substitution re-enqueues every rewritten tuple while a witness for an
   untouched tuple keeps its key (equal cells stay equal under uniform
   substitution, and tp[Yp] positions hold constants) — so clean tuples
   never need re-examination.  If the template changes without
   notification (physical identity mismatch), the worklists are reseeded
   from scratch, which costs exactly one full scan.  Witness checks go
   through a witness index the cursor owns. *)

module Ind_cursor = struct
  type step_result =
    | Step_applied of { db : Template.t; rel : string; tuple : Template.tuple }
    | Step_none
    | Step_overflow of string

  type t = {
    c_cinds : compiled_cind array;
    c_cind_list : compiled_cind list;
    c_by_lhs : (int, int list) Hashtbl.t; (* Interner.symbol lhs -> indices *)
    c_index : witness_index;
    c_pool : Pool.t;
    c_schema : Db_schema.t;
    c_instantiated : bool;
    c_threshold : int;
    mutable c_pos : int;
    mutable c_known : Template.t option; (* template the worklists reflect *)
    c_pending : Template.tuple list ref array;
  }

  let create ~instantiated ~threshold pool schema cinds =
    let arr = Array.of_list cinds in
    let by_lhs = Hashtbl.create 16 in
    Array.iteri
      (fun i c ->
        let key = Interner.symbol c.i_lhs in
        let prev = Option.value ~default:[] (Hashtbl.find_opt by_lhs key) in
        Hashtbl.replace by_lhs key (i :: prev))
      arr;
    {
      c_cinds = arr;
      c_cind_list = cinds;
      c_by_lhs = by_lhs;
      c_index = witness_index ();
      c_pool = pool;
      c_schema = schema;
      c_instantiated = instantiated;
      c_threshold = threshold;
      c_pos = 0;
      c_known = None;
      c_pending = Array.map (fun _ -> ref []) arr;
    }

  let reseed t db =
    Array.iteri
      (fun i cind -> t.c_pending.(i) := Template.tuples db cind.i_lhs)
      t.c_cinds;
    t.c_known <- Some db

  (* An insert of [tuple] into [rel] produced [after]: tuples of other
     relations cannot newly fire (triggering looks at the LHS relation
     only), so only the worklists of CINDs with that LHS grow. *)
  let note_insert t ~before ~after rel tuple =
    index_note_insert t.c_index t.c_cind_list ~before ~after rel tuple;
    match t.c_known with
    | Some k when k == before ->
        (match Hashtbl.find_opt t.c_by_lhs (Interner.symbol rel) with
        | Some idxs ->
            List.iter (fun i -> t.c_pending.(i) := tuple :: !(t.c_pending.(i))) idxs
        | None -> ());
        t.c_known <- Some after
    | _ -> t.c_known <- None (* unexpected history: reseed on next step *)

  (* A substitution happened: every rewritten tuple must be re-examined
     (the old versions go stale in the worklists and are filtered out on
     drain); the witness index is maintained from the exact delta. *)
  let note_subst t ~before ~after (d : Template.delta) =
    if d.Template.d_removed <> [] then begin
      index_note_subst t.c_index t.c_cind_list ~before ~after d;
      match t.c_known with
      | Some k when k == before ->
          List.iter
            (fun (rel, tuple) ->
              match Hashtbl.find_opt t.c_by_lhs (Interner.symbol rel) with
              | Some idxs ->
                  List.iter
                    (fun i -> t.c_pending.(i) := tuple :: !(t.c_pending.(i)))
                    idxs
              | None -> ())
            d.Template.d_added;
          t.c_known <- Some after
      | _ -> t.c_known <- None
    end

  let step ?budget t ~rng db =
    let n = Array.length t.c_cinds in
    if n = 0 then Step_none
    else begin
      (match t.c_known with
      | Some k when k == db -> ()
      | _ ->
          (* cold entry (or the caller rewrote the template without
             telling us): fault-probed, then one full reseed *)
          Guard.probe ?budget "chase.delta.drain";
          reseed t db);
      let budget = Guard.resolve budget in
      let rec scan k =
        if k >= n then Step_none
        else begin
          Guard.check budget;
          let j = (t.c_pos + k) mod n in
          let cind = t.c_cinds.(j) in
          let ix = cind_index_for t.c_index cind db in
          let witnessed ta = Hashtbl.mem ix.ix_tbl (probe_key ix cind ta) in
          let live = List.filter (Template.mem db cind.i_lhs) !(t.c_pending.(j)) in
          Telemetry.add m_drained (List.length live);
          Telemetry.add m_skipped
            (max 0 (Template.cardinal db cind.i_lhs - List.length live));
          match ind_min_firing cind ~witnessed live with
          | None ->
              (* every candidate evaluated non-firing: clean until the
                 next insert or substitution re-enqueues something *)
              t.c_pending.(j) := [];
              scan (k + 1)
          | Some ta ->
              if Template.cardinal db cind.i_rhs >= t.c_threshold then begin
                Telemetry.incr m_threshold_hits;
                Step_overflow
                  (Printf.sprintf "IND(%s): relation %s exceeds threshold T"
                     cind.i_name cind.i_rhs)
              end
              else begin
                Telemetry.incr m_ind_steps;
                let tb =
                  witness_tuple ~instantiated:t.c_instantiated t.c_pool rng
                    t.c_schema cind ta
                in
                let db' = Template.add db cind.i_rhs tb in
                t.c_pos <- (j + 1) mod n;
                (* candidates other than ta stay pending: the ones after
                   the minimum may not have been fully evaluated *)
                t.c_pending.(j) := List.filter (fun c -> c != ta) live;
                note_insert t ~before:db ~after:db' cind.i_rhs tb;
                Step_applied { db = db'; rel = cind.i_rhs; tuple = tb }
              end
        end
      in
      scan 0
    end
end

(* --- full chase loops --- *)

(* The terminal chase: apply FD and IND operations until fixpoint.  With
   [instantiated] set this is chase_I of Section 5.2 (bounded relations,
   constants for finite-domain fields). *)
let run ?(instantiated = false) ?budget ~config ~rng schema compiled db =
  Telemetry.incr m_runs;
  let budget = Guard.resolve budget in
  Telemetry.with_span "chase.run" @@ fun () ->
  let pool = Pool.make ~n:config.pool_size in
  let cursor =
    Ind_cursor.create ~instantiated ~threshold:config.threshold pool schema
      compiled.cinds
  in
  let cfds = cfd_set compiled.cfds in
  (* Relations constrained by some CFD: the only ones whose tuples belong
     on the FD worklists. *)
  let cfd_rels = Hashtbl.create 8 in
  List.iter (fun rel -> Hashtbl.replace cfd_rels rel ()) cfds.s_rels;
  let fd_dirty = wl_create () in
  Hashtbl.iter
    (fun rel () -> List.iter (wl_push fd_dirty rel) (Template.tuples db rel))
    cfd_rels;
  (* Every substitution feeds the FD worklists (rewritten tuples can form
     new violating pairs) and the cursor (rewritten tuples can newly
     trigger a CIND; the witness index is maintained from the delta). *)
  let on_delta ~before ~after (d : Template.delta) =
    List.iter
      (fun (rel, t) -> if Hashtbl.mem cfd_rels rel then wl_push fd_dirty rel t)
      d.Template.d_added;
    Ind_cursor.note_subst cursor ~before ~after d
  in
  (* config.max_steps is local fuel for the IND loop, replacing the bare
     step counter; each iteration also polls the shared budget's clock
     (chase steps are heavy, so a lazy poll would overshoot deadlines). *)
  let fuel = Guard.make ~fuel:config.max_steps () in
  let rec go db =
    Guard.check budget;
    match
      fd_saturate ~budget ~max_steps:config.max_steps ~on_delta cfds fd_dirty db
    with
    | Error why -> Undefined why
    | Ok db -> (
        match Ind_cursor.step ~budget cursor ~rng db with
        | Ind_cursor.Step_none -> Terminal db
        | Ind_cursor.Step_overflow why -> Undefined why
        | Ind_cursor.Step_applied { db = db'; rel; tuple } ->
            Guard.tick fuel;
            if Hashtbl.mem cfd_rels rel then wl_push fd_dirty rel tuple;
            go db')
  in
  try
    Guard.probe ~budget "chase.run";
    Guard.probe ~budget "chase.delta";
    go db
  with Guard.Exhausted r ->
    Telemetry.incr m_budget_exceeded;
    Exhausted r

(* Apply a random valuation ρ to every remaining finite-domain variable
   (the paper's ρ(D)).  When [avoid] lists the constants of Σ, values
   outside it are preferred: such a value matches no pattern and so behaves
   like a fresh value of an infinite domain (cf. Example 3.2's remark) —
   frozen choices then cannot trigger constraints later.  Domains fully
   covered by constants fall back to uniform choice, which is where the
   K_CFD accuracy trade-off of Fig 10(b) lives. *)
(* Constants forced as CFD conclusions, per (relation, attribute) — the
   values later FD steps may demand of a column. *)
let conclusion_constants set =
  Array.fold_right
    (fun slot acc ->
      let rel, attr, ta =
        match slot with
        | Compiled c -> (c.f_rel, c.f_attr, c.f_ta)
        | Pending nf -> (nf.Cfd.nf_rel, nf.nf_a, nf.nf_ta)
      in
      match ta with
      | Pattern.Const v -> ((rel, attr), v) :: acc
      | Pattern.Wildcard -> acc)
    set.s_slots []

let instantiate_finite_vars ?(prefer = fun _ _ -> []) ?(avoid = []) rng db =
  let schema = Template.schema db in
  let avoid_set = Value.Set.of_list avoid in
  List.fold_left
    (fun db v ->
      let r = Db_schema.find schema v.Template.vrel in
      match Domain.values (Schema.domain_of r v.vattr) with
      | Some values ->
          (* Mix value-selection policies across attempts:
             - copy a constant already present in the column — tuples
               agreeing on an FD's LHS then agree on its RHS for free;
             - pick a value some CFD conclusion will demand of this column;
             - otherwise prefer a pattern-free value (matches nothing, like
               a fresh value of an infinite domain). *)
          let dom_set = Value.Set.of_list values in
          let in_dom = List.filter (fun x -> Value.Set.mem x dom_set) in
          let column =
            in_dom (Template.column_constants db ~rel:v.vrel ~attr:v.vattr)
          in
          let demanded = in_dom (prefer v.Template.vrel v.vattr) in
          let pattern_free =
            List.filter (fun x -> not (Value.Set.mem x avoid_set)) values
          in
          let pool =
            if column <> [] && Rng.int rng 10 < 6 then column
            else if demanded <> [] && Rng.int rng 10 < 6 then demanded
            else if pattern_free <> [] then pattern_free
            else values
          in
          Template.subst db v (Template.C (Rng.pick rng pool))
      | None -> db)
    db (Template.finite_variables db)

(* A fresh single-tuple template over [rel]: one variable per attribute
   (line 1 of RandomChecking, Fig 5). *)
let seed_tuple schema ~rel =
  let r = Db_schema.find schema rel in
  let tuple =
    Array.of_list
      (List.map
         (fun attr ->
           Template.V { Template.vrel = rel; vattr = Attribute.name attr; vidx = 0 })
         (Schema.attrs r))
  in
  Template.add (Template.empty schema) rel tuple
