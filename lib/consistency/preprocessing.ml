open Conddep_relational
open Conddep_core
open Conddep_chase

(* Algorithm preProcessing (Fig 7): reduce the dependency graph by local
   CFD-consistency analysis.

   For each vertex R in topological order (targets first): if CFD(R) is
   consistent and its witness tuple τ(R) triggers no CIND, Σ is consistent
   — the database { τ(R) } with all other relations empty is a witness.
   If CFD(R) is inconsistent, R must be empty in every model, so R is
   deleted after the non-triggering CFDs CIND(Rj, R)⊥ are added to every
   predecessor Rj, denying the tuples that would require a partner in R;
   affected predecessors are re-queued.  Finally indegree-0 vertices are
   pruned (they may be empty without impact).  An empty graph means every
   relation is forced empty — Σ is inconsistent. *)

type result =
  | Consistent of Database.t
  | Inconsistent
  | Unknown of (string list * Sigma.nf) list
      (* weakly connected components with their (extended) constraints *)

let () = Guard.register_probe "checking.preprocess"

let m_runs = Telemetry.counter "checking.preprocess.runs" ~doc:"preProcessing invocations"
let m_sccs = Telemetry.counter "checking.preprocess.sccs" ~doc:"strongly connected components in the dependency graphs processed"
let m_pruned_inconsistent = Telemetry.counter "checking.preprocess.pruned_inconsistent" ~doc:"vertices deleted because CFD(R) is inconsistent"
let m_pruned_indegree0 = Telemetry.counter "checking.preprocess.pruned_indegree0" ~doc:"vertices pruned by the indegree-0 rule (Fig 7 line 13)"
let m_bot_cfds = Telemetry.counter "checking.preprocess.nontriggering_cfds" ~doc:"non-triggering CFDs CIND(Rj,R)_bot pushed to predecessors"
let m_components = Telemetry.counter "checking.preprocess.components" ~doc:"weakly connected components handed to RandomChecking"

(* The denial of relation Rj: its first attribute whose domain offers two
   distinct constants, with two of them.  [None] when every domain is a
   singleton (denial impossible — pathological). *)
let denial schema rel =
  let viable attr =
    match Domain.cardinal (Attribute.domain attr) with
    | Some n -> n >= 2
    | None -> true
  in
  match List.find_opt viable (Schema.attrs (Db_schema.find schema rel)) with
  | None -> None
  | Some attr ->
      let dom = Attribute.domain attr in
      let c1 = Domain.fresh dom ~avoid:[] |> Option.get in
      let c2 = Domain.fresh dom ~avoid:[ c1 ] |> Option.get in
      Some (Attribute.name attr, c1, c2)

(* The non-triggering CFDs CIND(Rj, R)⊥ for one CIND ψ from Rj to R:
   (Rj : Xp -> A, (tp[Xp] || c1)) and (Rj : Xp -> A, (tp[Xp] || c2)) with
   c1 <> c2, denying every Rj tuple that matches tp[Xp]. *)
let bots_of_denial (cind : Cind.nf) = function
  | None -> []
  | Some (a, c1, c2) ->
      let name = Printf.sprintf "%s_bot" cind.Cind.nf_name in
      let x = List.map fst cind.nf_xp in
      let tx = List.map (fun (_, v) -> Pattern.Const v) cind.nf_xp in
      let make c =
        {
          Cfd.nf_name = name;
          nf_rel = cind.nf_lhs;
          nf_x = x;
          nf_a = a;
          nf_tx = tx;
          nf_ta = Pattern.Const c;
        }
      in
      [ make c1; make c2 ]

let non_triggering schema (cind : Cind.nf) =
  bots_of_denial cind (denial schema cind.Cind.nf_lhs)

(* Does the instantiated template tuple τ(R) trigger ψ?  Pattern-free CINDs
   (Xp = nil) are triggered by any tuple; otherwise every Xp field must
   hold the pattern constant (remaining variables denote fresh values that
   match no constant). *)
let tuple_triggers schema (cind : Cind.nf) (tau : Template.tuple) =
  let r = Db_schema.find schema cind.Cind.nf_lhs in
  List.for_all
    (fun (a, v) ->
      Template.cell_equal tau.(Schema.position r a) (Template.C v))
    cind.nf_xp

(* Concretize a single instantiated template tuple into a one-tuple witness
   database (all other relations empty). *)
let singleton_db schema ~rel ~avoid (tau : Template.tuple) =
  let db = Template.add (Template.empty schema) rel tau in
  Template.to_database ~avoid db

let run ?backend ?budget ?k_cfd ~rng schema (sigma : Sigma.nf) =
  Telemetry.incr m_runs;
  let budget = Guard.resolve budget in
  Telemetry.with_span "checking.preprocess" @@ fun () ->
  Guard.probe ~budget "checking.preprocess";
  let g = Depgraph.make schema sigma in
  let sccs = Depgraph.sccs g in
  Telemetry.add m_sccs (List.length sccs);
  (* Σ's constants are read only to concretize a witness or draw a
     valuation; most vertices never need them. *)
  let avoid = lazy (Sigma.constant_values sigma) in
  (* The denial depends on the CIND's LHS relation only: computed once
     per relation. *)
  let denials = Hashtbl.create 8 in
  let non_triggering (cind : Cind.nf) =
    let rel = cind.Cind.nf_lhs in
    let d =
      match Hashtbl.find_opt denials rel with
      | Some d -> d
      | None ->
          let d = denial schema rel in
          Hashtbl.add denials rel d;
          d
    in
    bots_of_denial cind d
  in
  (* The work queue and the CIND grouping key on interned symbol ids
     (reusing the global table Depgraph vertices are keyed on), so
     re-queueing and the per-vertex trigger test never re-hash relation
     names. *)
  let queue = Queue.create () in
  let queued = Hashtbl.create 16 in
  let enqueue r =
    let rid = Interner.symbol r in
    if not (Hashtbl.mem queued rid) then begin
      Hashtbl.replace queued rid ();
      Queue.push r queue
    end
  in
  let cinds_by_lhs = Hashtbl.create 16 in
  List.iter
    (fun (c : Cind.nf) ->
      let key = Interner.symbol c.Cind.nf_lhs in
      Hashtbl.replace cinds_by_lhs key
        (c :: Option.value ~default:[] (Hashtbl.find_opt cinds_by_lhs key)))
    sigma.Sigma.ncinds;
  (* topo order = Tarjan's SCC emission order, flattened *)
  List.iter enqueue (List.concat sccs);
  let outcome = ref None in
  while !outcome = None && not (Queue.is_empty queue) do
    let r = Queue.pop queue in
    Hashtbl.remove queued (Interner.symbol r);
    Guard.check budget;
    if Depgraph.is_live g r then begin
      match
        Cfd_checking.consistent_rel ?backend ~budget ~avoid ?k_cfd ~rng
          schema (Depgraph.cfd_set g r) ~rel:r
      with
      | Cfd_checking.Tuple tau ->
          let triggering =
            Option.value ~default:[]
              (Hashtbl.find_opt cinds_by_lhs (Interner.symbol r))
            |> List.exists (fun c -> tuple_triggers schema c tau)
          in
          if not triggering then begin
            let db = singleton_db schema ~rel:r ~avoid:(Lazy.force avoid) tau in
            (* sanity: the one-tuple database must satisfy Σ *)
            if Sigma.nf_holds_single db sigma ~rel:r then
              outcome := Some (Consistent db)
          end
      | Cfd_checking.No_tuple | Cfd_checking.Gave_up ->
          (* CFD(r) inconsistent — or presumed so after the heuristic
             gave up (the pre-existing, deliberately aggressive pruning
             behaviour): r must be empty. *)
          Telemetry.incr m_pruned_inconsistent;
          List.iter
            (fun rj ->
              let bots =
                List.concat_map non_triggering
                  (Depgraph.cinds_between g ~src:rj ~dst:r)
              in
              if bots <> [] then begin
                Telemetry.add m_bot_cfds (List.length bots);
                Depgraph.add_cfds g rj bots;
                enqueue rj
              end)
            (Depgraph.predecessors g r);
          Depgraph.remove g r
    end
  done;
  match !outcome with
  | Some r -> r
  | None ->
      (* prune indegree-0 vertices (single pass, as in Fig 7 line 13) *)
      let zero = List.filter (fun r -> Depgraph.indegree g r = 0) (Depgraph.live g) in
      Telemetry.add m_pruned_indegree0 (List.length zero);
      List.iter (Depgraph.remove g) zero;
      if Depgraph.live g = [] then Inconsistent
      else begin
        let components = Depgraph.weak_components g in
        Telemetry.add m_components (List.length components);
        Unknown
          (List.map
             (fun members -> (members, Depgraph.component_sigma g members))
             components)
      end
