open Conddep_relational

(* Constructive Theorem 3.5: in the absence of finite-domain attributes,
   rules CIND1–CIND6 are complete for implication.  This module turns the
   semantic decision procedure's reachability certificate into an explicit
   machine-checkable proof in the inference system I.

   The search mirrors {!Implication} restricted to infinite domains, where
   tuple creation is deterministic: from the generic shape of a ψ-trigger
   t1 (marks on X, ψ's Xp constants, anonymous elsewhere), each applicable
   σ ∈ Σ produces exactly one successor shape.  A path

       t1  --σ1-->  s1  --σ2-->  ...  --σk-->  sk (a ψ-witness shape)

   is replayed as a derivation: the invariant CIND for s_i,

       D_i = ( Ra[U_i; Xp_ψ]  ⊆  R_i[Z_i; Zp_i],  (Xp_ψ-values || Zp_i-values) )

   says that every ψ-trigger has a partner in R_i carrying its U_i values
   on Z_i (the mark fields of s_i) and the constants Zp_i (the constant
   fields of s_i).  D_0 comes from CIND1 + CIND4 (+ a CIND2 projection);
   the step from D_i to D_{i+1} massages σ_{i+1} with CIND2 (drop the
   anonymous copy pairs), CIND4 (pin the constant copy pairs) and CIND5
   (match the untested constants of s_i), projects D_i with CIND2, and
   composes with CIND3; the final D_k yields ψ by CIND2 and CIND6. *)

type field =
  | Mark of int
  | Cst of Value.t
  | Anon

let field_equal f g =
  match f, g with
  | Mark i, Mark j -> i = j
  | Cst v, Cst w -> Value.equal v w
  | Anon, Anon -> true
  | (Mark _ | Cst _ | Anon), _ -> false

type state = { srel : string; fields : field array }

let state_equal s t =
  String.equal s.srel t.srel && Array.for_all2 field_equal s.fields t.fields

(* --- the deterministic shape graph -------------------------------------- *)

let ensure_infinite schema (nfs : Cind.nf list) =
  let all_infinite rel =
    let r = Db_schema.find schema rel in
    List.for_all (fun a -> not (Attribute.is_finite a)) (Schema.attrs r)
  in
  List.iter
    (fun (nf : Cind.nf) ->
      if not (all_infinite nf.Cind.nf_lhs && all_infinite nf.nf_rhs) then
        invalid_arg
          "Proof_search.derive: finite-domain attributes present (CIND7/CIND8 \
           territory, use Implication.decide)")
    nfs

let start_shape schema (psi : Cind.nf) =
  let r1 = Db_schema.find schema psi.Cind.nf_lhs in
  let fields = Array.make (Schema.arity r1) Anon in
  List.iteri (fun j a -> fields.(Schema.position r1 a) <- Mark j) psi.nf_x;
  List.iter (fun (a, v) -> fields.(Schema.position r1 a) <- Cst v) psi.nf_xp;
  { srel = psi.nf_lhs; fields }

let applicable schema (nf : Cind.nf) s =
  String.equal nf.Cind.nf_lhs s.srel
  &&
  let r1 = Db_schema.find schema nf.nf_lhs in
  List.for_all
    (fun (a, v) -> field_equal s.fields.(Schema.position r1 a) (Cst v))
    nf.nf_xp

let child schema (nf : Cind.nf) s =
  let r1 = Db_schema.find schema nf.Cind.nf_lhs in
  let r2 = Db_schema.find schema nf.nf_rhs in
  let fields = Array.make (Schema.arity r2) Anon in
  List.iter2
    (fun a b -> fields.(Schema.position r2 b) <- s.fields.(Schema.position r1 a))
    nf.nf_x nf.nf_y;
  List.iter (fun (b, v) -> fields.(Schema.position r2 b) <- Cst v) nf.nf_yp;
  { srel = nf.nf_rhs; fields }

let is_witness schema (psi : Cind.nf) s =
  String.equal s.srel psi.Cind.nf_rhs
  &&
  let r2 = Db_schema.find schema psi.nf_rhs in
  List.for_all2
    (fun j b -> field_equal s.fields.(Schema.position r2 b) (Mark j))
    (List.init (List.length psi.nf_y) Fun.id)
    psi.nf_y
  && List.for_all
       (fun (b, v) -> field_equal s.fields.(Schema.position r2 b) (Cst v))
       psi.nf_yp

(* BFS with parent pointers; returns the σ-path to the first witness. *)
let find_path ?(max_states = 50_000) schema sigma psi =
  let start = start_shape schema psi in
  if is_witness schema psi start then Some []
  else begin
    let visited = ref [ start ] in
    let queue = Queue.create () in
    Queue.push (start, []) queue;
    let result = ref None in
    (try
       while not (Queue.is_empty queue) do
         let s, path = Queue.pop queue in
         List.iter
           (fun nf ->
             if applicable schema nf s then begin
               let c = child schema nf s in
               if not (List.exists (state_equal c) !visited) then begin
                 if List.length !visited > max_states then
                   raise Implication.Budget_exceeded;
                 visited := c :: !visited;
                 let path' = nf :: path in
                 if is_witness schema psi c then begin
                   result := Some (List.rev path');
                   raise Exit
                 end;
                 Queue.push (c, path') queue
               end
             end)
           sigma
       done
     with Exit -> ());
    !result
  end

(* --- replaying a path as a derivation ----------------------------------- *)

(* The constant fields of a shape, as (attribute, value) pairs. *)
let shape_consts schema s =
  let r = Db_schema.find schema s.srel in
  Schema.attrs r
  |> List.concat_map (fun attr ->
         let pos = Schema.position r (Attribute.name attr) in
         match s.fields.(pos) with
         | Cst v -> [ (Attribute.name attr, v) ]
         | Mark _ | Anon -> [])

(* Proof under construction: lines are emitted into a growing buffer and
   their conclusions computed immediately with {!Inference.apply}, so a
   construction bug surfaces as an error here rather than as an unsound
   proof.  [emit] returns the index of the added line. *)
type builder = {
  schema : Db_schema.t;
  mutable lines : Inference.line list; (* reversed *)
  mutable concls : Cind.nf list; (* reversed, parallel to lines *)
  mutable len : int;
}

let conclusion b i = List.nth b.concls (b.len - 1 - i)

let emit b line =
  let concl =
    match line with
    | Inference.Axiom nf -> Cind.canon_nf nf
    | Inference.Infer rule -> (
        let prior = Array.of_list (List.rev b.concls) in
        match Inference.apply b.schema prior rule with
        | Ok nf -> nf
        | Error msg ->
            invalid_arg
              (Fmt.str "Proof_search: internal rule application failed (%s): %s"
                 (Inference.rule_name rule) msg))
  in
  b.lines <- line :: b.lines;
  b.concls <- concl :: b.concls;
  b.len <- b.len + 1;
  b.len - 1

(* D_0: ( Ra[X; Xp] ⊆ Ra[X; Xp-as-Yp] ) — reflexivity on X @ Xp-attrs,
   then CIND4 on each Xp binding; if X and Xp are both empty, reflexivity
   on an arbitrary attribute projected away.  Returns the line index. *)
let derive_start b (psi : Cind.nf) =
  let schema = b.schema in
  let xp_attrs = List.map fst psi.Cind.nf_xp in
  let base = psi.nf_x @ xp_attrs in
  if base = [] then begin
    let r1 = Db_schema.find schema psi.nf_lhs in
    let a0 = Attribute.name (Schema.attr r1 0) in
    let refl = emit b (Inference.Infer (Inference.Reflexivity { rel = psi.nf_lhs; x = [ a0 ] })) in
    emit b (Inference.Infer (Inference.Proj_perm { prem = refl; indices = [] }))
  end
  else begin
    let line =
      ref (emit b (Inference.Infer (Inference.Reflexivity { rel = psi.nf_lhs; x = base })))
    in
    List.iter
      (fun (a, v) ->
        line := emit b (Inference.Infer (Inference.Instantiate { prem = !line; attr = a; value = v })))
      psi.nf_xp;
    !line
  end

(* One composition step: from the line deriving D_i and the applied CIND σ
   (an axiom of Σ), derive D_{i+1}.  [s_i] is the shape before the step. *)
let derive_step b ~di_line ~(sigma_nf : Cind.nf) s_i =
  let schema = b.schema in
  let di = conclusion b di_line in
  let r1 = Db_schema.find schema sigma_nf.Cind.nf_lhs in
  (* classify σ's copy pairs by the field they copy *)
  let classified =
    List.map2
      (fun a bname -> (a, bname, s_i.fields.(Schema.position r1 a)))
      sigma_nf.nf_x sigma_nf.nf_y
  in
  let mark_pairs =
    List.filteri (fun _ (_, _, f) -> match f with Mark _ -> true | _ -> false) classified
  in
  let cst_pairs =
    List.filteri (fun _ (_, _, f) -> match f with Cst _ -> true | _ -> false) classified
  in
  (* σ projected onto the mark and constant pairs (CIND2) *)
  let keep_indices =
    List.filteri (fun _ (_, _, f) -> match f with Anon -> false | _ -> true) classified
    |> List.map (fun (a, _, _) ->
           let rec index i = function
             | [] -> assert false
             | x :: _ when String.equal x a -> i
             | _ :: rest -> index (i + 1) rest
           in
           index 0 sigma_nf.nf_x)
  in
  let sigma_line = emit b (Inference.Axiom sigma_nf) in
  let line =
    ref (emit b (Inference.Infer (Inference.Proj_perm { prem = sigma_line; indices = keep_indices })))
  in
  (* pin the constant copy pairs with CIND4 *)
  List.iter
    (fun (a, _, f) ->
      match f with
      | Cst v -> line := emit b (Inference.Infer (Inference.Instantiate { prem = !line; attr = a; value = v }))
      | Mark _ | Anon -> ())
    cst_pairs;
  (* σ's LHS pattern now tests Xpσ ∪ pinned; augment with the rest of s_i's
     constant fields so it matches D_i's RHS pattern exactly (CIND5) *)
  let tested =
    List.map fst sigma_nf.nf_xp @ List.map (fun (a, _, _) -> a) cst_pairs
  in
  List.iter
    (fun (a, v) ->
      if not (List.exists (String.equal a) tested) then
        line := emit b (Inference.Infer (Inference.Augment { prem = !line; attr = a; value = v })))
    (shape_consts schema s_i);
  (* project D_i's inclusion onto σ's mark-source attributes, in order *)
  let di_indices =
    List.map
      (fun (a, _, _) ->
        let rec index i = function
          | [] -> assert false
          | z :: _ when String.equal z a -> i
          | _ :: rest -> index (i + 1) rest
        in
        index 0 di.Cind.nf_y)
      mark_pairs
  in
  let di_projected = emit b (Inference.Infer (Inference.Proj_perm { prem = di_line; indices = di_indices })) in
  emit b (Inference.Infer (Inference.Transitivity { first = di_projected; second = !line }))

(* Finish: D_k covers ψ's witness requirements; project its inclusion onto
   ψ's Y (CIND2) and drop the extra RHS bindings (CIND6). *)
let derive_finish b (psi : Cind.nf) ~dk_line =
  let dk = conclusion b dk_line in
  let indices =
    List.map
      (fun y ->
        let rec index i = function
          | [] -> assert false
          | z :: _ when String.equal z y -> i
          | _ :: rest -> index (i + 1) rest
        in
        index 0 dk.Cind.nf_y)
      psi.Cind.nf_y
  in
  let projected = emit b (Inference.Infer (Inference.Proj_perm { prem = dk_line; indices })) in
  emit b (Inference.Infer (Inference.Reduce { prem = projected; keep_yp = List.map fst psi.nf_yp }))

let derive ?max_states schema ~sigma psi =
  let sigma = List.map Cind.canon_nf sigma in
  let psi = Cind.canon_nf psi in
  ensure_infinite schema (psi :: sigma);
  match find_path ?max_states schema sigma psi with
  | None -> None
  | Some path ->
      let b = { schema; lines = []; concls = []; len = 0 } in
      let line = ref (derive_start b psi) in
      let shape = ref (start_shape schema psi) in
      List.iter
        (fun sigma_nf ->
          line := derive_step b ~di_line:!line ~sigma_nf !shape;
          shape := child schema sigma_nf !shape)
        path;
      let _final = derive_finish b psi ~dk_line:!line in
      Some (List.rev b.lines)
