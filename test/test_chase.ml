open Conddep_relational
open Conddep_core
open Conddep_chase
open Helpers

(* The extended chase of Section 5.1, against the worked Examples 5.1–5.3. *)

module B = Conddep_fixtures.Bank

let rng () = Rng.make 42

let get_terminal = function
  | Chase.Terminal db -> db
  | Chase.Undefined why -> Alcotest.failf "chase undefined: %s" why
  | Chase.Exhausted r -> Alcotest.failf "chase exhausted: %s" (Guard.reason_to_string r)

(* --- template plumbing ---------------------------------------------------- *)

let test_cell_order () =
  let v = Template.V { Template.vrel = "r"; vattr = "a"; vidx = 0 } in
  let c = Template.C (str "x") in
  check_bool "var below constant" true (Template.cell_compare v c < 0);
  check_bool "var matches wildcard" true (Template.cell_matches_pattern v wildcard);
  check_bool "var does not match constant" false
    (Template.cell_matches_pattern v (const "x"));
  check_bool "constant matches itself" true (Template.cell_matches_pattern c (const "x"))

let test_template_set_semantics () =
  let schema = string_schema "r" [ "a" ] in
  let t = [| Template.C (str "x") |] in
  let db = Template.add (Template.add (Template.empty schema) "r" t) "r" t in
  check_int "dedup" 1 (Template.cardinal db "r")

let test_subst_merges () =
  let schema = string_schema "r" [ "a" ] in
  let v0 = { Template.vrel = "r"; vattr = "a"; vidx = 0 } in
  let db =
    Template.add
      (Template.add (Template.empty schema) "r" [| Template.V v0 |])
      "r"
      [| Template.C (str "x") |]
  in
  let db = Template.subst db v0 (Template.C (str "x")) in
  check_int "substitution merges tuples" 1 (Template.cardinal db "r")

let test_to_database_freshness () =
  let schema = string_schema "r" [ "a"; "b" ] in
  let db =
    Template.add (Template.empty schema) "r"
      [|
        Template.V { Template.vrel = "r"; vattr = "a"; vidx = 0 };
        Template.V { Template.vrel = "r"; vattr = "b"; vidx = 0 };
      |]
  in
  let avoid = [ str "taboo" ] in
  let concrete = Template.to_database ~avoid db in
  let rel = Database.relation concrete "r" in
  check_int "one tuple" 1 (Relation.cardinal rel);
  let t = List.hd (Relation.tuples rel) in
  check_bool "distinct fresh values" false (Value.equal (Tuple.get t 0) (Tuple.get t 1));
  check_bool "avoids taboo" false
    (List.exists (fun v -> Value.equal v (str "taboo")) (Tuple.to_list t))

(* --- FD steps ------------------------------------------------------------ *)

let test_fd_step_constant_clash () =
  let schema = string_schema "r" [ "a"; "b" ] in
  let fd =
    Chase.compile_cfd schema
      (List.hd (Cfd.normalize (Fd.to_cfd (Fd.make ~rel:"r" ~x:[ "a" ] ~y:[ "b" ]))))
  in
  let db =
    Template.add
      (Template.add (Template.empty schema) "r" [| Template.C (str "x"); Template.C (str "1") |])
      "r"
      [| Template.C (str "x"); Template.C (str "2") |]
  in
  match Chase.fd_step fd db with
  | Chase.Fd_undefined _ -> ()
  | Chase.Fd_changed _ | Chase.Fd_unchanged -> Alcotest.fail "expected undefined"

let test_fd_step_var_merge () =
  let schema = string_schema "r" [ "a"; "b" ] in
  let fd =
    Chase.compile_cfd schema
      (List.hd (Cfd.normalize (Fd.to_cfd (Fd.make ~rel:"r" ~x:[ "a" ] ~y:[ "b" ]))))
  in
  let v = { Template.vrel = "r"; vattr = "b"; vidx = 0 } in
  let db =
    Template.add
      (Template.add (Template.empty schema) "r" [| Template.C (str "x"); Template.V v |])
      "r"
      [| Template.C (str "x"); Template.C (str "1") |]
  in
  match Chase.fd_step fd db with
  | Chase.Fd_changed db ->
      check_int "merged into one tuple" 1 (Template.cardinal db "r")
  | _ -> Alcotest.fail "expected a change"

let test_fd_step_pattern_constant () =
  (* ϕ = (A -> B, (_ || c)) forces B := c on a single tuple. *)
  let schema = string_schema "r" [ "a"; "b" ] in
  let cfd =
    Chase.compile_cfd schema
      (List.hd
         (Cfd.normalize
            (Cfd.make ~name:"f" ~rel:"r" ~x:[ "a" ] ~y:[ "b" ]
               [ { Cfd.rx = [ wildcard ]; ry = [ const "c" ] } ])))
  in
  let v = { Template.vrel = "r"; vattr = "b"; vidx = 0 } in
  let db =
    Template.add (Template.empty schema) "r" [| Template.C (str "x"); Template.V v |]
  in
  match Chase.fd_step cfd db with
  | Chase.Fd_changed db -> (
      match Template.tuples db "r" with
      | [ t ] -> check_bool "B forced to c" true (Template.cell_equal t.(1) (Template.C (str "c")))
      | _ -> Alcotest.fail "expected one tuple")
  | _ -> Alcotest.fail "expected a change"

(* --- Example 5.1: the full chase ----------------------------------------- *)

let test_example_5_1 () =
  let schema = B.ex5_schema ~finite_h:false in
  let sigma = Sigma.normalize (B.ex51_sigma ~finite_h:false) in
  let compiled = Chase.compile schema sigma in
  let seed = Chase.seed_tuple schema ~rel:"r1" in
  let terminal =
    get_terminal (Chase.run ~config:Chase.default_config ~rng:(rng ()) schema compiled seed)
  in
  (* chase(D, Σ) = R1: (c, vF), R2: (c, vH) — E and G hold the constant c. *)
  (match Template.tuples terminal "r1" with
  | [ t ] -> check_bool "R1.E = c" true (Template.cell_equal t.(0) (Template.C (str "c")))
  | _ -> Alcotest.fail "expected one R1 tuple");
  (match Template.tuples terminal "r2" with
  | [ t ] -> check_bool "R2.G = c" true (Template.cell_equal t.(0) (Template.C (str "c")))
  | _ -> Alcotest.fail "expected one R2 tuple");
  (* and the concretized result is a model of Σ (the heuristic's soundness) *)
  let avoid = List.map (fun (_, _, v) -> v) (Sigma.constants sigma) in
  let db = Template.to_database ~avoid terminal in
  check_bool "concretization satisfies Sigma" true (Sigma.nf_holds db sigma)

let test_chase_terminates_on_cycle () =
  (* r ⊆ s and s ⊆ r: the bounded pools keep the chase finite. *)
  let schema =
    Db_schema.make
      [
        Schema.make "r" [ Attribute.make "a" Domain.string_inf ];
        Schema.make "s" [ Attribute.make "a" Domain.string_inf ];
      ]
  in
  let ind lhs rhs =
    Cind.make ~name:(lhs ^ rhs) ~lhs ~rhs ~x:[ "a" ] ~xp:[] ~y:[ "a" ] ~yp:[]
      [ { Cind.cx = [ wildcard ]; cxp = []; cy = [ wildcard ]; cyp = [] } ]
  in
  let sigma = Sigma.normalize (Sigma.make ~cinds:[ ind "r" "s"; ind "s" "r" ] ()) in
  let compiled = Chase.compile schema sigma in
  let seed = Chase.seed_tuple schema ~rel:"r" in
  let terminal =
    get_terminal (Chase.run ~config:Chase.default_config ~rng:(rng ()) schema compiled seed)
  in
  check_bool "bounded size" true (Template.total terminal <= 4)

let test_instantiated_chase_threshold () =
  (* A self-feeding CIND r[a] ⊆ r[b]-ish pattern that keeps growing hits the
     threshold T in instantiated mode. *)
  let schema = string_schema "r" [ "a"; "b" ] in
  let grow =
    Cind.make ~name:"grow" ~lhs:"r" ~rhs:"r" ~x:[ "b" ] ~xp:[] ~y:[ "a" ] ~yp:[ "b" ]
      [ { Cind.cx = [ wildcard ]; cxp = []; cy = [ wildcard ]; cyp = [ const "seen" ] } ]
  in
  let sigma = Sigma.normalize (Sigma.make ~cinds:[ grow ] ()) in
  let compiled = Chase.compile schema sigma in
  let seed = Chase.seed_tuple schema ~rel:"r" in
  let config = { Chase.default_config with threshold = 5; max_steps = 1000 } in
  match Chase.run ~instantiated:true ~config ~rng:(rng ()) schema compiled seed with
  | Chase.Undefined _ -> ()
  | Chase.Terminal db ->
      (* with string pools the chase may close on pool reuse instead *)
      check_bool "bounded by threshold" true (Template.cardinal db "r" <= 5)
  | Chase.Exhausted r -> Alcotest.failf "chase exhausted: %s" (Guard.reason_to_string r)

let test_pool_contents () =
  let pool = Pool.make ~n:3 in
  check_int "pool size" 3 (Pool.size pool);
  let vars = Pool.vars pool ~rel:"r" ~attr:"a" in
  check_int "three variables" 3 (List.length vars);
  check_int "distinct" 3
    (List.length (List.sort_uniq Template.var_compare vars));
  (* picks always come from the pool *)
  let rng = rng () in
  for _ = 1 to 50 do
    match Pool.pick pool rng ~rel:"r" ~attr:"a" with
    | Template.V v ->
        check_bool "picked from pool" true
          (List.exists (fun u -> Template.var_compare u v = 0) vars)
    | Template.C _ -> Alcotest.fail "pick returned a constant"
  done;
  match Pool.make ~n:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty pool accepted"

let test_column_constants () =
  let schema = string_schema "r" [ "a"; "b" ] in
  let v = Template.V { Template.vrel = "r"; vattr = "b"; vidx = 0 } in
  let db =
    Template.add
      (Template.add (Template.empty schema) "r" [| Template.C (str "x"); v |])
      "r"
      [| Template.C (str "y"); Template.C (str "w") |]
  in
  check_bool "column a = {x, y}" true
    (Template.column_constants db ~rel:"r" ~attr:"a" = [ str "x"; str "y" ]);
  check_bool "column b = {w} (variables skipped)" true
    (Template.column_constants db ~rel:"r" ~attr:"b" = [ str "w" ]);
  check_bool "unknown column empty" true
    (Template.column_constants db ~rel:"r" ~attr:"zz" = [])

let test_conclusion_constants () =
  let schema = string_schema "r" [ "a"; "b" ] in
  let nfs =
    List.concat_map Cfd.normalize
      [
        Cfd.make ~name:"c1" ~rel:"r" ~x:[ "a" ] ~y:[ "b" ]
          [ { Cfd.rx = [ wildcard ]; ry = [ const "v" ] } ];
        Cfd.make ~name:"c2" ~rel:"r" ~x:[ "a" ] ~y:[ "b" ]
          [ { Cfd.rx = [ wildcard ]; ry = [ wildcard ] } ];
      ]
  in
  List.iter
    (fun (label, set) ->
      match Chase.conclusion_constants set with
      | [ (("r", "b"), v) ] -> check_bool (label ^ " constant v") true (Value.equal v (str "v"))
      | l -> Alcotest.failf "%s: expected one conclusion constant, got %d" label (List.length l))
    [
      ("compiled", Chase.cfd_set (List.map (Chase.compile_cfd schema) nfs));
      ("lazy", Chase.lazy_cfd_set schema nfs);
    ]

let test_ind_step_reuses_witnesses () =
  (* IND(ψ) must not add a tuple when a witness already exists. *)
  let schema =
    Db_schema.make
      [
        Schema.make "src" [ Attribute.make "a" Domain.string_inf ];
        Schema.make "dst" [ Attribute.make "a" Domain.string_inf ];
      ]
  in
  let cind =
    Chase.compile_cind schema
      (List.hd
         (Cind.normalize
            (Cind.make ~name:"i" ~lhs:"src" ~rhs:"dst" ~x:[ "a" ] ~xp:[] ~y:[ "a" ]
               ~yp:[]
               [ { Cind.cx = [ wildcard ]; cxp = []; cy = [ wildcard ]; cyp = [] } ])))
  in
  let db =
    Template.add
      (Template.add (Template.empty schema) "src" [| Template.C (str "k") |])
      "dst"
      [| Template.C (str "k") |]
  in
  (match
     Chase.ind_step ~instantiated:false ~threshold:100 (Pool.make ~n:2) (rng ()) schema
       cind db
   with
  | Chase.Ind_unchanged -> ()
  | Chase.Ind_changed _ -> Alcotest.fail "added a tuple despite existing witness"
  | Chase.Ind_overflow _ -> Alcotest.fail "unexpected overflow");
  (* and must add one when the witness is missing *)
  let db2 = Template.add (Template.empty schema) "src" [| Template.C (str "k") |] in
  match
    Chase.ind_step ~instantiated:false ~threshold:100 (Pool.make ~n:2) (rng ()) schema
      cind db2
  with
  | Chase.Ind_changed db' -> check_int "dst got the tuple" 1 (Template.cardinal db' "dst")
  | _ -> Alcotest.fail "expected a change"

let test_finite_instantiation () =
  let schema = B.ex5_schema ~finite_h:true in
  let db = Chase.seed_tuple schema ~rel:"r2" in
  check_int "one finite var" 1 (List.length (Template.finite_variables db));
  let db = Chase.instantiate_finite_vars (rng ()) db in
  check_int "no finite vars left" 0 (List.length (Template.finite_variables db))

let () =
  Alcotest.run "chase"
    [
      ( "templates",
        [
          Alcotest.test_case "cell order and matching" `Quick test_cell_order;
          Alcotest.test_case "set semantics" `Quick test_template_set_semantics;
          Alcotest.test_case "substitution merges" `Quick test_subst_merges;
          Alcotest.test_case "concretization freshness" `Quick test_to_database_freshness;
        ] );
      ( "fd-steps",
        [
          Alcotest.test_case "constant clash undefined" `Quick test_fd_step_constant_clash;
          Alcotest.test_case "variable merge" `Quick test_fd_step_var_merge;
          Alcotest.test_case "pattern constant forced" `Quick test_fd_step_pattern_constant;
        ] );
      ( "full-chase",
        [
          Alcotest.test_case "Example 5.1" `Quick test_example_5_1;
          Alcotest.test_case "termination on cycles" `Quick test_chase_terminates_on_cycle;
          Alcotest.test_case "threshold T (chase_I)" `Quick test_instantiated_chase_threshold;
          Alcotest.test_case "finite-domain instantiation" `Quick test_finite_instantiation;
        ] );
      ( "plumbing",
        [
          Alcotest.test_case "variable pools" `Quick test_pool_contents;
          Alcotest.test_case "column constants" `Quick test_column_constants;
          Alcotest.test_case "conclusion constants" `Quick test_conclusion_constants;
          Alcotest.test_case "IND witness reuse" `Quick test_ind_step_reuses_witnesses;
        ] );
    ]
