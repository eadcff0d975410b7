(* cindtool — command-line front end over the conditional-dependency
   library.  Operates on `.cind` files (see data/bank.cind for the format):

     cindtool parse data/bank.cind
     cindtool normalize data/bank.cind
     cindtool check-consistency data/bank.cind
     cindtool violations data/bank.cind [--repair] [--csv REL=FILE]
     cindtool implies data/bank.cind psi3
     cindtool witness data/bank.cind
     cindtool gen --relations 20 --constraints 240

   Global flags (accepted anywhere on the command line):

     cindtool --metrics out.jsonl check-consistency data/bank.cind
     cindtool --trace violations data/bank.cind
     cindtool --timeout 5 check-consistency data/bank.cind
     cindtool --fuel 100000 implies data/bank.cind psi3
     cindtool stats out.jsonl

   Exit codes are uniform across subcommands:
     0 — decided / ok (consistent, clean, implied, proof found)
     1 — negative finding (inconsistent, violations found, not implied)
     2 — usage or parse error, or internal error
     3 — undetermined: heuristic gave up, or a resource budget
         (--timeout / --fuel) was exhausted; the reason is on stderr *)

open Cmdliner
open Conddep_relational
open Conddep_core
open Conddep_dsl

(* --- uniform exit codes ---------------------------------------------------- *)

let exit_ok = 0
let exit_negative = 1
let exit_usage = 2
let exit_undetermined = 3

let exits =
  [
    Cmd.Exit.info exit_ok ~doc:"decided / ok: consistent, clean, implied, proof found.";
    Cmd.Exit.info exit_negative
      ~doc:"negative finding: inconsistent, violations found, not implied.";
    Cmd.Exit.info exit_usage ~doc:"usage, parse, or internal error.";
    Cmd.Exit.info exit_undetermined
      ~doc:
        "undetermined: the heuristic gave up within its budgets, or a \
         resource budget ($(b,--timeout), $(b,--fuel)) was exhausted — the \
         exhaustion reason is printed on stderr.";
  ]

(* Flat self-time attribution, biggest first, with per-span latency
   quantiles estimated from the span histograms. *)
let pp_profile_table ppf =
  let table = Telemetry.self_time_table () in
  let hists = Telemetry.histogram_snapshot () in
  let total_self = List.fold_left (fun acc (_, _, _, s) -> acc +. s) 0. table in
  Fmt.pf ppf "@[<v>-- profile (by self time)@,";
  Fmt.pf ppf "%-34s %8s %10s %10s %6s %10s %10s %10s@," "span" "calls" "total"
    "self" "self%" "p50" "p90" "p99";
  List.iter
    (fun (name, calls, total, self) ->
      let q p =
        match List.assoc_opt name hists with
        | Some hs -> Telemetry.dur_to_string (Telemetry.quantile hs p)
        | None -> "n/a"
      in
      Fmt.pf ppf "%-34s %8d %10s %10s %5.1f%% %10s %10s %10s@," name calls
        (Telemetry.dur_to_string total)
        (Telemetry.dur_to_string self)
        (100. *. self /. Float.max total_self 1e-12)
        (q 0.5) (q 0.9) (q 0.99))
    table;
  Fmt.pf ppf "@]@."

(* Budget-exhaustion forensics: where was the process when the budget ran
   out, and who ate it.  Printed on stderr next to the exit-3 diagnostic
   whenever profiling is on. *)
let print_exhaustion_forensics () =
  if Telemetry.profiling () then begin
    (match Telemetry.exhaustion_snapshot () with
    | Some (reason, stack) ->
        Fmt.epr "cindtool: exhausted (%s) inside: %s@." reason
          (match stack with
          | [] -> "(no live span)"
          | st -> String.concat " < " st)
    | None -> ());
    match Telemetry.self_time_table () with
    | [] -> ()
    | table ->
        Fmt.epr "cindtool: top spans by self time:@.";
        List.iteri
          (fun i (name, calls, total, self) ->
            if i < 3 then
              Fmt.epr "  %-34s calls=%-6d total=%s self=%s@." name calls
                (Telemetry.dur_to_string total)
                (Telemetry.dur_to_string self))
          table
  end

let load path =
  match Parser.parse_file path with
  | Ok doc -> doc
  | Error msg ->
      Fmt.epr "%s: %s@." path msg;
      exit exit_usage

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Constraint file (.cind).")

(* --- parse ---------------------------------------------------------------- *)

let parse_cmd =
  let run path =
    let doc = load path in
    Fmt.pr "%s" (Printer.document_to_string doc);
    Fmt.pr "@.-- ok: %d relation(s), %d CFD(s), %d CIND(s), %d instance(s)@."
      (List.length (Db_schema.relations doc.Parser.schema))
      (List.length doc.sigma.Sigma.cfds)
      (List.length doc.sigma.Sigma.cinds)
      (List.length doc.instances);
    exit_ok
  in
  Cmd.v
    (Cmd.info "parse" ~exits ~doc:"Parse, validate and pretty-print a constraint file.")
    Term.(const run $ file_arg)

(* --- normalize ------------------------------------------------------------ *)

let normalize_cmd =
  let run path =
    let doc = load path in
    let nf = Sigma.normalize doc.Parser.sigma in
    Fmt.pr "# normal forms (Prop 3.1 / CFD normal form)@.";
    List.iter (fun c -> Fmt.pr "%a@." Cfd.pp_nf c) nf.Sigma.ncfds;
    List.iter (fun c -> Fmt.pr "%a@." Cind.pp_nf c) nf.Sigma.ncinds;
    exit_ok
  in
  Cmd.v
    (Cmd.info "normalize" ~exits ~doc:"Print the normal form of every constraint.")
    Term.(const run $ file_arg)

(* --- check-consistency ------------------------------------------------------ *)

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Random seed for the heuristics.")

let k_arg =
  Arg.(value & opt int 20 & info [ "k" ] ~docv:"K" ~doc:"Number of random runs (Fig 5).")

let backend_arg =
  let backends =
    [ ("chase", Cind_api.Chase_backend); ("sat", Cind_api.Sat_backend) ]
  in
  Arg.(
    value
    & opt (enum backends) Cind_api.Chase_backend
    & info [ "backend" ] ~docv:"BACKEND"
        ~doc:"CFD_Checking backend inside preProcessing: $(b,chase) or $(b,sat).")

let batch_arg =
  Arg.(
    value
    & opt_all file []
    & info [ "batch" ] ~docv:"FILE"
        ~doc:
          "Additional constraint file to check in the same batch \
           (repeatable).  All files must declare the same schema.  The \
           batch shares one seed split, one interner warm-up and one \
           work-stealing domain pool across files; each file's verdict \
           is identical to a standalone $(b,check) of that file with its \
           split of the seed, and the exit code is the worst per-file \
           code.")

let chunk_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "chunk" ] ~docv:"N"
        ~doc:
          "Batch items per work-stealing task (default: chosen by the \
           cost model from the batch size and $(b,--jobs)).  Only \
           meaningful with $(b,--batch).")

let print_check_verdict = function
  | Cind_api.Yes (Some db) ->
      Fmt.pr "consistent — witness database:@.%a@." Database.pp db;
      exit_ok
  | Cind_api.Yes None ->
      Fmt.pr "consistent@.";
      exit_ok
  | Cind_api.No ->
      Fmt.pr "inconsistent (dependency-graph reduction emptied the graph)@.";
      exit_negative
  | Cind_api.Unknown Guard.Fuel when Guard.state (Guard.ambient ()) = None ->
      (* the paper's own K / K_CFD budgets ran out; no external limit hit *)
      Fmt.pr "unknown — no witness found within the budgets (heuristic)@.";
      exit_undetermined
  | Cind_api.Unknown r ->
      Fmt.pr "unknown — search cut short: %s@." (Guard.reason_to_string r);
      Fmt.epr "cindtool: resource budget exhausted (%s)@." (Guard.reason_to_string r);
      print_exhaustion_forensics ();
      exit_undetermined

let check_run path batch chunk seed k backend =
  let paths = path :: batch in
  let docs = List.map load paths in
  let doc0 = List.hd docs in
  let schema = doc0.Parser.schema in
  let schema_repr = Fmt.str "%a" Db_schema.pp in
  let s0 = schema_repr schema in
  List.iter2
    (fun p d ->
      if not (String.equal (schema_repr d.Parser.schema) s0) then (
        Fmt.epr "cindtool: --batch: %s declares a different schema than %s@." p
          path;
        exit exit_usage))
    paths docs;
  let nfs = List.map (fun d -> Sigma.normalize d.Parser.sigma) docs in
  match nfs with
  | [ nf ] ->
      (* standalone call: preserves the historical seed -> verdict mapping
         exactly (a 1-item batch would consume [Rng.split_n rng 1]) *)
      print_check_verdict
        (Cind_api.check ~backend ~k ~rng:(Rng.make seed) schema nf)
  | nfs ->
      let verdicts =
        Cind_api.check_many ~backend ?chunk ~k ~rng:(Rng.make seed) schema nfs
      in
      List.fold_left2
        (fun code p v ->
          Fmt.pr "== %s@." p;
          max code (print_check_verdict v))
        exit_ok paths verdicts

let check_term =
  Term.(
    const check_run $ file_arg $ batch_arg $ chunk_arg $ seed_arg $ k_arg
    $ backend_arg)

let check_doc = "Check the consistency of the constraint set (Checking, Fig 9)."

let check_cmd = Cmd.v (Cmd.info "check" ~exits ~doc:check_doc) check_term

let check_consistency_cmd =
  (* same command under its long name, used throughout the documentation *)
  Cmd.v (Cmd.info "check-consistency" ~exits ~doc:check_doc) check_term

(* --- violations ------------------------------------------------------------ *)

let repair_arg =
  Arg.(value & flag & info [ "repair" ] ~doc:"Apply suggested repairs and re-check.")

let csv_arg =
  Arg.(
    value
    & opt_all string []
    & info [ "csv" ] ~docv:"REL=FILE"
        ~doc:
          "Load relation $(i,REL) from CSV file $(i,FILE) (repeatable), \
           replacing any instance declared in the constraint file.  \
           Malformed CSV aborts with exit code 2 and a file:line \
           diagnostic.")

(* REL=FILE pairs from --csv, loaded against the schema; any error is fatal
   with a file:line position. *)
let load_csvs schema specs db =
  List.fold_left
    (fun db spec ->
      match String.index_opt spec '=' with
      | None ->
          Fmt.epr "cindtool: --csv expects REL=FILE, got %S@." spec;
          exit exit_usage
      | Some i ->
          let rel = String.sub spec 0 i in
          let file = String.sub spec (i + 1) (String.length spec - i - 1) in
          let rel_schema =
            match Db_schema.find_opt schema rel with
            | Some s -> s
            | None ->
                Fmt.epr "cindtool: --csv: no relation %S in the schema@." rel;
                exit exit_usage
          in
          (match Csv.load rel_schema file with
          | Ok r -> Database.set_relation db r
          | Error msg ->
              Fmt.epr "%s: %s@." file msg;
              exit exit_usage
          | exception Sys_error msg ->
              Fmt.epr "cindtool: %s@." msg;
              exit exit_usage))
    db specs

let violations_cmd =
  let run path repair csvs =
    let doc = load path in
    let db =
      match Parser.database doc with
      | Ok db -> db
      | Error msg ->
          Fmt.epr "instance error: %s@." msg;
          exit exit_usage
    in
    let db = load_csvs doc.Parser.schema csvs db in
    let nf = Sigma.normalize doc.Parser.sigma in
    let report = Conddep_cleaning.Report.build db nf in
    Fmt.pr "%a@." Conddep_cleaning.Report.pp report;
    if Conddep_cleaning.Report.count report = 0 then exit_ok
    else if repair then begin
      let repaired = Conddep_cleaning.Repair.repair ~max_rounds:8 doc.Parser.schema nf db in
      let left = List.length (Conddep_cleaning.Detect.detect repaired nf) in
      Fmt.pr "after repair: %d violation(s) left@." left;
      Fmt.pr "%a@." Database.pp repaired;
      if left = 0 then exit_ok else exit_negative
    end
    else exit_negative
  in
  Cmd.v
    (Cmd.info "violations" ~exits
       ~doc:
         "Detect (and optionally repair) violations in the declared or \
          CSV-loaded instances.")
    Term.(const run $ file_arg $ repair_arg $ csv_arg)

(* --- implies ----------------------------------------------------------------- *)

let goal_arg =
  Arg.(
    required
    & pos 1 (some string) None
    & info [] ~docv:"GOAL" ~doc:"Name of the CIND to test against the remaining ones.")

let implies_cmd =
  let run path goal =
    let doc = load path in
    let nf = Sigma.normalize doc.Parser.sigma in
    let goals, rest =
      List.partition (fun c -> String.equal c.Cind.nf_name goal) nf.Sigma.ncinds
    in
    match goals with
    | [] ->
        Fmt.epr "no CIND named %S in %s@." goal path;
        exit_usage
    | goals ->
        (* one Σ compilation shared across all goals via the batch form *)
        let verdicts =
          Cind_api.implies_many doc.Parser.schema ~sigma:rest goals
        in
        List.fold_left2
          (fun code g v ->
            match v with
            | Cind_api.Yes _ ->
                Fmt.pr "%a@.  IS implied by the remaining CINDs@." Cind.pp_nf g;
                code
            | Cind_api.No ->
                Fmt.pr "%a@.  is NOT implied by the remaining CINDs@." Cind.pp_nf g;
                max code exit_negative
            | Cind_api.Unknown Guard.Fuel
              when Guard.state (Guard.ambient ()) = None ->
                (* the procedure's own max_states cap, no external limit *)
                Fmt.pr "%a@.  undetermined: search budget exceeded@." Cind.pp_nf g;
                max code exit_undetermined
            | Cind_api.Unknown r ->
                Fmt.pr "%a@.  undetermined: %s@." Cind.pp_nf g
                  (Guard.reason_to_string r);
                Fmt.epr "cindtool: resource budget exhausted (%s)@."
                  (Guard.reason_to_string r);
                print_exhaustion_forensics ();
                max code exit_undetermined)
          exit_ok goals verdicts
  in
  Cmd.v
    (Cmd.info "implies" ~exits
       ~doc:
         "Decide whether the named CIND is implied by the file's other CINDs \
          (exact procedure, Thm 3.4).")
    Term.(const run $ file_arg $ goal_arg)

(* --- prove ------------------------------------------------------------------- *)

let prove_cmd =
  let run path goal =
    let doc = load path in
    let nf = Sigma.normalize doc.Parser.sigma in
    let goals, rest =
      List.partition (fun c -> String.equal c.Cind.nf_name goal) nf.Sigma.ncinds
    in
    match goals with
    | [] ->
        Fmt.epr "no CIND named %S in %s@." goal path;
        exit_usage
    | g :: _ -> (
        match Proof_search.derive doc.Parser.schema ~sigma:rest g with
        | Some proof -> (
            Fmt.pr "derivation of %a from the remaining CINDs:@.%a" Cind.pp_nf g
              Inference.pp_proof proof;
            match Inference.proves doc.Parser.schema ~sigma:rest proof g with
            | Ok _ ->
                Fmt.pr "(re-checked by the proof verifier)@.";
                exit_ok
            | Error msg ->
                Fmt.epr "internal error: emitted proof rejected: %s@." msg;
                exit_undetermined)
        | None ->
            Fmt.pr "%a is NOT implied by the remaining CINDs@." Cind.pp_nf g;
            exit_negative
        | exception Invalid_argument msg ->
            Fmt.epr "%s@." msg;
            exit_usage)
  in
  Cmd.v
    (Cmd.info "prove" ~exits
       ~doc:
         "Derive the named CIND from the file's other CINDs as an explicit \
          CIND1-CIND6 proof (infinite-domain attributes only, Thm 3.5).")
    Term.(const run $ file_arg $ goal_arg)

(* --- logic ------------------------------------------------------------------- *)

let logic_cmd =
  let run path =
    let doc = load path in
    let nf = Sigma.normalize doc.Parser.sigma in
    Fmt.pr "# first-order readings (TGDs / EGDs with constants)@.";
    List.iter
      (fun c ->
        Fmt.pr "@[<v2>-- %s:@,%a@]@." c.Cfd.nf_name Logic.pp
          (Logic.cfd_to_formula doc.Parser.schema c))
      nf.Sigma.ncfds;
    List.iter
      (fun c ->
        Fmt.pr "@[<v2>-- %s:@,%a@]@." c.Cind.nf_name Logic.pp
          (Logic.cind_to_formula doc.Parser.schema c))
      nf.Sigma.ncinds;
    exit_ok
  in
  Cmd.v
    (Cmd.info "logic" ~exits
       ~doc:"Print every constraint as a first-order sentence (TGD/EGD form).")
    Term.(const run $ file_arg)

(* --- cover ------------------------------------------------------------------- *)

let cover_cmd =
  let run path =
    let doc = load path in
    let nf = Sigma.normalize doc.Parser.sigma in
    let cinds = Minimal_cover.cind_cover doc.Parser.schema (Minimal_cover.dedup_cinds nf.Sigma.ncinds) in
    let cfds = Minimal_cover.cfd_cover doc.Parser.schema (Minimal_cover.dedup_cfds nf.Sigma.ncfds) in
    Fmt.pr "# minimal cover: %d of %d CFDs, %d of %d CINDs retained@."
      (List.length cfds) (List.length nf.Sigma.ncfds) (List.length cinds)
      (List.length nf.Sigma.ncinds);
    List.iter (fun c -> Fmt.pr "%a@." Cfd.pp_nf c) cfds;
    List.iter (fun c -> Fmt.pr "%a@." Cind.pp_nf c) cinds;
    exit_ok
  in
  Cmd.v
    (Cmd.info "cover" ~exits
       ~doc:"Remove constraints implied by the rest (budgeted minimal cover).")
    Term.(const run $ file_arg)

(* --- witness ----------------------------------------------------------------- *)

let witness_cmd =
  let run path =
    let doc = load path in
    let nf = Sigma.normalize doc.Parser.sigma in
    match Witness.database doc.Parser.schema nf.Sigma.ncinds with
    | db ->
        Fmt.pr "Theorem 3.2 witness (%d tuples):@.%a@." (Database.total_tuples db)
          Database.pp db;
        exit_ok
    | exception Witness.Too_large n ->
        Fmt.epr "witness would have %d tuples; aborting@." n;
        exit_undetermined
  in
  Cmd.v
    (Cmd.info "witness" ~exits
       ~doc:"Build the cross-product witness database for the file's CINDs (Thm 3.2).")
    Term.(const run $ file_arg)

(* --- gen --------------------------------------------------------------------- *)

(* Random schema + workload in .cind syntax (the experimental setting of
   Section 6), mainly to produce reproducible hard inputs for the
   robustness smoke tests. *)
let gen_cmd =
  let run seed relations constraints profile =
    let rng = Rng.make seed in
    let sconfig =
      match profile with
      | `Random | `Consistent ->
          { Conddep_generator.Schema_gen.default with num_relations = relations }
      | `Needle ->
          (* every attribute finite with tiny domains, as in the Fig 10(b)
             experiment: the valuation space is dense with conflicts *)
          (* arities and domains kept small enough that each relation's
             secret is findable within K_CFD tries (so preProcessing does
             not just prune the graph) while the joint valuation across
             relations stays out of reach of random search *)
          {
            Conddep_generator.Schema_gen.num_relations = relations;
            min_arity = 3;
            max_arity = 5;
            finite_ratio = 1.0;
            finite_dom_min = 2;
            finite_dom_max = 2;
          }
    in
    let schema = Conddep_generator.Schema_gen.generate rng sconfig in
    let wconfig =
      { Conddep_generator.Workload.default with num_constraints = constraints }
    in
    let nf =
      match profile with
      | `Random -> Conddep_generator.Workload.random rng wconfig schema
      | `Consistent -> Conddep_generator.Workload.consistent rng wconfig schema
      | `Needle ->
          (* The Fig 10(b) needle family — per relation (almost) one
             satisfying finite-domain assignment, defeating bounded-K_CFD
             valuation search — joined with pattern-free CINDs so that every
             witness tuple triggers an inclusion and preProcessing cannot
             settle the answer on its own.  Deliberately adversarial: used
             by the robustness smoke tests to exercise --timeout / --fuel. *)
          let needles = Conddep_generator.Workload.needle_cfds rng schema in
          let cind_config = { wconfig with max_pattern = 0 } in
          let n_cinds = max 1 (constraints / 4) in
          let cinds =
            List.init n_cinds
              (Conddep_generator.Workload.gen_cind rng cind_config schema
                 ~consistent:false)
          in
          { needles with Sigma.ncinds = cinds }
    in
    let doc =
      { Parser.schema; sigma = Sigma.of_nf nf; instances = [] }
    in
    Fmt.pr "%s" (Printer.document_to_string doc);
    exit_ok
  in
  let profile_arg =
    Arg.(
      value
      & opt (enum [ ("random", `Random); ("consistent", `Consistent); ("needle", `Needle) ]) `Random
      & info [ "profile" ] ~docv:"PROFILE"
          ~doc:
            "Workload family: $(b,random) (may conflict), $(b,consistent) \
             (satisfiable by construction), or $(b,needle) (adversarial: \
             near-unique satisfying valuations, defeats bounded random \
             search).")
  in
  Cmd.v
    (Cmd.info "gen" ~exits
       ~doc:
         "Generate a random schema and constraint set (Section 6 workload) \
          in .cind syntax on stdout.")
    Term.(
      const run $ seed_arg
      $ Arg.(
          value & opt int 20
          & info [ "relations" ] ~docv:"N" ~doc:"Number of relations.")
      $ Arg.(
          value & opt int 100
          & info [ "constraints" ] ~docv:"N" ~doc:"Number of constraints.")
      $ profile_arg)

(* --- sat ---------------------------------------------------------------------- *)

(* Debug entry point for the SAT core: solve a DIMACS file directly, so a
   solver regression found in the field can be reproduced from an exported
   instance without rebuilding the CFD encoding around it.  Output follows
   the SAT-competition convention (`s` status line, `v` model line). *)
let sat_cmd =
  let module Solver = Conddep_sat.Solver in
  let module Cnf = Conddep_sat.Cnf in
  let run path =
    let text =
      match In_channel.with_open_text path In_channel.input_all with
      | s -> s
      | exception Sys_error msg ->
          Fmt.epr "cindtool: %s@." msg;
          exit exit_usage
    in
    match Conddep_sat.Dimacs.parse text with
    | Error msg ->
        Fmt.epr "%s: %s@." path msg;
        exit_usage
    | Ok cnf -> (
        Fmt.pr "c %s: %d vars, %d clauses@." (Filename.basename path)
          (Cnf.num_vars cnf) (Cnf.num_clauses cnf);
        match Solver.solve cnf with
        | Solver.Sat model ->
            (* Check the model before trusting it: a wrong model here is a
               solver bug, and this subcommand exists to catch those. *)
            if not (Cnf.eval model cnf) then begin
              Fmt.epr "cindtool: internal error: model does not satisfy %s@." path;
              exit exit_usage
            end;
            Fmt.pr "s SATISFIABLE@.";
            let buf = Buffer.create 256 in
            for v = 1 to Cnf.num_vars cnf do
              Buffer.add_string buf (string_of_int (if model.(v) then v else -v));
              Buffer.add_char buf ' '
            done;
            Buffer.add_char buf '0';
            Fmt.pr "v %s@." (Buffer.contents buf);
            exit_ok
        | Solver.Unsat ->
            Fmt.pr "s UNSATISFIABLE@.";
            exit_negative
        | Solver.Unknown r ->
            Fmt.pr "s UNKNOWN@.";
            Fmt.epr "cindtool: resource budget exhausted (%s)@."
              (Guard.reason_to_string r);
            exit_undetermined)
  in
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"DIMACS CNF file.")
  in
  Cmd.v
    (Cmd.info "sat" ~exits
       ~doc:
         "Solve a DIMACS CNF file with the built-in CDCL SAT solver.  \
          Exit 0 with a verified $(b,v) model line when \
          satisfiable, 1 when unsatisfiable, 3 when a budget \
          ($(b,--timeout), $(b,--fuel)) ran out first.")
    Term.(const run $ file)

(* --- session ------------------------------------------------------------------ *)

(* Line-oriented driver over Cind_session: the same edit/query loop the
   bench measures and a future daemon would serve.  One verdict per query
   line on stdout; the script's worst query verdict is the exit code
   (uniform with `check`). *)
let session_cmd =
  let run path seed backend no_cache =
    let sess = ref None in
    let pool :
        (string, [ `Cind of Cind.nf list | `Cfd of Cfd.nf list ]) Hashtbl.t =
      Hashtbl.create 16
    in
    let lineno = ref 0 in
    let fail msg =
      Fmt.epr "%s:%d: %s@." path !lineno msg;
      exit exit_usage
    in
    let require_session () =
      match !sess with
      | Some s -> s
      | None -> fail "no session yet: start the script with `load FILE`"
    in
    let named name =
      match Hashtbl.find_opt pool name with
      | Some c -> c
      | None -> fail (Printf.sprintf "no constraint named %S in the loaded file" name)
    in
    let worst = ref exit_ok in
    let note = function
      | Cind_api.Yes _ -> ()
      | Cind_api.No -> worst := max !worst exit_negative
      | Cind_api.Unknown _ -> worst := max !worst exit_undetermined
    in
    (* Implication of a multi-row CIND is the conjunction over its normal
       forms; a definitive "not implied" beats an undetermined row. *)
    let conj a b =
      match (a, b) with
      | Cind_api.No, _ | _, Cind_api.No -> Cind_api.No
      | Cind_api.Unknown r, _ | _, Cind_api.Unknown r -> Cind_api.Unknown r
      | Cind_api.Yes _, Cind_api.Yes _ -> Cind_api.Yes None
    in
    let handle line =
      let words =
        String.split_on_char ' ' line |> List.filter (fun w -> w <> "")
      in
      match words with
      | [] -> ()
      | w :: _ when String.length w > 0 && w.[0] = '#' -> ()
      | [ "load"; file ] ->
          if !sess <> None then fail "load: session already started";
          let doc = load file in
          let s =
            Cind_session.create ~backend ~cache:(not no_cache) ~seed
              doc.Parser.schema
          in
          List.iter
            (fun (c : Cind.t) ->
              Hashtbl.replace pool c.Cind.name (`Cind (Cind.normalize c)))
            doc.Parser.sigma.Sigma.cinds;
          List.iter
            (fun (f : Cfd.t) ->
              Hashtbl.replace pool f.Cfd.name (`Cfd (Cfd.normalize f)))
            doc.Parser.sigma.Sigma.cfds;
          List.iter
            (fun (rel, tuples) -> Cind_session.insert_tuples s ~rel tuples)
            doc.Parser.instances;
          sess := Some s
      | [ "add"; name ] -> (
          let s = require_session () in
          match named name with
          | `Cind nfs -> List.iter (Cind_session.add_cind s) nfs
          | `Cfd nfs -> List.iter (Cind_session.add_cfd s) nfs)
      | [ "remove"; name ] -> (
          let s = require_session () in
          match named name with
          | `Cind nfs -> List.iter (Cind_session.remove_cind s) nfs
          | `Cfd nfs -> List.iter (Cind_session.remove_cfd s) nfs)
      | "insert" :: rel :: rest -> (
          let s = require_session () in
          let values =
            String.concat " " rest |> String.split_on_char ','
            |> List.map String.trim
            |> List.filter (fun v -> v <> "")
            |> List.map Value.of_string
          in
          if values = [] then fail "insert expects REL v1,v2,...";
          match Cind_session.insert_tuples s ~rel [ Tuple.make values ] with
          | () -> ()
          | exception Invalid_argument msg -> fail msg)
      | [ "check" ] ->
          let v = Cind_session.check (require_session ()) in
          note v;
          Fmt.pr "check: %a@." Cind_api.pp_verdict v
      | [ "consistent"; rel ] ->
          let v = Cind_session.consistent (require_session ()) ~rel in
          note v;
          Fmt.pr "consistent %s: %a@." rel Cind_api.pp_verdict v
      | [ "implies"; name ] -> (
          let s = require_session () in
          match named name with
          | `Cfd _ -> fail "implies: the goal must be a CIND"
          | `Cind nfs ->
              let v =
                List.fold_left
                  (fun acc nf -> conj acc (Cind_session.implies s nf))
                  (Cind_api.Yes None) nfs
              in
              note v;
              Fmt.pr "implies %s: %a@." name Cind_api.pp_verdict v)
      | [ "holds" ] ->
          let b = Cind_session.holds (require_session ()) in
          if not b then worst := max !worst exit_negative;
          Fmt.pr "holds: %b@." b
      | [ "stats" ] ->
          let st = Cind_session.stats (require_session ()) in
          Fmt.pr "stats: hits=%d misses=%d invalidations=%d entries=%d@."
            st.Cind_session.hits st.misses st.invalidations st.entries
      | w :: _ -> fail (Printf.sprintf "unrecognized command %S" w)
    in
    let ic =
      match open_in path with
      | ic -> ic
      | exception Sys_error msg ->
          Fmt.epr "%s@." msg;
          exit exit_usage
    in
    (try
       while true do
         incr lineno;
         handle (input_line ic)
       done
     with End_of_file -> close_in ic);
    (match !sess with
    | Some s ->
        let st = Cind_session.stats s in
        Fmt.epr "cindtool: session: %d hit(s), %d miss(es), %d invalidation(s), %d live entries@."
          st.Cind_session.hits st.misses st.invalidations st.entries
    | None -> ());
    !worst
  in
  let no_cache_arg =
    Arg.(
      value & flag
      & info [ "no-cache" ]
          ~doc:
            "Disable the verdict cache and warm-start state: every query \
             recomputes from scratch (the oracle the property tests and \
             the bench compare the cached session against).  Verdicts are \
             identical either way; only wall-clock time changes.")
  in
  Cmd.v
    (Cmd.info "session" ~exits
       ~doc:
         "Run a line-oriented edit/query script over an incremental \
          re-checking session (fingerprint-keyed verdict cache with \
          read-set invalidation)."
       ~man:
         [
           `S Manpage.s_description;
           `P
             "The script starts with $(b,load) $(i,FILE), which fixes the \
              schema, loads the file's declared instances into the session \
              database, and makes the file's named constraints available \
              as an edit pool — the session's Σ starts empty.  Subsequent \
              lines edit the session ($(b,add)/$(b,remove) $(i,NAME) for \
              constraints from the pool, $(b,insert) $(i,REL) \
              $(i,v1,v2,...) for tuples) or query it ($(b,check), \
              $(b,consistent) $(i,REL), $(b,implies) $(i,NAME), \
              $(b,holds), $(b,stats)); blank lines and $(b,#) comments \
              are skipped.  Each query prints one verdict line on stdout.";
           `P
             "Query verdicts are cached under structural fingerprints of \
              the target and the dependency set, together with the read \
              set the derivation reported; an edit dirties only cache \
              entries whose read set intersects it, and every hit is \
              verdict-bit-identical to recomputing from scratch.  The \
              cache counters are exported as $(b,incremental.*) telemetry \
              (visible via $(b,--metrics) and $(b,cindtool stats)).";
           `P
             "Exit code: the worst query verdict in the script (0 all \
              yes, 1 a definitive no, 3 an undetermined answer), or 2 on \
              a script error.";
         ])
    Term.(const run $ file_arg $ seed_arg $ backend_arg $ no_cache_arg)

(* --- stats ------------------------------------------------------------------- *)

(* Aggregate a metrics JSON-lines file written by --metrics: last value per
   counter/histogram (flushes are cumulative), span events summed. *)
let stats_cmd =
  let run path =
    match open_in path with
    | exception Sys_error msg ->
        Fmt.epr "%s@." msg;
        exit_usage
    | ic ->
        let counters = Hashtbl.create 64 in
        let gauges = Hashtbl.create 16 in
        let hists = Hashtbl.create 32 in
        let spans = Hashtbl.create 32 in
        let malformed = ref 0 in
        (try
           while true do
             let line = input_line ic in
             if String.trim line <> "" then
               match Telemetry.parse_event line with
               | Some (Telemetry.Counter_event { name; value }) ->
                   Hashtbl.replace counters name value
               | Some (Telemetry.Gauge_event { name; value }) ->
                   Hashtbl.replace gauges name value
               | Some (Telemetry.Histogram_event { name; stats }) ->
                   Hashtbl.replace hists name stats
               | Some (Telemetry.Span_event { name; dur_s; _ }) ->
                   let n, s =
                     Option.value ~default:(0, 0.) (Hashtbl.find_opt spans name)
                   in
                   Hashtbl.replace spans name (n + 1, s +. dur_s)
               | None -> incr malformed
           done
         with End_of_file -> close_in ic);
        let sorted tbl =
          Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
          |> List.sort (fun (a, _) (b, _) -> String.compare a b)
        in
        Fmt.pr "@[<v># metrics from %s@," path;
        Fmt.pr "@,-- counters@,";
        List.iter (fun (name, v) -> Fmt.pr "%-44s %d@," name v) (sorted counters);
        if Hashtbl.length gauges > 0 then begin
          Fmt.pr "@,-- gauges@,";
          List.iter (fun (name, v) -> Fmt.pr "%-44s %d@," name v) (sorted gauges)
        end;
        Fmt.pr "@,-- histograms (durations)@,";
        List.iter
          (fun (name, (hs : Telemetry.histogram_stats)) ->
            Fmt.pr
              "%-44s count=%-8d sum=%.6fs mean=%.6fs p50=%s p90=%s p99=%s@,"
              name hs.Telemetry.hs_count hs.hs_sum
              (if hs.hs_count = 0 then 0. else hs.hs_sum /. float_of_int hs.hs_count)
              (Telemetry.dur_to_string (Telemetry.quantile hs 0.5))
              (Telemetry.dur_to_string (Telemetry.quantile hs 0.9))
              (Telemetry.dur_to_string (Telemetry.quantile hs 0.99)))
          (sorted hists);
        if Hashtbl.length spans > 0 then begin
          Fmt.pr "@,-- spans@,";
          List.iter
            (fun (name, (n, s)) -> Fmt.pr "%-44s count=%-8d total=%.6fs@," name n s)
            (sorted spans)
        end;
        if !malformed > 0 then Fmt.pr "@,(%d unparseable line(s) skipped)@," !malformed;
        Fmt.pr "@]@.";
        exit_ok
  in
  Cmd.v
    (Cmd.info "stats" ~exits
       ~doc:
         "Summarize a metrics JSON-lines file produced by $(b,--metrics) \
          (counters, histograms, span totals).")
    Term.(
      const run
      $ Arg.(
          required
          & pos 0 (some file) None
          & info [] ~docv:"METRICS" ~doc:"JSON-lines metrics file."))

(* --- chaos -------------------------------------------------------------------- *)

(* Randomized fault-schedule sweep over the Guard probe registry: every
   round checks a seeded workload twice — fault-free, then with the
   schedule's probes armed — and asserts the faulty verdict is identical
   or a typed Unknown.  Failing schedules are dumped as replayable
   .chaos.json files (raw and shrunk). *)
let chaos_cmd =
  let run seed rounds relations constraints out_dir replay =
    (* retry counters feed the per-round report *)
    Telemetry.enable ();
    let policy = Supervise.Policy.ambient () in
    match replay with
    | Some file -> (
        match Chaos.load ~file with
        | Error msg ->
            Fmt.epr "cindtool: %s: %s@." file msg;
            exit_usage
        | Ok sched ->
            let r = Chaos.round ~policy sched in
            Fmt.pr "%a@." Chaos.pp_round r;
            if r.Chaos.r_ok then exit_ok else exit_negative)
    | None ->
        let report =
          Chaos.sweep ~policy ~relations ~constraints ~seed ~rounds ()
        in
        List.iter (fun r -> Fmt.pr "%a@." Chaos.pp_round r) report.Chaos.rounds;
        Fmt.pr
          "-- chaos: %d round(s): %d identical, %d degraded-to-unknown, %d \
           failure(s)@."
          rounds report.Chaos.survived report.Chaos.unknowns
          (List.length report.Chaos.failures);
        List.iter
          (fun (r : Chaos.round_report) ->
            let sched = r.Chaos.r_schedule in
            let base =
              Filename.concat out_dir
                (Printf.sprintf "chaos_%d_round%d" seed sched.Chaos.s_round)
            in
            Chaos.save ~file:(base ^ ".chaos.json") sched;
            Chaos.save ~file:(base ^ "_min.chaos.json")
              (Chaos.shrink ~policy sched);
            Fmt.epr
              "cindtool: chaos: verdict changed in round %d; schedule dumped \
               to %s.chaos.json (shrunk: %s_min.chaos.json)@."
              sched.Chaos.s_round base base)
          report.Chaos.failures;
        if report.Chaos.failures = [] then exit_ok else exit_negative
  in
  Cmd.v
    (Cmd.info "chaos" ~exits
       ~doc:
         "Sweep randomized fault schedules over the probe registry and \
          assert every verdict is identical to the fault-free baseline or a \
          typed unknown.  Failing schedules are dumped as replayable \
          $(b,.chaos.json) files (raw and shrunk); replay one with \
          $(b,--replay) $(i,FILE).  Exit 0 when every round holds, 1 \
          otherwise."
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Each round draws a seeded random workload, records the \
              fault-free verdict (witness included), then re-runs the same \
              check with 1-3 probe sites armed to fail after a random number \
              of hits, a random number of times (transient faults retries \
              can get past, or permanent ones).  The supervised run must \
              return the bit-identical verdict or degrade to a typed \
              unknown; a $(i,different) definitive answer fails the round.  \
              The sweep honours the global $(b,--retries), \
              $(b,--no-degrade) and $(b,--jobs) flags.";
         ])
    Term.(
      const run $ seed_arg
      $ Arg.(
          value & opt int 25
          & info [ "rounds" ] ~docv:"N" ~doc:"Fault schedules to sweep.")
      $ Arg.(
          value & opt int 4
          & info [ "relations" ] ~docv:"N"
              ~doc:"Relations per generated workload.")
      $ Arg.(
          value & opt int 24
          & info [ "constraints" ] ~docv:"N"
              ~doc:"Constraints per generated workload.")
      $ Arg.(
          value & opt dir "."
          & info [ "out-dir" ] ~docv:"DIR"
              ~doc:"Directory for dumped .chaos.json schedules.")
      $ Arg.(
          value
          & opt (some file) None
          & info [ "replay" ] ~docv:"FILE"
              ~doc:
                "Replay one dumped schedule instead of sweeping; exit 0 if \
                 the verdict-identity property holds for it."))

(* --- profile ------------------------------------------------------------------ *)

(* `cindtool profile CMD ...` is intercepted before cmdliner dispatch (the
   wrapped command keeps its own positional grammar); this stub exists so
   the subcommand shows up in --help and `cindtool profile` alone gets a
   usage error instead of "unknown command". *)
let profile_stub_cmd =
  let run () =
    Fmt.epr
      "cindtool: profile expects a subcommand to run, e.g. `cindtool \
       profile check-consistency FILE`@.";
    exit_usage
  in
  Cmd.v
    (Cmd.info "profile" ~exits
       ~doc:
         "Run any other subcommand under the profiler and print a self-time \
          table (with p50/p90/p99 per span) on stderr at exit, e.g. \
          $(b,cindtool profile check-consistency FILE).  Combine with \
          $(b,--profile) $(i,FILE) to also export the trace.")
    Term.(const run $ const ())

(* --- global flags ------------------------------------------------------------ *)

(* --trace / --metrics FILE / --timeout SECS / --fuel N are global: they may
   appear before or after the subcommand name.  Cmdliner selects the
   subcommand from the first positional token, which would misread
   `--metrics out.jsonl check ...` (space-separated option values are
   ambiguous at selection time), so the flags are stripped from argv before
   cmdliner sees it. *)
type globals = {
  g_rest : string list;
  g_trace : bool;
  g_metrics : string option;
  g_profile : string option;
  g_timeout : float option;
  g_fuel : int option;
  g_jobs : int option;
  g_retries : int option;
  g_no_degrade : bool;
}

(* The global --profile takes an output FILE whose extension picks the
   format (.json = Chrome trace, .folded = flamegraph stacks).  Claiming
   only those extensions also keeps it from shadowing `gen`'s own
   --profile PROFILE workload-family option. *)
let profile_file s =
  Filename.check_suffix s ".json" || Filename.check_suffix s ".folded"

let extract_globals argv =
  let split_eq prefix arg =
    let n = String.length prefix in
    if String.length arg > n && String.sub arg 0 n = prefix then
      Some (String.sub arg n (String.length arg - n))
    else None
  in
  let timeout_of s =
    match float_of_string_opt s with
    | Some t when t > 0. -> Ok (Some t)
    | _ -> Error (Printf.sprintf "--timeout expects a positive number of seconds, got %S" s)
  in
  let fuel_of s =
    match int_of_string_opt s with
    | Some n when n > 0 -> Ok (Some n)
    | _ -> Error (Printf.sprintf "--fuel expects a positive step count, got %S" s)
  in
  let jobs_of s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok (Some n)
    | _ -> Error (Printf.sprintf "--jobs expects a positive domain count, got %S" s)
  in
  let retries_of s =
    match int_of_string_opt s with
    | Some n when n >= 0 -> Ok (Some n)
    | _ -> Error (Printf.sprintf "--retries expects a non-negative count, got %S" s)
  in
  let rec go g = function
    | [] -> Ok { g with g_rest = List.rev g.g_rest }
    | "--trace" :: rest -> go { g with g_trace = true } rest
    | "--profile" :: path :: rest when profile_file path ->
        go { g with g_profile = Some path } rest
    | [ "--metrics" ] -> Error "option --metrics needs an argument"
    | "--metrics" :: path :: rest -> go { g with g_metrics = Some path } rest
    | [ "--timeout" ] -> Error "option --timeout needs an argument"
    | "--timeout" :: secs :: rest -> (
        match timeout_of secs with
        | Ok t -> go { g with g_timeout = t } rest
        | Error _ as e -> e)
    | [ "--fuel" ] -> Error "option --fuel needs an argument"
    | "--fuel" :: n :: rest -> (
        match fuel_of n with
        | Ok f -> go { g with g_fuel = f } rest
        | Error _ as e -> e)
    | [ "--jobs" ] -> Error "option --jobs needs an argument"
    | "--jobs" :: n :: rest -> (
        match jobs_of n with
        | Ok j -> go { g with g_jobs = j } rest
        | Error _ as e -> e)
    | "--no-degrade" :: rest -> go { g with g_no_degrade = true } rest
    | [ "--retries" ] -> Error "option --retries needs an argument"
    | "--retries" :: n :: rest -> (
        match retries_of n with
        | Ok r -> go { g with g_retries = r } rest
        | Error _ as e -> e)
    | arg :: rest -> (
        match split_eq "--metrics=" arg with
        | Some path -> go { g with g_metrics = Some path } rest
        | None
          when match split_eq "--profile=" arg with
               | Some path -> profile_file path
               | None -> false ->
            go { g with g_profile = split_eq "--profile=" arg } rest
        | None -> (
            match split_eq "--timeout=" arg with
            | Some secs -> (
                match timeout_of secs with
                | Ok t -> go { g with g_timeout = t } rest
                | Error _ as e -> e)
            | None -> (
                match split_eq "--fuel=" arg with
                | Some n -> (
                    match fuel_of n with
                    | Ok f -> go { g with g_fuel = f } rest
                    | Error _ as e -> e)
                | None -> (
                    match split_eq "--jobs=" arg with
                    | Some n -> (
                        match jobs_of n with
                        | Ok j -> go { g with g_jobs = j } rest
                        | Error _ as e -> e)
                    | None -> (
                        match split_eq "--retries=" arg with
                        | Some n -> (
                            match retries_of n with
                            | Ok r -> go { g with g_retries = r } rest
                            | Error _ as e -> e)
                        | None -> go { g with g_rest = arg :: g.g_rest } rest)))))
  in
  go
    {
      g_rest = [];
      g_trace = false;
      g_metrics = None;
      g_profile = None;
      g_timeout = None;
      g_fuel = None;
      g_jobs = None;
      g_retries = None;
      g_no_degrade = false;
    }
    argv

let setup_telemetry ~trace ~metrics =
  if trace || metrics <> None then Telemetry.enable ();
  (* Interner table sizes as pull-based gauges: lib/relational cannot
     depend on telemetry, so the application registers the closures. *)
  Telemetry.register_gauge "interner.values"
    ~doc:"distinct values interned into the global id table"
    Interner.value_count;
  Telemetry.register_gauge "interner.symbols"
    ~doc:"distinct relation/attribute symbols interned"
    Interner.symbol_count;
  (* Store doublings: a counter, plus an instant marker on the growing
     domain's trace track when profiling (the copy-under-mutex hiccup is
     otherwise invisible). *)
  let m_growths =
    Telemetry.counter "interner.growths"
      ~doc:"interner store doublings (whole-table copies under the mutex)"
  in
  Interner.set_growth_hook (fun tname cap ->
      Telemetry.incr m_growths;
      Telemetry.instant (Printf.sprintf "interner.%s.grow:%d" tname cap));
  (match metrics with
  | Some path ->
      let oc = open_out path in
      Telemetry.set_sink (Telemetry.Jsonl oc);
      at_exit (fun () ->
          Telemetry.flush_metrics ();
          Telemetry.set_sink Telemetry.Null;
          close_out oc)
  | None -> if trace then Telemetry.set_sink (Telemetry.Pretty Fmt.stderr));
  if trace then at_exit (fun () -> Telemetry.pp_report Fmt.stderr ())

let setup_profiling ~profile ~table =
  if profile <> None || table then begin
    Telemetry.enable_profiling ();
    (* at_exit: registered after setup_telemetry's metrics flush, so these
       run first — the trace is written before the sink closes. *)
    (match profile with
    | Some path ->
        at_exit (fun () ->
            let oc = open_out path in
            if Filename.check_suffix path ".folded" then Telemetry.write_folded oc
            else Telemetry.write_chrome_trace oc;
            close_out oc)
    | None -> ());
    if table then at_exit (fun () -> pp_profile_table Fmt.stderr)
  end

let setup_guard ~timeout ~fuel =
  if timeout <> None || fuel <> None then
    Guard.set_ambient (Guard.make ?timeout_s:timeout ?fuel ())

(* --jobs sets the process-wide default that every ?jobs parameter
   (Checking.check, Random_checking.check, workload generation) inherits;
   verdicts and exit codes are identical at any jobs count for a fixed
   seed — only wall-clock changes. *)
let setup_jobs ~jobs =
  match jobs with
  | Some j -> Parallel.set_default_jobs j
  | None -> ()

(* Unlike the library (whose default keeps supervision off so embedded
   callers see historical behaviour), the tool defaults to the supervised
   policy: transient faults are retried and the fallback ladder may step
   to slower verdict-identical paths.  --retries 0 --no-degrade restores
   the unsupervised library behaviour. *)
let setup_supervision ~retries ~no_degrade =
  let base = Supervise.Policy.supervised in
  Supervise.Policy.set_ambient
    {
      Supervise.Policy.retries =
        Option.value ~default:base.Supervise.Policy.retries retries;
      degrade = (not no_degrade) && base.Supervise.Policy.degrade;
    }

(* Every ladder step taken anywhere in the run, reported once at exit so
   a degraded-but-answered invocation is visible, not silent. *)
let report_degradations () =
  List.iter
    (fun d -> Fmt.epr "cindtool: degraded: %a@." Supervise.pp_degradation d)
    (Supervise.degradation_trail ())

(* --- main --------------------------------------------------------------------- *)

let () =
  let man =
    [
      `S Manpage.s_common_options;
      `P
        "$(b,--trace) (anywhere on the command line) enables telemetry with a \
         human-readable span trace on stderr and a counter report at exit.";
      `P
        "$(b,--metrics) $(i,FILE) (anywhere on the command line) enables \
         telemetry and writes span events plus a final counter/histogram \
         snapshot to $(i,FILE) as JSON-lines; summarize it with $(b,cindtool \
         stats) $(i,FILE).";
      `P
        "$(b,--timeout) $(i,SECS) (anywhere on the command line) bounds the \
         whole invocation by a wall-clock deadline; when it passes, the \
         command stops promptly, prints the reason on stderr and exits with \
         code 3.";
      `P
        "$(b,--fuel) $(i,N) (anywhere on the command line) bounds the whole \
         invocation by a deterministic step budget (decision-procedure \
         steps); exhaustion behaves like $(b,--timeout) but is reproducible \
         across machines.";
      `P
        "$(b,--jobs) $(i,N) (anywhere on the command line) sets the \
         process-wide domain count for the randomized consistency \
         heuristics (default 1, or the $(b,JOBS) environment variable): \
         $(b,check-consistency) fans its K random runs across the domains, \
         always with the one backend $(b,--backend) names (default \
         $(b,chase)); $(b,gen) accepts the flag \
         like every global so generated-then-checked pipelines can pass it \
         uniformly (generation itself is deterministic from $(b,--seed)).  \
         Verdicts, witnesses and exit codes are identical to $(b,--jobs 1) \
         for a fixed seed; only wall-clock time changes.";
      `P
        "$(b,--profile) $(i,FILE) (anywhere on the command line) enables the \
         profiler and writes $(i,FILE) at exit: with a $(b,.json) extension, \
         a Chrome Trace Event file (open in chrome://tracing or Perfetto; \
         one track per worker domain under $(b,--jobs)); with $(b,.folded), \
         folded stacks for $(b,flamegraph.pl)/$(b,inferno).  The extension \
         is required — it selects the format (and keeps the flag distinct \
         from $(b,gen)'s own $(b,--profile) option).  See also the \
         $(b,profile) subcommand, which prints a self-time table instead.";
      `P
        "$(b,--retries) $(i,N) (anywhere on the command line) allows up to \
         $(i,N) supervised re-runs of an operation that failed transiently \
         (an injected fault, a local allocation ceiling) before the \
         fallback ladder steps down.  Each re-run replays the same random \
         seed, so a successful retry returns the bit-identical verdict the \
         fault-free run would have produced.  Default 1; $(b,--retries 0) \
         disables retrying.  Definitive verdicts and deterministic budget \
         give-ups are never retried.";
      `P
        "$(b,--no-degrade) (anywhere on the command line) disables the \
         degradation ladder (parallel to sequential, SAT to chase).  By \
         default, when retries are exhausted the tool steps down to the \
         next slower verdict-identical path and reports each step at exit \
         as $(b,cindtool: degraded: ...) on stderr; with this flag the \
         failure surfaces immediately as an undetermined answer (exit 3).";
    ]
  in
  let info =
    Cmd.info "cindtool" ~version:"1.0.0" ~exits ~man
      ~doc:"Reasoning about conditional inclusion and functional dependencies."
  in
  match extract_globals (List.tl (Array.to_list Sys.argv)) with
  | Error msg ->
      Fmt.epr "cindtool: %s@." msg;
      exit exit_usage
  | Ok g ->
      (* `profile CMD ...` wraps CMD under the profiler with a self-time
         table at exit; a bare `profile` falls through to the stub. *)
      let g, profile_table =
        match g.g_rest with
        | "profile" :: (_ :: _ as rest) -> ({ g with g_rest = rest }, true)
        | _ -> (g, false)
      in
      setup_telemetry ~trace:g.g_trace ~metrics:g.g_metrics;
      setup_profiling ~profile:g.g_profile ~table:profile_table;
      setup_guard ~timeout:g.g_timeout ~fuel:g.g_fuel;
      setup_jobs ~jobs:g.g_jobs;
      setup_supervision ~retries:g.g_retries ~no_degrade:g.g_no_degrade;
      let argv = Array.of_list (Sys.argv.(0) :: g.g_rest) in
      let group =
        Cmd.group info
          [
            parse_cmd;
            normalize_cmd;
            check_cmd;
            check_consistency_cmd;
            violations_cmd;
            implies_cmd;
            prove_cmd;
            logic_cmd;
            cover_cmd;
            witness_cmd;
            gen_cmd;
            sat_cmd;
            session_cmd;
            stats_cmd;
            chaos_cmd;
            profile_stub_cmd;
          ]
      in
      (* No OCaml exception escapes: budget exhaustion anywhere in an engine
         is exit 3 with the structured reason on stderr; anything else is an
         internal error, exit 2. *)
      let code =
        (* The root span makes the profile tree account for the whole
           dispatch (parse + subcommand), so self times cover the run's
           wall clock rather than just the instrumented subtrees. *)
        try Telemetry.with_span "cindtool.main" (fun () -> Cmd.eval' ~catch:false ~argv group)
        with
        | Guard.Exhausted r ->
            Fmt.epr "cindtool: resource budget exhausted (%s)@."
              (Guard.reason_to_string r);
            print_exhaustion_forensics ();
            exit_undetermined
        | e ->
            Fmt.epr "cindtool: internal error: %s@." (Printexc.to_string e);
            exit_usage
      in
      report_degradations ();
      (* cmdliner's CLI-error code is 124; fold it into the uniform scheme *)
      exit (if code = 124 || code = 123 || code = 125 then exit_usage else code)
