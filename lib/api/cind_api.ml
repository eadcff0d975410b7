open Conddep_relational
open Conddep_core
open Conddep_chase
open Conddep_consistency

(* Facade only: every function below is a mapping from an underlying
   result type onto the uniform three-valued [verdict], plus plumbing of
   the uniform option set.  No decision logic lives here. *)

type verdict = Yes of Database.t option | No | Unknown of Guard.reason

let to_bool = function Yes _ -> true | No | Unknown _ -> false

let pp_verdict ppf = function
  | Yes _ -> Fmt.string ppf "yes"
  | No -> Fmt.string ppf "no"
  | Unknown r -> Fmt.pf ppf "unknown (%s)" (Guard.reason_to_string r)

type backend = Cfd_checking.backend = Chase_backend | Sat_backend

(* Layers that don't take an explicit [?policy] still honour the ambient
   one; scoping it here gives the facade its uniform option. *)
let with_policy policy f =
  match policy with None -> f () | Some p -> Supervise.Policy.with_ambient p f

let of_checking = function
  | Checking.Consistent db -> Yes (Some db)
  | Checking.Inconsistent -> No
  | Checking.Unknown r -> Unknown r

let check ?backend ?budget ?policy ?jobs ?config ?k ?k_cfd ?recorder
    ~rng schema sigma =
  of_checking
    (Checking.check ?backend ?budget ?policy ?jobs ?config ?k ?k_cfd
       ?recorder ~rng schema sigma)

let check_many ?backend ?budget ?policy ?jobs ?chunk ?config ?k ?k_cfd
    ~rng schema sigmas =
  List.map of_checking
    (Checking.check_many ?backend ?budget ?policy ?jobs ?chunk ?config
       ?k ?k_cfd ~rng schema sigmas)

let random_check ?budget ?policy ?jobs ?config ?k ?k_cfd ?seed_rels
    ~rng schema sigma =
  with_policy policy @@ fun () ->
  match
    Random_checking.check ?budget ?config ?k ?k_cfd ?seed_rels ?jobs
      ~rng schema sigma
  with
  | Random_checking.Consistent db -> Yes (Some db)
  | Random_checking.Unknown r -> Unknown r

(* A [consistent_rel] tuple is a single-relation witness; realise it as a
   database so [Yes] carries the same payload everywhere (remaining
   infinite-domain variables instantiate to fresh values dodging
   [avoid]). *)
let tuple_witness ?avoid schema ~rel tup =
  Template.to_database ?avoid (Template.add (Template.empty schema) rel tup)

let of_consistent_rel ?avoid schema ~rel = function
  | Cfd_checking.Tuple tup -> Yes (Some (tuple_witness ?avoid schema ~rel tup))
  | Cfd_checking.No_tuple -> No
  | Cfd_checking.Gave_up ->
      (* The chase backend's failure to find a witness within K_CFD
         valuations proves nothing (Fig 10a's accuracy gap).  Definitive
         chase refutations arrive as [No_tuple], exactly like the
         complete SAT backend's Unsat — only genuine heuristic
         exhaustion lands here. *)
      Unknown Guard.Fuel

let consistent ?(backend = Chase_backend) ?budget ?policy ?avoid ?k_cfd
    ?recorder ~rng schema cfds ~rel =
  match
    Cfd_checking.consistent_rel ~backend ?policy ?budget
      ?avoid:(Option.map Lazy.from_val avoid) ?k_cfd ?recorder ~rng schema cfds
      ~rel
  with
  | r -> of_consistent_rel ?avoid schema ~rel r
  | exception Guard.Exhausted r -> Unknown r

let consistent_many ?(backend = Chase_backend) ?budget ?policy ?jobs ?chunk
    ?avoid ?k_cfd ~rng schema cfds ~rels =
  let results =
    Cfd_checking.consistent_many ~backend ?policy ?budget ?avoid
      ?k_cfd ?jobs ?chunk ~rng schema cfds ~rels
  in
  List.map2
    (fun rel -> function
      | Ok r -> of_consistent_rel ?avoid schema ~rel r
      | Error reason -> Unknown reason)
    rels results

let of_outcome = function
  | Implication.Implied -> Yes None
  | Implication.Not_implied -> No
  | Implication.Undetermined r -> Unknown r

let implies ?budget ?policy ?max_states ?recorder schema ~sigma psi =
  with_policy policy @@ fun () ->
  of_outcome (Implication.decide ?budget ?max_states ?recorder schema ~sigma psi)

let implies_many ?budget ?policy ?jobs ?chunk ?max_states schema ~sigma goals =
  with_policy policy @@ fun () ->
  List.map of_outcome
    (Implication.implies_many ?budget ?max_states ?jobs ?chunk schema ~sigma
       goals)

let implies_cfd ?budget ?policy ?max_nodes schema ~sigma phi =
  with_policy policy @@ fun () ->
  of_outcome (Cfd_implication.decide ?budget ?max_nodes schema ~sigma phi)

let preprocess ?backend ?budget ?policy ?k_cfd ~rng schema sigma =
  with_policy policy @@ fun () ->
  match Preprocessing.run ?backend ?budget ?k_cfd ~rng schema sigma with
  | Preprocessing.Consistent db -> Yes (Some db)
  | Preprocessing.Inconsistent -> No
  | Preprocessing.Unknown _components -> Unknown Guard.Fuel
  | exception Guard.Exhausted r -> Unknown r
