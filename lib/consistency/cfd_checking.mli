open Conddep_relational
open Conddep_core
open Conddep_chase

(** Procedure CFD_Checking (Sections 5.2–5.3), in its two implementations
    compared in Fig 10(a): chase-based (heuristic, bounded by K_CFD random
    valuations of finite-domain variables) and SAT-based (complete, via the
    CDCL solver standing in for SAT4j). *)

type backend =
  | Chase_backend
  | Sat_backend

type template_outcome =
  | Instantiated of Template.t
      (** A full instantiation: every finite-domain variable holds a
          constant. *)
  | Contradiction
      (** The initial forced-propagation fixpoint derived a contradiction
          from the input template alone — {e no} instantiation exists.
          Definitive, like an Unsat from the SAT backend. *)
  | Exhausted_k
      (** The heuristic gave up: K_CFD random valuations (or the
          fixpoint's local step fuel) ran out without finding an
          instantiation.  One may still exist. *)

val check_template_outcome :
  ?budget:Guard.t ->
  ?k_cfd:int ->
  ?avoid:Value.t list Lazy.t ->
  ?seed:(string * Template.tuple) list ->
  rng:Rng.t ->
  Chase.cfd_set ->
  Template.t ->
  template_outcome
(** Chase a template with CFDs only, then try up to [k_cfd] random
    valuations of the remaining finite-domain variables: a template whose
    finite-domain variables are all constants, a definitive refutation,
    or the heuristic give-up.  [avoid] is forced only when a valuation is
    drawn.  [seed] is the first fixpoint's initial dirty set
    ({!Chase.fd_fixpoint}): the tuples added to a template that was
    already FD-saturated.
    @raise Guard.Exhausted when the shared [budget] (default: ambient) runs
    dry or an armed fault fires; local step-fuel exhaustion of the
    fixpoint is swallowed as a failed attempt. *)

val consistent_rel_sat :
  ?budget:Guard.t ->
  ?avoid:Value.t list -> Db_schema.t -> Cfd.nf list -> rel:string -> Tuple.t option
(** Complete single-tuple consistency via CNF encoding; a satisfying tuple
    or [None].  Fresh values additionally dodge the [avoid] constants.
    @raise Guard.Exhausted if the solver answers [Unknown]: [None] is a
    definitive verdict here and is never used for undetermined answers. *)

type witness =
  | Tuple of Template.tuple  (** A satisfying single tuple. *)
  | No_tuple
      (** Definitely no satisfying tuple: Unsat from the SAT backend, or
          a forced-propagation contradiction from the chase backend. *)
  | Gave_up
      (** The chase backend's K_CFD heuristic ran out; undetermined. *)

val consistent_rel :
  ?backend:backend ->
  ?policy:Supervise.Policy.t ->
  ?budget:Guard.t ->
  ?avoid:Value.t list Lazy.t ->
  ?k_cfd:int ->
  ?recorder:Read_set.t ->
  rng:Rng.t ->
  Db_schema.t ->
  Cfd.nf list ->
  rel:string ->
  witness
(** Uniform front-end: the instantiated tuple template τ(rel) satisfying
    CFD(rel), a definitive [No_tuple], or [Gave_up] (chase backend only —
    the SAT backend is complete).  The chase backend compiles CFD(rel)
    lazily ({!Chase.lazy_cfd_set}); [avoid] is forced only by the SAT
    encoding or a drawn valuation.  A [recorder] notes [rel] and the CFDs
    on [rel] (the only dependencies the verdict can depend on).  When
    [policy] (default: the ambient {!Supervise.Policy}) allows
    degradation and the SAT backend raises an injected fault while the
    shared [budget] is intact, the call falls back to the chase backend
    (the SAT -> chase ladder rung) and records the step on the
    degradation trail. *)

val consistent_many :
  ?backend:backend ->
  ?policy:Supervise.Policy.t ->
  ?budget:Guard.t ->
  ?avoid:Value.t list ->
  ?k_cfd:int ->
  ?jobs:int ->
  ?chunk:int ->
  rng:Rng.t ->
  Db_schema.t ->
  Cfd.nf list ->
  rels:string list ->
  (witness, Guard.reason) result list
(** Batch {!consistent_rel} over many relations.  Item i is bit-identical
    to [consistent_rel ~rng:(List.nth (Rng.split_n rng N) i) ... ~rel]
    at any [jobs] count; a per-item [Guard.Exhausted] becomes [Error r]
    instead of discarding finished siblings.  The batch shares one
    grouping of [cfds] by relation and, when {!Parallel.estimate}
    justifies domains, one pool balancing the items ([chunk] per task)
    via work stealing; otherwise it is a plain sequential loop. *)
