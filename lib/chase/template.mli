open Conddep_relational

(** Database templates for the extended chase (Section 5.1): databases whose
    fields may be variables from the bounded pools [var\[A\]]. *)

type var = { vrel : string; vattr : string; vidx : int }

type cell =
  | V of var
  | C of Value.t

val var_compare : var -> var -> int
(** The paper's total order on variables. *)

val cell_compare : cell -> cell -> int
(** Variables below constants, as the chase's merge rule requires. *)

val cell_equal : cell -> cell -> bool

val cell_matches_pattern : cell -> Pattern.cell -> bool
(** [≍] on template cells: variables match only '_' (v ≠ a, v 6≍ a). *)

type tuple = cell array

val tuple_compare : tuple -> tuple -> int

type t

val empty : Db_schema.t -> t
val schema : t -> Db_schema.t

val tuples : t -> string -> tuple list
(** @raise Invalid_argument on an unknown relation. *)

val cardinal : t -> string -> int
val total : t -> int
val mem : t -> string -> tuple -> bool

val add : t -> string -> tuple -> t
(** Set semantics: adding an existing tuple is a no-op. *)

val subst : t -> var -> cell -> t
(** Global substitution of a variable (a variable denotes one value).
    Tuples not containing the variable keep their physical identity. *)

type delta = {
  d_removed : (string * tuple) list;
      (** pre-substitution versions of every rewritten tuple, including
          copies that merged into an existing equal tuple *)
  d_added : (string * tuple) list;
      (** rewritten versions actually inserted (absent for merges) *)
}

val empty_delta : delta

val subst_track : t -> var -> cell -> t * delta
(** [subst] plus the exact tuple-level change set — what the delta chase
    engine's dirty worklists and the witness-index maintenance consume.
    The delta is empty iff the template is returned unchanged (and then
    it is physically the input). *)

val equal : t -> t -> bool
(** Same tuple sets per relation (schema assumed shared); compares the
    interned integer key sets, so no cell traversal. *)

val column_constants : t -> rel:string -> attr:string -> Value.t list
(** Constants currently occurring in one attribute column of a relation. *)

val variables : t -> var list
val finite_variables : t -> var list
(** Variables over finite-domain attributes — the domain of the paper's
    valuation set [Vfinattr(R)]. *)

val to_database : ?avoid:Value.t list -> t -> Database.t
(** Concretize the template: infinite-domain variables become pairwise
    distinct fresh values avoiding [avoid] (so they trigger no pattern);
    finite-domain variables take non-avoided domain values when possible. *)

val pp_var : var Fmt.t
val pp_cell : cell Fmt.t
val pp_tuple : tuple Fmt.t
val pp : t Fmt.t
