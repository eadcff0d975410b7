open Conddep_relational

(** Mixed constraint sets [Σ] of CFDs and CINDs. *)

type t = { cfds : Cfd.t list; cinds : Cind.t list }

(** Normal-form view of a constraint set (Prop 3.1 / CFD normal form). *)
type nf = { ncfds : Cfd.nf list; ncinds : Cind.nf list }

val make : ?cfds:Cfd.t list -> ?cinds:Cind.t list -> unit -> t
val union : t -> t -> t
val cardinality : t -> int
val nf_cardinality : nf -> int

val validate : Db_schema.t -> t -> (unit, string) result
(** First failing constraint's diagnosis, if any. *)

val normalize : t -> nf
val of_nf : nf -> t

val holds : Database.t -> t -> bool
(** [D |= Σ]. *)

val nf_holds : Database.t -> nf -> bool

val nf_holds_single : Database.t -> nf -> rel:string -> bool
(** [nf_holds db nf] for a [db] whose only nonempty relation is [rel]:
    checks only CFD(rel) and the CINDs whose LHS is [rel], the only
    constraints such a database can violate. *)

val cfds_on : nf -> string -> Cfd.nf list
(** The paper's [CFD(R)]: CFDs of Σ defined on relation [R]. *)

val cinds_between : nf -> src:string -> dst:string -> Cind.nf list
(** The paper's [CIND(Ri, Rj)]. *)

val constants : nf -> (string * string * Value.t) list
(** Every pattern constant of Σ as a [(relation, attribute, value)] triple. *)

val constant_values : nf -> Value.t list
(** The distinct pattern constants of Σ, sorted by [Value.compare]. *)

val pp : t Fmt.t
val pp_nf : nf Fmt.t
