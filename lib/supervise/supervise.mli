(** Resilience layer between {!Guard} and the engines: retry with
    deterministic backoff, a process-wide supervision policy, and the
    structured degradation trail the fallback ladders append to.

    The layer never invents answers.  A retry re-runs the {e same}
    deterministic operation (callers snapshot their RNG with {!Rng.copy}
    per attempt), so a successful re-run after a transient fault yields
    the bit-identical verdict the fault-free run would have produced; a
    degradation switches to a slower {e verdict-identical} path
    (parallel to sequential, SAT to chase).
    Definitive verdicts are never retried — only outcomes the caller
    classifies as {!Transient} are.

    Backoff is measured in fuel slices ticked against the shared budget,
    not wall-clock sleeps: tests stay fast, and a budget too spent to
    afford the backoff correctly turns the retry into a give-up.
    Telemetry: [supervise.retries], [supervise.gave_up],
    [supervise.degraded]; each re-attempt runs under a
    ["supervise.retry"] span. *)

(** {1 Policy} *)

module Policy : sig
  type t = {
    retries : int;  (** re-runs allowed per supervised operation *)
    degrade : bool;  (** allow ladder fallbacks to slower identical paths *)
  }

  val default : t
  (** [{ retries = 0; degrade = false }] — supervision off.  The library
      default, so unsupervised callers (and the pre-existing fault-sweep
      tests) see the historical behaviour bit-for-bit. *)

  val supervised : t
  (** [{ retries = 1; degrade = true }] — the [cindtool] default. *)

  val ambient : unit -> t
  (** The process-wide policy, {!default} until set. *)

  val set_ambient : t -> unit

  val with_ambient : t -> (unit -> 'a) -> 'a
  (** Scoped {!set_ambient}; restores the previous policy on exit. *)

  val resolve : t option -> t
  (** [resolve (Some p)] is [p]; [resolve None] is [ambient ()]. *)
end

(** {1 Degradation trail} *)

type degradation = {
  d_stage : string;  (** pipeline stage, e.g. ["checking"] *)
  d_from : string;  (** the fast path, e.g. ["parallel"] *)
  d_to : string;  (** the verdict-identical slow path, e.g. ["sequential"] *)
  d_reason : string;  (** why, e.g. ["fault:parallel.worker"] *)
}

val record_degradation :
  stage:string -> from_:string -> to_:string -> reason:string -> unit
(** Append one step to the process-wide trail (thread-safe) and bump
    [supervise.degraded]. *)

val degradation_trail : unit -> degradation list
(** The trail so far, in chronological order. *)

val clear_trail : unit -> unit

val pp_degradation : Format.formatter -> degradation -> unit
(** ["checking: parallel -> sequential (fault:parallel.worker)"]. *)

(** {1 Retry with backoff} *)

type 'a attempt =
  | Done of 'a  (** a verdict — definitive or a give-up; never retried *)
  | Transient of Guard.reason  (** worth re-running, budget permitting *)

val transient : shared:Guard.t -> Guard.reason -> bool
(** Classification helper for {!with_retry} callers: [true] iff the
    reason is an injected {!Guard.Fault} or a local {!Guard.Memory}
    ceiling {e and} the [shared] budget is not spent.  Deterministic
    heuristic give-ups ([Fuel] from the paper's K / K_CFD caps) and
    shared-limit exhaustion re-run identically, so retrying them is
    wasted fuel; cancellation is an order, not a failure. *)

type backoff = {
  base_cost : int;  (** fuel ticked before the first re-attempt *)
  multiplier : int;  (** exponential growth per further attempt *)
  max_cost : int;  (** cap on the slice *)
  jitter : int;  (** max extra fuel, drawn from the caller's [rng] *)
}

val default_backoff : backoff
(** [{ base_cost = 64; multiplier = 2; max_cost = 4096; jitter = 16 }]. *)

val with_retry :
  ?policy:Policy.t ->
  ?backoff:backoff ->
  ?rng:Rng.t ->
  budget:Guard.t ->
  (attempt:int -> 'a attempt) ->
  ('a, Guard.reason) result
(** [with_retry ~budget f] runs [f ~attempt:0]; while it returns
    [Transient r] (or raises {!Guard.Exhausted} — caught and treated as
    transient), at most [policy.retries] re-attempts follow, each after
    burning a capped-exponential fuel slice (plus deterministic
    [rng]-seeded jitter) against [budget].  Stops with [Error] when
    attempts run out, when the shared [budget] goes spent (the backoff
    tick itself may spend it — then the budget's own reason is
    reported), or when the budget was already spent going in.  [Done v]
    returns [Ok v] immediately.  Re-attempts run under a
    ["supervise.retry"] span and bump [supervise.retries]; a final
    failure bumps [supervise.gave_up]. *)
