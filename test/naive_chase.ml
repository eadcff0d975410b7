open Conddep_chase

(* The naive chase fixpoint: the test-tree oracle for the delta engine of
   [Chase.run].  It is built only from the public single operations
   [Chase.fd_step] and [Chase.ind_step], each a full rescan, and follows
   the same canonical schedule (DESIGN.md §10):

   - FD: apply the first compiled CFD whose [fd_step] changes the
     template, and repeat until none does;
   - IND: scan the CINDs round-robin, resuming after the last applied one.

   Thresholds and step fuel follow [Chase.run]: [config.max_steps] bounds
   each FD saturation pass and, separately, the IND steps of the whole
   run.  For equal inputs and rng seeds the outcome must be bit-identical
   to [Chase.run]'s, and [fd_fixpoint]'s to [Chase.fd_fixpoint]'s. *)

(* One FD saturation pass under the step fuel [fuel]. *)
let rec saturate fuel cfds db =
  let rec first = function
    | [] -> Ok db
    | cfd :: rest -> (
        match Chase.fd_step cfd db with
        | Chase.Fd_unchanged -> first rest
        | Chase.Fd_undefined why -> Error why
        | Chase.Fd_changed db' ->
            Guard.tick fuel;
            saturate fuel cfds db')
  in
  first cfds

(* FD saturation alone, with [Chase.fd_fixpoint]'s [max_steps] fuel. *)
let fd_fixpoint ?(max_steps = 10_000) cfds db =
  match saturate (Guard.make ~fuel:max_steps ()) cfds db with
  | Ok db -> Chase.Terminal db
  | Error why -> Chase.Undefined why
  | exception Guard.Exhausted r -> Chase.Exhausted r

let run ?(instantiated = false) ~config ~rng schema (compiled : Chase.compiled)
    db =
  let pool = Pool.make ~n:config.Chase.pool_size in
  let cinds = Array.of_list compiled.Chase.cinds in
  let n = Array.length cinds in
  let pos = ref 0 in
  let rec ind_scan k db =
    if k >= n then `Fixpoint
    else
      let j = (!pos + k) mod n in
      match
        Chase.ind_step ~instantiated ~threshold:config.Chase.threshold pool rng
          schema cinds.(j) db
      with
      | Chase.Ind_unchanged -> ind_scan (k + 1) db
      | Chase.Ind_overflow why -> `Overflow why
      | Chase.Ind_changed db' ->
          pos := (j + 1) mod n;
          `Applied db'
  in
  let fuel = Guard.make ~fuel:config.Chase.max_steps () in
  let rec go db =
    match
      saturate (Guard.make ~fuel:config.Chase.max_steps ()) compiled.Chase.cfds db
    with
    | Error why -> Chase.Undefined why
    | Ok db -> (
        match ind_scan 0 db with
        | `Fixpoint -> Chase.Terminal db
        | `Overflow why -> Chase.Undefined why
        | `Applied db' ->
            Guard.tick fuel;
            go db')
  in
  try go db with Guard.Exhausted r -> Chase.Exhausted r
