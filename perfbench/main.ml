(* Command-line entry point of the verdict benchmark:

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Prints human-readable notes, then one JSON result object as the last line
   of standard output.  --trace 0 reports the end-to-end metrics, --trace 1
   the per-layer ones (and writes folded stacks under
   .bench_build/perfbench-out).  Exit code 0 when the run finished, 2 on a
   usage error. *)

let usage () =
  prerr_endline "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1";
  prerr_endline
    ("workloads: " ^ String.concat ", " (List.map fst Perfbench.workloads));
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
        parse ((String.sub key 2 (String.length key - 2), value) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get key = match List.assoc_opt key opts with Some v -> v | None -> usage () in
  let int_of key = match int_of_string_opt (get key) with Some n -> n | None -> usage () in
  let workload =
    match List.assoc_opt (get "workload") Perfbench.workloads with
    | Some w -> w
    | None -> usage ()
  in
  let seed = int_of "seed" and seconds = float (int_of "seconds") in
  let trace = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
  let report = Perfbench.run Perfbench.paper workload ~seed ~seconds ~trace in
  List.iter print_endline report.notes;
  print_endline (Perfbench.json_of_report report)
