(* Smoke test of the verdict benchmark at toy sizes.

   Runs every workload once untraced and once traced, and checks that each
   run is correct and reports exactly the metrics BENCHMARK.json names for
   its mode.  Then feeds one mislabelled input — a random Σ that
   preprocessing proves inconsistent, labelled consistent by construction —
   and checks that the verdict checks count it as failed.

   Usage: smoke.exe PATH/TO/BENCHMARK.json *)

open Conddep_generator

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("smoke: " ^ s);
      exit 1)
    fmt

(* The "name" values of one array-valued key of BENCHMARK.json. *)
let names_in json key =
  let rec find i sub =
    let n = String.length sub in
    if i + n > String.length json then None
    else if String.sub json i n = sub then Some i
    else find (i + 1) sub
  in
  let find_exn i sub =
    match find i sub with Some j -> j | None -> fail "%s not found in BENCHMARK.json" sub
  in
  let start = find_exn 0 (Printf.sprintf "%S" key) in
  let stop = find_exn start "]" in
  let rec collect i acc =
    match find i "\"name\"" with
    | Some j when j < stop ->
        let q1 = find_exn (j + 6) "\"" in
        let q2 = find_exn (q1 + 1) "\"" in
        collect q2 (String.sub json (q1 + 1) (q2 - q1 - 1) :: acc)
    | _ -> List.sort compare acc
  in
  collect start []

let () =
  let json = In_channel.with_open_bin Sys.argv.(1) In_channel.input_all in
  let end_to_end = names_in json "end_to_end" and per_layer = names_in json "per_layer" in
  (* environment-armed faults would turn verdicts into failures *)
  Guard.disarm_all ();
  List.iter
    (fun (name, workload) ->
      List.iter
        (fun (trace, expected) ->
          let r = Perfbench.run Perfbench.toy workload ~seed:5 ~seconds:0.4 ~trace in
          if (not r.correct) || r.failed <> 0 || r.attempted < 1 then
            fail "%s (trace %b): %d of %d requests failed:\n%s" name trace r.failed
              r.attempted (String.concat "\n" r.notes);
          let got = List.sort compare (List.map (fun (m : Perfbench.metric) -> m.name) r.metrics) in
          if got <> expected then
            fail "%s (trace %b): metrics [%s], BENCHMARK.json names [%s]" name trace
              (String.concat " " got) (String.concat " " expected))
        [ (false, end_to_end); (true, per_layer) ])
    Perfbench.workloads;
  let schema = Schema_gen.generate (Rng.make 1) Perfbench.(paper.schema) in
  let sigma = Workload.random (Rng.make 2) (Perfbench.workload_config 3000) schema in
  let input = Perfbench.check_input ~expect_consistent:true ~rng_seed:1 schema sigma in
  let r = Perfbench.run_check_inputs Perfbench.toy ~jobs:1 ~seconds:0.2 ~trace:false [| input |] in
  if r.correct || r.failed <> r.attempted then
    fail "mislabelled input: %d of %d requests reported failed" r.failed r.attempted;
  print_endline "smoke: ok"
