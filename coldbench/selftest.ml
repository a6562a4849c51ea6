(* The checks, checked: each must pass a good input and reject a bad one.
   Runs no workload. *)

module Prng = Cold_prng.Prng
module Context = Cold_context.Context
module Graph = Cold_graph.Graph

let run () =
  let problems = ref [] in
  let expect what ok = if not ok then problems := what :: !problems in
  let params = Cold.Cost.params () in
  let rng = Prng.create 7 in
  let ctx = Context.generate (Context.default_spec ~n:12) rng in
  let inp = Oracle.of_context ctx in
  (* The oracle agrees with the program on random connected topologies... *)
  for _ = 1 to 20 do
    let g = Graph.create 12 in
    for u = 0 to 11 do
      for v = u + 1 to 11 do
        if Prng.float rng < 0.3 then Graph.add_edge g u v
      done
    done;
    ignore (Cold.Repair.repair ctx g);
    let got = Cold.Cost.evaluate params ctx g in
    expect "oracle accepts the program's cost" (Checks.cost_matches params inp g got = []);
    (* ...and rejects the same cost perturbed by 1e-6 relative. *)
    expect "oracle rejects a cost off by 1e-6"
      (Checks.cost_matches params inp g (got *. (1. +. 1e-6)) <> [])
  done;
  let disconnected = Graph.create 12 in
  Graph.add_edge disconnected 0 1;
  expect "oracle prices a disconnected topology at infinity"
    (Float.equal (Oracle.of_params params inp (Graph.edges disconnected)) infinity);
  (* Replays: identical bytes pass, one flipped byte fails. *)
  let answer = "12 11\n0 1\n1 2\n" in
  let flipped = Bytes.of_string answer in
  Bytes.set flipped 3 (Char.chr (Char.code (Bytes.get flipped 3) lxor 1));
  expect "replay accepts identical bytes" (Checks.replay ~first:answer ~again:answer = []);
  expect "replay rejects one flipped byte"
    (Checks.replay ~first:answer ~again:(Bytes.to_string flipped) <> []);
  (* Properties: a real GA result passes; the same result with a
     disconnected best fails. *)
  let settings =
    { Cold.Ga.default_settings with Cold.Ga.generations = 3; population_size = 10;
      num_saved = 2; num_crossover = 5; num_mutation = 3; tournament_pool = 4 }
  in
  let r = Cold.Ga.run settings params ctx (Prng.create 3) in
  expect "a GA result passes the property checks"
    (Checks.design ~params ~settings ~inp ~seeds:[] r = []);
  let broken =
    { r with Cold.Ga.best = disconnected;
      final_population = Array.map (fun (_, c) -> (disconnected, c)) r.Cold.Ga.final_population }
  in
  expect "the property checks reject a disconnected topology"
    (Checks.design ~params ~settings ~inp ~seeds:[] broken <> []);
  expect "the property checks reject a rising history"
    (let h = Array.copy r.Cold.Ga.history in
     h.(0) <- h.(1) -. 1.;
     Checks.design ~params ~settings ~inp ~seeds:[] { r with Cold.Ga.history = h } <> []);
  match !problems with
  | [] -> print_endline "selftest: all checks pass good inputs and reject bad ones"; true
  | l ->
    List.iter (fun p -> Printf.eprintf "selftest FAILED: %s\n" p) (List.rev l);
    false
