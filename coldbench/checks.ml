(* Method-property checks. Each returns the list of violations it found, so
   a workload counts an operation as failed exactly when the list is
   non-empty, and the self-test can show each check rejecting a bad input. *)

module Graph = Cold_graph.Graph

let connected g =
  let n = Graph.node_count g in
  if n = 0 then true
  else begin
    let seen = Array.make n false in
    let stack = ref [ 0 ] in
    seen.(0) <- true;
    let count = ref 1 in
    while !stack <> [] do
      match !stack with
      | [] -> ()
      | u :: rest ->
        stack := rest;
        Graph.iter_neighbors g u (fun v ->
            if not seen.(v) then begin
              seen.(v) <- true;
              incr count;
              stack := v :: !stack
            end)
    done;
    !count = n
  end

(* Euclidean minimum spanning tree (Prim, O(n²)), built here rather than
   taken from the library so the bound it gives is independent. *)
let mst_edges (inp : Oracle.input) =
  let n = inp.Oracle.n in
  let in_tree = Array.make n false in
  let best = Array.make n infinity in
  let link = Array.make n (-1) in
  let edges = ref [] in
  if n > 0 then best.(0) <- 0.;
  for _ = 1 to n do
    let u = ref (-1) in
    for v = 0 to n - 1 do
      if (not in_tree.(v)) && (!u < 0 || best.(v) < best.(!u)) then u := v
    done;
    let u = !u in
    in_tree.(u) <- true;
    if link.(u) >= 0 then edges := (min u link.(u), max u link.(u)) :: !edges;
    for v = 0 to n - 1 do
      if not in_tree.(v) then begin
        let l = Oracle.length inp u v in
        if l < best.(v) then begin
          best.(v) <- l;
          link.(v) <- u
        end
      end
    done
  done;
  !edges

let clique_edges n =
  List.concat (List.init n (fun u -> List.init (n - u - 1) (fun k -> (u, u + 1 + k))))

(* [cost_matches] is the oracle comparison: the program's cost for [g]
   against the independent reference. *)
let cost_matches params inp g got =
  let expected = Oracle.of_params params inp (Graph.edges g) in
  if Oracle.agrees ~expected got then []
  else [ Printf.sprintf "cost %.17g differs from oracle %.17g" got expected ]

(* Bound [best] by the oracle cost of a reference topology. *)
let no_worse_than params inp ~what edges best =
  let c = Oracle.of_params params inp edges in
  if best <= c *. (1. +. Oracle.tolerance) then []
  else [ Printf.sprintf "best %.17g worse than %s %.17g" best what c ]

(* The properties every GA design must have: [n] nodes and connected, a
   non-increasing cost history ending at the best cost, the oracle's cost,
   no worse than the MST, the clique and every [seeds] topology, the
   evaluation count the settings imply, memo hits + misses = evaluations,
   and a final population sorted by ascending cost headed by the best. *)
let design ~params ~(settings : Cold.Ga.settings) ~inp ~seeds
    (r : Cold.Ga.result) =
  let n = inp.Oracle.n in
  let fails = ref [] in
  let add l = fails := !fails @ l in
  let g = r.Cold.Ga.best in
  if Graph.node_count g <> n then
    add [ Printf.sprintf "best has %d nodes, want %d" (Graph.node_count g) n ];
  if not (connected g) then add [ "best is disconnected" ];
  let h = r.Cold.Ga.history in
  for i = 1 to Array.length h - 1 do
    if h.(i) > h.(i - 1) then add [ Printf.sprintf "history rises at generation %d" i ]
  done;
  if Array.length h <> settings.Cold.Ga.generations + 1 then add [ "history length" ]
  else if not (Float.equal h.(Array.length h - 1) r.Cold.Ga.best_cost) then
    add [ "history does not end at the best cost" ];
  if !fails = [] then begin
    add (cost_matches params inp g r.Cold.Ga.best_cost);
    add (no_worse_than params inp ~what:"MST" (mst_edges inp) r.Cold.Ga.best_cost);
    add (no_worse_than params inp ~what:"clique" (clique_edges n) r.Cold.Ga.best_cost);
    List.iteri
      (fun i s ->
        add
          (no_worse_than params inp ~what:(Printf.sprintf "seed %d" i)
             (Graph.edges s) r.Cold.Ga.best_cost))
      seeds
  end;
  let m = settings.Cold.Ga.population_size in
  let expected =
    m + (settings.Cold.Ga.generations * (m - settings.Cold.Ga.num_saved))
  in
  if r.Cold.Ga.evaluations <> expected then
    add [ Printf.sprintf "%d evaluations, want %d" r.Cold.Ga.evaluations expected ];
  if r.Cold.Ga.cache_hits + r.Cold.Ga.cache_misses <> r.Cold.Ga.evaluations then
    add [ "memo hits + misses <> evaluations" ];
  let pop = r.Cold.Ga.final_population in
  for i = 1 to Array.length pop - 1 do
    if snd pop.(i) < snd pop.(i - 1) then
      add [ Printf.sprintf "final population unsorted at %d" i ]
  done;
  if Array.length pop = 0 || not (Float.equal (snd pop.(0)) r.Cold.Ga.best_cost)
  then add [ "final population not headed by the best" ];
  !fails

(* Bit-for-bit equality of two GA results: the traced rebuild against the
   plain call. *)
let same_result (a : Cold.Ga.result) (b : Cold.Ga.result) =
  let bits x = Int64.bits_of_float x in
  let same_float x y = Int64.equal (bits x) (bits y) in
  Graph.equal a.Cold.Ga.best b.Cold.Ga.best
  && same_float a.Cold.Ga.best_cost b.Cold.Ga.best_cost
  && Array.length a.Cold.Ga.history = Array.length b.Cold.Ga.history
  && Array.for_all2 same_float a.Cold.Ga.history b.Cold.Ga.history
  && Array.length a.Cold.Ga.final_population
     = Array.length b.Cold.Ga.final_population
  && Array.for_all2
       (fun (g, c) (g', c') -> Graph.equal g g' && same_float c c')
       a.Cold.Ga.final_population b.Cold.Ga.final_population
  && a.Cold.Ga.evaluations = b.Cold.Ga.evaluations
  && a.Cold.Ga.cache_hits = b.Cold.Ga.cache_hits
  && a.Cold.Ga.cache_misses = b.Cold.Ga.cache_misses

(* A digest of a GA result's outputs, printed by traced and untraced runs
   alike so the two can be compared for one seed. *)
let digest (r : Cold.Ga.result) =
  let b = Buffer.create 4096 in
  Buffer.add_string b (Printf.sprintf "%Lx;" (Int64.bits_of_float r.Cold.Ga.best_cost));
  Array.iter
    (fun c -> Buffer.add_string b (Printf.sprintf "%Lx," (Int64.bits_of_float c)))
    r.Cold.Ga.history;
  Array.iter
    (fun (g, c) ->
      Buffer.add_string b (Printf.sprintf "%Lx:" (Int64.bits_of_float c));
      Graph.iter_edges g (fun u v -> Buffer.add_string b (Printf.sprintf "%d-%d " u v)))
    r.Cold.Ga.final_population;
  Buffer.add_string b
    (Printf.sprintf "%d/%d/%d" r.Cold.Ga.evaluations r.Cold.Ga.cache_hits
       r.Cold.Ga.cache_misses);
  Util.fnv (Buffer.contents b)

(* A replayed answer must repeat the first answer byte for byte. *)
let replay ~first ~again =
  if String.equal first again then [] else [ "replay differs from first answer" ]

let unit_interval what x =
  if x >= 0. && x <= 1. then [] else [ Printf.sprintf "%s %g outside [0, 1]" what x ]
