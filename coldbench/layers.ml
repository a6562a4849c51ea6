(* Per-layer timings for the traced run. Each figure times calls into one
   layer's public functions, on the inputs of the run that precedes it. *)

module Prng = Cold_prng.Prng
module Context = Cold_context.Context
module Graph = Cold_graph.Graph
module Network = Cold_net.Network
module Incremental = Cold_net.Incremental
module P = Cold_serve.Protocol
module Service = Cold_serve.Service

let us x = 1e6 *. x
let ms x = 1e3 *. x
let m = Util.metric

(* The daemon's per-request pipeline: its default GA budget (the
   population split and permutations [Service] derives from
   [Protocol.design]'s defaults) at one evaluation stream. *)
let serve_config =
  let d = P.(match parse "synth x n=20 seed=1" with
      | Ok { body = Job (Synth { design; _ }); _ } -> design
      | _ -> invalid_arg "serve_config") in
  let pop = d.P.population in
  let saved = max 1 (pop / 5) and crossover = max 1 (pop / 2) in
  {
    (Cold.Synthesis.default_config ~params:d.P.params ()) with
    Cold.Synthesis.ga =
      {
        Cold.Ga.default_settings with
        Cold.Ga.population_size = pop;
        generations = d.P.generations;
        num_saved = saved;
        num_crossover = crossover;
        num_mutation = pop - saved - crossover;
      };
    heuristic_permutations = d.P.permutations;
  }

(* Breeding, memo, evaluation and incremental figures on the final
   population of [r], a GA run under [settings] on [ctx]. *)
let ga_internals ~params ~(settings : Cold.Ga.settings) ctx (r : Cold.Ga.result) =
  let pop = r.Cold.Ga.final_population in
  let size = Array.length pop in
  let rng = Prng.create 0x1A7E5 in
  let k = ref 0 in
  let member () =
    let g = fst pop.(!k mod size) in
    incr k;
    g
  in
  let n = Context.n ctx in
  let pool = settings.Cold.Ga.tournament_pool
  and winners = settings.Cold.Ga.tournament_winners in
  let tournament =
    Util.per_call (fun () -> ignore (Cold.Operators.tournament ~pool ~winners pop rng))
  in
  let parents = Cold.Operators.tournament ~pool ~winners pop rng in
  let crossover =
    Util.per_call (fun () -> ignore (Cold.Operators.crossover ctx ~parents rng))
  in
  (* A GA mutant is a copy of its parent, mutated in place. *)
  let link_mutation =
    Util.per_call (fun () ->
        Cold.Operators.link_mutation ctx (Graph.copy (member ())) rng)
  in
  let node_mutation =
    Util.per_call (fun () ->
        Cold.Operators.node_mutation ctx (Graph.copy (member ())) rng)
  in
  let repair = Util.per_call (fun () -> ignore (Cold.Repair.repair ctx (member ()))) in
  let fingerprint = Util.per_call (fun () -> ignore (Graph.fingerprint (member ()))) in
  let best = r.Cold.Ga.best in
  let cache = Cold.Fitness_cache.create ~slots:Cold.Ga.default_cache_slots in
  ignore (Cold.Fitness_cache.find_or_compute cache best (fun () -> r.Cold.Ga.best_cost));
  let memo_hit =
    Util.per_call (fun () ->
        ignore (Cold.Fitness_cache.find_or_compute cache best (fun () -> nan)))
  in
  let ws = Cold_net.Routing.domain_workspace ~n in
  let sparse = Util.per_call (fun () -> ignore (Cold.Cost.evaluate ~workspace:ws params ctx best)) in
  let clique = Graph.complete n in
  let dense =
    Util.per_call ~budget:0.1 (fun () ->
        ignore (Cold.Cost.evaluate ~workspace:ws params ctx clique))
  in
  let csr = Graph.Csr.of_graph best in
  let spws = Cold_graph.Shortest_path.domain_workspace ~n in
  let length u v = Context.distance ctx u v in
  let dijkstra =
    Util.per_call (fun () ->
        ignore
          (Cold_graph.Shortest_path.dijkstra ~csr ~workspace:spws best ~length
             ~source:(!k mod n));
        incr k)
  in
  (* One generation's mutants, bred as Ga.run breeds them, then evaluated as
     Ga.run evaluates them: clone the parent's state, retarget, evaluate,
     commit. *)
  let states = Hashtbl.create 16 in
  let state_of idx =
    match Hashtbl.find_opt states idx with
    | Some st -> st
    | None ->
      let st = Cold.Cost.state ctx (fst pop.(idx)) in
      ignore (Cold.Cost.evaluate_state params ctx st);
      Incremental.commit st;
      Hashtbl.replace states idx st;
      st
  in
  let mutants =
    Array.init settings.Cold.Ga.num_mutation (fun _ ->
        let idx = Cold.Operators.select_inverse_cost pop rng in
        let g = Graph.copy (fst pop.(idx)) in
        if Cold_prng.Dist.bernoulli rng ~p:settings.Cold.Ga.node_mutation_prob then
          Cold.Operators.node_mutation ctx g rng
        else Cold.Operators.link_mutation ctx g rng;
        (state_of idx, g))
  in
  let repaired = ref 0 and recomputed = ref 0 in
  let batch () =
    repaired := 0;
    recomputed := 0;
    Array.iter
      (fun (parent, g) ->
        let st = Incremental.clone parent in
        ignore (Incremental.retarget st g);
        ignore (Cold.Cost.evaluate_state params ctx st);
        Incremental.commit st;
        repaired := !repaired + Incremental.repaired_trees st;
        recomputed := !recomputed + Incremental.recomputed_trees st)
      mutants
  in
  let nm = float_of_int (max 1 (Array.length mutants)) in
  let mutant = Util.per_call ~budget:0.1 batch /. nm in
  let fresh =
    Util.per_call ~budget:0.1 (fun () ->
        ignore (Cold.Cost.evaluate_state params ctx (Cold.Cost.state ctx best)))
  in
  let st = Cold.Cost.state ctx best in
  ignore (Cold.Cost.evaluate_state params ctx st);
  let state_kb = float_of_int (Obj.reachable_words (Obj.repr st) * 8) /. 1024. in
  let build = Util.per_call (fun () -> ignore (Network.build ctx best)) in
  let net = Network.build ctx best in
  let trace = Cold_sim.Failure.generate ~steps:20 ctx ~seed:1 in
  let failure =
    Util.per_call (fun () -> ignore (Cold_sim.Failure.evaluate ~domains:1 net trace))
  in
  let spec = Context.default_spec ~n in
  let generate =
    Util.per_call (fun () -> ignore (Context.generate spec (Prng.create !k)); incr k)
  in
  let nc = float_of_int settings.Cold.Ga.num_crossover
  and nmut = float_of_int settings.Cold.Ga.num_mutation in
  let breed =
    (nc *. (tournament +. crossover))
    +. (nmut *. (link_mutation +. node_mutation) /. 2.)
    +. ((nc +. nmut) *. fingerprint)
  in
  let e = r.Cold.Ga.evaluations in
  [
    m "context.generate_ms" "ms" (ms generate);
    m "ga.evaluations" "count" (float_of_int e);
    m "ga.memo_hits" "count" (float_of_int r.Cold.Ga.cache_hits);
    m "ga.memo_misses" "count" (float_of_int r.Cold.Ga.cache_misses);
    m "ga.memo_hit_ratio" "ratio" (float_of_int r.Cold.Ga.cache_hits /. float_of_int e);
    m "operators.tournament_us" "us" (us tournament);
    m "operators.crossover_us" "us" (us crossover);
    m "operators.link_mutation_us" "us" (us link_mutation);
    m "operators.node_mutation_us" "us" (us node_mutation);
    m "repair.repair_us" "us" (us repair);
    m "ga.breed_ms_per_gen" "ms" (ms breed);
    m "graph.fingerprint_us" "us" (us fingerprint);
    m "fitness_cache.hit_us" "us" (us memo_hit);
    m "cost.evaluate_sparse_us" "us" (us sparse);
    m "cost.evaluate_dense_us" "us" (us dense);
    m "shortest_path.dijkstra_us" "us" (us dijkstra);
    m "incremental.mutant_us" "us" (us mutant);
    m "incremental.fresh_state_us" "us" (us fresh);
    m "incremental.trees_repaired" "count" (float_of_int !repaired /. nm);
    m "incremental.trees_recomputed" "count" (float_of_int !recomputed /. nm);
    m "incremental.state_kb" "KB" state_kb;
    m "network.build_ms" "ms" (ms build);
    m "failure.evaluate_ms" "ms" (ms failure);
  ]

(* Stage figures of traced designs. [total] is the traced designs' wall
   time, which the heuristics share is taken of; [ga_run_s] is the
   workload's own GA time per design. *)
let stages (st : Design.stages) ~total ~ga_run_s =
  let per x = x /. float_of_int (max 1 st.Design.designs) in
  [
    m "heuristics.seed_set_s" "s" (per (Design.seed_set_s st));
    m "heuristics.best_star_ms" "ms" (ms (per st.Design.star));
    m "heuristics.random_greedy_s" "s" (per st.Design.random_greedy);
    m "heuristics.greedy_attachment_s" "s" (per st.Design.greedy_attachment);
    m "heuristics.complete_s" "s" (per st.Design.complete);
    m "heuristics.mst_s" "s" (per st.Design.mst);
    m "heuristics.share" "ratio" (Design.seed_set_s st /. total);
    m "ga.run_s" "s" ga_run_s;
  ]

let parse_job line =
  match P.parse line with
  | Ok { P.body = P.Job j; _ } -> j
  | _ -> invalid_arg ("not a job: " ^ line)

(* In-process figures for the daemon's layers: the codec, one service
   answering misses and hits, and a two-stream service batch, all on
   designs of the daemon's default request at design seed [s0]. *)
let service_layers ~s0 ~payload =
  (* Start from a compacted heap, so garbage the workload left behind does
     not bill whichever probe runs into its collection. *)
  Gc.compact ();
  let line s fmt = Printf.sprintf "synth q n=%d seed=%d format=%s" Serve.n s fmt in
  let sample = line s0 "summary" in
  let parse = Util.per_call (fun () -> ignore (P.parse sample)) in
  let frame = Util.per_call (fun () -> ignore (P.frame_ok ~id:"q" payload)) in
  (* The three formats are three distinct misses on one design; each is
     followed by the design's seed set alone, so the two are timed under
     the same conditions. *)
  let rng = Prng.create s0 in
  let ctx = Context.generate (Context.default_spec ~n:Serve.n) rng in
  let c = serve_config in
  let svc = Service.create ~domains:1 () in
  let pairs =
    Array.map
      (fun fmt ->
        let job = parse_job (line s0 fmt) in
        let miss = snd (Util.time (fun () -> ignore (Service.respond svc job))) in
        let seed_set =
          snd
            (Util.time (fun () ->
                 Cold.Heuristics.seed_set
                   ~permutations:c.Cold.Synthesis.heuristic_permutations
                   c.Cold.Synthesis.params ctx (Prng.copy rng)))
        in
        (miss, seed_set))
      [| "summary"; "edges"; "gml" |]
  in
  let miss = Util.median (Array.map fst pairs) in
  let seed_set = Util.median (Array.map snd pairs) in
  let hit_job = parse_job sample in
  let hit = Util.per_call (fun () -> ignore (Service.respond svc hit_job)) in
  Service.shutdown svc;
  (* Two misses in one batch against the same two answered one batch at a
     time. A fresh two-domain pool runs its first batches slowly, so one
     pair warms it up and the median of three pairs is reported. *)
  let svc2 = Service.create ~domains:2 () in
  let ratio k =
    let a = Serve.round_seed ~seed:s0 (2 * k)
    and b = Serve.round_seed ~seed:s0 ((2 * k) + 1) in
    let batch jobs = snd (Util.time (fun () -> ignore (Service.handle_batch svc2 jobs))) in
    let pair = batch [| parse_job (line a "edges"); parse_job (line b "edges") |] in
    let single = batch [| parse_job (line a "gml") |] +. batch [| parse_job (line b "gml") |] in
    single /. pair
  in
  ignore (ratio 0);
  let speedup = Util.median [| ratio 1; ratio 2; ratio 3 |] in
  Service.shutdown svc2;
  ( [
      m "protocol.parse_us" "us" (us parse);
      m "protocol.frame_us" "us" (us frame);
      m "service.miss_ms" "ms" (ms miss);
      m "service.hit_us" "us" (us hit);
      m "service.seed_share" "ratio" (seed_set /. miss);
      m "par.batch2_speedup" "ratio" speedup;
    ],
    miss,
    hit )

(* Figures from a daemon session: client round trips and the stats verb. *)
let server_layers (s : Serve.session) ~service_miss ~service_hit =
  let stat k = Client.json_float s.Serve.stats k in
  let miss50 = Util.median s.Serve.miss_rtt in
  let hit50 = if Array.length s.Serve.hit_rtt = 0 then nan else Util.median s.Serve.hit_rtt in
  [
    m "server.service_ms_p50" "ms" (stat "p50_ms");
    m "server.miss_overhead_ms" "ms" (ms (miss50 -. service_miss));
    m "server.hit_ms_p50" "ms" (ms hit50);
    m "server.hit_wait_ms" "ms" (ms (hit50 -. service_hit));
    m "server.miss_ms_p90" "ms" (ms (Util.quantile s.Serve.miss_rtt 0.9));
    m "server.jobs" "count" (stat "jobs");
    m "server.cache_hits" "count" (stat "hits");
    m "server.cache_misses" "count" (stat "misses");
  ]
