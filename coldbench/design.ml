(* The two in-process workloads: the paper pipeline ([Synthesis] at its
   default configuration, n = 40) and the unseeded GA ([Ga.run] with no
   seeds, n = 80). *)

module Prng = Cold_prng.Prng
module Context = Cold_context.Context
module Network = Cold_net.Network
module Graph = Cold_graph.Graph

type kind = Paper | Uninit

let n_of = function Paper -> 40 | Uninit -> 80

(* Every run designs for contexts drawn from this pool, in order, wrapping
   if a run gets through all of them. *)
let pool_size = 16

(* Set-up is timed in batches of this many repetitions: one batch before
   the first design and one after each design, so the batches span the
   whole run. The median of the batch medians is reported. On a shared host
   the ~1 ms generation ran 1.5-2x faster for seconds at a time, so a
   figure taken in one burst before the run moved with those phases. *)
let setup_reps = 9

let cfg = Cold.Synthesis.default_config ()
let params = cfg.Cold.Synthesis.params
let settings = cfg.Cold.Synthesis.ga

(* Context [i] of a run and the stream its design consumes: as in
   [Synthesis.synthesize], one generator draws the context and then drives
   the design. *)
let pool ~n ~seed =
  let root = Prng.create seed in
  Array.init pool_size (fun i ->
      let rng = Prng.split_at root i in
      let ctx = Context.generate (Context.default_spec ~n) rng in
      (ctx, rng))

(* Each repetition starts from a collected heap, so the figure is the
   generation work rather than page faults of a heap still growing (which
   made single samples swing by a third between runs). *)
let setup ~n ~seed =
  let samples = Array.make setup_reps 0. in
  let last = ref [||] in
  for k = 0 to setup_reps - 1 do
    Gc.full_major ();
    let p, dt = Util.time (fun () -> pool ~n ~seed) in
    samples.(k) <- dt;
    last := p
  done;
  (!last, Util.median samples)

(* The operation a user runs: [Synthesis.design] (as [design_ga] plus
   [Network.build], which is its definition, so the GA result can be
   checked), or the unseeded [Ga.run]. *)
let plain kind ctx rng =
  match kind with
  | Paper ->
    let r = Cold.Synthesis.design_ga cfg ctx rng in
    let net = Network.build ~policy:cfg.Cold.Synthesis.capacity ctx r.Cold.Ga.best in
    (r, Some net)
  | Uninit -> (Cold.Ga.run settings params ctx rng, None)

let check ~seeds ctx (r, net) =
  let inp = Oracle.of_context ctx in
  Checks.design ~params ~settings ~inp ~seeds r
  @
  match net with
  | Some net when not (Graph.equal net.Network.graph r.Cold.Ga.best) ->
    [ "network topology is not the GA's best" ]
  | _ -> []

let report_failures what fails =
  List.iter (fun f -> Printf.eprintf "coldbench: %s: %s\n%!" what f) fails

(* Keep designing while at least half a design's mean time is left, so a
   run ends close to [seconds] rather than a whole design past it. *)
let more ~i ~t_start ~spent ~seconds =
  !i = 0
  || Util.now () -. t_start +. (0.5 *. spent /. float_of_int !i) < seconds

let untraced kind ~seed ~seconds =
  let n = n_of kind in
  let pool, first = setup ~n ~seed in
  let batches = ref [ first ] in
  let times = ref [] in
  let failed = ref 0 in
  let i = ref 0 in
  let t_start = Util.now () in
  let spent = ref 0. in
  while more ~i ~t_start ~spent:!spent ~seconds do
    let ctx, rng0 = pool.(!i mod pool_size) in
    let c0 = Util.cpu () in
    let out, dt = Util.time (fun () -> plain kind ctx (Prng.copy rng0)) in
    let cpu = Util.cpu () -. c0 in
    times := dt :: !times;
    spent := !spent +. dt;
    let fails = check ~seeds:[] ctx out in
    if fails <> [] then incr failed;
    report_failures (Printf.sprintf "design %d" !i) fails;
    Printf.printf "design %d digest %Lx (%.3f s, %.3f s cpu)\n%!" !i (Checks.digest (fst out)) dt cpu;
    incr i;
    batches := snd (setup ~n ~seed) :: !batches
  done;
  let setup_s = Util.median (Array.of_list !batches) in
  let times = Array.of_list !times in
  let total = Array.fold_left ( +. ) 0. times in
  let rate = float_of_int !i /. total in
  {
    Util.attempted = !i;
    failed = !failed;
    metrics =
      Util.
        [
          metric "setup_s" "s" setup_s;
          metric "peak_mem_mb" "MB" (peak_rss_mb "self");
          metric "designs_per_s" "1/s" rate;
          metric "req_per_s" "1/s" rate;
          metric "miss_ms_p50" "ms" (1000. *. median times);
        ];
  }

(* --- traced run ------------------------------------------------------------ *)

type stages = {
  mutable star : float;
  mutable random_greedy : float;
  mutable complete : float;
  mutable mst : float;
  mutable greedy_attachment : float;
  mutable ga : float;
  mutable designs : int;
}

let new_stages () =
  {
    star = 0.;
    random_greedy = 0.;
    complete = 0.;
    mst = 0.;
    greedy_attachment = 0.;
    ga = 0.;
    designs = 0;
  }

let seed_set_s s = s.star +. s.random_greedy +. s.complete +. s.mst +. s.greedy_attachment

(* [Heuristics.seed_set] rebuilt from its public parts, one span per part:
   the best star, then each §5 algorithm in [Heuristics.all] order on the
   same stream. *)
let traced_seed_set st ~permutations p ctx rng =
  let star, dt = Util.time (fun () -> fst (Cold.Heuristics.best_star p ctx)) in
  st.star <- st.star +. dt;
  let seeds =
    List.map
      (fun alg ->
        let g, dt = Util.time (fun () -> fst (Cold.Heuristics.run alg p ctx rng)) in
        (match alg with
        | Cold.Heuristics.Random_greedy _ -> st.random_greedy <- st.random_greedy +. dt
        | Cold.Heuristics.Complete -> st.complete <- st.complete +. dt
        | Cold.Heuristics.Mst_hubs -> st.mst <- st.mst +. dt
        | Cold.Heuristics.Greedy_attachment ->
          st.greedy_attachment <- st.greedy_attachment +. dt);
        g)
      (Cold.Heuristics.all ~permutations)
  in
  star :: seeds

(* [Synthesis.design] rebuilt from its public parts — seed set, GA, network
   build — on the same stream, so it must return the identical design. *)
let traced_design st (c : Cold.Synthesis.config) ctx rng =
  let seeds =
    if c.Cold.Synthesis.seed_with_heuristics then
      traced_seed_set st ~permutations:c.Cold.Synthesis.heuristic_permutations
        c.Cold.Synthesis.params ctx rng
    else []
  in
  let r, dt =
    Util.time (fun () ->
        Cold.Ga.run ~domains:c.Cold.Synthesis.domains ~seeds
          ~survivable:c.Cold.Synthesis.survivable c.Cold.Synthesis.ga
          c.Cold.Synthesis.params ctx rng)
  in
  st.ga <- st.ga +. dt;
  let net = Network.build ~policy:c.Cold.Synthesis.capacity ctx r.Cold.Ga.best in
  st.designs <- st.designs + 1;
  (seeds, r, net)

let traced kind ~seed ~seconds =
  let n = n_of kind in
  let pool, _ = setup ~n ~seed in
  let st = new_stages () in
  let plain_total = ref 0. and traced_total = ref 0. in
  let failed = ref 0 in
  let last = ref None in
  let i = ref 0 in
  let t_start = Util.now () in
  while more ~i ~t_start ~spent:(!plain_total +. !traced_total) ~seconds do
    let ctx, rng0 = pool.(!i mod pool_size) in
    let run_plain () = Util.time (fun () -> plain kind ctx (Prng.copy rng0)) in
    let run_traced () =
      Util.time (fun () ->
          match kind with
          | Paper ->
            let seeds, r, net = traced_design st cfg ctx (Prng.copy rng0) in
            (seeds, r, Some net)
          | Uninit ->
            let r, dt = Util.time (fun () -> Cold.Ga.run settings params ctx (Prng.copy rng0)) in
            st.ga <- st.ga +. dt;
            st.designs <- st.designs + 1;
            ([], r, None))
    in
    (* Alternate which goes first, so warm caches favour neither. *)
    let (out, dt0), ((seeds, r, net), dt1) =
      if !i mod 2 = 0 then
        let p = run_plain () in
        (p, run_traced ())
      else
        let t = run_traced () in
        (run_plain (), t)
    in
    plain_total := !plain_total +. dt0;
    traced_total := !traced_total +. dt1;
    let same =
      Checks.same_result (fst out) r
      &&
      match (snd out, net) with
      | Some a, Some b -> Graph.equal a.Network.graph b.Network.graph
      | None, None -> true
      | _ -> false
    in
    let fails =
      (if same then [] else [ "traced design differs from the plain call" ])
      @ check ~seeds ctx (r, net)
    in
    if fails <> [] then incr failed;
    report_failures (Printf.sprintf "design %d" !i) fails;
    Printf.printf "design %d digest %Lx\n%!" !i (Checks.digest r);
    last := Some (ctx, r);
    incr i
  done;
  let ctx, r = Option.get !last in
  (!i, !failed, st, !plain_total, !traced_total, ctx, r)
