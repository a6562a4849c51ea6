(* The traced run: the workload again, with spans around each layer's
   calls, then per-layer probes on the run's own inputs. Its metrics are
   the per-layer ones; the end-to-end figures come from untraced runs. *)

module Prng = Cold_prng.Prng
module Context = Cold_context.Context
module Graph = Cold_graph.Graph
module Network = Cold_net.Network

type probe = {
  stages : Design.stages;
  plain_s : float;
  traced_s : float;
  result : Cold.Ga.result;
  ctx : Context.t;
  fails : string list;
}

(* The daemon's pipeline for round 0 of [session], rebuilt in process from
   its public parts and held to the daemon's own edges answer. *)
let serve_probe ~seed (session : Serve.session) =
  let s0 = Serve.round_seed ~seed 0 in
  let c = Layers.serve_config in
  let rng = Prng.create s0 in
  let ctx = Context.generate (Context.default_spec ~n:Serve.n) rng in
  let (r0, net0), plain_s =
    Util.time (fun () ->
        let rng = Prng.copy rng in
        let r = Cold.Synthesis.design_ga c ctx rng in
        (r, Network.build ~policy:c.Cold.Synthesis.capacity ctx r.Cold.Ga.best))
  in
  let stages = Design.new_stages () in
  let (seeds, r1, net1), traced_s =
    Util.time (fun () -> Design.traced_design stages c ctx (Prng.copy rng))
  in
  let edges_req = List.assoc "edges" (Serve.round_requests s0) in
  let fails =
    (if Checks.same_result r0 r1 && Graph.equal net0.Network.graph net1.Network.graph
     then []
     else [ "traced daemon pipeline differs from the plain call" ])
    @ (match Hashtbl.find_opt session.Serve.first_answers edges_req with
      | Some answer when String.equal answer (Cold_netio.Edge_list.to_string net1.Network.graph) -> []
      | Some _ -> [ "in-process design differs from the daemon's answer" ]
      | None -> [ "round 0 unanswered" ])
    @ Checks.design ~params:c.Cold.Synthesis.params ~settings:c.Cold.Synthesis.ga
        ~inp:(Oracle.of_context ctx) ~seeds r1
  in
  List.iter (fun f -> Printf.eprintf "coldbench: serve probe: %s\n%!" f) fails;
  { stages; plain_s; traced_s; result = r1; ctx; fails }

let serve_side ~seed ~session (probe : probe) =
  let service, service_miss, service_hit =
    Layers.service_layers ~s0:(Serve.round_seed ~seed 0)
      ~payload:(Cold_netio.Edge_list.to_string probe.result.Cold.Ga.best)
  in
  service @ Layers.server_layers session ~service_miss ~service_hit

let design_workload kind ~exe ~seed ~seconds =
  let count, failed, st, plain_total, traced_total, ctx, r =
    Design.traced kind ~seed ~seconds
  in
  (* The daemon's layers, from a short session on this run's seed. *)
  let session = Serve.session ~exe ~seed ~seconds:infinity ~max_rounds:3 in
  let probe = serve_probe ~seed session in
  let ga_run_s = st.Design.ga /. float_of_int st.Design.designs in
  let heuristics =
    match kind with
    | Design.Paper -> Layers.stages st ~total:traced_total ~ga_run_s
    | Design.Uninit ->
      (* No heuristics run in this workload: their figures are the daemon
         pipeline's. *)
      Layers.stages probe.stages ~total:probe.traced_s ~ga_run_s
  in
  let metrics =
    heuristics
    @ Layers.ga_internals ~params:Design.params ~settings:Design.settings ctx r
    @ serve_side ~seed ~session probe
    @ [ Util.metric "trace.overhead_ratio" "ratio" (traced_total /. plain_total) ]
  in
  let probe_failed = if probe.fails = [] then 0 else 1 in
  {
    Util.attempted = count + session.Serve.attempted + 1;
    failed = failed + session.Serve.failed + probe_failed;
    metrics;
  }

let serve_workload ~exe ~seed ~seconds =
  let session = Serve.session ~exe ~seed ~seconds ~max_rounds:max_int in
  let probe = serve_probe ~seed session in
  let metrics =
    Layers.stages probe.stages ~total:probe.traced_s ~ga_run_s:probe.stages.Design.ga
    @ Layers.ga_internals ~params:Layers.serve_config.Cold.Synthesis.params
        ~settings:Layers.serve_config.Cold.Synthesis.ga probe.ctx probe.result
    @ serve_side ~seed ~session probe
    @ [ Util.metric "trace.overhead_ratio" "ratio" (probe.traced_s /. probe.plain_s) ]
  in
  {
    Util.attempted = session.Serve.attempted + 1;
    failed = session.Serve.failed + (if probe.fails = [] then 0 else 1);
    metrics;
  }
