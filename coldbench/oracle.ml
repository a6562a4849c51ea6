(* An independent reference for the COLD cost (paper §3.2), written from the
   model's definition and sharing no code with Cold.Cost, Cold_net.Routing or
   Cold_graph.Shortest_path: Floyd–Warshall all-pairs shortest paths with a
   next-hop table, every gravity demand walked hop by hop along its path, and
   the four cost terms summed over the links.

   Random Euclidean PoPs make every shortest path unique almost surely, so no
   tie-break rule has to agree with the program's; the two sides differ only
   in float summation order, which the 1e-9 relative tolerance absorbs. *)

type input = {
  n : int;
  xs : float array;
  ys : float array;
  pops : float array;
  scale : float;
}

let of_context (ctx : Cold_context.Context.t) =
  let pts = ctx.Cold_context.Context.points in
  {
    n = Array.length pts;
    xs = Array.map (fun (p : Cold_geom.Point.t) -> p.Cold_geom.Point.x) pts;
    ys = Array.map (fun (p : Cold_geom.Point.t) -> p.Cold_geom.Point.y) pts;
    pops = Cold_traffic.Gravity.populations ctx.Cold_context.Context.tm;
    scale = ctx.Cold_context.Context.spec.Cold_context.Context.traffic_scale;
  }

let length inp u v =
  let dx = inp.xs.(u) -. inp.xs.(v) and dy = inp.ys.(u) -. inp.ys.(v) in
  sqrt ((dx *. dx) +. (dy *. dy))

(* [cost ~k0 ~k1 ~k2 ~k3 inp edges] for an undirected simple edge list;
   [infinity] when some positive demand cannot be routed. *)
let cost ~k0 ~k1 ~k2 ~k3 inp edges =
  let n = inp.n in
  let dist = Array.make_matrix n n infinity in
  let next = Array.make_matrix n n (-1) in
  for v = 0 to n - 1 do
    dist.(v).(v) <- 0.;
    next.(v).(v) <- v
  done;
  List.iter
    (fun (u, v) ->
      let l = length inp u v in
      dist.(u).(v) <- l;
      dist.(v).(u) <- l;
      next.(u).(v) <- v;
      next.(v).(u) <- u)
    edges;
  for k = 0 to n - 1 do
    let dk = dist.(k) in
    for i = 0 to n - 1 do
      let di = dist.(i) and ni = next.(i) in
      let dik = di.(k) in
      if dik < infinity then
        for j = 0 to n - 1 do
          let via = dik +. dk.(j) in
          if via < di.(j) then begin
            di.(j) <- via;
            ni.(j) <- ni.(k)
          end
        done
    done
  done;
  let load = Array.make_matrix n n 0. in
  let feasible = ref true in
  for s = 0 to n - 1 do
    for d = 0 to n - 1 do
      let demand = inp.scale *. inp.pops.(s) *. inp.pops.(d) in
      if s <> d && demand > 0. then
        if next.(s).(d) < 0 then feasible := false
        else begin
          let u = ref s in
          while !u <> d do
            let w = next.(!u).(d) in
            let a = min !u w and b = max !u w in
            load.(a).(b) <- load.(a).(b) +. demand;
            u := w
          done
        end
    done
  done;
  if not !feasible then infinity
  else begin
    let degree = Array.make n 0 in
    let total =
      List.fold_left
        (fun acc (u, v) ->
          degree.(u) <- degree.(u) + 1;
          degree.(v) <- degree.(v) + 1;
          let l = length inp u v in
          acc +. k0 +. (k1 *. l) +. (k2 *. l *. load.(min u v).(max u v)))
        0. edges
    in
    let hubs = Array.fold_left (fun c d -> if d > 1 then c + 1 else c) 0 degree in
    total +. (k3 *. float_of_int hubs)
  end

let of_params (p : Cold.Cost.params) inp edges =
  cost ~k0:p.Cold.Cost.k0 ~k1:p.Cold.Cost.k1 ~k2:p.Cold.Cost.k2
    ~k3:p.Cold.Cost.k3 inp edges

let tolerance = 1e-9

(* Relative agreement; two infinities agree. *)
let agrees ~expected got =
  if Float.equal expected got then true
  else if not (Float.is_finite expected && Float.is_finite got) then false
  else Float.abs (got -. expected) <= tolerance *. Float.abs expected
