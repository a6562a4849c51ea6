(* serve_mixed_n20: cold_serve with two closed-loop loopback connections
   from one single-threaded client. The miss connection sends rounds of
   distinct cold requests; the hit connection replays answered ones. *)

module Prng = Cold_prng.Prng
module Context = Cold_context.Context

let n = 20

(* Two evaluation domains, and a replay cache far larger than a run fills:
   with the default 256 direct-mapped slots about one replay per run found
   its entry evicted and was recomputed, so not every replay was a hit. *)
let daemon_args = [ "--domains"; "2"; "--cache-slots"; "65536" ]

(* Set-up (daemon start until ping answers) is timed this many times per
   run, the session's own daemon included, and the median reported. *)
let setup_reps = 15

(* Replays are drawn from the most recent answers only, so they stay in the
   daemon's direct-mapped replay cache. *)
let replay_window = 4

(* The replaying connection waits this long after each answer (or after
   the first cold answer) before its next replay, and the cold connection
   sends its next request only when no replay is in flight. So every batch
   the daemon takes holds one request, and a replay sent while a cold
   request computes queues behind it and is taken alone once its frame is
   written. Without the second rule a replay and the next cold request
   raced into one batch whenever the client preempted the daemon's
   scheduler on its processor; whole sets of runs fell one way or the
   other, and the request rate differed by a quarter and the daemon's peak
   memory by 3 MB between them (the pool's second domain computed the
   cold requests of mixed batches). *)
let replay_think = 0.02

(* The design of round [r]: its context and GA seed. *)
let round_seed ~seed r =
  Int64.to_int (Prng.bits64 (Prng.split_at (Prng.create seed) r)) land 0x3FFFFFFF

(* One round: an edges and a summary answer for one design, then a
   survivability run on it — three distinct cold requests. *)
let round_requests s =
  [
    ("edges", Printf.sprintf "synth n=%d seed=%d format=edges" n s);
    ("summary", Printf.sprintf "synth n=%d seed=%d format=summary" n s);
    ("survive", Printf.sprintf "survive n=%d seed=%d steps=20" n s);
  ]

let with_id line id =
  match String.index_opt line ' ' with
  | Some i -> String.sub line 0 i ^ " " ^ id ^ String.sub line i (String.length line - i)
  | None -> line ^ " " ^ id

let params = Cold.Cost.params ()

(* The round's cross-checks: the summary's cost_total equals the oracle cost
   of the edges answer for the same design, and survivability fractions are
   fractions. *)
let check_round s answers =
  let find prefix = List.assoc_opt prefix answers in
  let fails = ref [] in
  let add l = fails := !fails @ l in
  (match (find "edges", find "summary") with
  | Some edges, Some summary -> (
    match Client.parse_edges edges with
    | None -> add [ "unparsable edges answer" ]
    | Some (m, edges) ->
      let ctx = Context.generate (Context.default_spec ~n) (Prng.create s) in
      let inp = Oracle.of_context ctx in
      let expected = Oracle.of_params params inp edges in
      let got = Client.json_float summary "cost_total" in
      if m <> n then add [ "edges answer has the wrong size" ];
      if not (Oracle.agrees ~expected got) then
        add [ Printf.sprintf "cost_total %.17g differs from oracle %.17g" got expected ])
  | _ -> add [ "round incomplete" ]);
  (match find "survive" with
  | Some p ->
    add (Checks.unit_interval "availability" (Client.json_float p "availability"));
    add (Checks.unit_interval "lost_traffic" (Client.json_float p "lost_traffic"))
  | None -> add [ "no survive answer" ]);
  !fails

type session = {
  miss_rtt : float array;
  hit_rtt : float array;
  rounds : int;
  attempted : int;
  failed : int;
  wall : float;
  stats : string;
  peak_mb : float;
  setup : float;
  first_answers : (string, string) Hashtbl.t;  (* request -> payload *)
}

type pending = {
  id : string;
  kind : string;
  req : string;
  sent : float;
  replay : bool;
}

let session ~exe ~seed ~seconds ~max_rounds =
  let d, ctl, setup = Client.start_ready ~exe ~args:daemon_args in
  let cm = Client.connect d and ch = Client.connect d in
  let pick = Prng.create (seed lxor 0x5EED) in
  let first = Hashtbl.create 1024 in
  let recent = ref [] in
  let miss_rtt = ref [] and hit_rtt = ref [] in
  let attempted = ref 0 and failed = ref 0 in
  let fail what msgs =
    if msgs <> [] then begin
      incr failed;
      List.iter (fun m -> Printf.eprintf "coldbench: %s: %s\n%!" what m) msgs
    end
  in
  let round = ref 0 in
  let queue = ref [] in
  let round_answers = ref [] in
  let miss_pending = ref None and hit_pending = ref None in
  let hits_sent = ref 0 in
  let t_start = Util.now () in
  let stopping = ref false in
  let start_round () =
    let s = round_seed ~seed !round in
    queue := round_requests s;
    round_answers := []
  in
  start_round ();
  let hit_due = ref None in
  let send_miss () =
    match !queue with
    | (kind, req) :: rest ->
      queue := rest;
      let id = Printf.sprintf "m%d.%s" !round kind in
      Client.send cm (with_id req id);
      incr attempted;
      miss_pending := Some { id; kind; req; sent = Util.now (); replay = false }
    | [] -> ()
  in
  let send_hit () =
    match !recent with
    | [] -> ()
    | l ->
      let req = List.nth l (Prng.int pick (List.length l)) in
      let id = Printf.sprintf "h%d" !hits_sent in
      incr hits_sent;
      Client.send ch (with_id req id);
      incr attempted;
      hit_pending := Some { id; kind = "replay"; req; sent = Util.now (); replay = true };
      hit_due := None
  in
  let finish_round () =
    let s = round_seed ~seed !round in
    fail (Printf.sprintf "round %d" !round) (check_round s !round_answers);
    incr round;
    if Util.now () -. t_start >= seconds || !round >= max_rounds then stopping := true
    else start_round ()
  in
  let on_frame p frame =
    let rtt = Util.now () -. p.sent in
    (match frame with
    | Client.Err_frame (_, msg) -> fail p.id [ "error answer: " ^ msg ]
    | Client.Ok_frame (id, _) when not (String.equal id p.id) ->
      fail p.id [ "answer for another id " ^ id ]
    | Client.Ok_frame (_, payload) when p.replay -> (
      hit_rtt := rtt :: !hit_rtt;
      match Hashtbl.find_opt first p.req with
      | Some first -> fail p.id (Checks.replay ~first ~again:payload)
      | None -> fail p.id [ "replay of an unanswered request" ])
    | Client.Ok_frame (_, payload) ->
      miss_rtt := rtt :: !miss_rtt;
      Hashtbl.replace first p.req payload;
      recent := List.filteri (fun i _ -> i < replay_window) (p.req :: !recent);
      round_answers := (p.kind, payload) :: !round_answers);
    if (not p.replay) && !queue = [] then finish_round ()
  in
  let t_last = ref t_start in
  let busy () = !miss_pending <> None || !hit_pending <> None in
  while (not !stopping) || busy () do
    if (not !stopping) && !miss_pending = None && !hit_pending = None then send_miss ();
    let hit_idle () = (not !stopping) && !hit_pending = None in
    (match !hit_due with
    | Some t when hit_idle () && Util.now () >= t -> send_hit ()
    | _ -> ());
    let fds =
      (if !miss_pending <> None then [ cm.Client.fd ] else [])
      @ if !hit_pending <> None then [ ch.Client.fd ] else []
    in
    let due = match !hit_due with Some t when hit_idle () -> Some t | _ -> None in
    let timeout = match due with Some t -> Float.max 0. (t -. Util.now ()) | None -> 60. in
    let ready, _, _ = Unix.select fds [] [] timeout in
    if ready = [] && due = None then failwith "daemon stopped answering";
    List.iter
      (fun fd ->
        let c, slot = if fd = cm.Client.fd then (cm, miss_pending) else (ch, hit_pending) in
        List.iter
          (fun f ->
            match !slot with
            | Some p ->
              slot := None;
              t_last := Util.now ();
              on_frame p f;
              if !hit_pending = None && !hit_due = None && !recent <> [] then
                hit_due := Some (Util.now () +. replay_think)
            | None -> fail "connection" [ "unsolicited frame" ])
          (Client.receive c))
      ready
  done;
  let wall = !t_last -. t_start in
  incr attempted;
  let stats =
    match Client.call ctl "stats s" with
    | Client.Ok_frame (_, p) -> p
    | Client.Err_frame (_, m) -> fail "stats" [ m ]; ""
  in
  fail "stats"
    (List.filter_map
       (fun k ->
         let v = Client.json_float stats k in
         if Float.equal v 0. then None else Some (Printf.sprintf "%s = %g" k v))
       [ "sheds"; "errors" ]);
  Client.close cm;
  Client.close ch;
  let peak_mb = Client.stop d ctl in
  {
    miss_rtt = Array.of_list !miss_rtt;
    hit_rtt = Array.of_list !hit_rtt;
    rounds = !round;
    attempted = !attempted;
    failed = !failed;
    wall;
    stats;
    peak_mb;
    setup;
    first_answers = first;
  }

(* Extra daemon start-ups, for the set-up median. *)
let setup_samples ~exe =
  List.init (setup_reps - 1) (fun _ ->
      let d, c, dt = Client.start_ready ~exe ~args:daemon_args in
      ignore (Client.stop d c);
      dt)

let untraced ~exe ~seed ~seconds =
  let extra = setup_samples ~exe in
  let s = session ~exe ~seed ~seconds ~max_rounds:max_int in
  let setup_s = Util.median (Array.of_list (s.setup :: extra)) in
  let answered = Array.length s.miss_rtt + Array.length s.hit_rtt in
  {
    Util.attempted = s.attempted;
    failed = s.failed;
    metrics =
      Util.
        [
          metric "setup_s" "s" setup_s;
          metric "peak_mem_mb" "MB" s.peak_mb;
          metric "designs_per_s" "1/s" (float_of_int (Array.length s.miss_rtt) /. s.wall);
          metric "req_per_s" "1/s" (float_of_int answered /. s.wall);
          metric "miss_ms_p50" "ms" (1000. *. median s.miss_rtt);
        ];
  }
