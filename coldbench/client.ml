(* A minimal cold_serve client: start and stop the daemon, open loopback
   connections, and read the daemon's length-prefixed frames. Everything is
   single-threaded; the session loop multiplexes connections with select. *)

type daemon = { pid : int; out : in_channel; port : int }

(* Children still running; stopped at exit whatever happens to the run. *)
let live : int list ref = ref []

let reap pid = live := List.filter (fun p -> p <> pid) !live

let wait_exit pid ~timeout =
  let t0 = Util.now () in
  let rec poll () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
      if Util.now () -. t0 > timeout then false
      else begin
        Unix.sleepf 0.005;
        poll ()
      end
    | _ -> true
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true
  in
  poll ()

let kill_now pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (wait_exit pid ~timeout:10.);
  reap pid

let () = at_exit (fun () -> List.iter kill_now !live)

let start ~exe ~args =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe
      (Array.of_list (exe :: "--port" :: "0" :: args))
      Unix.stdin w Unix.stderr
  in
  live := pid :: !live;
  Unix.close w;
  let out = Unix.in_channel_of_descr r in
  match input_line out with
  | line -> (
    match Scanf.sscanf line "cold_serve listening on 127.0.0.1:%d" Fun.id with
    | port -> { pid; out; port }
    | exception _ -> failwith ("unexpected daemon banner: " ^ line))
  | exception End_of_file -> failwith "daemon exited before listening"

type conn = {
  fd : Unix.file_descr;
  mutable inbuf : string;  (* bytes received, not yet parsed *)
}

let connect d =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, d.port));
  { fd; inbuf = "" }

let send c line =
  let b = Bytes.of_string (line ^ "\n") in
  let rec go off =
    if off < Bytes.length b then
      go (off + Unix.write c.fd b off (Bytes.length b - off))
  in
  go 0

type frame = Ok_frame of string * string | Err_frame of string * string

(* One complete frame off the front of [s], with the bytes it used. *)
let parse_frame s =
  match String.index_opt s '\n' with
  | None -> None
  | Some nl -> (
    let header = String.sub s 0 nl in
    match String.split_on_char ' ' header with
    | [ "ok"; id; len ] ->
      let len = int_of_string len in
      if String.length s < nl + 1 + len then None
      else Some (Ok_frame (id, String.sub s (nl + 1) len), nl + 1 + len)
    | "err" :: id :: rest -> Some (Err_frame (id, String.concat " " rest), nl + 1)
    | _ -> failwith ("malformed frame header: " ^ header))

let chunk = Bytes.create 65536

(* Read what the socket has and return every frame now complete. *)
let receive c =
  let k = Unix.read c.fd chunk 0 (Bytes.length chunk) in
  if k = 0 then failwith "daemon closed the connection";
  c.inbuf <- c.inbuf ^ Bytes.sub_string chunk 0 k;
  let rec frames acc =
    match parse_frame c.inbuf with
    | None -> List.rev acc
    | Some (f, used) ->
      c.inbuf <- String.sub c.inbuf used (String.length c.inbuf - used);
      frames (f :: acc)
  in
  frames []

(* Blocking request/response, for the cheap verbs. *)
let call c line =
  send c line;
  let rec wait () =
    match receive c with [] -> wait () | f :: _ -> f
  in
  wait ()

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

(* Drain the daemon and wait for it to exit; the peak resident set is read
   just before, while the process is still there. *)
let stop d c =
  let peak = Util.peak_rss_mb (string_of_int d.pid) in
  (match call c "drain d" with _ -> () | exception _ -> ());
  close c;
  (try
     while true do
       ignore (input_line d.out)
     done
   with End_of_file | Sys_error _ -> ());
  close_in_noerr d.out;
  if not (wait_exit d.pid ~timeout:30.) then kill_now d.pid else reap d.pid;
  peak

(* Start a daemon and time it until it answers ping. *)
let start_ready ~exe ~args =
  let t0 = Util.now () in
  let d = start ~exe ~args in
  let c = connect d in
  match call c "ping p" with
  | Ok_frame _ -> (d, c, Util.now () -. t0)
  | Err_frame (_, msg) -> failwith ("ping failed: " ^ msg)

(* The value of [key] in a flat JSON object as the daemon renders it. *)
let json_field payload key =
  let pat = Printf.sprintf "\"%s\":" key in
  let pl = String.length pat and n = String.length payload in
  let rec find i =
    if i + pl > n then None
    else if String.sub payload i pl = pat then Some (i + pl)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some start ->
    let stop = ref start in
    while !stop < n && payload.[!stop] <> ',' && payload.[!stop] <> '}' do
      incr stop
    done;
    Some (String.trim (String.sub payload start (!stop - start)))

let json_float payload key =
  match json_field payload key with
  | Some v -> ( match float_of_string_opt v with Some f -> f | None -> nan)
  | None -> nan

(* An edge-list answer ("n m" then one "u v" per line). *)
let parse_edges payload =
  match String.split_on_char '\n' payload |> List.filter (fun l -> l <> "") with
  | [] -> None
  | header :: rest -> (
    match Scanf.sscanf header "%d %d" (fun n m -> (n, m)) with
    | exception _ -> None
    | n, m ->
      let edges = List.map (fun l -> Scanf.sscanf l "%d %d" (fun u v -> (u, v))) rest in
      if List.length edges = m then Some (n, edges) else None)
