(* Clocks, order statistics, process memory and the result line. *)

let now = Unix.gettimeofday

(* Processor time of this process so far, user and system. *)
let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Linear-interpolated quantile of a non-empty sample, [q] in [0, 1]. *)
let quantile xs q =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then invalid_arg "quantile: empty sample";
  let pos = q *. float_of_int (n - 1) in
  let i = truncate pos in
  if i >= n - 1 then a.(n - 1)
  else
    let frac = pos -. float_of_int i in
    a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5

(* Mean time per call of [f], in seconds: [f] runs in batches until at least
   [budget] seconds have gone by, and the median of the batch means is
   returned, so one preempted batch cannot skew the figure. *)
let per_call ?(budget = 0.05) ?(batches = 5) f =
  let per_batch = budget /. float_of_int batches in
  let means =
    Array.init batches (fun _ ->
        let t0 = now () in
        let calls = ref 0 in
        while now () -. t0 < per_batch || !calls = 0 do
          f ();
          incr calls
        done;
        (now () -. t0) /. float_of_int !calls)
  in
  median means

(* Peak resident set of process [pid] ("self" for this one), in MB, from
   the kernel's high-water mark. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> nan
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %f kB"
            (fun kb -> kb /. 1024.)
        else scan ()
    in
    let v = scan () in
    close_in ic;
    v

(* Stable 64-bit FNV-1a digest of a string; used to pin outputs across the
   traced and the untraced run of one seed. *)
let fnv s =
  String.fold_left
    (fun h c ->
      Int64.mul (Int64.logxor h (Int64.of_int (Char.code c))) 0x100000001B3L)
    0xCBF29CE484222325L s

type metric = { name : string; unit_ : string; value : float }

(* What a run reports: operations attempted and failed, and its metrics. *)
type result = { attempted : int; failed : int; metrics : metric list }

let metric name unit_ value = { name; unit_; value }

(* The run's result record, printed as the last line of standard output. *)
let print_result ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun m ->
        let v =
          if Float.is_integer m.value && Float.abs m.value < 1e15 then
            Printf.sprintf "%.0f" m.value
          else Printf.sprintf "%.17g" m.value
        in
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name v m.unit_)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", " fields)
