(* coldbench --workload NAME --seed N --seconds S --trace 0|1 --daemon EXE
   coldbench --selftest

   Runs one workload for S seconds and prints its result as the last line
   of standard output (see README.md). *)

let workloads = [ "design_paper_n40"; "ga_uninit_n80"; "serve_mixed_n20" ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let daemon = ref "" and selftest = ref false in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " workloads);
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--daemon", Arg.Set_string daemon, "EXE the cold_serve binary");
      ("--selftest", Arg.Set selftest, " check the checks and exit");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "coldbench";
  if !selftest then exit (if Selftest.run () then 0 else 1);
  if not (List.mem !workload workloads) then begin
    prerr_endline ("coldbench: unknown workload " ^ !workload);
    exit 2
  end;
  if !daemon = "" || not (Sys.file_exists !daemon) then begin
    prerr_endline "coldbench: --daemon must name the cold_serve binary";
    exit 2
  end;
  let exe = !daemon and seed = !seed and seconds = !seconds in
  let r =
    match (!workload, !trace) with
    | "design_paper_n40", 0 -> Design.untraced Design.Paper ~seed ~seconds
    | "ga_uninit_n80", 0 -> Design.untraced Design.Uninit ~seed ~seconds
    | "serve_mixed_n20", 0 -> Serve.untraced ~exe ~seed ~seconds
    | "design_paper_n40", _ -> Traced.design_workload Design.Paper ~exe ~seed ~seconds
    | "ga_uninit_n80", _ -> Traced.design_workload Design.Uninit ~exe ~seed ~seconds
    | _ -> Traced.serve_workload ~exe ~seed ~seconds
  in
  let bad = List.filter (fun m -> not (Float.is_finite m.Util.value)) r.Util.metrics in
  List.iter (fun m -> Printf.eprintf "coldbench: %s is not finite\n" m.Util.name) bad;
  Util.print_result
    ~correct:(bad = [])
    ~attempted:r.Util.attempted ~failed:r.Util.failed r.Util.metrics
