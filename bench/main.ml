(* Benchmark driver. Three modes:

     main sweep [OPTIONS]        dimensional scenario sweep (Bench.Sweep)
     main diff [OPTIONS]         regression gate vs a committed trajectory
     main sections [--quick]     the paper area, paper vs measured

   The sweep emits one deterministic BENCH_<area>.json per area; diff
   compares two sweep directories and exits non-zero past the regression
   threshold; sections runs the paper area's rows and prints each metric
   beside the paper's number. *)

let areas =
  List.sort_uniq compare
    (List.map (fun sc -> sc.Bench.Scenario.sc_area) Bench.Scenarios.all)

let usage () =
  prerr_endline
    "usage: main sweep [--quick] [--areas A,B] [--out-dir DIR]\n\
    \       main diff --baseline DIR --fresh DIR [--threshold PCT]\n\
    \       main sections [--quick]";
  Printf.eprintf "\nsweep areas: %s\n" (String.concat ", " areas);
  2

let run_sections args =
  match args with
  | [] | [ "--quick" ] ->
    let reports =
      Bench.Sweep.run ~areas:[ "paper" ] ~quick:(args <> []) ~verbose:false
        Bench.Scenarios.all
    in
    List.iter print_endline (Bench.Sweep.paper_lines reports);
    0
  | a :: _ ->
    Printf.eprintf "sections: unexpected argument %s\n" a;
    2

let run_sweep args =
  let quick = ref false in
  let wanted = ref None in
  let out_dir = ref None in
  let rec parse = function
    | [] -> Ok ()
    | "--quick" :: rest ->
      quick := true;
      parse rest
    | "--areas" :: v :: rest ->
      wanted := Some (String.split_on_char ',' v);
      parse rest
    | "--out-dir" :: v :: rest ->
      out_dir := Some v;
      parse rest
    | a :: _ -> Error a
  in
  match parse args with
  | Error a ->
    Printf.eprintf "sweep: unexpected argument %s\n" a;
    2
  | Ok () ->
    let bad =
      match !wanted with
      | None -> []
      | Some l -> List.filter (fun a -> not (List.mem a areas)) l
    in
    if bad <> [] then begin
      Printf.eprintf "sweep: unknown area(s) %s (have: %s)\n"
        (String.concat ", " bad)
        (String.concat ", " areas);
      2
    end
    else begin
      let reports =
        Bench.Sweep.run ?areas:!wanted ~quick:!quick Bench.Scenarios.all
      in
      (match !out_dir with
      | None -> ()
      | Some dir ->
        let written = Bench.Sweep.write_dir ~dir reports in
        List.iter (fun p -> Printf.printf "wrote %s\n" p) written);
      0
    end

let run_diff args =
  let baseline = ref None in
  let fresh = ref None in
  let threshold = ref Bench.Diff.default_threshold in
  let rec parse = function
    | [] -> Ok ()
    | "--baseline" :: v :: rest ->
      baseline := Some v;
      parse rest
    | "--fresh" :: v :: rest ->
      fresh := Some v;
      parse rest
    | "--threshold" :: v :: rest -> (
      match float_of_string_opt v with
      | Some t when t > 0. ->
        threshold := t /. 100.;
        parse rest
      | _ -> Error ("--threshold " ^ v))
    | a :: _ -> Error a
  in
  match (parse args, !baseline, !fresh) with
  | Error a, _, _ ->
    Printf.eprintf "diff: bad argument %s\n" a;
    2
  | Ok (), Some baseline_dir, Some fresh_dir ->
    Bench.Diff.run_dirs ~threshold:!threshold ~baseline_dir ~fresh_dir ()
  | Ok (), _, _ ->
    prerr_endline "diff: both --baseline DIR and --fresh DIR are required";
    2

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "--help" :: _ | "-h" :: _ -> exit (usage ())
  | "sweep" :: rest -> exit (run_sweep rest)
  | "diff" :: rest -> exit (run_diff rest)
  | "sections" :: rest -> exit (run_sections rest)
  | _ -> exit (usage ())
