(* Bench subsystem tests: typed metrics snapshot round-trip, the nan
   guard on ratio metrics, sweep determinism, and the regression gate. *)

open Bench

(* Boot a 2-cell system and drive some RPC + sharing traffic so the
   snapshot has non-trivial histograms, counters and a cache hit rate. *)
let driven_system () =
  let eng, sys = Harness.boot ~ncells:2 () in
  ignore (Harness.avg_rpc_us eng sys ~op:Harness.noop_op ~arg_bytes:16 ~n:50);
  let npages = 8 in
  let path = Harness.make_warm_file sys ~npages in
  let touch_pass () =
    let p =
      Hive.Process.spawn sys sys.Hive.Types.cells.(1) ~name:"reader"
        (fun sys p ->
          let fd = Hive.Syscall.openf sys p path in
          let r = Hive.Syscall.mmap_file sys p ~fd ~npages ~writable:false in
          for k = 0 to npages - 1 do
            Hive.Syscall.touch sys p ~vpage:(r.Hive.Types.start_page + k)
              ~write:false
          done)
    in
    ignore
      (Hive.System.run_until_processes_done sys
         ~deadline:(Int64.add (Sim.Engine.now eng) 60_000_000_000L)
         [ p ]);
    Sim.Engine.run ~until:(Int64.add (Sim.Engine.now eng) 100_000_000L) eng
  in
  touch_pass ();
  touch_pass ();
  sys

let test_snapshot_roundtrip () =
  let sys = driven_system () in
  let snap = Hive.Metrics.capture sys in
  (match snap.Hive.Metrics.Snapshot.cache_hit_rate with
  | Some r -> Alcotest.(check bool) "hit rate in [0,1]" true (r >= 0. && r <= 1.)
  | None -> Alcotest.fail "driven system should have a cache hit rate");
  Alcotest.(check bool) "client histograms present" true
    (snap.Hive.Metrics.Snapshot.rpc_client <> []);
  let s = Hive.Metrics.Snapshot.to_string snap in
  match Hive.Metrics.Snapshot.of_string s with
  | Error e -> Alcotest.failf "of_string failed: %s" e
  | Ok snap' ->
    Alcotest.(check bool) "snapshot round-trips structurally equal" true
      (snap = snap');
    (* And the re-serialization is byte-identical. *)
    Alcotest.(check string) "re-serialization is byte-identical" s
      (Hive.Metrics.Snapshot.to_string snap')

let test_hit_rate_nan_guard () =
  (* An idle system has zero lookups: the ratio must be absent, never
     0/0 = nan. *)
  let _eng, sys = Harness.boot ~ncells:2 () in
  Alcotest.(check bool) "idle hit rate is None" true
    (Hive.Metrics.cache_hit_rate sys = None);
  let snap = Hive.Metrics.capture sys in
  Alcotest.(check bool) "snapshot hit rate is None" true
    (snap.Hive.Metrics.Snapshot.cache_hit_rate = None);
  let s = Hive.Metrics.Snapshot.to_string (Hive.Metrics.capture sys) in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "JSON has no nan" false (contains s "nan");
  Alcotest.(check bool) "JSON omits cache_hit_rate" false
    (contains s "cache_hit_rate");
  match Hive.Metrics.Snapshot.of_string s with
  | Error e -> Alcotest.failf "idle snapshot does not parse: %s" e
  | Ok snap' ->
    Alcotest.(check bool) "idle snapshot round-trips" true (snap = snap')

let count_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i acc =
    if i + nn > nh then acc
    else go (i + 1) (if String.sub hay i nn = needle then acc + 1 else acc)
  in
  go 0 0

(* One row with a paper-referenced metric beside an unreferenced one. *)
let with_paper =
  {
    Sweep.a_area = "t";
    a_rows =
      [
        {
          Sweep.r_scenario = "rpc";
          r_dims = Scenario.default_dims;
          r_metrics =
            [
              Scenario.metric ~paper:7.2 "null_rpc_us" 7.25;
              Scenario.metric ~dir:Scenario.Info "calls" 2000.;
            ];
        };
      ];
  }

let scenario name =
  List.find (fun (sc : Scenario.t) -> sc.Scenario.sc_name = name)
    Scenarios.all

(* The cheapest real grid rows, used for the determinism and gate tests:
   the rpc area's quick points on a healthy interconnect. *)
let quick_rpc_reports () =
  let healthy (sc : Scenario.t) =
    let keep = List.filter (fun d -> d.Scenario.link_ms = 0) in
    Scenario.make ~name:sc.Scenario.sc_name ~area:sc.Scenario.sc_area
      ~dims:(keep sc.Scenario.sc_dims) ~quick:(keep sc.Scenario.sc_quick)
      sc.Scenario.sc_run
  in
  Scenarios.all
  |> List.filter (fun (sc : Scenario.t) -> sc.Scenario.sc_area = "rpc")
  |> List.map healthy
  |> Sweep.run ~quick:true ~verbose:false

let test_sweep_deterministic () =
  let r1 = quick_rpc_reports () in
  let r2 = quick_rpc_reports () in
  let render rs =
    String.concat "\n"
      (List.map
         (fun r -> Sim.Json.to_string ~pretty:true (Sweep.report_to_json r))
         rs)
  in
  Alcotest.(check bool) "sweep produced rows" true
    (List.exists (fun r -> r.Sweep.a_rows <> []) r1);
  Alcotest.(check string) "two sweeps are byte-identical" (render r1)
    (render r2);
  (* And the report itself survives a JSON round trip, paper references
     included. *)
  List.iter
    (fun r ->
      match Sweep.report_of_json (Sweep.report_to_json r) with
      | Error e -> Alcotest.failf "report round-trip failed: %s" e
      | Ok r' -> Alcotest.(check bool) "report equal" true (r = r'))
    (with_paper :: r1);
  let paper_keys r =
    count_sub (Sim.Json.to_string (Sweep.report_to_json r)) "\"paper\""
  in
  Alcotest.(check int) "only the referenced metric writes a paper key" 1
    (paper_keys with_paper);
  List.iter
    (fun r -> Alcotest.(check int) "no paper key without a reference" 0
        (paper_keys r))
    r1

let scale_lower_better factor (reports : Sweep.report list) =
  List.map
    (fun (r : Sweep.report) ->
      {
        r with
        Sweep.a_rows =
          List.map
            (fun (row : Sweep.row) ->
              {
                row with
                Sweep.r_metrics =
                  List.map
                    (fun (m : Scenario.metric) ->
                      if m.Scenario.m_dir = Scenario.Lower_better then
                        { m with Scenario.m_value = m.Scenario.m_value *. factor }
                      else m)
                    row.Sweep.r_metrics;
              })
            r.Sweep.a_rows;
      })
    reports

let test_diff_gate () =
  let baseline = quick_rpc_reports () in
  (* Unchanged re-run: clean. *)
  let v = Diff.compare_reports ~baseline ~fresh:baseline () in
  Alcotest.(check int) "identical sweep has no regressions" 0
    (List.length v.Diff.regressions);
  Alcotest.(check bool) "metrics were compared" true (v.Diff.compared > 0);
  (* Planted 2x slowdown on every lower-is-better metric: flagged. *)
  let slow = scale_lower_better 2.0 baseline in
  let v = Diff.compare_reports ~baseline ~fresh:slow () in
  Alcotest.(check bool) "2x slowdown is flagged" true
    (v.Diff.regressions <> []);
  List.iter
    (fun (f : Diff.finding) ->
      Alcotest.(check (float 1e-6)) "change is +100%" 100. f.Diff.f_change_pct)
    v.Diff.regressions;
  (* The same movement in the other direction is an improvement. *)
  let fast = scale_lower_better 0.5 baseline in
  let v = Diff.compare_reports ~baseline ~fresh:fast () in
  Alcotest.(check int) "2x speedup is not a regression" 0
    (List.length v.Diff.regressions);
  Alcotest.(check bool) "2x speedup is an improvement" true
    (v.Diff.improvements <> [])

let test_diff_orientation () =
  let mk name dir value =
    {
      Sweep.a_area = "t";
      a_rows =
        [
          {
            Sweep.r_scenario = name;
            r_dims = Scenario.default_dims;
            r_metrics = [ Scenario.metric ~dir name value ];
          };
        ];
    }
  in
  (* Higher-better dropping is a regression; Info never is. *)
  let v =
    Diff.compare_reports
      ~baseline:[ mk "done" Scenario.Higher_better 100. ]
      ~fresh:[ mk "done" Scenario.Higher_better 50. ]
      ()
  in
  Alcotest.(check int) "higher-better drop flagged" 1
    (List.length v.Diff.regressions);
  let v =
    Diff.compare_reports
      ~baseline:[ mk "ctx" Scenario.Info 100. ]
      ~fresh:[ mk "ctx" Scenario.Info 5000. ]
      ()
  in
  Alcotest.(check int) "info metrics never gate" 0
    (List.length v.Diff.regressions);
  (* A quick CI sweep covering a subset of the committed trajectory only
     produces notes for the uncovered rows, not failures. *)
  let base = [ mk "a" Scenario.Lower_better 1.; mk "b" Scenario.Lower_better 1. ] in
  let v =
    Diff.compare_reports ~baseline:base
      ~fresh:[ mk "a" Scenario.Lower_better 1. ]
      ()
  in
  Alcotest.(check int) "subset sweep is clean" 0
    (List.length v.Diff.regressions);
  Alcotest.(check bool) "uncovered rows are noted" true (v.Diff.notes <> [])

(* The shipped list: unique names, non-empty grids, quick points inside
   their grid, and exactly one committed BENCH_<area>.json per area (a
   renamed area would otherwise leave its committed file gated by
   nothing, since Diff only notes a missing area). *)
let test_scenario_list () =
  let names =
    List.map (fun (s : Scenario.t) -> s.Scenario.sc_name) Scenarios.all
  in
  Alcotest.(check int) "names are unique" (List.length names)
    (List.length (List.sort_uniq compare names));
  List.iter
    (fun (s : Scenario.t) ->
      Alcotest.(check bool) (s.Scenario.sc_name ^ ": grid is non-empty") true
        (s.Scenario.sc_dims <> []);
      List.iter
        (fun q ->
          Alcotest.(check bool)
            (s.Scenario.sc_name ^ ": quick point is in the full grid")
            true
            (List.mem q s.Scenario.sc_dims))
        s.Scenario.sc_quick)
    Scenarios.all;
  let areas =
    List.sort_uniq compare
      (List.map (fun (s : Scenario.t) -> s.Scenario.sc_area) Scenarios.all)
  in
  let committed =
    Sys.readdir ".." |> Array.to_list
    |> List.filter_map (fun f ->
           match Filename.chop_suffix_opt ~suffix:".json" f with
           | Some stem when String.starts_with ~prefix:"BENCH_" stem ->
             Some (String.sub stem 6 (String.length stem - 6))
           | _ -> None)
    |> List.sort compare
  in
  Alcotest.(check (list string)) "one committed BENCH file per area" areas
    committed;
  let point = Scenario.default_dims in
  Alcotest.check_raises "empty grid rejected"
    (Invalid_argument "Scenario.make: empty grid for x") (fun () ->
      ignore (Scenario.make ~name:"x" ~area:"rpc" ~dims:[] (fun _ -> [])));
  Alcotest.check_raises "quick point outside the grid rejected"
    (Invalid_argument
       (Printf.sprintf "Scenario.make: x quick point (%s) not in grid"
          (Scenario.dims_label { point with cells = 8 })))
    (fun () ->
      ignore
        (Scenario.make ~name:"x" ~area:"rpc" ~dims:[ point ]
           ~quick:[ { point with cells = 8 } ] (fun _ -> [])))

(* The sections renderer prints one paper-vs-measured line per
   referenced metric, on a synthetic report and on a real paper row. *)
let test_paper_lines () =
  let referenced (rep : Sweep.report) =
    List.concat_map
      (fun (r : Sweep.row) ->
        List.filter
          (fun (m : Scenario.metric) -> m.Scenario.m_paper <> None)
          r.Sweep.r_metrics)
      rep.Sweep.a_rows
    |> List.length
  in
  let paper_lines rep =
    List.filter
      (fun l -> count_sub l " paper " = 1)
      (Sweep.paper_lines [ rep ])
    |> List.length
  in
  Alcotest.(check int) "synthetic report" 1 (paper_lines with_paper);
  let sc = scenario "rpc-latency" in
  let dims = List.hd sc.Scenario.sc_dims in
  let row =
    { Sweep.r_scenario = "rpc-latency"; r_dims = dims;
      r_metrics = sc.Scenario.sc_run dims }
  in
  let rep = { Sweep.a_area = "paper"; a_rows = [ row ] } in
  Alcotest.(check bool) "rpc-latency carries paper references" true
    (referenced rep >= 3);
  Alcotest.(check int) "one line per referenced metric" (referenced rep)
    (paper_lines rep);
  let value name =
    (List.find (fun (m : Scenario.metric) -> m.Scenario.m_name = name)
       row.Sweep.r_metrics)
      .Scenario.m_value
  in
  Alcotest.(check (float 0.05)) "0-byte null RPC is the paper's 7.2 us" 7.2
    (value "null_rpc_us")

(* The checks the sharing area's rows stand on: a second pass over a warm
   remote file is served entirely by the import cache, pmake output is
   byte-identical with the import cache on and off, and the cache cuts
   sharing RPCs per remotely read page at least fivefold. *)
let test_sharing_checks () =
  let eng, sys = Harness.boot ~ncells:2 () in
  let npages = 256 in
  let path = Harness.make_warm_file sys ~npages in
  let hits () =
    Sim.Stats.value sys.Hive.Types.cells.(1).Hive.Types.counters
      "share.cache_hits"
  in
  let pass () =
    ignore (Harness.touch_pass sys ~cell:1 ~path ~npages ~write:false);
    Sim.Engine.run ~until:(Int64.add (Sim.Engine.now eng) 100_000_000L) eng
  in
  pass ();
  let h0 = hits () in
  pass ();
  Alcotest.(check int) "warm pass served from the import cache" npages
    (hits () - h0);
  let sc = scenario "pmake-sharing" in
  (* The row runner fails unless pmake output is byte-identical. *)
  let run import_cache =
    let dims =
      { Scenario.default_dims with workload = "pmake"; cells = 4; nodes = 4;
        import_cache }
    in
    List.map
      (fun (m : Scenario.metric) -> (m.Scenario.m_name, m.Scenario.m_value))
      (sc.Scenario.sc_run dims)
  in
  let cached = run true and legacy = run false in
  Alcotest.(check bool) "pmake hits the import cache" true
    (List.assoc "hit_rate_pct" cached > 0.);
  let fewer =
    List.assoc "rpcs_per_page" legacy /. List.assoc "rpcs_per_page" cached
  in
  Alcotest.(check bool)
    (Printf.sprintf ">= 5x fewer sharing RPCs per page (got %.1fx)" fewer)
    true (fewer >= 5.)

let suite =
  [
    Alcotest.test_case "metrics snapshot JSON round-trips" `Quick
      test_snapshot_roundtrip;
    Alcotest.test_case "cache hit rate never emits nan" `Quick
      test_hit_rate_nan_guard;
    Alcotest.test_case "sweep output is deterministic" `Slow
      test_sweep_deterministic;
    Alcotest.test_case "diff flags a planted 2x slowdown" `Slow
      test_diff_gate;
    Alcotest.test_case "diff respects metric direction" `Quick
      test_diff_orientation;
    Alcotest.test_case "scenario list invariants" `Quick test_scenario_list;
    Alcotest.test_case "sections renderer shows paper references" `Quick
      test_paper_lines;
    Alcotest.test_case "import cache A/B checks" `Quick test_sharing_checks;
  ]
