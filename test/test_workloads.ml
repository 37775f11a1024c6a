(* Workload correctness: each model completes on the real (default)
   machine and produces exactly its reference outputs; fault-injection
   campaigns contain their faults. These run on the full 4-node machine,
   so they are the slowest tests in the suite. *)

let small_pmake =
  {
    Workloads.Pmake.default with
    Workloads.Pmake.files = 5;
    cpp_ns = 20_000_000L;
    cc1_ns = 60_000_000L;
    as_ns = 20_000_000L;
    link_ns = 20_000_000L;
    anon_pages = 40;
    include_searches = 40;
  }

let small_ocean =
  {
    Workloads.Ocean.default with
    Workloads.Ocean.chunk_pages = 64;
    steps = 3;
    step_compute_ns = 50_000_000L;
    init_compute_ns = 20_000_000L;
  }

let small_ray =
  {
    Workloads.Raytrace.default with
    Workloads.Raytrace.scene_pages = 64;
    tile_pages = 16;
    compute_ns = 200_000_000L;
    build_ns = 20_000_000L;
  }

let boot () =
  let eng = Sim.Engine.create () in
  Hive.System.boot ~ncells:4 ~wax:false eng

let check_all_match name verify =
  List.iter
    (fun (path, v) ->
      Alcotest.(check string)
        (Printf.sprintf "%s output %s" name path)
        "match"
        (Workloads.Workload.verify_outcome_to_string v))
    verify

let test_pmake_completes_and_verifies () =
  let sys = boot () in
  Workloads.Pmake.setup sys small_pmake;
  let result, _ = Workloads.Pmake.run ~cfg:small_pmake sys in
  Alcotest.(check bool) "completed" true result.Workloads.Workload.completed;
  check_all_match "pmake" (Workloads.Pmake.verify ~cfg:small_pmake sys)

let test_ocean_completes_and_verifies () =
  let sys = boot () in
  Workloads.Ocean.setup sys small_ocean;
  let result, _ = Workloads.Ocean.run ~cfg:small_ocean sys in
  Alcotest.(check bool) "completed" true result.Workloads.Workload.completed;
  check_all_match "ocean" (Workloads.Ocean.verify ~cfg:small_ocean sys)

let test_raytrace_completes_and_verifies () =
  let sys = boot () in
  let result, _ = Workloads.Raytrace.run ~cfg:small_ray sys in
  Alcotest.(check bool) "completed" true result.Workloads.Workload.completed;
  check_all_match "raytrace" (Workloads.Raytrace.verify ~cfg:small_ray sys)

let test_pmake_deterministic () =
  (* Two separately-booted systems produce identical outputs and identical
     simulated completion times: the whole stack is deterministic. *)
  let run () =
    let sys = boot () in
    Workloads.Pmake.setup sys small_pmake;
    let result, _ = Workloads.Pmake.run ~cfg:small_pmake sys in
    (result.Workloads.Workload.elapsed_ns,
     Workloads.Workload.stable_content sys "/tmp/chess0.o")
  in
  let t1, o1 = run () in
  let t2, o2 = run () in
  Alcotest.(check int64) "same simulated duration" t1 t2;
  Alcotest.(check bool) "same outputs" true (o1 = o2)

let test_raytrace_detects_scene_corruption () =
  (* If a wild write silently corrupted the scene, the output checksum
     would differ from the reference: verify the oracle notices. *)
  let sys = boot () in
  let eng = sys.Hive.Types.eng in
  (* Corrupt one scene page mid-run by granting ourselves access. *)
  ignore
    (Sim.Engine.spawn eng ~name:"corruptor" (fun () ->
         Sim.Engine.delay 50_000_000L;
         (* Find an anon frame of the driver and scribble on it. *)
         match Hashtbl.fold (fun _ p acc -> p :: acc) sys.Hive.Types.proc_table [] with
         | [] -> ()
         | procs ->
           List.iter
             (fun (p : Hive.Types.process) ->
               Hashtbl.iter
                 (fun _ (m : Hive.Types.mapping) ->
                   match m.Hive.Types.map_lid.Hive.Types.tag with
                   | Hive.Types.Anon_obj _ ->
                     let addr =
                       Flash.Addr.addr_of_pfn m.Hive.Types.map_pf.Hive.Types.pfn
                     in
                     Flash.Memory.poke
                       (Flash.Machine.memory sys.Hive.Types.machine)
                       addr (Bytes.make 8 '\xEE')
                   | _ -> ())
                 p.Hive.Types.mappings)
             procs));
  ignore (Workloads.Raytrace.run ~cfg:small_ray sys);
  let any_mismatch =
    List.exists
      (fun (_, v) -> v <> Workloads.Workload.Match)
      (Workloads.Raytrace.verify ~cfg:small_ray sys)
  in
  Alcotest.(check bool) "corruption detected by verifier" true any_mismatch

let pmake = Workloads.Spec.of_name "pmake"

let test_campaign_node_failure_contained () =
  let o =
    Faultinj.Campaign.run_test ~seed:9 ~workload:pmake
      { at_ns = 100_000_000L; kind = Node_failure { node = 2 } }
  in
  Alcotest.(check bool) "passed" true (Faultinj.Campaign.passed o);
  (match o.Faultinj.Campaign.detection_ms with
  | Some d -> Alcotest.(check bool) "detection < 100ms" true (d < 100.)
  | None -> Alcotest.fail "no detection");
  (* The recovery master repairs and reboots the failed cell after
     diagnostics, so all four cells are live again by the end. *)
  Alcotest.(check (list int)) "all cells live after reintegration"
    [ 0; 1; 2; 3 ]
    (List.sort compare o.Faultinj.Campaign.survivors)

let test_campaign_cascade_contained () =
  (* Second node killed while the first failure's recovery round is in
     flight: no deadlock, the survivors finish the restarted round, the
     fault stays contained, and the master reintegrates both victims. *)
  let sys = Hive.System.boot ~ncells:4 ~wax:true (Sim.Engine.create ()) in
  let o =
    Faultinj.Campaign.run_test ~seed:21 ~sys ~workload:pmake
      { at_ns = 100_000_000L;
        kind = Node_cascade { first_node = 2; second_node = 1 } }
  in
  let counter = Sim.Stats.value sys.Hive.Types.sys_counters in
  Alcotest.(check bool) "no deadlock" true
    (o.Faultinj.Campaign.recovery_ms <> None
    && not sys.Hive.Types.recovery_in_progress);
  Alcotest.(check bool) "round restarted" true
    (counter "recovery.round_restarts" >= 1);
  Alcotest.(check bool) "contained" true o.Faultinj.Campaign.contained;
  Alcotest.(check (list int)) "both victims injected" [ 2; 1 ]
    o.Faultinj.Campaign.injected_cells;
  Alcotest.(check bool) "both victims reintegrated" true
    (counter "cell.reintegrations" >= 2
    && Array.for_all
         (fun (c : Hive.Types.cell) ->
           Hive.Types.cell_alive c
           && List.mem 1 c.Hive.Types.live_set
           && List.mem 2 c.Hive.Types.live_set)
         sys.Hive.Types.cells);
  Alcotest.(check bool) "check run passed" true
    (o.Faultinj.Campaign.check_passed
    && o.Faultinj.Campaign.corrupt_outputs = []);
  Alcotest.(check bool) "passed overall" true (Faultinj.Campaign.passed o)

let test_campaign_cow_corruption_contained () =
  let o =
    Faultinj.Campaign.run_test ~seed:11
      ~workload:(Workloads.Spec.of_name "raytrace")
      { at_ns = 400_000_000L;
        kind =
          Corrupt_cow { victim_cell = 1; mode = Hive.System.Random_address } }
  in
  Alcotest.(check bool) "passed" true (Faultinj.Campaign.passed o);
  Alcotest.(check (list int)) "victim identified" [ 1 ]
    o.Faultinj.Campaign.injected_cells

(* The CLI's [fault corrupt-cow] configuration: a COW-tree corruption
   during pmake rather than raytrace. *)
let test_campaign_cow_corruption_pmake () =
  let o =
    Faultinj.Campaign.run_test ~workload:pmake
      { at_ns = 300_000_000L;
        kind =
          Corrupt_cow { victim_cell = 1; mode = Hive.System.Random_address } }
  in
  Alcotest.(check (list int)) "victim injected" [ 1 ]
    o.Faultinj.Campaign.injected_cells;
  Alcotest.(check bool) "passed" true (Faultinj.Campaign.passed o)

let test_campaign_map_corruption_contained () =
  let o =
    Faultinj.Campaign.run_test ~seed:13 ~workload:pmake
      { at_ns = 200_000_000L;
        kind =
          Corrupt_map { victim_cell = 2; mode = Hive.System.Self_pointer } }
  in
  Alcotest.(check bool) "passed" true (Faultinj.Campaign.passed o)

(* One by-name default per workload the CLI's [workload] command and the
   bench's workload-running rows name; any other name is one error. *)
(* [derive_output] as it was with a division per byte: the cyclic walk
   over the input must produce the same bytes. *)
let derive_output_with_mod ~input ~bytes =
  let b = Bytes.create bytes in
  let n = Bytes.length input in
  let acc = ref 17 in
  for i = 0 to bytes - 1 do
    let src = if n = 0 then 0 else Char.code (Bytes.get input (i mod n)) in
    acc := (!acc + (src * 31) + i) land 0xff;
    Bytes.set b i (Char.chr !acc)
  done;
  b

let qcheck_derive_output =
  QCheck.Test.make ~count:300
    ~name:"derive_output matches the per-byte-mod reference"
    QCheck.(pair (string_of_size Gen.(0 -- 64)) (int_bound 300))
    (fun (input, bytes) ->
      let input = Bytes.of_string input in
      Bytes.equal
        (Workloads.Workload.derive_output ~input ~bytes)
        (derive_output_with_mod ~input ~bytes))

let test_derive_output_edges () =
  let check name input bytes =
    let input = Bytes.of_string input in
    Alcotest.(check string) name
      (Bytes.to_string (derive_output_with_mod ~input ~bytes))
      (Bytes.to_string (Workloads.Workload.derive_output ~input ~bytes))
  in
  check "empty input" "" 40;
  check "output shorter than input" "abcdefghij" 3;
  check "output longer than input" "xyz" 1000;
  check "output a multiple of input" "hive" 64;
  check "empty output" "abc" 0

let test_spec_by_name () =
  let open Workloads.Spec in
  Alcotest.(check bool) "defaults" true
    (of_name "pmake" = Pmake Workloads.Pmake.default
    && of_name "ocean" = Ocean Workloads.Ocean.default
    && of_name "raytrace" = Raytrace Workloads.Raytrace.default);
  let bench_names =
    List.concat_map
      (fun (sc : Bench.Scenario.t) ->
        if
          sc.Bench.Scenario.sc_area = "workloads"
          || List.mem sc.Bench.Scenario.sc_name
               [ "table-7.2"; "firewall-latency"; "firewall-pages" ]
        then
          List.map
            (fun (d : Bench.Scenario.dims) -> d.Bench.Scenario.workload)
            (sc.Bench.Scenario.sc_dims @ sc.Bench.Scenario.sc_quick)
        else [])
      Bench.Scenarios.all
  in
  Alcotest.(check bool) "bench rows name workloads" true (bench_names <> []);
  List.iter
    (fun n -> Alcotest.(check string) n n (name (of_name n)))
    ([ "pmake"; "ocean"; "raytrace" ] @ bench_names);
  Alcotest.check_raises "unknown name"
    (Invalid_argument "unknown workload: gnuchess") (fun () ->
      ignore (of_name "gnuchess"))

(* The invariant sweep exempts only the victims of data corruption; every
   other victim reboots with zeroed memory and is checked in full. *)
let exemption_case label kind ~exempt =
  Alcotest.test_case ("exemption: " ^ label) `Quick (fun () ->
      let fault = { Faultinj.Campaign.at_ns = 1_000_000L; kind } in
      Alcotest.(check (list int)) label
        (if exempt then [ 1 ] else [])
        (Faultinj.Campaign.exempt_cells [ (fault, [ 1 ]) ]))

let exemption_cases =
  let mode = Hive.System.Random_address in
  Faultinj.Campaign.
    [
      exemption_case "node failure checked" (Node_failure { node = 1 })
        ~exempt:false;
      exemption_case "cascade checked"
        (Node_cascade { first_node = 1; second_node = 2 })
        ~exempt:false;
      exemption_case "corrupt map exempt"
        (Corrupt_map { victim_cell = 1; mode })
        ~exempt:true;
      exemption_case "corrupt COW exempt"
        (Corrupt_cow { victim_cell = 1; mode })
        ~exempt:true;
      exemption_case "link degradation checked"
        (Link_degrade
           { deg_from = -1; deg_to = 1; dur_ns = 1_000_000L; drop_pct = 10;
             dup_pct = 0; delay_pct = 0; max_delay_ns = 0L; salt = 1L })
        ~exempt:false;
      exemption_case "partition checked"
        (Partition { part_cell = 1; dur_ns = 1_000_000L; one_way = false })
        ~exempt:false;
      exemption_case "CPU death checked" (Cpu_dead_mem_alive { node = 1 })
        ~exempt:false;
    ]

let suite =
  [
    Alcotest.test_case "pmake completes and verifies" `Slow
      test_pmake_completes_and_verifies;
    Alcotest.test_case "ocean completes and verifies" `Slow
      test_ocean_completes_and_verifies;
    Alcotest.test_case "raytrace completes and verifies" `Slow
      test_raytrace_completes_and_verifies;
    Alcotest.test_case "pmake is deterministic" `Slow test_pmake_deterministic;
    Alcotest.test_case "verifier detects real scene corruption" `Slow
      test_raytrace_detects_scene_corruption;
    Alcotest.test_case "campaign: node failure contained" `Slow
      test_campaign_node_failure_contained;
    Alcotest.test_case "campaign: double failure contained" `Slow
      test_campaign_cascade_contained;
    Alcotest.test_case "campaign: COW corruption contained" `Slow
      test_campaign_cow_corruption_contained;
    Alcotest.test_case "campaign: COW corruption during pmake" `Slow
      test_campaign_cow_corruption_pmake;
    Alcotest.test_case "campaign: map corruption contained" `Slow
      test_campaign_map_corruption_contained;
    Alcotest.test_case "spec: by-name defaults" `Quick test_spec_by_name;
    QCheck_alcotest.to_alcotest qcheck_derive_output;
    Alcotest.test_case "derive_output edge cases" `Quick
      test_derive_output_edges;
  ]
  @ exemption_cases
