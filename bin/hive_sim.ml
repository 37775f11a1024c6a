(* hive_sim: command-line driver for the simulated Hive system.

     hive_sim workload pmake --cells 4
     hive_sim workload ocean --cells 1 --smp
     hive_sim fault node --cells 4 --node 2 --at-ms 300
     hive_sim fault corrupt-cow --cells 4 --victim 1
     hive_sim fuzz --seeds 25 *)

open Cmdliner

(* ---- shared machine-shape and output terms ----

   Every subcommand that boots a system takes the same four shape flags;
   every subcommand that can emit observability artifacts takes the same
   two output flags. *)

type shape = {
  sh_cells : int option;
  sh_nodes : int option;
  sh_smp : bool;
  sh_no_import_cache : bool;
}

type output = { out_trace : string option; out_metrics : string option }

let shape_cells shape = Option.value ~default:4 shape.sh_cells

let shape_nodes shape =
  Option.value ~default:Flash.Config.default.Flash.Config.nodes shape.sh_nodes

(* A shape or a target the machine does not have is an error in the
   command line: the term fails before any simulation runs, so cmdliner
   names the flag on stderr and exits 124, like an unwritable output
   path below. *)
let check_shape shape =
  let nodes = shape_nodes shape and cells = shape_cells shape in
  if nodes < 1 || nodes > Flash.Config.max_nodes then
    Error
      (Printf.sprintf "--nodes %d: the machine has 1 to %d nodes" nodes
         Flash.Config.max_nodes)
  else if cells < 1 || nodes mod cells <> 0 then
    Error
      (Printf.sprintf "--cells %d: must divide the %d nodes evenly" cells
         nodes)
  else Ok shape

let check_index flag what v n =
  if v >= 0 && v < n then Ok ()
  else
    Error
      (Printf.sprintf "--%s %d: no such %s (the machine has %d %ss)" flag v
         what n what)

let ( let* ) = Result.bind

let shape_term =
  let cells =
    Arg.(
      value
      & opt (some int) None
      & info [ "cells" ] ~docv:"N"
          ~doc:"Number of cells (default 4).")
  in
  let nodes =
    Arg.(
      value
      & opt (some int) None
      & info [ "nodes" ] ~docv:"N"
          ~doc:"Number of nodes (default: the stock machine).")
  in
  let smp =
    Arg.(
      value & flag
      & info [ "smp" ]
          ~doc:"Run the SMP-OS baseline (one kernel, firewall disabled).")
  in
  let no_import_cache =
    Arg.(
      value & flag
      & info [ "no-import-cache" ]
          ~doc:
            "Run with the legacy sharing protocol: no remote-page import \
             cache, no fault read-ahead, one share.release RPC per page. \
             Useful as the A side of an A/B against the default protocol.")
  in
  Term.(
    term_result'
      (const (fun sh_cells sh_nodes sh_smp sh_no_import_cache ->
           check_shape { sh_cells; sh_nodes; sh_smp; sh_no_import_cache })
      $ cells $ nodes $ smp $ no_import_cache))

(* An output file path, probed at parse time so that an unwritable path
   fails before any simulation runs: cmdliner prints the error naming the
   path and exits 124. The probe creates the file but does not truncate it. *)
let out_file =
  let parse path =
    match open_out_gen [ Open_wronly; Open_creat ] 0o644 path with
    | oc ->
      close_out oc;
      Ok path
    | exception Sys_error msg -> Error (`Msg ("cannot write " ^ msg))
  in
  Arg.conv (parse, Format.pp_print_string)

let output_term =
  let trace =
    Arg.(
      value
      & opt (some out_file) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Write a Chrome trace_event JSON file of the run (load it in \
             chrome://tracing or Perfetto).")
  in
  let metrics =
    Arg.(
      value
      & opt (some out_file) None
      & info [ "metrics-json" ] ~docv:"FILE"
          ~doc:
            "Write the end-of-run typed metrics snapshot (per-op RPC \
             latency histograms, per-cell counters, sharing totals, \
             recovery timeline) as JSON.")
  in
  Term.(
    const (fun out_trace out_metrics -> { out_trace; out_metrics })
    $ trace $ metrics)

let boot_shape ?wax shape =
  let ncells = shape_cells shape in
  let eng = Sim.Engine.create () in
  let mcfg =
    Flash.Config.with_nodes Flash.Config.default (shape_nodes shape)
  in
  let mcfg =
    if shape.sh_smp then { mcfg with Flash.Config.firewall_enabled = false }
    else mcfg
  in
  let params =
    {
      Hive.Params.default with
      enable_import_cache = not shape.sh_no_import_cache;
    }
  in
  let sys =
    Hive.System.boot ~mcfg ~params ~ncells
      ~wax:(Option.value ~default:(not shape.sh_smp) wax)
      eng
  in
  (eng, sys, ncells)

let print_counters sys =
  List.iter
    (fun (c : Hive.Metrics.Snapshot.cell) ->
      Printf.printf "  cell %d:\n" c.id;
      List.iter (fun (k, v) -> Printf.printf "    %-28s %d\n" k v) c.counters)
    (Hive.Metrics.capture sys).Hive.Metrics.Snapshot.cells

(* Attach a Chrome trace_event sink when --trace-out is given; returns the
   finalizer that terminates the JSON array. *)
let finish_observability sys ~trace_close ~(output : output) =
  trace_close ();
  (match output.out_metrics with
  | None -> ()
  | Some path -> Hive.Metrics.write_file sys path);
  Hive.Metrics.print_summary (Hive.Metrics.capture sys)

(* ---- workload command ---- *)

let run_workload name shape verbose output =
  let _eng, sys, ncells = boot_shape shape in
  if verbose then
    Sim.Event.attach sys.Hive.Types.events (Sim.Event.jsonl_sink stderr);
  let trace_close =
    Sim.Event.attach_chrome_file sys.Hive.Types.events output.out_trace
  in
  let spec = Workloads.Spec.of_name name in
  Workloads.Spec.setup sys spec;
  let result = Workloads.Spec.run sys spec in
  Printf.printf "%s on %s (%d cell%s): %.3f s simulated%s\n"
    result.Workloads.Workload.name
    (if shape.sh_smp then "SMP-OS baseline" else "Hive")
    ncells
    (if ncells = 1 then "" else "s")
    (Workloads.Workload.ns_to_s result.Workloads.Workload.elapsed_ns)
    (if result.Workloads.Workload.completed then "" else "  [INCOMPLETE]");
  List.iter
    (fun (path, v) ->
      if v <> Workloads.Workload.Match then
        Printf.printf "  output %s: %s\n" path
          (Workloads.Workload.verify_outcome_to_string v))
    (Workloads.Spec.verify sys spec);
  if verbose then print_counters sys;
  finish_observability sys ~trace_close ~output;
  0

(* ---- server command: interactive traffic served through failure ---- *)

let run_server shape duration_ms rate zipf churn_pct deadline_ms kill_cell
    kill_at_ms seed verbose output =
  let* () =
    if rate > 0. then Ok ()
    else Error (Printf.sprintf "--rate %g: must be positive" rate)
  in
  let* () =
    match kill_cell with
    | Some c -> check_index "kill-cell" "cell" c (shape_cells shape)
    | None -> Ok ()
  in
  let _eng, sys, ncells = boot_shape shape in
  if verbose then
    Sim.Event.attach sys.Hive.Types.events (Sim.Event.jsonl_sink stderr);
  let trace_close =
    Sim.Event.attach_chrome_file sys.Hive.Types.events output.out_trace
  in
  let cfg =
    {
      Workloads.Server.default with
      duration_ms;
      rate_rps = rate;
      zipf_s = zipf;
      churn_pct;
      deadline_ms;
      fault =
        Option.map
          (fun c -> { Workloads.Server.kill_cell = c; at_ms = kill_at_ms })
          kill_cell;
      seed;
    }
  in
  let result, stats = Workloads.Server.run ~cfg sys in
  Workloads.Server.print_stats stats;
  Printf.printf "server on %s (%d cell%s): %.3f s simulated%s\n"
    (if shape.sh_smp then "SMP-OS baseline" else "Hive")
    ncells
    (if ncells = 1 then "" else "s")
    (Workloads.Workload.ns_to_s result.Workloads.Workload.elapsed_ns)
    (if result.Workloads.Workload.completed then "" else "  [INCOMPLETE]");
  if verbose then print_counters sys;
  finish_observability sys ~trace_close ~output;
  Ok (if result.Workloads.Workload.completed then 0 else 1)

(* ---- fault command: a front end over Faultinj.Campaign.run_test ---- *)

let run_fault kind shape node victim at_ms cascade_node link_from
    drop_pct dup_pct delay_pct dur_ms output =
  let* () =
    match kind with
    | `Node | `Link -> check_index "node" "node" node (shape_nodes shape)
    | `Corrupt_cow | `Corrupt_map ->
      check_index "victim" "cell" victim (shape_cells shape)
  in
  let* () =
    match cascade_node with
    | Some n -> check_index "cascade-node" "node" n (shape_nodes shape)
    | None -> Ok ()
  in
  let* () =
    if link_from >= -1 && link_from < shape_nodes shape then Ok ()
    else
      Error
        (Printf.sprintf
           "--link-from %d: no such processor (-1 = any, or 0 to %d)"
           link_from (shape_nodes shape - 1))
  in
  let check_pct flag v =
    if v >= 0 && v <= 100 then Ok ()
    else Error (Printf.sprintf "--%s %d: must be 0 to 100" flag v)
  in
  let* () = check_pct "drop-pct" drop_pct in
  let* () = check_pct "dup-pct" dup_pct in
  let* () = check_pct "delay-pct" delay_pct in
  let* () =
    if dur_ms > 0 then Ok ()
    else Error (Printf.sprintf "--dur-ms %d: must be positive" dur_ms)
  in
  let _eng, sys, _ = boot_shape ~wax:false shape in
  let trace_close =
    Sim.Event.attach_chrome_file sys.Hive.Types.events output.out_trace
  in
  let mode = Hive.System.Random_address in
  let fault_kind =
    match (kind, cascade_node) with
    | `Node, None -> Faultinj.Campaign.Node_failure { node }
    | `Node, Some second_node ->
      Faultinj.Campaign.Node_cascade { first_node = node; second_node }
    | `Corrupt_cow, _ ->
      Faultinj.Campaign.Corrupt_cow { victim_cell = victim; mode }
    | `Corrupt_map, _ ->
      Faultinj.Campaign.Corrupt_map { victim_cell = victim; mode }
    | `Link, _ ->
      (* Degrade the interconnect into --node for --dur-ms: drops,
         duplicates and delays per the given percentages. The kernels
         must ride it out with retransmission and reply caching. *)
      Faultinj.Campaign.Link_degrade
        {
          deg_from = link_from;
          deg_to = node;
          dur_ns = Int64.of_int (dur_ms * 1_000_000);
          drop_pct;
          dup_pct;
          delay_pct;
          max_delay_ns = 2_000_000L;
          salt = 0x51EED5A17L;
        }
  in
  let o =
    Faultinj.Campaign.run_test ~sys
      ~workload:(Workloads.Spec.of_name "pmake")
      { Faultinj.Campaign.at_ns = Int64.of_int (at_ms * 1_000_000);
        kind = fault_kind }
  in
  let ints l = String.concat "; " (List.map string_of_int l) in
  Printf.printf "fault: %s -> cells [%s]\n" o.Faultinj.Campaign.fault_desc
    (ints o.Faultinj.Campaign.injected_cells);
  (match o.Faultinj.Campaign.detection_ms with
  | Some ms -> Printf.printf "detection latency: %.1f ms\n" ms
  | None -> Printf.printf "no recovery round recorded\n");
  let sys_count name = Sim.Stats.value sys.Hive.Types.sys_counters name in
  Printf.printf "recovery round restarts: %d\n"
    (sys_count "recovery.round_restarts");
  Printf.printf "cells reintegrated: %d\n" (sys_count "cell.reintegrations");
  Printf.printf "contained: %b\n" o.Faultinj.Campaign.contained;
  Printf.printf "live cells: [%s]\n" (ints o.Faultinj.Campaign.survivors);
  (* A link window that damaged no message tested nothing. *)
  let undamaged =
    if kind <> `Link then false
    else
      let per = Hive.System.counter_total sys in
      let d = (Hive.Metrics.capture sys).Hive.Metrics.Snapshot.sips in
      Printf.printf
        "sips damage: %d dropped, %d duplicated, %d delayed (of %d sends)\n"
        d.drops d.dups d.delays d.sends;
      Printf.printf
        "rpc transport: %d retransmits, %d duplicates suppressed, %d stale \
         drops, %d late replies\n"
        (per "rpc.retransmits") (per "rpc.dup_suppressed")
        (per "rpc.stale_reply_drops" + per "rpc.stale_request_drops")
        (per "rpc.late_replies");
      d.drops + d.dups + d.delays = 0
  in
  if undamaged then Printf.printf "link window damaged no message\n";
  Printf.printf "check run: %s\n"
    (if o.Faultinj.Campaign.check_passed then "completed" else "INCOMPLETE");
  Printf.printf "corrupt outputs: %d (must be 0)\n"
    (List.length o.Faultinj.Campaign.corrupt_outputs);
  List.iter
    (Printf.printf "invariant violation: %s\n")
    o.Faultinj.Campaign.violations;
  Printf.printf "invariants: %s\n"
    (if o.Faultinj.Campaign.violations = [] then "clean" else "VIOLATED");
  finish_observability sys ~trace_close ~output;
  Ok (if Faultinj.Campaign.passed o && not undamaged then 0 else 1)

(* ---- fuzz command ---- *)

let run_fuzz seeds seed_base replay shrink_flag out plant jobs output =
  let out_chan = Option.map open_out out in
  let emit r =
    match out_chan with
    | Some oc -> output_string oc (Faultinj.Fuzz.record_to_json r ^ "\n")
    | None -> ()
  in
  (* Emission and failure post-mortems always run on the main domain, in
     seed order, between its own campaigns; the other workers only
     compute records. With [--jobs n] the output (stdout and the JSONL
     file) is therefore byte-identical to a serial run. *)
  let report ~traced seed r =
    emit r;
    if Faultinj.Fuzz.failed r then begin
      let plan = Faultinj.Fuzz.plan_of_seed seed in
      Printf.printf "FAIL %s\n" (Faultinj.Fuzz.record_to_json r);
      (* Replay the failing seed with a Chrome trace for post-mortem
         (unless this run already wrote one). *)
      if not traced then begin
        let trace = Printf.sprintf "fuzz-fail-0x%Lx.trace.json" seed in
        ignore (Faultinj.Fuzz.run_plan ?plant ~trace_out:trace plan);
        Printf.printf "  trace written to %s\n" trace
      end;
      if shrink_flag then begin
        let p', r' = Faultinj.Fuzz.shrink ?plant plan in
        Printf.printf "  shrunk to: %s\n" (Faultinj.Fuzz.describe_plan p');
        Printf.printf "  %s\n" (Faultinj.Fuzz.record_to_json r')
      end;
      false
    end
    else begin
      Printf.printf "ok   seed=0x%Lx sim=%.2fs injected=%d survivors=[%s]\n"
        seed
        (Int64.to_float r.Faultinj.Fuzz.r_sim_ns /. 1e9)
        (List.length r.Faultinj.Fuzz.r_injected)
        (String.concat ";"
           (List.map string_of_int r.Faultinj.Fuzz.r_survivors));
      true
    end
  in
  let ok =
    match replay with
    | Some seed ->
      let r =
        Faultinj.Fuzz.run_plan ?plant ?trace_out:output.out_trace
          ?metrics_out:output.out_metrics
          (Faultinj.Fuzz.plan_of_seed seed)
      in
      report ~traced:(output.out_trace <> None) seed r
    | None ->
      let failures = ref 0 in
      let seed_list =
        Array.init seeds (fun i -> Int64.add seed_base (Int64.of_int i))
      in
      Faultinj.Campaign.run_parallel ~jobs ~seeds:seed_list
        ~run:(fun seed ->
          Faultinj.Fuzz.run_plan ?plant (Faultinj.Fuzz.plan_of_seed seed))
        ~on_record:(fun seed r ->
          if not (report ~traced:false seed r) then incr failures);
      Printf.printf "fuzz: %d seed(s), %d failure(s)\n" seeds !failures;
      !failures = 0
  in
  Option.iter close_out out_chan;
  if ok then 0 else 1

(* ---- cmdliner terms ---- *)

let verbose_arg =
  Arg.(
    value & flag
    & info [ "v"; "verbose" ]
        ~doc:
          "Print kernel counters and stream simulation events to stderr \
           as JSONL.")

let workload_name =
  Arg.(
    required
    & pos 0 (some (enum [ ("pmake", "pmake"); ("ocean", "ocean"); ("raytrace", "raytrace") ])) None
    & info [] ~docv:"WORKLOAD" ~doc:"pmake, ocean or raytrace.")

let workload_cmd =
  Cmd.v
    (Cmd.info "workload" ~doc:"Run one workload on a chosen configuration.")
    Term.(
      const run_workload $ workload_name $ shape_term $ verbose_arg
      $ output_term)

let fault_kind =
  Arg.(
    required
    & pos 0
        (some
           (enum
              [ ("node", `Node); ("corrupt-cow", `Corrupt_cow);
                ("corrupt-map", `Corrupt_map); ("link", `Link) ]))
        None
    & info [] ~docv:"KIND" ~doc:"node, corrupt-cow, corrupt-map or link.")

let node_arg =
  Arg.(
    value & opt int 2
    & info [ "node" ] ~docv:"N"
        ~doc:"Node to fail (or the degraded link's destination node).")

let link_from_arg =
  Arg.(
    value & opt int (-1)
    & info [ "link-from" ] ~docv:"PROC"
        ~doc:
          "With the link fault kind: source processor of the degraded \
           link (-1 = any).")

let drop_pct_arg =
  Arg.(
    value & opt int 30
    & info [ "drop-pct" ] ~docv:"PCT"
        ~doc:"Link fault: percentage of messages dropped.")

let dup_pct_arg =
  Arg.(
    value & opt int 20
    & info [ "dup-pct" ] ~docv:"PCT"
        ~doc:"Link fault: percentage of messages duplicated.")

let delay_pct_arg =
  Arg.(
    value & opt int 20
    & info [ "delay-pct" ] ~docv:"PCT"
        ~doc:"Link fault: percentage of messages delayed (up to 2 ms).")

let dur_ms_arg =
  Arg.(
    value & opt int 20_000
    & info [ "dur-ms" ] ~docv:"MS"
        ~doc:
          "Link fault: window duration in milliseconds. The default \
           covers the whole build, so the window damages messages; a run \
           whose window damages none exits 1.")

let victim_arg =
  Arg.(
    value & opt int 1
    & info [ "victim" ] ~docv:"CELL" ~doc:"Cell to corrupt.")

let at_ms_arg =
  Arg.(
    value & opt int 300
    & info [ "at-ms" ] ~docv:"MS"
        ~doc:
          "Injection time in milliseconds, counted from the end of the \
           workload's setup (not from boot).")

let cascade_node_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "cascade-node" ] ~docv:"N"
        ~doc:
          "With the node fault kind: fail a second node while the first \
           failure's recovery round is in flight, forcing a round restart \
           with the enlarged dead set.")

let fault_cmd =
  Cmd.v
    (Cmd.info "fault"
       ~doc:"Inject a fault during pmake and report containment.")
    Term.(
      term_result'
        (const run_fault $ fault_kind $ shape_term $ node_arg $ victim_arg
        $ at_ms_arg $ cascade_node_arg $ link_from_arg
        $ drop_pct_arg $ dup_pct_arg $ delay_pct_arg $ dur_ms_arg
        $ output_term))

let seeds_arg =
  Arg.(
    value & opt int 25
    & info [ "seeds" ] ~docv:"N" ~doc:"Number of consecutive seeds to run.")

let seed_base_arg =
  Arg.(
    value & opt int64 1L
    & info [ "seed-base" ] ~docv:"SEED"
        ~doc:"First seed of the sweep (decimal or 0x hex).")

let replay_arg =
  Arg.(
    value
    & opt (some int64) None
    & info [ "replay" ] ~docv:"SEED"
        ~doc:"Replay a single seed instead of sweeping.")

let shrink_arg =
  Arg.(
    value & flag
    & info [ "shrink" ]
        ~doc:"Shrink failing seeds to a minimal reproducer plan.")

let fuzz_out_arg =
  Arg.(
    value
    & opt (some out_file) None
    & info [ "out" ] ~docv:"FILE"
        ~doc:"Append one JSON record per seed to FILE (JSON Lines).")

let plant_arg =
  let plant p name doc = (Some p, Arg.info [ name ] ~doc) in
  Arg.(
    value
    & vflag None
        [
          plant Faultinj.Fuzz.Unrecorded_grant "demo-bug"
            "(testing) Plant a deliberate containment bug — a firewall \
             grant the kernel never recorded — to prove the checkers catch \
             it.";
          plant Faultinj.Fuzz.Dup_execution "demo-dup-bug"
            "(testing) Plant a deliberate transport bug — reply-cache \
             suppression disabled under a duplication-heavy degradation \
             window — to prove the at-most-once checker catches duplicate \
             execution.";
          plant Faultinj.Fuzz.Split_brain "demo-split-brain"
            "(testing) Plant a deliberate agreement bug — the quorum check \
             disabled while cell 0 is severed from the rest of the machine \
             — to prove the latched single-master oracle catches the \
             resulting concurrent recovery masters.";
        ])

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Shard the seed sweep across N domains, counting the calling \
           one, which also prints the records (work-stealing; each \
           worker owns a private single-threaded simulation engine; at \
           most one domain per recommended CPU). Output is \
           byte-identical to --jobs 1 for any N.")

let duration_ms_arg =
  Arg.(
    value & opt int 3000
    & info [ "duration-ms" ] ~docv:"MS"
        ~doc:"Traffic duration in simulated milliseconds.")

let rate_arg =
  Arg.(
    value & opt float 80.
    & info [ "rate" ] ~docv:"RPS"
        ~doc:"System-wide open-loop arrival rate (requests/s).")

let zipf_arg =
  Arg.(
    value & opt float 1.1
    & info [ "zipf" ] ~docv:"S"
        ~doc:"Zipf exponent for file popularity.")

let churn_pct_arg =
  Arg.(
    value & opt int 10
    & info [ "churn-pct" ] ~docv:"PCT"
        ~doc:"Percent of arrivals that are fork/exit churn requests.")

let deadline_ms_arg =
  Arg.(
    value & opt int 250
    & info [ "deadline-ms" ] ~docv:"MS"
        ~doc:"End-to-end client deadline budget per request.")

let kill_cell_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "kill-cell" ] ~docv:"CELL"
        ~doc:"Fail-stop CELL mid-traffic to measure serving through failure.")

let kill_at_ms_arg =
  Arg.(
    value & opt int 1000
    & info [ "kill-at-ms" ] ~docv:"MS"
        ~doc:"When to kill the cell (simulated ms from traffic start).")

let traffic_seed_arg =
  Arg.(
    value & opt int64 0x5EEDL
    & info [ "seed" ] ~docv:"SEED"
        ~doc:"PRNG seed for arrivals, popularity and churn draws.")

let server_cmd =
  Cmd.v
    (Cmd.info "server"
       ~doc:
         "Interactive time-sharing traffic served through failure: \
          open-loop Poisson arrivals with Zipf file popularity and \
          fork/exit churn, deadline-budgeted client retries, per-cell \
          admission control, and per-phase tail latency (before / during \
          / after an optional cell kill).")
    Term.(
      term_result'
        (const run_server $ shape_term $ duration_ms_arg $ rate_arg
        $ zipf_arg $ churn_pct_arg $ deadline_ms_arg $ kill_cell_arg
        $ kill_at_ms_arg $ traffic_seed_arg $ verbose_arg $ output_term))

let fuzz_cmd =
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Deterministic fault-campaign fuzzing: each seed derives a machine \
          shape, workload, scheduler jitter and fault schedule; system-wide \
          invariants are checked at end of run. Failing seeds replay \
          bit-for-bit and can be shrunk. With --replay, --trace-out and \
          --metrics-json capture that run's artifacts.")
    Term.(
      const run_fuzz $ seeds_arg $ seed_base_arg $ replay_arg $ shrink_arg
      $ fuzz_out_arg $ plant_arg $ jobs_arg $ output_term)

let main =
  Cmd.group
    (Cmd.info "hive_sim" ~version:"1.0"
       ~doc:"Simulated Hive multicellular OS on a FLASH machine model.")
    [ workload_cmd; server_cmd; fault_cmd; fuzz_cmd ]

let () = exit (Cmd.eval' main)
