(* hive_sim: command-line driver for the simulated Hive system.

     hive_sim workload pmake --cells 4
     hive_sim workload ocean --cells 1 --smp
     hive_sim fault node --cells 4 --node 2 --at-ms 300
     hive_sim fault corrupt-cow --cells 4 --victim 1
     hive_sim sweep --areas sharing --quick
     hive_sim sweep pmake --cells 2 *)

open Cmdliner

(* ---- shared machine-shape and output terms ----

   Every subcommand that boots a system (or filters sweep rows) takes the
   same four shape flags; every subcommand that can emit observability
   artifacts takes the same two output flags. *)

type shape = {
  sh_cells : int option;
  sh_nodes : int option;
  sh_smp : bool;
  sh_no_import_cache : bool;
}

type output = { out_trace : string option; out_metrics : string option }

let shape_term =
  let cells =
    Arg.(
      value
      & opt (some int) None
      & info [ "cells" ] ~docv:"N"
          ~doc:
            "Number of cells (default 4). In sweep mode: keep only grid \
             rows with $(docv) cells.")
  in
  let nodes =
    Arg.(
      value
      & opt (some int) None
      & info [ "nodes" ] ~docv:"N"
          ~doc:
            "Number of nodes (default: the stock machine). In sweep mode: \
             keep only grid rows with $(docv) nodes.")
  in
  let smp =
    Arg.(
      value & flag
      & info [ "smp" ]
          ~doc:
            "Run the SMP-OS baseline (one kernel, firewall disabled). In \
             sweep mode: keep only SMP-baseline rows.")
  in
  let no_import_cache =
    Arg.(
      value & flag
      & info [ "no-import-cache" ]
          ~doc:
            "Run with the legacy sharing protocol: no remote-page import \
             cache, no fault read-ahead, one share.release RPC per page. \
             Useful as the A side of an A/B against the default protocol. \
             In sweep mode: keep only legacy-protocol rows.")
  in
  Term.(
    const (fun sh_cells sh_nodes sh_smp sh_no_import_cache ->
        { sh_cells; sh_nodes; sh_smp; sh_no_import_cache })
    $ cells $ nodes $ smp $ no_import_cache)

let output_term =
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Write a Chrome trace_event JSON file of the run (load it in \
             chrome://tracing or Perfetto).")
  in
  let metrics =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-json" ] ~docv:"FILE"
          ~doc:
            "Write the end-of-run typed metrics snapshot (per-op RPC \
             latency histograms, per-cell counters, sharing totals, \
             recovery timeline) as JSON.")
  in
  Term.(
    const (fun out_trace out_metrics -> { out_trace; out_metrics })
    $ trace $ metrics)

let boot_shape ?(oracle = false) ?wax shape =
  let ncells = Option.value ~default:4 shape.sh_cells in
  let eng = Sim.Engine.create () in
  let mcfg =
    match shape.sh_nodes with
    | None -> Flash.Config.default
    | Some n -> Flash.Config.with_nodes Flash.Config.default n
  in
  let mcfg =
    if shape.sh_smp then { mcfg with Flash.Config.firewall_enabled = false }
    else mcfg
  in
  let params =
    if shape.sh_no_import_cache then
      Hive.Params.legacy_sharing Hive.Params.default
    else Hive.Params.default
  in
  let sys =
    Hive.System.boot ~mcfg ~params ~ncells ~multicellular:(not shape.sh_smp)
      ~oracle
      ~wax:(Option.value ~default:(not shape.sh_smp) wax)
      eng
  in
  (eng, sys, ncells)

let setup_and_run sys = function
  | "pmake" ->
    Workloads.Pmake.setup sys Workloads.Pmake.default;
    Workloads.Pmake.run sys
  | "ocean" ->
    Workloads.Ocean.setup sys Workloads.Ocean.default;
    Workloads.Ocean.run sys
  | "raytrace" -> Workloads.Raytrace.run sys
  | other -> failwith ("unknown workload: " ^ other)

let verify_of sys = function
  | "pmake" -> Workloads.Pmake.verify sys
  | "ocean" -> Workloads.Ocean.verify sys
  | "raytrace" -> Workloads.Raytrace.verify sys
  | _ -> []

let print_counters sys =
  let _all, per_cell = Hive.System.counters sys in
  List.iter
    (fun (id, cs) ->
      Printf.printf "  cell %d:\n" id;
      List.iter (fun (k, v) -> Printf.printf "    %-28s %d\n" k v) cs)
    per_cell

(* Attach a Chrome trace_event sink when --trace-out is given; returns the
   finalizer that terminates the JSON array. *)
let attach_trace sys = function
  | None -> fun () -> ()
  | Some path ->
    let sink, close = Sim.Event.chrome_file path in
    Sim.Event.attach sys.Hive.Types.events sink;
    close

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
  let trace_close = attach_trace sys output.out_trace in
  let result, _ = setup_and_run sys name in
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
    (verify_of sys name);
  if verbose then print_counters sys;
  finish_observability sys ~trace_close ~output;
  0

(* ---- server command: interactive traffic served through failure ---- *)

let run_server shape duration_ms rate zipf churn_pct deadline_ms kill_cell
    kill_at_ms seed verbose output =
  let _eng, sys, ncells = boot_shape shape in
  if verbose then
    Sim.Event.attach sys.Hive.Types.events (Sim.Event.jsonl_sink stderr);
  let trace_close = attach_trace sys output.out_trace in
  (match kill_cell with
  | Some c when c < 0 || c >= ncells ->
    failwith (Printf.sprintf "--kill-cell %d: no such cell" c)
  | _ -> ());
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
  if result.Workloads.Workload.completed then 0 else 1

(* ---- sweep command: thin wrapper over the Bench.Sweep registry ---- *)

let run_sweep workload shape areas quick out_dir =
  Bench.Scenarios.register ();
  let known = Bench.Scenario.areas () in
  let bad =
    match areas with
    | None -> []
    | Some l -> List.filter (fun a -> not (List.mem a known)) l
  in
  if bad <> [] then begin
    Printf.eprintf "sweep: unknown area(s) %s (have: %s)\n"
      (String.concat ", " bad)
      (String.concat ", " known);
    2
  end
  else begin
    let dims_filter (d : Bench.Scenario.dims) =
      (match workload with
      | None -> true
      | Some w -> d.Bench.Scenario.workload = w)
      && (match shape.sh_cells with
         | None -> true
         | Some n -> d.Bench.Scenario.cells = n)
      && (match shape.sh_nodes with
         | None -> true
         | Some n -> d.Bench.Scenario.nodes = n)
      && ((not shape.sh_smp) || d.Bench.Scenario.smp)
      && ((not shape.sh_no_import_cache)
         || not d.Bench.Scenario.import_cache)
    in
    let reports = Bench.Sweep.run ?areas ~quick ~dims_filter () in
    (match out_dir with
    | None -> ()
    | Some dir ->
      let written = Bench.Sweep.write_dir ~dir reports in
      List.iter (fun p -> Printf.printf "wrote %s\n" p) written);
    if List.for_all (fun r -> r.Bench.Sweep.a_rows = []) reports then begin
      Printf.eprintf "sweep: no grid rows matched the given filters\n";
      1
    end
    else 0
  end

(* ---- fault command ---- *)

let run_fault kind shape node victim at_ms cascade_node oracle link_from
    drop_pct dup_pct delay_pct dur_ms output =
  let eng, sys, _ = boot_shape ~oracle ~wax:false shape in
  let trace_close = attach_trace sys output.out_trace in
  Workloads.Pmake.setup sys Workloads.Pmake.default;
  let t_inject = ref 0L in
  let rng = Sim.Prng.create 1 in
  (* With --cascade-node, fail a second node while the first failure's
     recovery round is in flight (between the two global barriers). *)
  let inject_cascade () =
    match cascade_node with
    | None -> ()
    | Some second ->
      let past_barrier1 () =
        sys.Hive.Types.recovery_round_active
        && List.exists
             (fun (phase, t) ->
               phase = "recovery.barrier1" && Int64.compare t !t_inject >= 0)
             sys.Hive.Types.recovery_timeline
      in
      let rec poll tries =
        if tries > 0 && not (past_barrier1 ()) then begin
          Sim.Engine.delay 100_000L;
          poll (tries - 1)
        end
      in
      poll 10_000;
      Printf.printf "cascade: failing node %d mid-recovery\n" second;
      Hive.System.inject_node_failure sys second
  in
  ignore
    (Sim.Engine.spawn eng ~name:"injector" (fun () ->
         Sim.Engine.delay (Int64.of_int (at_ms * 1_000_000));
         t_inject := Sim.Engine.time ();
         match kind with
         | "node" ->
           Hive.System.inject_node_failure sys node;
           inject_cascade ()
         | "corrupt-cow" | "corrupt-map" ->
           let rec attempt tries =
             if tries > 0 then begin
               let injected =
                 List.exists
                   (fun (p : Hive.Types.process) ->
                     p.Hive.Types.proc_cell = victim
                     && Hive.System.corrupt_address_map sys p
                          Hive.System.Random_address rng)
                   sys.Hive.Types.cells.(victim).Hive.Types.processes
               in
               if not injected then begin
                 Sim.Engine.delay 20_000_000L;
                 attempt (tries - 1)
               end
               else t_inject := Sim.Engine.time ()
             end
           in
           attempt 100
         | "link" ->
           (* Degrade the interconnect into --node for --dur-ms: drops,
              duplicates and delays per the given percentages. The kernels
              must ride it out with retransmission and reply caching. *)
           ignore
             (Faultinj.Campaign.inject sys rng
                (Faultinj.Campaign.Link_degrade
                   {
                     deg_from = link_from;
                     deg_to = node;
                     at_ns = Sim.Engine.time ();
                     dur_ns = Int64.of_int (dur_ms * 1_000_000);
                     drop_pct;
                     dup_pct;
                     delay_pct;
                     max_delay_ns = 2_000_000L;
                     salt = 0x51EED5A17L;
                   }))
         | other -> failwith ("unknown fault kind: " ^ other)));
  let result, _ = Workloads.Pmake.run sys in
  Printf.printf "pmake with %s fault: %.3f s simulated, %s\n" kind
    (Workloads.Workload.ns_to_s result.Workloads.Workload.elapsed_ns)
    (if result.Workloads.Workload.completed then "driver completed"
     else "driver died");
  (match Hive.System.detection_latency_ns sys ~t_fault:!t_inject with
  | Some ns ->
    Printf.printf "detection latency: %.1f ms\n" (Int64.to_float ns /. 1e6)
  | None -> Printf.printf "no recovery round recorded\n");
  (* Let the recovery master finish diagnostics and reintegration. *)
  ignore
    (Hive.System.run_until sys
       ~deadline:(Int64.add (Sim.Engine.now eng) 2_000_000_000L)
       (fun () -> not sys.Hive.Types.recovery_in_progress));
  let sys_count name = Sim.Stats.value sys.Hive.Types.sys_counters name in
  Printf.printf "recovery round restarts: %d\n"
    (sys_count "recovery.round_restarts");
  Printf.printf "cells reintegrated: %d\n" (sys_count "cell.reintegrations");
  Printf.printf "live cells: [%s]\n"
    (String.concat "; "
       (List.map string_of_int (Hive.System.live_cells sys)));
  if kind = "link" then begin
    let per name =
      Array.fold_left
        (fun acc (c : Hive.Types.cell) ->
          acc + Sim.Stats.value c.Hive.Types.counters name)
        0 sys.Hive.Types.cells
    in
    let sips = Flash.Machine.sips sys.Hive.Types.machine in
    Printf.printf
      "sips damage: %d dropped, %d duplicated, %d delayed (of %d sends)\n"
      (Flash.Sips.drop_count sips)
      (Flash.Sips.dup_count sips)
      (Flash.Sips.delay_count sips)
      (Flash.Sips.send_count sips);
    Printf.printf
      "rpc transport: %d retransmits, %d duplicates suppressed, %d stale \
       drops, %d late replies\n"
      (per "rpc.retransmits") (per "rpc.dup_suppressed")
      (per "rpc.stale_reply_drops" + per "rpc.stale_request_drops")
      (per "rpc.late_replies")
  end;
  let corrupt =
    List.filter
      (fun (_, v) -> v = Workloads.Workload.Corrupt)
      (Workloads.Pmake.verify sys)
  in
  Printf.printf "corrupt outputs: %d (must be 0)\n" (List.length corrupt);
  (* End-state structural check: containment means the survivors' kernel
     state is consistent, not just that the build's outputs are. Give
     in-flight batches a moment to drain so transient pins don't read as
     leaks. *)
  Sim.Engine.run ~until:(Int64.add (Sim.Engine.now eng) 1_000_000_000L) eng;
  let violations = Hive.Invariants.check sys in
  List.iter
    (fun viol ->
      Printf.printf "invariant violation: %s\n" (Hive.Invariants.to_string viol))
    violations;
  Printf.printf "invariants: %s\n"
    (if violations = [] then "clean" else "VIOLATED");
  finish_observability sys ~trace_close ~output;
  if corrupt = [] && violations = [] then 0 else 1

(* ---- fuzz command ---- *)

let run_fuzz seeds seed_base replay shrink_flag out demo_bug dup_bug
    split_brain jobs output =
  let out_chan = Option.map open_out out in
  let emit r =
    match out_chan with
    | Some oc -> output_string oc (Faultinj.Fuzz.record_to_json r ^ "\n")
    | None -> ()
  in
  (* Emission and failure post-mortems always run on the main domain, in
     seed order; workers only compute records. With [--jobs n] the
     output (stdout and the JSONL file) is therefore byte-identical to a
     serial run. *)
  let report ~traced seed r =
    emit r;
    if Faultinj.Fuzz.failed r then begin
      let plan = Faultinj.Fuzz.plan_of_seed seed in
      Printf.printf "FAIL %s\n" (Faultinj.Fuzz.record_to_json r);
      (* Replay the failing seed with a Chrome trace for post-mortem
         (unless this run already wrote one). *)
      if not traced then begin
        let trace = Printf.sprintf "fuzz-fail-0x%Lx.trace.json" seed in
        ignore
          (Faultinj.Fuzz.run_plan ~demo_bug ~dup_bug ~split_brain
             ~trace_out:trace plan);
        Printf.printf "  trace written to %s\n" trace
      end;
      if shrink_flag then begin
        let p', r' =
          Faultinj.Fuzz.shrink ~demo_bug ~dup_bug ~split_brain plan
        in
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
        Faultinj.Fuzz.run_plan ~demo_bug ~dup_bug ~split_brain
          ?trace_out:output.out_trace ?metrics_out:output.out_metrics
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
          Faultinj.Fuzz.run_plan ~demo_bug ~dup_bug ~split_brain
            (Faultinj.Fuzz.plan_of_seed seed))
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

let sweep_workload =
  Arg.(
    value
    & pos 0 (some string) None
    & info [] ~docv:"WORKLOAD"
        ~doc:
          "Optional workload filter: keep only grid rows of this workload \
           (e.g. pmake, ocean, raytrace, rpc, read).")

let areas_arg =
  Arg.(
    value
    & opt (some (list string)) None
    & info [ "areas" ] ~docv:"A,B"
        ~doc:"Restrict the sweep to the named benchmark areas.")

let quick_arg =
  Arg.(
    value & flag
    & info [ "quick" ]
        ~doc:
          "Run each scenario's reduced grid (the subset CI exercises) \
           instead of the full grid.")

let out_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "out-dir" ] ~docv:"DIR"
        ~doc:"Write one BENCH_<area>.json per area into $(docv).")

let sweep_cmd =
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Run the registered benchmark scenarios across their dimension \
          grids (workload x cells x nodes x working set x link degradation \
          x import cache) and optionally emit the deterministic \
          BENCH_<area>.json trajectory files.")
    Term.(
      const run_sweep $ sweep_workload $ shape_term $ areas_arg $ quick_arg
      $ out_dir_arg)

let fault_kind =
  Arg.(
    required
    & pos 0
        (some
           (enum
              [ ("node", "node"); ("corrupt-cow", "corrupt-cow");
                ("corrupt-map", "corrupt-map"); ("link", "link") ]))
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
    value & opt int 300
    & info [ "dur-ms" ] ~docv:"MS"
        ~doc:"Link fault: window duration in milliseconds.")

let victim_arg =
  Arg.(
    value & opt int 1
    & info [ "victim" ] ~docv:"CELL" ~doc:"Cell to corrupt.")

let at_ms_arg =
  Arg.(
    value & opt int 300
    & info [ "at-ms" ] ~docv:"MS" ~doc:"Injection time in milliseconds.")

let cascade_node_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "cascade-node" ] ~docv:"N"
        ~doc:
          "With the node fault kind: fail a second node while the first \
           failure's recovery round is in flight, forcing a round restart \
           with the enlarged dead set.")

let oracle_arg =
  Arg.(
    value & flag
    & info [ "oracle" ]
        ~doc:"Use the failure oracle instead of distributed agreement.")

let fault_cmd =
  Cmd.v
    (Cmd.info "fault"
       ~doc:"Inject a fault during pmake and report containment.")
    Term.(
      const run_fault $ fault_kind $ shape_term $ node_arg $ victim_arg
      $ at_ms_arg $ cascade_node_arg $ oracle_arg $ link_from_arg
      $ drop_pct_arg $ dup_pct_arg $ delay_pct_arg $ dur_ms_arg
      $ output_term)

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
    & opt (some string) None
    & info [ "out" ] ~docv:"FILE"
        ~doc:"Append one JSON record per seed to FILE (JSON Lines).")

let demo_bug_arg =
  Arg.(
    value & flag
    & info [ "demo-bug" ]
        ~doc:
          "(testing) Plant a deliberate containment bug — a firewall grant \
           the kernel never recorded — to prove the checkers catch it.")

let dup_bug_arg =
  Arg.(
    value & flag
    & info [ "demo-dup-bug" ]
        ~doc:
          "(testing) Plant a deliberate transport bug — reply-cache \
           suppression disabled under a duplication-heavy degradation \
           window — to prove the at-most-once checker catches duplicate \
           execution.")

let split_brain_arg =
  Arg.(
    value & flag
    & info [ "demo-split-brain" ]
        ~doc:
          "(testing) Plant a deliberate agreement bug — the quorum check \
           disabled while cell 0 is severed from the rest of the machine \
           — to prove the latched single-master oracle catches the \
           resulting concurrent recovery masters.")

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Shard the seed sweep across N domains (work-stealing; each \
           worker owns a private single-threaded simulation engine). \
           Output is byte-identical to --jobs 1 for any N.")

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
      const run_server $ shape_term $ duration_ms_arg $ rate_arg $ zipf_arg
      $ churn_pct_arg $ deadline_ms_arg $ kill_cell_arg $ kill_at_ms_arg
      $ traffic_seed_arg $ verbose_arg $ output_term)

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
      $ fuzz_out_arg $ demo_bug_arg $ dup_bug_arg $ split_brain_arg
      $ jobs_arg $ output_term)

let main =
  Cmd.group
    (Cmd.info "hive_sim" ~version:"1.0"
       ~doc:"Simulated Hive multicellular OS on a FLASH machine model.")
    [ workload_cmd; server_cmd; sweep_cmd; fault_cmd; fuzz_cmd ]

let () = exit (Cmd.eval' main)
