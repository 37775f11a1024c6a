(* The shipped sweep scenarios. Every metric here is a function of
   simulated time and kernel counters only — no wall clock — so each
   (scenario × dims) point is byte-identical across runs and machines.
   That determinism is what the committed BENCH_<area>.json trajectory
   and the CI diff gate stand on. *)

open Scenario
module Spec = Workloads.Spec

(* The grid point's machine: [dims.nodes] nodes of the default FLASH. *)
let machine (dims : dims) =
  Flash.Config.with_nodes Flash.Config.default dims.nodes

(* Boot a system for one grid point. *)
let boot_dims (dims : dims) =
  let mcfg = machine dims in
  let mcfg =
    if dims.smp then { mcfg with Flash.Config.firewall_enabled = false }
    else mcfg
  in
  let params =
    { Hive.Params.default with enable_import_cache = dims.import_cache }
  in
  Harness.boot ~mcfg ~params ~ncells:dims.cells ()

(* Every cell is up and has all [dims.cells] cells in its live set. *)
let unified sys (dims : dims) =
  Array.for_all
    (fun (c : Hive.Types.cell) ->
      Hive.Types.cell_alive c
      && List.length c.Hive.Types.live_set = dims.cells)
    sys.Hive.Types.cells

(* Arm a deterministic 25% drop/dup/delay window into cell 1's boss node
   for [link_ms] (the Sips.degrade fault model the fuzzer uses). The
   agreement hint path is detached so the row isolates the transport. *)
let degrade_link sys (dims : dims) =
  if dims.link_ms > 0 then begin
    sys.Hive.Types.on_hint <- None;
    Flash.Sips.degrade
      (Flash.Machine.sips sys.Hive.Types.machine)
      ~rng:(Sim.Prng.create 42)
      {
        Flash.Sips.deg_from = -1;
        deg_to = sys.Hive.Types.cells.(1).Hive.Types.boss_node;
        from_ns = 0L;
        until_ns = Int64.of_int (dims.link_ms * 1_000_000);
        drop_pct = 25;
        dup_pct = 25;
        delay_pct = 25;
        max_delay_ns = 1_000_000L;
      }
  end

let hit_rate_pct (snap : Hive.Metrics.Snapshot.t) =
  100. *. Option.value ~default:0. snap.Hive.Metrics.Snapshot.cache_hit_rate

let client_hist_exn snap op =
  match Hive.Metrics.Snapshot.client_hist snap op with
  | Some h -> h
  | None -> failwith (Printf.sprintf "scenario: no %s calls recorded" op)

(* ---------- area rpc ---------- *)

(* 400 null RPCs of [op] from cell 0 to cell 1, optionally through a
   degraded link: client-side latency percentiles. *)
let run_rpc ~op ~opname (dims : dims) =
  let eng, sys = boot_dims dims in
  degrade_link sys dims;
  let n = 400 in
  let ok = ref 0 and gave_up = ref 0 in
  Harness.in_thread ~owner:0 eng (fun () ->
      for _ = 1 to n do
        match
          Hive.Rpc.call sys ~target:1 ~op
            ?timeout_ns:(if dims.link_ms > 0 then Some 2_000_000L else None)
            Hive.Types.P_unit
        with
        | Ok _ -> incr ok
        | Error _ -> incr gave_up
      done);
  let snap = Hive.Metrics.capture sys in
  let h = client_hist_exn snap opname in
  let per = Hive.System.counter_total sys in
  [
    metric "p50_ns" h.Hive.Metrics.Snapshot.p50_ns;
    metric "p95_ns" h.Hive.Metrics.Snapshot.p95_ns;
    metric "p99_ns" h.Hive.Metrics.Snapshot.p99_ns;
    metric "mean_ns" h.Hive.Metrics.Snapshot.mean_ns;
    metric ~dir:Higher_better "completed" (float_of_int !ok);
    metric ~dir:Info "retransmits" (float_of_int (per "rpc.retransmits"));
    metric ~dir:Info "dup_suppressed"
      (float_of_int (per "rpc.dup_suppressed"));
  ]

let rpc_base = { default_dims with workload = "rpc"; cells = 2; nodes = 4 }

let rpc_area =
  [
    make ~name:"null-rpc" ~area:"rpc"
      ~dims:
        [
          rpc_base;
          { rpc_base with cells = 4 };
          { rpc_base with cells = 2; nodes = 2 };
          { rpc_base with link_ms = 300 };
          { rpc_base with cells = 4; link_ms = 300 };
        ]
      ~quick:[ rpc_base; { rpc_base with link_ms = 300 } ]
      (run_rpc ~op:Harness.noop_op ~opname:"bench.noop");
    make ~name:"queued-rpc" ~area:"rpc"
      ~dims:[ rpc_base; { rpc_base with cells = 4 } ]
      ~quick:[ rpc_base ]
      (run_rpc ~op:Harness.noop_queued_op ~opname:"bench.noop_queued");
  ]

(* ---------- area sharing ---------- *)

(* Remote read faults from cell 1 against a file homed on cell 0: a cold
   pass, then a second pass that must be served by the import cache when
   it is enabled. *)
let run_remote_read (dims : dims) =
  let eng, sys = boot_dims dims in
  let npages = dims.ws_pages in
  let path = Harness.make_warm_file sys ~npages in
  let touch_pass () =
    let acc = Harness.touch_pass sys ~cell:1 ~path ~npages ~write:false in
    (* Drain the reaper so exit-time releases park their bindings. *)
    Sim.Engine.run ~until:(Int64.add (Sim.Engine.now eng) 100_000_000L) eng;
    acc
  in
  let cold = touch_pass () in
  let second = touch_pass () in
  let snap = Hive.Metrics.capture sys in
  let get = Hive.Metrics.Snapshot.sharing_total snap in
  [
    metric "cold_p50_us" (Sim.Stats.percentile cold 50. /. 1e3);
    metric "second_p50_us" (Sim.Stats.percentile second 50. /. 1e3);
    metric "locate_rpcs" (float_of_int (get "fs.remote_locates"));
    metric ~dir:Higher_better "hit_rate_pct" (hit_rate_pct snap);
    metric ~dir:Info "cache_hits" (float_of_int (get "share.cache_hits"));
    metric ~dir:Info "readahead_pages"
      (float_of_int (get "fs.readahead_pages"));
  ]

(* Full pmake with the sharing protocol of the grid point; demands
   byte-identical workload output and reports sharing RPCs per remotely
   accessed page — the number PR 5 moved from 1.907 to 0.245. *)
let run_pmake_sharing (dims : dims) =
  let eng, sys = boot_dims dims in
  Workloads.Pmake.setup sys Workloads.Pmake.default;
  let result, _ = Workloads.Pmake.run sys in
  Sim.Engine.run ~until:(Int64.add (Sim.Engine.now eng) 300_000_000L) eng;
  let bad =
    List.filter
      (fun (_, v) -> v <> Workloads.Workload.Match)
      (Workloads.Pmake.verify sys)
  in
  if bad <> [] then
    failwith
      (Printf.sprintf "pmake-sharing: output not byte-identical (%s)"
         (String.concat ", " (List.map fst bad)));
  let snap = Hive.Metrics.capture sys in
  let hist_count op =
    match Hive.Metrics.Snapshot.client_hist snap op with
    | Some h -> h.Hive.Metrics.Snapshot.count
    | None -> 0
  in
  let rpcs =
    hist_count "fs.locate" + hist_count "share.release"
    + hist_count "share.release_batch"
    + hist_count "share.invalidate"
  in
  let get = Hive.Metrics.Snapshot.sharing_total snap in
  let pages = get "share.imports" + get "share.cache_hits" in
  [
    metric "elapsed_ms"
      (Int64.to_float result.Workloads.Workload.elapsed_ns /. 1e6);
    metric "rpcs_per_page" (float_of_int rpcs /. float_of_int (max 1 pages));
    metric ~dir:Higher_better "hit_rate_pct" (hit_rate_pct snap);
    metric ~dir:Info "sharing_rpcs" (float_of_int rpcs);
    metric ~dir:Info "remote_pages" (float_of_int pages);
  ]

let read_base =
  { default_dims with workload = "read"; cells = 2; nodes = 4; ws_pages = 64 }

let pmake_share_base =
  { default_dims with workload = "pmake"; cells = 4; nodes = 4 }

let sharing_area =
  [
    make ~name:"remote-read" ~area:"sharing"
      ~dims:
        [
          read_base;
          { read_base with ws_pages = 256 };
          { read_base with import_cache = false };
          { read_base with ws_pages = 256; import_cache = false };
          { read_base with nodes = 2 };
        ]
      ~quick:[ read_base; { read_base with import_cache = false } ]
      run_remote_read;
    make ~name:"pmake-sharing" ~area:"sharing"
      ~dims:
        [
          pmake_share_base;
          { pmake_share_base with import_cache = false };
          { pmake_share_base with cells = 2 };
          { pmake_share_base with cells = 2; import_cache = false };
        ]
      ~quick:
        [
          { pmake_share_base with cells = 2 };
          { pmake_share_base with cells = 2; import_cache = false };
        ]
      run_pmake_sharing;
  ]

(* ---------- area workloads ---------- *)

(* Boot the grid point's machine and run its workload to completion. *)
let run_workload_dims (dims : dims) =
  let _eng, sys = boot_dims dims in
  let w = Spec.of_name dims.workload in
  Spec.setup sys w;
  (sys, Spec.run sys w)

let run_workload_point (dims : dims) =
  let sys, result = run_workload_dims dims in
  [
    metric "elapsed_ms"
      (Int64.to_float result.Workloads.Workload.elapsed_ns /. 1e6);
    metric ~dir:Higher_better "completed"
      (if result.Workloads.Workload.completed then 1. else 0.);
    metric ~dir:Info "procs_killed"
      (float_of_int (Hive.System.counter_total sys "recovery.procs_killed"));
  ]

let workloads_area =
  let grid name rows quick =
    let base = { default_dims with workload = name; nodes = 4 } in
    let point (cells, smp) = { base with cells; smp } in
    make ~name ~area:"workloads"
      ~dims:(List.map point rows)
      ~quick:(List.map point quick)
      run_workload_point
  in
  [
    grid "pmake"
      [ (1, true); (1, false); (2, false); (4, false) ]
      [ (2, false) ];
    grid "ocean" [ (1, true); (1, false); (4, false) ] [ (4, false) ];
    grid "raytrace" [ (1, false); (4, false) ] [ (4, false) ];
  ]

(* ---------- area fuzz ---------- *)

(* Deterministic profile of a fixed fuzz-seed batch. Wall-clock
   throughput belongs to perfbench's fuzz-batch workload; every
   metric here is a pure function of the seeds, so the committed
   BENCH_fuzz.json is byte-stable and the diff gate catches behavioral
   drift in the DES hot paths — an engine change that alters verdicts,
   fault landings or event-queue traffic trips it. The batch size rides
   in the [ws_pages] dimension. *)
let fuzz_seed_batch n = Array.init n (fun i -> Int64.of_int (i + 1))

let fuzz_records seeds =
  Array.to_list
    (Array.map
       (fun s -> Faultinj.Fuzz.run_plan (Faultinj.Fuzz.plan_of_seed s))
       seeds)

let run_fuzz_batch (dims : dims) =
  let records = fuzz_records (fuzz_seed_batch dims.ws_pages) in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 records in
  let clean =
    List.length (List.filter (fun r -> not (Faultinj.Fuzz.failed r)) records)
  in
  let sim_ns =
    List.fold_left
      (fun acc r -> Int64.add acc r.Faultinj.Fuzz.r_sim_ns)
      0L records
  in
  [
    metric ~dir:Higher_better "clean_seeds" (float_of_int clean);
    metric "events_scheduled"
      (float_of_int (sum (fun r -> r.Faultinj.Fuzz.r_events)));
    metric ~dir:Info "faults_injected"
      (float_of_int (sum (fun r -> List.length r.Faultinj.Fuzz.r_injected)));
    metric ~dir:Info "sim_s_total" (Int64.to_float sim_ns /. 1e9);
  ]

(* Serial and two-domain runs of the same batch must merge to the same
   record stream, byte for byte. *)
let run_fuzz_parallel_merge (dims : dims) =
  let seeds = fuzz_seed_batch dims.ws_pages in
  let jsonl records =
    String.concat "\n" (List.map Faultinj.Fuzz.record_to_json records)
  in
  let serial = jsonl (fuzz_records seeds) in
  let out = ref [] in
  Faultinj.Campaign.run_parallel ~jobs:2 ~seeds
    ~run:(fun s -> Faultinj.Fuzz.run_plan (Faultinj.Fuzz.plan_of_seed s))
    ~on_record:(fun _ r -> out := r :: !out);
  let parallel = jsonl (List.rev !out) in
  [
    metric ~dir:Higher_better "merged_identical"
      (if String.equal serial parallel then 1. else 0.);
    metric ~dir:Info "records" (float_of_int (Array.length seeds));
  ]

let fuzz_area =
  let base = { default_dims with workload = "fuzz"; cells = 4; nodes = 8 } in
  [
    make ~name:"fuzz_batch" ~area:"fuzz"
      ~dims:
        [ { base with ws_pages = 8 }; { base with ws_pages = 16 } ]
      ~quick:[ { base with ws_pages = 8 } ]
      run_fuzz_batch;
    make ~name:"fuzz_parallel" ~area:"fuzz"
      ~dims:[ { base with ws_pages = 8 } ]
      run_fuzz_parallel_merge;
  ]

(* ---------- area resilience ---------- *)

(* Partition-and-heal profile and the memory-salvage A/B. Both rows are
   pure functions of simulated time and counters, like everything else in
   the sweep, so the committed BENCH_resilience.json trajectory gates the
   partition fault model and the salvage path against drift. *)

let settle_ns = 50_000_000L

(* Black out one cell for link_ms, let agreement excise it, and measure
   the path back to a single unified live set after the deterministic
   heal: the victim is still running behind the blackout, so reclamation
   defers, the heal stops it, and reintegration reunifies the machine. *)
let run_partition_heal (dims : dims) =
  let eng, sys = boot_dims dims in
  Sim.Engine.run ~until:(Int64.add (Sim.Engine.now eng) settle_ns) eng;
  let victim = dims.cells - 1 in
  let t0 = Sim.Engine.now eng in
  let heal_ns = Int64.add t0 (Int64.of_int (dims.link_ms * 1_000_000)) in
  Faultinj.Campaign.sever_cell sys ~cell:victim ~from_ns:t0 ~until_ns:heal_ns
    ~one_way:false;
  Hive.Rpc.report_hint sys sys.Hive.Types.cells.(0) victim
    "bench fault injection";
  (* Only a unified live set *after* the heal counts: short windows ride
     through on retransmission (the alert is dismissed), long windows
     excise the victim and reunify through reintegration. *)
  let reunified =
    Hive.System.run_until sys
      ~deadline:(Int64.add heal_ns 6_000_000_000L)
      (fun () ->
        Int64.compare (Sim.Engine.now eng) heal_ns >= 0 && unified sys dims)
  in
  let reunify_ms =
    Int64.to_float (Int64.sub (Sim.Engine.now eng) t0) /. 1e6
  in
  let single_master_ok =
    sys.Hive.Types.master_overlaps = []
    && Hive.Invariants.check_single_master sys = []
  in
  let deferred =
    List.length
      (List.filter
         (fun (p, _) -> p = "recovery.reclaim_deferred")
         sys.Hive.Types.recovery_timeline)
  in
  let sysc name = float_of_int (Sim.Stats.value sys.Hive.Types.sys_counters name) in
  [
    metric ~dir:Higher_better "reunified" (if reunified then 1. else 0.);
    metric ~dir:Higher_better "single_master_ok"
      (if single_master_ok then 1. else 0.);
    metric "reunify_ms" reunify_ms;
    metric ~dir:Info "blocked_envelopes"
      (float_of_int
         (Flash.Sips.partition_blocked_count
            (Flash.Machine.sips sys.Hive.Types.machine)));
    metric ~dir:Info "agreement_rounds" (sysc "agreement.rounds");
    metric ~dir:Info "excisions_confirmed" (sysc "agreement.confirmed");
    metric ~dir:Info "alerts_dismissed" (sysc "agreement.dismissed");
    metric ~dir:Info "reintegrations" (sysc "cell.reintegrations");
    metric ~dir:Info "reclaims_deferred" (float_of_int deferred);
  ]

(* CXL-style memory salvage A/B: import ws clean pages from a remote home,
   halt the home's processors with its memory alive, and count how many
   survive recovery locally (salvage on) versus being discarded and lost
   to EIO (salvage off, the [import_cache] dimension reused as the knob). *)
let run_salvage_ab (dims : dims) =
  (* auto_reintegrate off: the home stays down, so a discarded page is
     genuinely unreadable rather than quietly refetched from the reboot. *)
  let params =
    {
      Hive.Params.default with
      Hive.Params.enable_salvage = dims.import_cache;
      auto_reintegrate = false;
    }
  in
  let eng, sys =
    Harness.boot ~mcfg:(machine dims) ~params ~ncells:dims.cells ()
  in
  Sim.Engine.run ~until:(Int64.add (Sim.Engine.now eng) settle_ns) eng;
  let c0 = sys.Hive.Types.cells.(0) in
  let home = 1 in
  let path =
    let rec go k =
      let p = Printf.sprintf "/cxl/bench.%d" k in
      if Hive.Fs.home_of_path sys p = home then p else go (k + 1)
    in
    go 0
  in
  let psize = Flash.Config.page_size in
  let npages = dims.ws_pages in
  let content =
    Workloads.Workload.synth_content ~tag:path ~bytes:(npages * psize)
  in
  let vn, gen =
    Harness.in_thread ~owner:0 eng (fun () ->
        match Hive.Fs.create_file sys c0 ~path ~content with
        | Error _ -> failwith "resilience: create failed"
        | Ok _ -> (
          match Hive.Fs.open_file sys c0 ~path with
          | Ok (vn, gen) -> (vn, gen)
          | Error _ -> failwith "resilience: open failed"))
  in
  Harness.in_thread ~owner:home eng (fun () ->
      Hive.Fs.sync_cell sys sys.Hive.Types.cells.(home));
  let imported =
    Harness.in_thread ~owner:0 eng (fun () ->
        let n = ref 0 in
        for page = 0 to npages - 1 do
          match
            Hive.Fs.get_page sys c0 vn ~page ~writable:false ~opened_gen:gen
              ~usage:`Syscall
          with
          | Ok _ -> incr n
          | Error _ -> ()
        done;
        !n)
  in
  List.iter
    (fun node -> Hive.System.inject_cpu_failure sys node)
    sys.Hive.Types.cells.(home).Hive.Types.cell_nodes;
  Hive.Rpc.report_hint sys c0 home "bench fault injection";
  ignore
    (Hive.System.run_until sys
       ~deadline:(Int64.add (Sim.Engine.now eng) 5_000_000_000L)
       (fun () ->
         (not (Hive.Types.recovery_in_progress sys))
         && sys.Hive.Types.recovery_events <> []));
  let salvaged =
    Sim.Stats.value c0.Hive.Types.counters "vm.salvaged_pages"
  in
  (* Post-failure reads: a salvaged page is served locally and must be
     byte-identical to what the dead home exported; a discarded page is
     lost until the home reboots. *)
  let readable, identical =
    Harness.in_thread ~owner:0 eng (fun () ->
        let readable = ref 0 and identical = ref 0 in
        let mem = Flash.Machine.memory sys.Hive.Types.machine in
        for page = 0 to npages - 1 do
          match
            Hive.Fs.get_page sys c0 vn ~page ~writable:false ~opened_gen:gen
              ~usage:`Syscall
          with
          | Error _ -> ()
          | Ok pf ->
            incr readable;
            let got =
              Flash.Memory.peek mem
                (Flash.Addr.addr_of_pfn pf.Hive.Types.pfn)
                psize
            in
            if Bytes.equal got (Bytes.sub content (page * psize) psize) then
              incr identical
        done;
        (!readable, !identical))
  in
  [
    metric ~dir:Higher_better "readable_after_failure"
      (float_of_int readable);
    metric "discarded_pages" (float_of_int (imported - readable));
    metric ~dir:Higher_better "byte_identical" (float_of_int identical);
    metric ~dir:Info "salvaged_pages" (float_of_int salvaged);
    metric ~dir:Info "imported_pages" (float_of_int imported);
  ]

let resilience_area =
  let part_base =
    { default_dims with workload = "partition"; cells = 4; nodes = 4 }
  in
  let salv_base =
    { default_dims with workload = "salvage"; cells = 2; nodes = 4 }
  in
  [
    make ~name:"partition-heal" ~area:"resilience"
      ~dims:
        [
          { part_base with link_ms = 200 };
          { part_base with link_ms = 800 };
          { part_base with link_ms = 3000 };
        ]
      ~quick:[ { part_base with link_ms = 200 } ]
      run_partition_heal;
    make ~name:"salvage-ab" ~area:"resilience"
      ~dims:
        [
          { salv_base with ws_pages = 16 };
          { salv_base with ws_pages = 16; import_cache = false };
          { salv_base with ws_pages = 64 };
          { salv_base with ws_pages = 64; import_cache = false };
        ]
      ~quick:
        [
          { salv_base with ws_pages = 16 };
          { salv_base with ws_pages = 16; import_cache = false };
        ]
      run_salvage_ab;
  ]

(* ---------- area traffic ---------- *)

(* Serve-through-failure: interactive Poisson/Zipf traffic with a cell
   killed mid-run. The committed rows quantify the paper's availability
   claim as a trajectory: the surviving cells' served-read p99.9 during
   cell death and recovery stays within a small factor of the pre-failure
   baseline, and clients of the dead cell's data fail fast inside their
   deadline budget instead of hanging. All metrics are functions of
   simulated time, so the rows are byte-stable and diff-gated. *)

let traffic_duration_ms = 5_000

let run_traffic (dims : dims) =
  let _eng, sys = boot_dims dims in
  let cfg =
    {
      Workloads.Server.default with
      Workloads.Server.duration_ms = traffic_duration_ms;
      rate_rps = float_of_int dims.rate;
      zipf_s = float_of_int dims.zipf_pct /. 100.;
      fault =
        (if dims.fault_ms > 0 then
           Some
             { Workloads.Server.kill_cell = dims.cells - 1;
               at_ms = dims.fault_ms }
         else None);
    }
  in
  let result, stats = Workloads.Server.run ~cfg sys in
  let snap = Hive.Metrics.capture sys in
  let p999 key =
    match Hive.Metrics.Snapshot.op_hist snap key with
    | Some h when h.Hive.Metrics.Snapshot.count > 0 ->
      Some h.Hive.Metrics.Snapshot.p999_ns
    | _ -> None
  in
  let before_p999 =
    match p999 "server.read|before" with
    | Some v -> v
    | None -> failwith "traffic: no served reads before the fault"
  in
  (* Ratio of clean served-read p99.9 during the outage to the
     pre-failure baseline — the headline containment number. 1.0 on
     no-fault rows (there is no "during" phase). *)
  let during_ratio =
    match p999 "server.read|during" with
    | Some v -> v /. before_p999
    | None -> 1.0
  in
  let deadline_ns = float_of_int cfg.Workloads.Server.deadline_ms *. 1e6 in
  let recovery_ms =
    match (stats.Workloads.Server.fault_at_ns, stats.Workloads.Server.recovered_at_ns) with
    | Some tf, Some tr -> Int64.to_float (Int64.sub tr tf) /. 1e6
    | _ -> 0.
  in
  [
    metric "during_over_before_p999" during_ratio;
    metric "before_p999_ms" (before_p999 /. 1e6);
    metric "fail_fast_max_ms"
      (Int64.to_float stats.Workloads.Server.fail_fast_max_ns /. 1e6);
    metric ~dir:Higher_better "fail_fast_within_budget"
      (if Int64.to_float stats.Workloads.Server.fail_fast_max_ns
          <= deadline_ns
       then 1.
       else 0.);
    metric ~dir:Higher_better "completed"
      (if result.Workloads.Workload.completed then 1. else 0.);
    metric ~dir:Info "served" (float_of_int stats.Workloads.Server.reads_served);
    metric ~dir:Info "redirected"
      (float_of_int stats.Workloads.Server.reads_redirected);
    metric ~dir:Info "shed_legs" (float_of_int stats.Workloads.Server.shed_legs);
    metric ~dir:Info "deadline_exceeded"
      (float_of_int stats.Workloads.Server.deadline_exceeded);
    metric ~dir:Info "fail_fast" (float_of_int stats.Workloads.Server.fail_fast);
    metric ~dir:Info "client_lost"
      (float_of_int stats.Workloads.Server.client_lost);
    metric ~dir:Info "recovery_ms" recovery_ms;
  ]

let traffic_area =
  let base =
    {
      default_dims with
      workload = "server";
      cells = 4;
      nodes = 4;
      rate = 80;
      zipf_pct = 110;
    }
  in
  [
    make ~name:"serve-through-failure" ~area:"traffic"
      ~dims:
        [
          base;
          { base with fault_ms = 2_000 };
          { base with rate = 160; fault_ms = 2_000 };
          { base with rate = 40; fault_ms = 2_000 };
          { base with cells = 2; fault_ms = 2_000 };
          { base with zipf_pct = 1; fault_ms = 2_000 };
        ]
      ~quick:
        [
          { base with fault_ms = 2_000 };
          { base with rate = 160; fault_ms = 2_000 };
        ]
      run_traffic;
  ]

(* ---------- area scale ---------- *)

(* The paper's full envelope: 4 to 64 cells over 8 to 128 nodes, with Wax
   installed and driving placement through validated hints. Each row boots
   the machine (per-node memory in the [ws_pages] dimension, kept small so
   the big rows stay fast), runs a pmake sized to the cell count, fail-stops
   the last cell mid-compile, and waits for automatic recovery plus
   reintegration to reunify the live set. Committed rows gate the scaling
   behavior: recovery must grow sub-quadratically in cells, RPCs
   per compile must stay flat, the invariant checkers must come back
   clean on every shape, and no output outside the killed cell's may be
   lost. [elapsed_ms] is recorded only for a whole build. *)

let run_scale (dims : dims) =
  let mcfg =
    { (machine dims) with Flash.Config.mem_pages_per_node = dims.ws_pages }
  in
  let eng, sys = Harness.boot ~mcfg ~wax:true ~ncells:dims.cells () in
  (* Let Wax publish stats and run a few policy passes before loading. *)
  Sim.Engine.run ~until:(Int64.add (Sim.Engine.now eng) 400_000_000L) eng;
  let pcfg =
    {
      Workloads.Pmake.default with
      Workloads.Pmake.files = 2 * dims.cells;
      jobs = max 4 dims.cells;
      anon_pages = 64;
    }
  in
  Workloads.Pmake.setup sys pcfg;
  (* Fail-stop the last cell 500 ms into the build; detection runs off the
     published-clock stall, recovery excises the cell, auto-reintegration
     brings it back while the surviving compiles keep going. *)
  let victim = dims.cells - 1 in
  let t_fault = ref 0L in
  ignore
    (Sim.Engine.spawn eng ~name:"scale-fault" (fun () ->
         Sim.Engine.delay 500_000_000L;
         t_fault := Sim.Engine.now eng;
         Hive.System.inject_node_failure sys
           (List.hd sys.Hive.Types.cells.(victim).Hive.Types.cell_nodes)));
  let result, _ = Workloads.Pmake.run ~cfg:pcfg sys in
  let reunified =
    Hive.System.run_until sys
      ~deadline:(Int64.add (Sim.Engine.now eng) 30_000_000_000L)
      (fun () ->
        (not (Hive.Types.recovery_in_progress sys)) && unified sys dims)
  in
  (* Recovery ends at the first reintegration on the kernel's recovery
     timeline, not at the end of the build, which usually outlives it. *)
  let recovery_ms =
    match
      List.find_opt
        (fun (phase, t) ->
          phase = "recovery.reintegrate" && Int64.compare t !t_fault >= 0)
        sys.Hive.Types.recovery_timeline
    with
    | Some (_, t) when reunified -> Int64.to_float (Int64.sub t !t_fault) /. 1e6
    | _ -> 0.
  in
  let snap = Hive.Metrics.capture sys in
  let rpc_calls =
    List.fold_left
      (fun acc (_, (h : Hive.Metrics.Snapshot.hist)) ->
        acc + h.Hive.Metrics.Snapshot.count)
      0 snap.Hive.Metrics.Snapshot.rpc_client
  in
  let per = Hive.System.counter_total sys in
  let sysc name = Sim.Stats.value sys.Hive.Types.sys_counters name in
  (* Wax balancing effect: relative spread of free frames across the live
     cells (stddev over mean). The hint loop steers allocation toward the
     emptier cells, so a working Wax keeps this bounded as cells grow. *)
  let free_counts =
    Array.to_list sys.Hive.Types.cells
    |> List.filter Hive.Types.cell_alive
    |> List.map (fun c -> float_of_int (Hive.Page_alloc.free_count c))
  in
  let n = float_of_int (List.length free_counts) in
  let mean = List.fold_left ( +. ) 0. free_counts /. n in
  let var =
    List.fold_left (fun a x -> a +. ((x -. mean) ** 2.)) 0. free_counts /. n
  in
  let spread_pct = if mean > 0. then 100. *. sqrt var /. mean else 0. in
  let invariants_clean = Hive.Invariants.check sys = [] in
  (* The killed cell may take its own objects and the binary with it;
     any other output that is not byte-identical is a broken build. *)
  let may_lose =
    Workloads.Pmake.binary_path
    :: List.init 2 (fun k -> Workloads.Pmake.obj_path ((k * dims.cells) + victim))
  in
  let lost =
    List.filter
      (fun (path, v) ->
        Workloads.Workload.(v = Corrupt || (v <> Match && not (List.mem path may_lose))))
      (Workloads.Pmake.verify ~cfg:pcfg sys)
  in
  let whole = result.Workloads.Workload.completed && lost = [] in
  [
    metric "recovery_ms" recovery_ms;
    metric "rpcs_per_compile"
      (float_of_int rpc_calls /. float_of_int pcfg.Workloads.Pmake.files);
    metric ~dir:Higher_better "reunified" (if reunified then 1. else 0.);
    metric ~dir:Higher_better "invariants_clean"
      (if invariants_clean then 1. else 0.);
    metric ~dir:Higher_better "outputs_ok" (if lost = [] then 1. else 0.);
    metric ~dir:Info "outputs_lost" (float_of_int (List.length lost));
    metric ~dir:Info "wax_incarnations"
      (float_of_int (sysc "wax.incarnations"));
    metric ~dir:Info "free_spread_pct" spread_pct;
    metric ~dir:Info "swap_hints_acted"
      (float_of_int (per "wax.swap_hints_acted"));
    metric ~dir:Info "rejected_hints" (float_of_int (per "wax.rejected_hints"));
  ]
  @ (if whole then
       [ metric ~dir:Info "elapsed_ms"
           (Int64.to_float result.Workloads.Workload.elapsed_ns /. 1e6) ]
     else [])
  @ [ metric ~dir:Info "compiles" (float_of_int pcfg.Workloads.Pmake.files) ]

let scale_area =
  let base =
    { default_dims with workload = "scale"; ws_pages = 512 }
  in
  [
    make ~name:"large-machine" ~area:"scale"
      ~dims:
        [
          { base with cells = 4; nodes = 8 };
          { base with cells = 16; nodes = 32 };
          { base with cells = 32; nodes = 64 };
          { base with cells = 64; nodes = 128 };
        ]
      ~quick:
        [
          { base with cells = 4; nodes = 8 };
          { base with cells = 32; nodes = 64 };
        ]
      run_scale;
  ]

(* ---------- area paper ---------- *)

(* The paper's measured results: the Section 4, 5.2 and 6
   microbenchmarks, Tables 5.2, 7.2, 7.3 and 7.4, Wax and the design
   ablations, one scenario each. A metric the paper reports carries the
   paper's number as [~paper]; [bench/main.exe sections] prints the two
   side by side, and the diff gate holds the measured side like any other
   row. *)

let paper_dims workload = { default_dims with workload; cells = 4; nodes = 4 }

let us_of_ns ns = Int64.to_float ns /. 1e3

(* Section 6: the null RPC carries no arguments; the "common request"
   figure is the RPC component of a request with 64 bytes of arguments. *)
let run_rpc_latency (dims : dims) =
  let eng, sys = boot_dims dims in
  let avg op arg_bytes = Harness.avg_rpc_us eng sys ~op ~arg_bytes ~n:1000 in
  let null_us = avg Harness.noop_op 0 in
  let arg64_us = avg Harness.noop_op 64 in
  let queued_us = avg Harness.noop_queued_op 0 in
  let snap = Hive.Metrics.capture sys in
  let hist op =
    let h = client_hist_exn snap op in
    [
      metric ~dir:Info (op ^ ".calls")
        (float_of_int h.Hive.Metrics.Snapshot.count);
      metric ~dir:Info (op ^ ".p50_us") (h.Hive.Metrics.Snapshot.p50_ns /. 1e3);
      metric ~dir:Info (op ^ ".p95_us") (h.Hive.Metrics.Snapshot.p95_ns /. 1e3);
      metric ~dir:Info (op ^ ".p99_us") (h.Hive.Metrics.Snapshot.p99_ns /. 1e3);
    ]
  in
  [
    metric ~paper:7.2 "null_rpc_us" null_us;
    metric ~paper:9.6 "arg64_rpc_us" arg64_us;
    metric ~paper:34. "queued_rpc_us" queued_us;
  ]
  @ hist "bench.noop" @ hist "bench.noop_queued"

(* Section 4.1: a careful-reference read of a peer's clock word against
   fetching the same data by RPC. *)
let run_careful_ref (dims : dims) =
  let eng, sys = boot_dims dims in
  let n = 1000 in
  let total =
    Harness.in_thread ~owner:0 eng (fun () ->
        let t0 = Sim.Engine.time () in
        for _ = 1 to n do
          match Hive.Clock.read_peer_clock sys ~target:1 with
          | Ok _ -> ()
          | Error _ -> failwith "careful-ref: careful read failed"
        done;
        Int64.sub (Sim.Engine.time ()) t0)
  in
  let careful_us = Int64.to_float total /. float_of_int n /. 1e3 in
  let rpc_us = Harness.avg_rpc_us eng sys ~op:Harness.noop_op ~arg_bytes:0 ~n in
  [
    metric ~paper:1.16 "careful_read_us" careful_us;
    metric ~paper:7.2 "rpc_read_us" rpc_us;
    metric ~dir:Info ~paper:6. "speedup_x" (rpc_us /. careful_us);
  ]

(* Mean latency of 1024 read faults that hit the data home's page cache,
   taken from cell 0 (the home) and from the last cell. *)
let fault_latencies (dims : dims) =
  let _eng, sys = boot_dims dims in
  let npages = 1024 in
  let path = Harness.make_warm_file sys ~npages in
  let mean_us cell =
    Sim.Stats.mean (Harness.touch_pass sys ~cell ~path ~npages ~write:false)
    /. 1e3
  in
  let local_us = mean_us 0 in
  let remote_us = mean_us (dims.cells - 1) in
  (local_us, remote_us)

(* Table 5.2. The client and data-home components are the calibrated
   inputs; the totals are emergent. *)
let run_pagefault_breakdown (dims : dims) =
  let local_us, remote_us = fault_latencies dims in
  let client =
    [
      ("client_fs_us", Hive.Params.fault_client_fs_ns);
      ("client_lock_us", Hive.Params.fault_client_lock_ns);
      ("client_vm_us", Hive.Params.fault_client_vm_ns);
      ("client_import_us", Hive.Params.fault_import_ns);
    ]
  in
  let home =
    [
      ("home_vm_us", Hive.Params.fault_home_vm_ns);
      ("home_export_us", Hive.Params.fault_export_ns);
    ]
  in
  let parts ~paper total_name l =
    let total = List.fold_left (fun acc (_, ns) -> Int64.add acc ns) 0L l in
    List.map (fun (name, ns) -> metric ~dir:Info name (us_of_ns ns)) l
    @ [ metric ~dir:Info ~paper total_name (us_of_ns total) ]
  in
  [
    metric ~paper:6.9 "local_fault_us" local_us;
    metric ~paper:50.7 "remote_fault_us" remote_us;
  ]
  @ parts ~paper:28.0 "client_total_us" client
  @ parts ~paper:5.4 "home_total_us" home

(* Section 5.2: page-cache faults taken during pmake and their cumulative
   time, on one cell and on [dims.cells] cells. *)
let run_pagefault_pmake (dims : dims) =
  let run cells =
    let _eng, sys = boot_dims { dims with cells } in
    let pmake = Spec.of_name "pmake" in
    Spec.setup sys pmake;
    let snapshot () =
      Array.fold_left
        (fun (f, r, ms) (c : Hive.Types.cell) ->
          ( f + Sim.Stats.count c.Hive.Types.fault_in_cache_ns
            + Sim.Stats.count c.Hive.Types.remote_fault_ns,
            r + Sim.Stats.count c.Hive.Types.remote_fault_ns,
            ms
            +. (Sim.Stats.sum c.Hive.Types.fault_in_cache_ns /. 1e6)
            +. (Sim.Stats.sum c.Hive.Types.remote_fault_ns /. 1e6) ))
        (0, 0, 0.) sys.Hive.Types.cells
    in
    let f0, r0, ms0 = snapshot () in
    ignore (Spec.run sys pmake);
    let f1, r1, ms1 = snapshot () in
    (float_of_int (f1 - f0), float_of_int (r1 - r0), ms1 -. ms0)
  in
  let faults_1, _, ms_1 = run 1 in
  let faults, remote, ms = run dims.cells in
  [
    metric ~dir:Info ~paper:8935. "faults" faults;
    metric ~paper:4946. "remote_faults" remote;
    metric ~paper:117. "fault_ms_1cell" ms_1;
    metric ~paper:455. "fault_ms" ms;
    metric ~dir:Info "faults_1cell" faults_1;
  ]

(* Section 4.2: the firewall check's cost on remote write misses, the
   workload run with the check on and off ([smp] turns it off). *)
let run_firewall_latency (dims : dims) =
  let miss_ns smp =
    let sys, _ = run_workload_dims { dims with smp } in
    Flash.Memory.remote_write_miss_avg_ns
      (Flash.Machine.memory sys.Hive.Types.machine)
  in
  let on = miss_ns false in
  let off = miss_ns true in
  [
    metric
      ~paper:(List.assoc dims.workload [ ("pmake", 6.3); ("ocean", 4.4) ])
      "overhead_pct"
      ((on -. off) /. off *. 100.);
    metric ~dir:Info "miss_ns_firewall" on;
    metric ~dir:Info "miss_ns_no_firewall" off;
  ]

(* Section 4.2: remotely writable pages per cell, sampled every 20 ms for
   5 s of steady-state execution as in the paper. *)
let run_firewall_pages (dims : dims) =
  let eng, sys = boot_dims dims in
  let w = Spec.of_name dims.workload in
  Spec.setup sys w;
  let samples =
    Array.map (fun _ -> Sim.Stats.summary ()) sys.Hive.Types.cells
  in
  ignore
    (Sim.Engine.spawn eng ~name:"sampler" (fun () ->
         (* Skip startup. *)
         Sim.Engine.delay 1_000_000_000L;
         for _ = 1 to 250 do
           Sim.Engine.delay 20_000_000L;
           Array.iteri
             (fun i c ->
               if Hive.Types.cell_alive c then
                 Sim.Stats.add samples.(i)
                   (float_of_int
                      (Hive.Wild_write.remotely_writable_pages sys c)))
             sys.Hive.Types.cells
         done));
  ignore (Spec.run sys w);
  let avg =
    Array.fold_left (fun acc s -> acc +. Sim.Stats.mean s) 0. samples
    /. float_of_int (Array.length samples)
  in
  let peak =
    Array.fold_left (fun acc s -> max acc (Sim.Stats.max_value s)) 0. samples
  in
  let avg_paper, peak_paper =
    if dims.workload = "pmake" then (15., Some 42.) else (550., None)
  in
  [
    metric ~paper:avg_paper "avg_writable_pages" avg;
    metric ?paper:peak_paper "peak_writable_pages" peak;
  ]

(* Table 7.2: run time of the SMP-OS baseline ("IRIX mode") and the
   slowdown of Hive on 1, 2 and 4 cells of the same four processors. *)
let run_table_7_2 (dims : dims) =
  let irix, slowdowns =
    List.assoc dims.workload
      [
        ("ocean", (6.07, [ 1.; 1.; -1. ]));
        ("raytrace", (4.35, [ 0.; 0.; 1. ]));
        ("pmake", (5.77, [ 1.; 10.; 11. ]));
      ]
  in
  let run cells smp = snd (run_workload_dims { dims with cells; smp }) in
  let seconds (r : Workloads.Workload.result) =
    Workloads.Workload.ns_to_s r.Workloads.Workload.elapsed_ns
  in
  let base = run 1 true in
  let hive = List.map (fun cells -> (cells, run cells false)) [ 1; 2; 4 ] in
  let all_completed =
    List.for_all
      (fun (r : Workloads.Workload.result) -> r.Workloads.Workload.completed)
      (base :: List.map snd hive)
  in
  metric ~paper:irix "irix_s" (seconds base)
  :: metric ~dir:Higher_better "completed" (if all_completed then 1. else 0.)
  :: List.concat
       (List.map2
          (fun (cells, r) paper ->
            [
              metric (Printf.sprintf "cells%d_s" cells) (seconds r);
              metric ~dir:Info ~paper
                (Printf.sprintf "slowdown_%dcell_pct" cells)
                ((seconds r -. seconds base) /. seconds base *. 100.);
            ])
          hive slowdowns)

(* Table 7.3: local against remote kernel operations on a warm 4 MB file
   homed on cell 0, timed from cell 0 and from cell 1. *)
let run_table_7_3 (dims : dims) =
  let psize = Flash.Config.page_size in
  let mb4 = 4 * 1024 * 1024 in
  let npages = mb4 / psize in
  let measure ~cell op =
    let eng, sys = boot_dims dims in
    let path = Harness.make_warm_file sys ~npages in
    let out = ref 0L in
    let p =
      Hive.Process.spawn sys sys.Hive.Types.cells.(cell) ~name:"op"
        (fun sys p ->
          let t0 = Sim.Engine.time () in
          op sys p path;
          out := Int64.sub (Sim.Engine.time ()) t0)
    in
    ignore
      (Hive.System.run_until_processes_done sys
         ~deadline:(Int64.add (Sim.Engine.now eng) 600_000_000_000L)
         [ p ]);
    Int64.to_float !out
  in
  let read_4mb sys p path =
    let fd = Hive.Syscall.openf sys p path in
    Hive.Syscall.read_discard sys p ~fd ~len:mb4;
    Hive.Syscall.close sys p ~fd
  in
  let write_4mb sys p _path =
    let fd = Hive.Syscall.creat sys p "/tmp/bench.out" in
    ignore (Hive.Syscall.write sys p ~fd (Bytes.make mb4 'x'));
    Hive.Syscall.close sys p ~fd
  in
  let open_file sys p path =
    let fd = Hive.Syscall.openf sys p path in
    Hive.Syscall.close sys p ~fd
  in
  let row name unit_ (local, remote) (p_local, p_remote, p_ratio) =
    [
      metric ~paper:p_local (Printf.sprintf "%s.local_%s" name unit_) local;
      metric ~paper:p_remote (Printf.sprintf "%s.remote_%s" name unit_) remote;
      metric ~dir:Info ~paper:p_ratio (name ^ ".ratio") (remote /. local);
    ]
  in
  let timed op scale =
    (measure ~cell:0 op /. scale, measure ~cell:1 op /. scale)
  in
  let read = timed read_4mb 1e6 in
  let write = timed write_4mb 1e6 in
  let opn = timed open_file 1e3 in
  let fault = fault_latencies dims in
  row "read_4mb" "ms" read (65.0, 76.2, 1.2)
  @ row "write_4mb" "ms" write (83.7, 87.3, 1.1)
  @ row "open" "us" opn (148., 580., 3.9)
  @ row "page_fault" "us" fault (6.9, 50.7, 7.4)

(* Table 7.4: the five fault-injection campaigns on four cells. The
   [ws_pages] dimension divides each campaign's test count (1 = the full
   69 tests). Containment is the gate; detection latencies sit beside the
   paper's avg/max. *)
let run_table_7_4 (dims : dims) =
  let campaigns =
    Faultinj.Campaign.
      [
        ("creation", node_failure_during_creation, 20, 16., 21.);
        ("cow", node_failure_during_cow, 9, 10., 11.);
        ("random", node_failure_random, 20, 21., 45.);
        ("corrupt_map", corrupt_map_campaign, 8, 38., 65.);
        ("corrupt_cow", corrupt_cow_campaign, 12, 401., 760.);
      ]
  in
  let rows =
    List.map
      (fun (key, campaign, paper_tests, paper_avg, paper_max) ->
        let r : Faultinj.Campaign.campaign_row =
          campaign ~tests:(max 2 (paper_tests / dims.ws_pages))
        in
        let m ?dir ?paper name v = metric ?dir ?paper (key ^ "." ^ name) v in
        ( r,
          [
            m ~dir:Info ~paper:(float_of_int paper_tests) "tests"
              (float_of_int r.Faultinj.Campaign.tests);
            m ~dir:Higher_better "contained"
              (if r.Faultinj.Campaign.all_contained then 1. else 0.);
            m ~paper:paper_avg "detect_avg_ms"
              r.Faultinj.Campaign.avg_detect_ms;
            m ~paper:paper_max "detect_max_ms"
              r.Faultinj.Campaign.max_detect_ms;
            m "recovery_avg_ms" r.Faultinj.Campaign.avg_recovery_ms;
          ] ))
      campaigns
  in
  let count f =
    List.fold_left
      (fun acc ((r : Faultinj.Campaign.campaign_row), _) ->
        if f r then acc + r.Faultinj.Campaign.tests else acc)
      0 rows
  in
  metric ~dir:Info ~paper:69. "tests" (float_of_int (count (fun _ -> true)))
  :: metric ~dir:Higher_better ~paper:69. "contained_tests"
       (float_of_int (count (fun r -> r.Faultinj.Campaign.all_contained)))
  :: List.concat_map snd rows

(* Table 3.4: Wax's placement hints after a pmake, the kernel's rejection
   of a corrupt hint, and Wax restarting after a cell failure. *)
let run_wax (dims : dims) =
  let eng, sys = Harness.boot ~ncells:dims.cells ~wax:true () in
  let pmake = Spec.of_name "pmake" in
  Spec.setup sys pmake;
  ignore (Spec.run sys pmake);
  Sim.Engine.run ~until:(Int64.add (Sim.Engine.now eng) 500_000_000L) eng;
  let started = sys.Hive.Types.wax_incarnation in
  let per_cell =
    Array.to_list sys.Hive.Types.cells
    |> List.concat_map (fun (c : Hive.Types.cell) ->
           let name s = Printf.sprintf "cell%d.%s" c.Hive.Types.cell_id s in
           List.mapi
             (fun i target ->
               metric ~dir:Info
                 (name (Printf.sprintf "alloc_pref%d" i))
                 (float_of_int target))
             c.Hive.Types.alloc_preference
           @ [
               metric ~dir:Info (name "clock_hand_targets")
                 (float_of_int (List.length c.Hive.Types.clock_hand_targets));
               metric ~dir:Info (name "rejected_hints")
                 (float_of_int
                    (Sim.Stats.value c.Hive.Types.counters
                       "wax.rejected_hints"));
             ])
  in
  let accepted =
    Hive.Wax.sanity_check_hint sys.Hive.Types.cells.(1)
      (Alloc_preference [ 0; 0; 99 ])
  in
  Hive.System.inject_node_failure sys 3;
  let restarted =
    Hive.System.run_until sys
      ~deadline:(Int64.add (Sim.Engine.now eng) 2_000_000_000L)
      (fun () -> sys.Hive.Types.wax_incarnation > started)
  in
  [
    metric ~dir:Info "incarnations_started" (float_of_int started);
    metric ~dir:Higher_better "corrupt_hint_rejected"
      (if accepted then 0. else 1.);
    metric ~dir:Higher_better "restarted_after_failure"
      (if restarted then 1. else 0.);
    metric ~dir:Info "incarnation_after_failure"
      (float_of_int sys.Hive.Types.wax_incarnation);
  ]
  @ per_cell

(* Preemptive discard on/off: a page that a dying cell's kernel scribbled
   on through its write grant, read back after recovery. Without discard
   the corrupt bytes survive and reach the application. *)
let corrupt_data_visible ~discard =
  let params =
    { Hive.Params.default with enable_preemptive_discard = discard }
  in
  let _eng, sys = Harness.boot ~params ~ncells:2 () in
  let path = "/tmp/integrity.dat" in
  let corrupted_seen = ref false in
  let victim =
    Hive.Process.spawn sys sys.Hive.Types.cells.(0) ~name:"victim"
      (fun sys p ->
        ignore (Hive.Syscall.creat sys p ~content:(Bytes.make 4096 'G') path);
        Hive.Syscall.sync sys p;
        (* Cell 1 obtains write access, then its kernel goes wild and
           scribbles on the page before dying. *)
        ignore
          (Hive.Syscall.fork sys p ~on_cell:1 ~name:"writer" (fun sys c ->
               let wfd = Hive.Syscall.openf sys c ~writable:true path in
               ignore
                 (Hive.Syscall.pwrite sys c ~fd:wfd ~pos:0
                    (Bytes.of_string "G"));
               (match Hive.Fs.find_local sys.Hive.Types.cells.(0) path with
               | Some f -> (
                 match Hashtbl.find_opt f.Hive.Types.cached_pages 0 with
                 | Some pf -> (
                   try
                     Flash.Memory.poke_wild
                       (Flash.Machine.memory sys.Hive.Types.machine)
                       ~by:sys.Hive.Types.cells.(1).Hive.Types.boss_node
                       (Flash.Addr.addr_of_pfn pf.Hive.Types.pfn)
                       (Bytes.make 64 '\xBB')
                   with Flash.Memory.Bus_error _ -> ())
                 | None -> ())
               | None -> ());
               Hive.Syscall.compute sys c 10_000_000_000L));
        Sim.Engine.delay 100_000_000L;
        Hive.System.inject_node_failure sys
          sys.Hive.Types.cells.(1).Hive.Types.boss_node;
        Sim.Engine.delay 500_000_000L;
        (* Read through a fresh descriptor after recovery. *)
        let fd = Hive.Syscall.openf sys p path in
        let b = Hive.Syscall.pread sys p ~fd ~pos:0 ~len:64 in
        if Bytes.exists (fun ch -> ch = '\xBB') b then corrupted_seen := true)
  in
  ignore
    (Hive.System.run_until_processes_done sys ~deadline:30_000_000_000L
       [ victim ]);
  !corrupted_seen

(* Design ablations called out in DESIGN.md: interrupt-level vs queued
   RPC, firewall storage per granularity, clock-monitoring period vs
   detection latency, COW-node walks by careful reference, and preemptive
   discard on/off. *)
let run_ablations (dims : dims) =
  let eng, sys = boot_dims dims in
  let interrupt_us =
    Harness.avg_rpc_us eng sys ~op:Harness.noop_op ~arg_bytes:0 ~n:500
  in
  let queued_us =
    Harness.avg_rpc_us eng sys ~op:Harness.noop_queued_op ~arg_bytes:0 ~n:500
  in
  let pages = Flash.Config.total_pages Flash.Config.default in
  let detect_ms tick_ms =
    let params =
      { Hive.Params.default with tick_ns = Int64.of_int (tick_ms * 1_000_000) }
    in
    let eng, sys = Harness.boot ~params ~ncells:dims.cells () in
    Sim.Engine.run ~until:(Int64.add (Sim.Engine.now eng) 100_000_000L) eng;
    let t0 = Sim.Engine.now eng in
    Hive.System.inject_node_failure sys 1;
    ignore
      (Hive.System.run_until sys
         ~deadline:(Int64.add t0 10_000_000_000L)
         (fun () ->
           (not (Hive.Types.recovery_in_progress sys))
           && sys.Hive.Types.recovery_events <> []));
    match Hive.System.detection_latency_ns sys ~t_fault:t0 with
    | Some ns -> Int64.to_float ns /. 1e6
    | None -> failwith "ablations: node failure never detected"
  in
  let detects =
    List.map
      (fun tick_ms ->
        metric
          (Printf.sprintf "detect_ms_tick%dms" tick_ms)
          (detect_ms tick_ms))
      [ 2; 10; 50 ]
  in
  let cow_walk_us =
    let eng, sys = boot_dims dims in
    let node =
      Harness.in_thread ~owner:0 eng (fun () ->
          Hive.Cow.create_root sys ())
    in
    let t =
      Harness.in_thread ~owner:1 eng (fun () ->
          let t0 = Sim.Engine.time () in
          for _ = 1 to 500 do
            ignore (Hive.Cow.lookup sys node ~page:3)
          done;
          Int64.sub (Sim.Engine.time ()) t0)
    in
    Int64.to_float t /. 500. /. 1e3
  in
  let visible_on = corrupt_data_visible ~discard:true in
  let visible_off = corrupt_data_visible ~discard:false in
  let flag b = if b then 1. else 0. in
  [
    metric ~paper:7.2 "interrupt_rpc_us" interrupt_us;
    metric ~paper:34. "queued_rpc_us" queued_us;
    metric ~dir:Info "queued_over_interrupt_x" (queued_us /. interrupt_us);
    metric ~dir:Info "firewall_kb_bit_vector" (float_of_int (pages * 8 / 1024));
    metric ~dir:Info "firewall_kb_single_bit" (float_of_int (pages / 8 / 1024));
    metric ~dir:Info "firewall_kb_byte" (float_of_int (pages / 1024));
  ]
  @ detects
  @ [
      metric "cow_walk_us" cow_walk_us;
      metric "corrupt_visible_discard_on" (flag visible_on);
      metric ~dir:Info "corrupt_visible_discard_off" (flag visible_off);
    ]

let paper_area =
  let one name ?quick dims run = make ~name ~area:"paper" ~dims ?quick run in
  let campaigns ws = { (paper_dims "faultinj") with ws_pages = ws } in
  [
    one "rpc-latency" [ paper_dims "rpc" ] run_rpc_latency;
    one "careful-ref" [ paper_dims "rpc" ] run_careful_ref;
    one "pagefault-breakdown" [ paper_dims "read" ] run_pagefault_breakdown;
    one "pagefault-pmake" [ paper_dims "pmake" ] run_pagefault_pmake;
    one "firewall-latency"
      [ paper_dims "pmake"; paper_dims "ocean" ] run_firewall_latency;
    one "firewall-pages"
      [ paper_dims "pmake"; paper_dims "ocean" ] run_firewall_pages;
    one "table-7.2"
      [ paper_dims "ocean"; paper_dims "raytrace"; paper_dims "pmake" ]
      ~quick:[ paper_dims "pmake" ] run_table_7_2;
    one "table-7.3"
      [ { (paper_dims "read") with cells = 2; nodes = 2 } ] run_table_7_3;
    one "table-7.4"
      [ campaigns 1; campaigns 5 ] ~quick:[ campaigns 5 ] run_table_7_4;
    one "wax" [ paper_dims "pmake" ] run_wax;
    one "ablations" [ paper_dims "rpc" ] run_ablations;
  ]

let all =
  rpc_area @ sharing_area @ workloads_area @ fuzz_area @ resilience_area
  @ traffic_area @ scale_area @ paper_area
