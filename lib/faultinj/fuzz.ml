(* Deterministic simulation fuzzer.

   One 64-bit seed derives everything about a run: the machine shape, the
   workload and its scaled-down configuration, the scheduler-jitter
   stream, and a randomized fault schedule. The engine itself is
   deterministic, so the seed is the complete reproducer: replaying it
   gives the same virtual-time history bit for bit, and a failing seed can
   be shrunk by re-running simplified plans.

   Independent PRNG streams are salted from the seed so that, e.g.,
   dropping a fault during shrinking does not perturb the jitter draws. *)

type workload = Pmake | Ocean | Raytrace

type traffic = {
  t_rate : int; (* system-wide arrival rate, requests/s *)
  t_zipf_pct : int; (* Zipf s x100; 0 = uniform *)
  t_churn_pct : int;
  t_deadline_ms : int; (* end-to-end client budget *)
}

type plan = {
  seed : int64;
  ncells : int;
  nodes_per_cell : int;
  mem_pages_per_node : int;
  workload : workload;
  jitter : bool;
  faults : Campaign.fault list;
  traffic : traffic option;
      (* when set, interactive server traffic replaces the batch workload;
         the fault schedule above still applies mid-traffic *)
}

type record = {
  r_seed : int64;
  r_plan : string;
  r_injected : string list;
  r_completed : bool;
  r_violations : string list;
  r_survivors : int list;
  r_sim_ns : int64;
  r_events : int;
      (* events the engine scheduled: deterministic work measure *)
}

let jitter_salt = 0x94D049BB133111EBL
let inject_salt = 0xBF58476D1CE4E5B9L
let cfg_salt = 0x9E3779B97F4A7C15L
let link_salt = 0xD6E8FEB86659FD93L
let dup_salt = 0xC2B2AE3D27D4EB4FL
let part_salt = 0x2545F4914F6CDD1DL
let cpu_salt = 0xDA942042E4DD58B5L
let traffic_salt = 0xA0761D6478BD642FL

let ms n = Int64.mul (Int64.of_int n) 1_000_000L

let workload_name = function
  | Pmake -> "pmake"
  | Ocean -> "ocean"
  | Raytrace -> "raytrace"

let fault_desc (f : Campaign.fault) =
  Printf.sprintf "%s @ %Ldms" (Campaign.describe f)
    (Int64.div f.at_ns 1_000_000L)

let by_time (a : Campaign.fault) (b : Campaign.fault) =
  Int64.compare a.at_ns b.at_ns

let plan_of_seed seed =
  let rng = Sim.Prng.of_int64 seed in
  let pick arr = arr.(Sim.Prng.int rng (Array.length arr)) in
  let ncells = pick [| 2; 2; 3; 4 |] in
  let nodes_per_cell = pick [| 1; 1; 2 |] in
  let mem_pages_per_node = pick [| 1024; 2048 |] in
  let workload = pick [| Pmake; Pmake; Ocean; Raytrace |] in
  let jitter = Sim.Prng.int rng 4 < 3 in
  let nfaults = pick [| 0; 1; 1; 1; 2; 2; 3 |] in
  (* Cell 0 hosts the workload drivers and the /tmp file server; faults
     target the other cells, which is where containment is interesting. *)
  let victim () = 1 + Sim.Prng.int rng (ncells - 1) in
  let mode () =
    Campaign.modes.(Sim.Prng.int rng (Array.length Campaign.modes))
  in
  let rec gen i prev_at acc =
    if i >= nfaults then List.rev acc
    else
      let at =
        if i > 0 && Sim.Prng.int rng 2 = 0 then
          (* Cascade: land a few ms after the previous fault, while its
             recovery round is likely between the two barriers. *)
          Int64.add prev_at (ms (2 + Sim.Prng.int rng 28))
        else ms (30 + Sim.Prng.int rng 1170)
      in
      let kind =
        match Sim.Prng.int rng 4 with
        | 0 | 1 ->
          let vc = victim () in
          let node = (vc * nodes_per_cell) + Sim.Prng.int rng nodes_per_cell in
          Campaign.Node_failure { node }
        | 2 -> Campaign.Corrupt_map { victim_cell = victim (); mode = mode () }
        | _ -> Campaign.Corrupt_cow { victim_cell = victim (); mode = mode () }
      in
      gen (i + 1) at ({ Campaign.at_ns = at; kind } :: acc)
  in
  let faults =
    gen 0 0L []
    |> List.stable_sort by_time
  in
  (* Link-degradation windows come from their own salted stream, appended
     after every draw above, so pre-existing seeds keep their exact
     machine shape, workload and fault schedule and merely gain some
     interconnect weather. When the plan already has faults, about half
     the windows are anchored just after the last one so degraded links
     overlap its recovery round. *)
  let lrng = Sim.Prng.of_int64 (Int64.logxor seed link_salt) in
  let nlinks = [| 0; 0; 0; 1; 1; 2 |].(Sim.Prng.int lrng 6) in
  let last_main =
    List.fold_left (fun acc (f : Campaign.fault) -> max acc f.at_ns) 0L faults
  in
  let gen_link _ =
    let at =
      if faults <> [] && Sim.Prng.int lrng 2 = 0 then
        Int64.add last_main (ms (2 + Sim.Prng.int lrng 40))
      else ms (30 + Sim.Prng.int lrng 1170)
    in
    (* Target a non-driver cell's boss node, where its RPC traffic lands;
       a third of the windows pin a single source processor. *)
    let deg_to = (1 + Sim.Prng.int lrng (ncells - 1)) * nodes_per_cell in
    let deg_from =
      if Sim.Prng.int lrng 3 = 0 then
        Sim.Prng.int lrng (ncells * nodes_per_cell)
      else -1
    in
    {
      Campaign.at_ns = at;
      kind =
        Link_degrade
          {
            deg_from;
            deg_to;
            dur_ns = ms (50 + Sim.Prng.int lrng 350);
            drop_pct = Sim.Prng.int lrng 61;
            dup_pct = Sim.Prng.int lrng 41;
            delay_pct = Sim.Prng.int lrng 51;
            max_delay_ns =
              Int64.of_int (200_000 + Sim.Prng.int lrng 1_800_000);
            salt = Sim.Prng.next lrng;
          };
    }
  in
  let faults =
    faults @ List.init nlinks gen_link
    |> List.stable_sort by_time
  in
  (* CPU-death and partition faults come from two more salted streams,
     appended after the link stream for the same reason: pre-existing
     seeds keep their exact plans and merely gain the new fault kinds.
     A partition only makes sense when the cells outside it can still
     muster a strict majority of the pre-fault live set — otherwise both
     sides correctly stand down (safety over liveness) and nobody is left
     to reintegrate anyone, which is a 2-cell even-split limitation of
     the protocol, not a bug the fuzzer should report. So: at least 3
     cells, and few enough other cell-killing faults that the majority
     side keeps its quorum. *)
  let crng = Sim.Prng.of_int64 (Int64.logxor seed cpu_salt) in
  let ncpu = [| 0; 0; 0; 0; 1 |].(Sim.Prng.int crng 5) in
  let gen_cpu _ =
    let vc = 1 + Sim.Prng.int crng (ncells - 1) in
    (* This draw order keeps every seed's plan. *)
    let at_ns = ms (30 + Sim.Prng.int crng 1170) in
    let node = (vc * nodes_per_cell) + Sim.Prng.int crng nodes_per_cell in
    { Campaign.at_ns; kind = Cpu_dead_mem_alive { node } }
  in
  let cpu_faults = List.init ncpu gen_cpu in
  let killers =
    List.length cpu_faults
    + List.length (List.filter Campaign.corrupts_cell faults)
  in
  let prng = Sim.Prng.of_int64 (Int64.logxor seed part_salt) in
  let nparts =
    if ncells >= 3 && killers <= ncells - 3 then
      [| 0; 0; 0; 1; 1 |].(Sim.Prng.int prng 5)
    else 0
  in
  let gen_part _ =
    (* This draw order keeps every seed's plan. *)
    let one_way = Sim.Prng.int prng 3 = 0 in
    let dur_ns = ms (120 + Sim.Prng.int prng 280) in
    let at_ns = ms (60 + Sim.Prng.int prng 900) in
    let part_cell = 1 + Sim.Prng.int prng (ncells - 1) in
    { Campaign.at_ns; kind = Partition { part_cell; dur_ns; one_way } }
  in
  let faults =
    faults @ cpu_faults @ List.init nparts gen_part
    |> List.stable_sort by_time
  in
  (* Interactive traffic from its own salted stream, appended after every
     draw above: a quarter of the seeds run the server workload (under
     the same fault schedule) instead of a batch workload, and the other
     seeds keep byte-identical plans. *)
  let trng = Sim.Prng.of_int64 (Int64.logxor seed traffic_salt) in
  let traffic =
    if Sim.Prng.int trng 4 = 0 then
      Some
        {
          t_rate = 40 + (20 * Sim.Prng.int trng 7);
          t_zipf_pct = [| 0; 80; 110; 140 |].(Sim.Prng.int trng 4);
          t_churn_pct = 5 * Sim.Prng.int trng 5;
          t_deadline_ms = 150 + (50 * Sim.Prng.int trng 4);
        }
    else None
  in
  { seed; ncells; nodes_per_cell; mem_pages_per_node; workload; jitter;
    faults; traffic }

let describe_plan p =
  Printf.sprintf "seed=0x%Lx cells=%dx%d mem=%d wl=%s jitter=%s faults=[%s]%s"
    p.seed p.ncells p.nodes_per_cell p.mem_pages_per_node
    (workload_name p.workload)
    (if p.jitter then "on" else "off")
    (String.concat "; " (List.map fault_desc p.faults))
    (match p.traffic with
    | None -> ""
    | Some t ->
      Printf.sprintf " traffic=[rate=%d zipf=%d%% churn=%d%% deadline=%dms]"
        t.t_rate t.t_zipf_pct t.t_churn_pct t.t_deadline_ms)

(* Workload configurations are scaled down from the paper's Table 7.1
   sizes so a single fuzz run takes a fraction of a second of wall time.
   Derived from a salted stream independent of the fault draws, and from
   the plan's fixed shape only, so shrinking a plan never changes the
   workload. *)

let cfg_of_plan p =
  let rng = Sim.Prng.of_int64 (Int64.logxor p.seed cfg_salt) in
  let r n = Sim.Prng.int rng n in
  match p.traffic with
  | Some t ->
    (* Scaled down like the batch configs: ~1.2 s of traffic so the
       plan's 30ms..1.2s fault schedule lands mid-stream. Faults come
       from the plan's injector, not from the workload's own knob. *)
    Workloads.Spec.Server
      {
        Workloads.Server.duration_ms = 1_200;
        rate_rps = float_of_int t.t_rate;
        zipf_s = float_of_int t.t_zipf_pct /. 100.;
        nfiles = 32;
        churn_pct = t.t_churn_pct;
        deadline_ms = t.t_deadline_ms;
        fault = None;
        seed = p.seed;
      }
  | None -> (
    match p.workload with
  | Pmake ->
    Workloads.Spec.Pmake
      {
        Workloads.Pmake.files = 3 + r 4;
        jobs = 2 + r 2;
        src_bytes = 16_384;
        hdr_bytes = 65_536;
        cc_bytes = 131_072;
        intermediate_bytes = 32_768;
        obj_bytes = 8_192;
        anon_pages = 48 + r 32;
        include_searches = 60;
        cpp_ns = ms 60;
        cc1_ns = ms 160;
        as_ns = ms 60;
        link_ns = ms 80;
      }
  | Ocean ->
    Workloads.Spec.Ocean
      {
        Workloads.Ocean.workers = p.ncells;
        chunk_pages = 40 + r 41;
        boundary_words = 64;
        steps = 3 + r 3;
        step_compute_ns = ms 200;
        init_compute_ns = ms 100;
      }
    | Raytrace ->
      Workloads.Spec.Raytrace
        {
          Workloads.Raytrace.workers = 2 + r 3;
          scene_pages = 32 + r 33;
          tile_pages = 8;
          compute_ns = ms 600;
          build_ns = ms 100;
        })

(* Post-episode correctness check (Section 7.4's "check run"): a tiny
   pmake across the surviving cells whose outputs must be exact. *)
let check_workload =
  Workloads.Spec.Pmake
    {
      Workloads.Pmake.files = 2;
      jobs = 2;
      src_bytes = 8_192;
      hdr_bytes = 16_384;
      cc_bytes = 32_768;
      intermediate_bytes = 8_192;
      obj_bytes = 4_096;
      anon_pages = 16;
      include_searches = 12;
      cpp_ns = ms 20;
      cc1_ns = ms 50;
      as_ns = ms 20;
      link_ns = ms 30;
    }

let quiesce_deadline_ns = 10_000_000_000L

type plant = Unrecorded_grant | Dup_execution | Split_brain

let run_plan ?plant ?trace_out ?metrics_out plan =
  let eng = Sim.Engine.create () in
  let nodes = plan.ncells * plan.nodes_per_cell in
  let mcfg =
    {
      Flash.Config.default with
      Flash.Config.nodes;
      mem_pages_per_node = plan.mem_pages_per_node;
    }
  in
  (* Planted transport bug (part 1): boot the system with the servers'
     reply caches off, so retransmitted requests really execute twice.
     Planted split-brain bug (part 1): boot with the agreement quorum
     check off, reverting to the historical "silence is a death vote"
     confirmation rule. *)
  let planted_bug =
    match plant with
    | Some Dup_execution -> Some Hive.Params.Reply_cache_off
    | Some Split_brain -> Some Hive.Params.Quorum_check_off
    | Some Unrecorded_grant | None -> None
  in
  let params = { Hive.Params.default with planted_bug } in
  let sys = Hive.System.boot ~mcfg ~params ~ncells:plan.ncells ~wax:true eng in
  let close_trace =
    Sim.Event.attach_chrome_file sys.Hive.Types.events trace_out
  in
  (* Jitter starts only after boot so every plan boots through the same
     canonical event order; divergence comes from the plan alone. *)
  if plan.jitter then
    Sim.Engine.set_jitter eng
      (Some (Sim.Prng.of_int64 (Int64.logxor plan.seed jitter_salt)));
  let inject_rng = Sim.Prng.of_int64 (Int64.logxor plan.seed inject_salt) in
  (match plant with
  | Some Dup_execution ->
    (* Planted transport bug (part 2): arm a duplication-heavy
       machine-wide window over the whole run. With the reply caches off
       (see boot params), duplicated requests really execute twice, and
       the at-most-once checker must say so. *)
    Flash.Sips.degrade
      (Flash.Machine.sips sys.Hive.Types.machine)
      ~rng:(Sim.Prng.of_int64 (Int64.logxor plan.seed dup_salt))
      {
        Flash.Sips.deg_from = -1;
        deg_to = -1;
        from_ns = 0L;
        until_ns = Int64.max_int;
        drop_pct = 0;
        dup_pct = 80;
        delay_pct = 25;
        max_delay_ns = 2_000_000L;
      }
  | Some Split_brain ->
    (* Planted split-brain bug (part 2): sever cell 0 from the rest of
       the machine mid-run and never heal. Under the historical
       confirmation rule (see boot params) each side of the blackout
       confirms the other dead and elects its own recovery master; the
       continuously-latched single-master oracle must catch the
       overlap. *)
    Campaign.sever_cell sys ~cell:0 ~from_ns:400_000_000L
      ~until_ns:Int64.max_int ~one_way:false
  | Some Unrecorded_grant | None -> ());
  let workload = cfg_of_plan plan in
  (* Every fault the injector has tried, with the cells it landed on,
     and every cell a cell-destroying fault first landed on; both newest
     first. *)
  let landed = ref [] and destroyed = ref [] in
  let violations = ref [] in
  let vio inv detail =
    violations := Printf.sprintf "%s: %s" inv detail :: !violations
  in
  let completed = ref false in
  (try
     Workloads.Spec.setup sys workload;
     ignore
       (Sim.Engine.spawn eng ~name:"fuzz.injector" (fun () ->
            List.iter
              (fun (f : Campaign.fault) ->
                let now = Sim.Engine.time () in
                if Int64.compare f.at_ns now > 0 then
                  Sim.Engine.delay (Int64.sub f.at_ns now);
                let _, cells =
                  Campaign.inject sys inject_rng ~tries:51 f
                in
                landed := (f, cells) :: !landed;
                if Campaign.corrupts_cell f then
                  List.iter
                    (fun cell ->
                      if not (List.mem cell !destroyed) then
                        destroyed := cell :: !destroyed)
                    cells)
              plan.faults));
     let result = Workloads.Spec.run sys workload in
     completed := result.Workloads.Workload.completed;
     (* Let every scheduled fault — and the injector's retry window —
        land before judging the end state. *)
     let last_fault =
       List.fold_left
         (fun acc (f : Campaign.fault) -> max acc f.at_ns)
         0L plan.faults
     in
     let horizon = Int64.add last_fault 1_200_000_000L in
     if Int64.compare (Hive.System.now eng) horizon < 0 then
       ignore (Hive.System.run_until sys ~deadline:horizon (fun () -> false));
     let quiesced () =
       (not sys.Hive.Types.recovery_in_progress)
       && Array.for_all Hive.Types.cell_alive sys.Hive.Types.cells
     in
     let wait_quiesce what =
       if
         not
           (Hive.System.run_until sys
              ~deadline:(Int64.add (Hive.System.now eng) quiesce_deadline_ns)
              quiesced)
       then vio "quiesce" (what ^ ": recovery/reintegration did not settle")
     in
     wait_quiesce "post-fault";
     (* Workload outputs must be complete and exact on a fault-free run.
        On a faulted run the application itself is not fault-tolerant —
        a killed worker or a corrupted victim process feeds garbage into
        outputs through perfectly legitimate writes — so exactness of the
        faulted run's outputs proves nothing about the OS; the binding
        oracle there is the post-recovery check run below. *)
     let clean = List.for_all (fun (_, cells) -> cells = []) !landed in
     if clean then
       List.iter
         (fun (path, v) ->
           if v <> Workloads.Workload.Match then
             vio "workload-output"
               (Printf.sprintf "%s: %s on a fault-free run" path
                  (Workloads.Workload.verify_outcome_to_string v)))
         (Workloads.Spec.verify sys workload);
     if clean && not !completed then
       vio "workload-output" "driver did not complete on a fault-free run";
     if not clean then begin
       Workloads.Spec.setup sys check_workload;
       let cres = Workloads.Spec.run sys check_workload in
       (* A corruption planted earlier may only trip a panic here, when
          the check run touches the damaged structure. *)
       wait_quiesce "check-run";
       if not cres.Workloads.Workload.completed then
         vio "check-run" "post-fault pmake check did not complete";
       List.iter
         (fun (path, v) ->
           if v <> Workloads.Workload.Match then
             vio "check-run"
               (Printf.sprintf "%s: %s" path
                  (Workloads.Workload.verify_outcome_to_string v)))
         (Workloads.Spec.verify sys check_workload)
     end;
     (* The planted containment bug: a hardware grant the kernel never
        recorded, on a kernel-reserve page cell 0 never exports, planted
        after the RPC drain. The firewall/pfdat agreement checker must
        flag it. *)
     let plant_grant () =
       match (plant, !destroyed) with
       | Some Unrecorded_grant, cell :: _ ->
         let victim = sys.Hive.Types.cells.(cell) in
         let c0 = sys.Hive.Types.cells.(0) in
         let pfn =
           Flash.Addr.first_pfn_of_node mcfg c0.Hive.Types.boss_node + 2
         in
         Flash.Firewall.grant_many
           (Flash.Machine.firewall sys.Hive.Types.machine)
           ~by:c0.Hive.Types.boss_node ~pfn victim.Hive.Types.cell_nodes
       | _ -> ()
     in
     List.iter
       (fun v -> vio v.Hive.Invariants.inv v.Hive.Invariants.detail)
       (Campaign.end_of_run_check ~before_sweep:plant_grant sys
          ~landed:(List.rev !landed))
   with
  | e -> vio "exception" (Printexc.to_string e));
  close_trace ();
  Option.iter (fun path -> Hive.Metrics.write_file sys path) metrics_out;
  {
    r_seed = plan.seed;
    r_plan = describe_plan plan;
    r_injected =
      List.concat_map
        (fun (f, cells) ->
          List.map
            (fun cell -> Printf.sprintf "%s -> cell %d" (fault_desc f) cell)
            cells)
        (List.rev !landed);
    r_completed = !completed;
    r_violations = List.rev !violations;
    r_survivors = Hive.System.live_cells sys;
    r_sim_ns = Hive.System.now eng;
    r_events = Sim.Engine.events_scheduled eng;
  }

let failed r = r.r_violations <> []

let record_to_json r =
  let open Sim.Json in
  let strs l = Arr (List.map (fun s -> Str s) l) in
  let int n = Int (Int64.of_int n) in
  to_string
    (Obj
       [ ("seed", Str (Printf.sprintf "0x%Lx" r.r_seed));
         ("plan", Str r.r_plan); ("injected", strs r.r_injected);
         ("completed", Bool r.r_completed);
         ("violations", strs r.r_violations);
         ("survivors", Arr (List.map int r.r_survivors));
         ("sim_ns", Int r.r_sim_ns); ("events", int r.r_events) ])

(* Shrinking: greedily apply the first simplification that still fails —
   dropping a fault, disabling jitter, rounding fault times to a coarse
   grain — until a fixpoint (or a run budget, since each probe is a full
   simulation). *)

let round_to grain at =
  let r = Int64.mul (Int64.div (Int64.add at (Int64.div grain 2L)) grain) grain in
  if Int64.compare r grain < 0 then grain else r

let shrink ?plant plan =
  let fails p =
    let r = run_plan ?plant p in
    if failed r then Some r else None
  in
  match fails plan with
  | None -> invalid_arg "Fuzz.shrink: plan does not fail"
  | Some r0 ->
    let drop l i = List.filteri (fun j _ -> j <> i) l in
    let candidates p =
      List.init (List.length p.faults) (fun i ->
          { p with faults = drop p.faults i })
      @ (match p.traffic with
        | Some _ -> [ { p with traffic = None } ]
        | None -> [])
      @ (if p.jitter then [ { p with jitter = false } ] else [])
      @ List.filter_map
          (fun grain ->
            let fs =
              List.map
                (fun (f : Campaign.fault) ->
                  { f with at_ns = round_to grain f.at_ns })
                p.faults
            in
            if fs <> p.faults then Some { p with faults = fs } else None)
          [ 100_000_000L; 10_000_000L ]
    in
    let rec go p r budget =
      if budget = 0 then (p, r)
      else
        let rec first = function
          | [] -> None
          | c :: rest -> (
            match fails c with
            | Some rc -> Some (c, rc)
            | None -> first rest)
        in
        match first (candidates p) with
        | Some (p', r') -> go p' r' (budget - 1)
        | None -> (p, r)
    in
    go plan r0 40
