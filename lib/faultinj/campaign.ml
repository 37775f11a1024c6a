(* Fault-injection campaigns (Section 7.4). campaign.mli documents the
   steps of a test and the shared end-of-run oracle. *)

type kind =
  | Node_failure of { node : int }
  | Node_cascade of { first_node : int; second_node : int }
  | Corrupt_map of { victim_cell : int; mode : Hive.System.corruption_mode }
  | Corrupt_cow of { victim_cell : int; mode : Hive.System.corruption_mode }
  | Link_degrade of {
      deg_from : int; (* source proc, -1 = any *)
      deg_to : int; (* destination node, -1 = any *)
      dur_ns : int64;
      drop_pct : int;
      dup_pct : int;
      delay_pct : int;
      max_delay_ns : int64;
      salt : int64; (* seeds the window's own per-message PRNG *)
    }
  | Partition of {
      part_cell : int; (* cell severed from the rest of the machine *)
      dur_ns : int64; (* heals deterministically dur_ns after injection *)
      one_way : bool; (* true: only traffic INTO the cell is lost *)
    }
  | Cpu_dead_mem_alive of { node : int }

(* [at_ns] counts from boot in [Fuzz.run_plan] and from the end of
   workload setup in [run_test]. *)
type fault = { at_ns : int64; kind : kind }

type outcome = {
  fault_desc : string;
  injected_cells : int list;
  contained : bool;
  detection_ms : float option;
  recovery_ms : float option;
  check_passed : bool;
  corrupt_outputs : string list;
  survivors : int list;
  violations : string list;
}

let pick_victim_process (sys : Hive.Types.system) ~cell_id =
  let c = sys.Hive.Types.cells.(cell_id) in
  List.find_opt
    (fun (p : Hive.Types.process) ->
      p.Hive.Types.pstate = Hive.Types.Proc_running
      && List.exists
           (fun (r : Hive.Types.region) ->
             match r.Hive.Types.kind with
             | Hive.Types.Anon_region _ -> true
             | _ -> false)
           p.Hive.Types.regions)
    c.Hive.Types.processes

(* Find a COW node owned by the victim cell (a leaf of one of its
   processes), for direct tree corruption. Prefer a leaf with a parent (a
   post-fork leaf still used for copy-on-write searches) over a root. *)
let pick_cow_node (sys : Hive.Types.system) ~cell_id =
  let c = sys.Hive.Types.cells.(cell_id) in
  let has_parent (leaf : Hive.Types.cow_ref) =
    let addr =
      leaf.Hive.Types.cow_addr + Hive.Kmem.header_bytes
      + (8 * Hive.Cow.f_parent_addr)
    in
    Bytes.get_int64_le
      (Flash.Memory.peek (Flash.Machine.memory sys.Hive.Types.machine) addr 8)
      0
    >= 0L
  in
  let roots = ref None and forked = ref None in
  List.iter
    (fun (p : Hive.Types.process) ->
      if p.Hive.Types.pstate = Hive.Types.Proc_running then
        List.iter
          (fun (r : Hive.Types.region) ->
            match r.Hive.Types.kind with
            | Hive.Types.Anon_region leaf
              when leaf.Hive.Types.cow_cell = cell_id ->
              if has_parent leaf then begin
                if !forked = None then forked := Some leaf
              end
              else if !roots = None then roots := Some leaf
            | _ -> ())
          p.Hive.Types.regions)
    c.Hive.Types.processes;
  (match (!forked, !roots) with Some l, _ -> Some l | None, r -> r)

let cell_of_node sys n = (Hive.Types.cell_of_node sys n).Hive.Types.cell_id

(* Sever every directed link between [cell]'s nodes and the rest of the
   machine over [from_ns, until_ns). Intra-cell links stay up: the cell
   keeps running on its own side of the blackout. [one_way] models
   asymmetric reachability: only traffic into the cell is lost, so its
   own sends still arrive while every reply (and probe) back to it
   vanishes. *)
let sever_cell (sys : Hive.Types.system) ~cell ~from_ns ~until_ns ~one_way =
  let sips = Flash.Machine.sips sys.Hive.Types.machine in
  let inside = sys.Hive.Types.cells.(cell).Hive.Types.cell_nodes in
  let outside =
    Array.to_list sys.Hive.Types.cells
    |> List.concat_map (fun (c : Hive.Types.cell) ->
           if c.Hive.Types.cell_id = cell then [] else c.Hive.Types.cell_nodes)
  in
  List.iter
    (fun inner ->
      List.iter
        (fun outer ->
          Flash.Sips.partition sips
            { Flash.Sips.part_from = outer; part_to = inner;
              part_from_ns = from_ns; part_until_ns = until_ns };
          if not one_way then
            Flash.Sips.partition sips
              { Flash.Sips.part_from = inner; part_to = outer;
                part_from_ns = from_ns; part_until_ns = until_ns })
        outside)
    inside

(* Poll every 100 us, at most [tries] times, until a recovery round
   entered at or after [since] is past barrier 1 (the window stays open
   through barrier 2 and the master's diagnostics). *)
let rec await_barrier1 (sys : Hive.Types.system) ~since tries =
  let past_barrier1 =
    Option.is_some sys.Hive.Types.round
    && List.exists
         (fun (phase, t) ->
           phase = "recovery.barrier1" && Int64.compare t since >= 0)
         sys.Hive.Types.recovery_timeline
  in
  if tries > 0 && not past_barrier1 then begin
    Sim.Engine.delay 100_000L;
    await_barrier1 sys ~since (tries - 1)
  end

let inject_once (sys : Hive.Types.system) rng fault =
  let now = Sim.Engine.now sys.Hive.Types.eng in
  match fault.kind with
  | Node_failure { node } ->
    Hive.System.inject_node_failure sys node;
    [ cell_of_node sys node ]
  | Node_cascade { first_node; second_node } ->
    Hive.System.inject_node_failure sys first_node;
    await_barrier1 sys ~since:now 10_000;
    Hive.System.inject_node_failure sys second_node;
    [ cell_of_node sys first_node; cell_of_node sys second_node ]
  | Corrupt_map { victim_cell; mode } -> (
    match pick_victim_process sys ~cell_id:victim_cell with
    | Some p when Hive.System.corrupt_address_map sys p mode rng ->
      [ victim_cell ]
    | _ -> [])
  | Corrupt_cow { victim_cell; mode } -> (
    match pick_cow_node sys ~cell_id:victim_cell with
    | Some leaf ->
      Hive.System.corrupt_cow_parent sys sys.Hive.Types.cells.(victim_cell)
        leaf mode rng;
      [ victim_cell ]
    | None -> [])
  | Link_degrade
      { deg_from; deg_to; dur_ns; drop_pct; dup_pct; delay_pct;
        max_delay_ns; salt } ->
    Flash.Sips.degrade
      (Flash.Machine.sips sys.Hive.Types.machine)
      ~rng:(Sim.Prng.of_int64 salt)
      { Flash.Sips.deg_from; deg_to; from_ns = now;
        until_ns = Int64.add now dur_ns; drop_pct; dup_pct; delay_pct;
        max_delay_ns };
    (* Reported as the destination cell when the window targets one link,
       cell 0 for a machine-wide window; nothing is corrupted either way. *)
    [ (if deg_to >= 0 then cell_of_node sys deg_to else 0) ]
  | Partition { part_cell; dur_ns; one_way } ->
    sever_cell sys ~cell:part_cell ~from_ns:now
      ~until_ns:(Int64.add now dur_ns) ~one_way;
    [ part_cell ]
  | Cpu_dead_mem_alive { node } ->
    Hive.System.inject_cpu_failure sys node;
    [ cell_of_node sys node ]

(* Corruption faults need a running process with an anonymous region,
   so retry every 20 ms until a victim exists, at most [tries] times. *)
let inject sys rng ~tries fault =
  let rec attempt n =
    let t = Sim.Engine.time () in
    match inject_once sys rng fault with
    | [] when n > 1 ->
      Sim.Engine.delay 20_000_000L;
      attempt (n - 1)
    | cells -> (t, cells)
  in
  attempt tries

(* A partitioned minority cell stands down (self-panics), so it counts;
   link degradation only perturbs message delivery. Exemption from the
   invariant sweep is the narrower rule of [exempt_cells]. *)
let corrupts_cell f =
  match f.kind with
  | Node_failure _ | Node_cascade _ | Corrupt_map _ | Corrupt_cow _ -> true
  | Link_degrade _ -> false
  | Partition _ | Cpu_dead_mem_alive _ -> true

let describe f =
  match f.kind with
  | Node_failure { node } -> Printf.sprintf "node %d fail-stop" node
  | Node_cascade { first_node; second_node } ->
    Printf.sprintf "node %d fail-stop, then node %d mid-recovery" first_node
      second_node
  | Corrupt_map { victim_cell; _ } ->
    Printf.sprintf "corrupt address map on cell %d" victim_cell
  | Corrupt_cow { victim_cell; _ } ->
    Printf.sprintf "corrupt COW tree on cell %d" victim_cell
  | Link_degrade
      { deg_from; deg_to; dur_ns; drop_pct; dup_pct; delay_pct; _ } ->
    Printf.sprintf
      "degrade link %s->%s for %Ld ms (drop %d%% dup %d%% delay %d%%)"
      (if deg_from = -1 then "*" else string_of_int deg_from)
      (if deg_to = -1 then "*" else string_of_int deg_to)
      (Int64.div dur_ns 1_000_000L)
      drop_pct dup_pct delay_pct
  | Partition { part_cell; dur_ns; one_way } ->
    Printf.sprintf "partition cell %d for %Ld ms (%s)" part_cell
      (Int64.div dur_ns 1_000_000L)
      (if one_way then "inbound only" else "both ways")
  | Cpu_dead_mem_alive { node } ->
    Printf.sprintf "node %d CPU dead, memory alive" node

(* A data-corruption victim may keep its damaged structures undetected,
   which is the injected fault itself. Every other victim is rebooted
   with zeroed memory at reintegration and checked in full. *)
let exempt_cells landed =
  List.concat_map
    (fun (f, cells) ->
      match f.kind with Corrupt_map _ | Corrupt_cow _ -> cells | _ -> [])
    landed

(* Two seconds outlast the full retransmission schedule: a worst-case
   call burns every retry, (1 + rpc_max_retries) timeouts plus the
   backoff gaps. *)
let end_of_run_check ?(before_sweep = ignore) sys ~landed =
  let snapshot = Hive.Invariants.rpc_snapshot sys in
  ignore
    (Hive.System.run_until sys
       ~deadline:(Int64.add (Sim.Engine.now sys.Hive.Types.eng) 2_000_000_000L)
       (fun () -> false));
  let drained = Hive.Invariants.check_rpc_drained sys ~snapshot in
  before_sweep ();
  drained @ Hive.Invariants.check ~exempt:(exempt_cells landed) sys

(* The check run: the default pmake across the surviving cells, whose
   outputs must be exact. *)
let check_workload = Workloads.Spec.of_name "pmake"

(* Run one fault-injection test on [sys] (by default a fresh four-cell
   Wax boot, as in Table 7.4). *)
let run_test ?(seed = 1) ?sys ~workload fault =
  let rng = Sim.Prng.create seed in
  let sys =
    match sys with
    | Some sys -> sys
    | None -> Hive.System.boot ~ncells:4 ~wax:true (Sim.Engine.create ())
  in
  let eng = sys.Hive.Types.eng in
  (* The check run reuses the inputs set up here, so a test that runs the
     check workload itself sets them up only once. *)
  Workloads.Spec.setup sys check_workload;
  if workload <> check_workload then Workloads.Spec.setup sys workload;
  (* Injection happens from a detached thread at the requested time. *)
  let injection = ref (0L, []) in
  ignore
    (Sim.Engine.spawn eng ~name:"injector" (fun () ->
         Sim.Engine.delay fault.at_ns;
         injection := inject sys rng ~tries:200 fault));
  ignore (Workloads.Spec.run sys workload);
  (* Let detection/recovery finish. *)
  ignore
    (Hive.System.run_until sys
       ~deadline:(Int64.add (Sim.Engine.now eng) 3_000_000_000L)
       (fun () ->
         (not (Hive.Types.recovery_in_progress sys))
         && (sys.Hive.Types.recovery_events <> [] || snd !injection = [])));
  let t_inject, injected_cells = !injection in
  let detection_ms =
    match Hive.System.detection_latency_ns sys ~t_fault:t_inject with
    | Some ns when injected_cells <> [] -> Some (Int64.to_float ns /. 1e6)
    | _ -> None
  in
  let recovery_ms =
    if
      sys.Hive.Types.recovery_events <> []
      && Int64.compare sys.Hive.Types.recovery_complete_at t_inject > 0
    then
      let first_entry =
        List.fold_left
          (fun acc (_, t) -> min acc t)
          Int64.max_int sys.Hive.Types.recovery_events
      in
      Some
        (Int64.to_float
           (Int64.sub sys.Hive.Types.recovery_complete_at first_entry)
        /. 1e6)
    else None
  in
  let survivors = Hive.System.live_cells sys in
  (* Containment: every cell survived except those the fault destroys or
     corrupts. *)
  let may_die = if corrupts_cell fault then injected_cells else [] in
  let contained =
    Array.for_all
      (fun (c : Hive.Types.cell) ->
        List.mem c.Hive.Types.cell_id may_die || Hive.Types.cell_alive c)
      sys.Hive.Types.cells
  in
  let corrupt verify =
    List.filter_map
      (fun (path, v) ->
        if v = Workloads.Workload.Corrupt then Some path else None)
      verify
  in
  (* The faulted run's outputs are checked for corruption (loss is
     acceptable) before the check run rewrites pmake's. *)
  let faulted_corrupt = corrupt (Workloads.Spec.verify sys workload) in
  let check_result = Workloads.Spec.run sys check_workload in
  let corrupt_outputs =
    faulted_corrupt @ corrupt (Workloads.Spec.verify sys check_workload)
  in
  let violations =
    List.map Hive.Invariants.to_string
      (end_of_run_check sys ~landed:[ (fault, injected_cells) ])
  in
  {
    fault_desc = describe fault;
    injected_cells;
    contained;
    detection_ms;
    recovery_ms;
    check_passed = check_result.Workloads.Workload.completed;
    corrupt_outputs;
    survivors;
    violations;
  }

let passed o =
  o.contained && o.check_passed && o.corrupt_outputs = []
  && o.injected_cells <> [] && o.violations = []

(* ---------- The Table 7.4 campaigns ---------- *)

type campaign_row = {
  tests : int;
  all_contained : bool;
  avg_detect_ms : float;
  max_detect_ms : float;
  avg_recovery_ms : float;
}

let summarize outcomes =
  let det = List.filter_map (fun o -> o.detection_ms) outcomes in
  let rec_ = List.filter_map (fun o -> o.recovery_ms) outcomes in
  let avg xs =
    if xs = [] then 0. else List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)
  in
  {
    tests = List.length outcomes;
    all_contained = List.for_all passed outcomes;
    avg_detect_ms = avg det;
    max_detect_ms = List.fold_left max 0. det;
    avg_recovery_ms = avg rec_;
  }

let modes =
  [| Hive.System.Random_address; Hive.System.Off_by_one_word;
     Hive.System.Self_pointer |]

(* [tests] runs of [workload]; test i is seeded [seed + i] and injects
   [fault i] on victim cell or node [1 + i mod 3]. *)
let campaign ~seed ~workload ~tests fault =
  let workload = Workloads.Spec.of_name workload in
  List.init tests (fun i ->
      run_test ~seed:(seed + i) ~workload (fault i (1 + (i mod 3))))
  |> summarize

let mode i = modes.(i mod Array.length modes)

(* Node failure during process creation (pmake): inject early, while the
   driver is forking compile jobs. *)
let node_failure_during_creation =
  campaign ~seed:100 ~workload:"pmake" (fun i node ->
      { at_ns = Int64.of_int (40_000_000 * (i + 2));
        kind = Node_failure { node } })

(* Node failure during COW search (raytrace): inject while workers fault
   scene pages through the tree. *)
let node_failure_during_cow =
  campaign ~seed:200 ~workload:"raytrace" (fun i node ->
      { at_ns = Int64.of_int (15_000_000 * (i + 1));
        kind = Node_failure { node } })

(* Node failure at a random time during pmake. *)
let node_failure_random ~tests =
  let rng = Sim.Prng.create 42 in
  campaign ~seed:300 ~workload:"pmake" ~tests (fun _ node ->
      let at = 50_000_000 + Sim.Prng.int rng 4_000_000_000 in
      { at_ns = Int64.of_int at; kind = Node_failure { node } })

(* Corrupt pointer in a process address map (pmake). *)
let corrupt_map_campaign =
  campaign ~seed:400 ~workload:"pmake" (fun i victim_cell ->
      { at_ns = Int64.of_int (120_000_000 * (i + 1));
        kind = Corrupt_map { victim_cell; mode = mode i } })

(* Corrupt pointer in the COW tree (raytrace): injected mid-run, so the
   corruption lies dormant until a later copy-on-write search trips it —
   which is why the paper's detection latencies for this campaign are an
   order of magnitude above the clock-monitoring bound. *)
let corrupt_cow_campaign =
  campaign ~seed:500 ~workload:"raytrace" (fun i victim_cell ->
      { at_ns = Int64.of_int (300_000_000 + (180_000_000 * i));
        kind = Corrupt_cow { victim_cell; mode = mode i } })

(* ---------- Parallel campaign driver ---------- *)

let spawned_domains ~jobs ~seeds ~cpus = max 0 (min jobs (min seeds cpus) - 1)

(* Shard a seed list across OCaml 5 domains. Work-stealing: every domain
   pulls the next unclaimed index from a shared cursor, so a slow seed
   never idles the others. The calling domain is worker 0: it claims
   seeds like the spawned domains, and between its own campaigns it
   hands the ready prefix of the results to [on_record] in seed order;
   once no seed is left to claim it waits for the rest. A caller that
   only waited would still be a domain every stop-the-world collection
   has to include. Each campaign runs [run] with a private simulation
   engine ([Sim.Engine.create] binds the engine to the creating domain
   and rejects use from any other) and shares nothing else: every
   cross-campaign cache in the tree is domain-local and reset per boot.
   The merged output is therefore byte-identical to a serial run
   regardless of [jobs]. Workers only read the RPC handler slots, which
   each op's module wrote at initialization on the main domain, before
   any spawn. *)
let run_parallel (type r) ~jobs ~(seeds : int64 array) ~(run : int64 -> r)
    ~(on_record : int64 -> r -> unit) =
  let n = Array.length seeds in
  let spawn =
    spawned_domains ~jobs ~seeds:n ~cpus:(Domain.recommended_domain_count ())
  in
  if spawn = 0 then Array.iter (fun s -> on_record s (run s)) seeds
  else begin
    let next = Atomic.make 0 in
    let results : (r, exn) result option array = Array.make n None in
    let m = Mutex.create () in
    let ready = Condition.create () in
    let run_one i =
      let r = match run seeds.(i) with v -> Ok v | exception e -> Error e in
      Mutex.lock m;
      results.(i) <- Some r;
      Condition.broadcast ready;
      Mutex.unlock m
    in
    (* The claim loop of every worker; the caller passes [between] to
       emit records between its own campaigns. *)
    let rec claim_all between =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        run_one i;
        between ();
        claim_all between
      end
    in
    (* Hand the ready prefix to [on_record], outside the lock: it may
       write files or replay a failing seed. With [~wait], block until
       every record is out. A failed seed re-raises at its position. *)
    let emitted = ref 0 in
    let rec emit ~wait =
      Mutex.lock m;
      let rec take () =
        if !emitted >= n then None
        else
          match results.(!emitted) with
          | Some r ->
            let i = !emitted in
            results.(i) <- None;
            incr emitted;
            Some (i, r)
          | None when wait ->
            Condition.wait ready m;
            take ()
          | None -> None
      in
      let taken = take () in
      Mutex.unlock m;
      match taken with
      | None -> ()
      | Some (i, Ok v) ->
        on_record seeds.(i) v;
        emit ~wait
      | Some (_, Error e) -> raise e
    in
    let domains = ref [] in
    Fun.protect
      ~finally:(fun () ->
        (* After a raise (from [on_record], a failed seed or a failed
           spawn) stop the workers claiming, then collect them. *)
        Atomic.set next n;
        List.iter Domain.join !domains)
      (fun () ->
        for _ = 1 to spawn do
          domains := Domain.spawn (fun () -> claim_all ignore) :: !domains
        done;
        claim_all (fun () -> emit ~wait:false);
        emit ~wait:true)
  end
