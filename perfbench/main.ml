(* perfbench: the repository benchmark.

   One command per workload runs a fixed piece of work over and over for a
   host-time budget, checks the outputs of every repetition, and prints
   every metric by name with its unit. The last line of standard output is
   one JSON object: the end-to-end metrics for an untraced run
   ([--trace 0]), the per-layer metrics for a traced one ([--trace 1]).

     main.exe --workload pmake64-kill --seed 1 --seconds 30 --trace 0

   Two clocks are reported. Simulated metrics (simulated seconds and
   milliseconds, kernel counters) are pure functions of the seed: every
   repetition of a run must reproduce them byte for byte, traced or not,
   and the run fails otherwise. Host metrics (set-up and wall time, memory)
   are taken over all the repetitions of the run; the end-to-end ones are
   scaled by the host speed that a fixed reference computation
   ([Reference]) measures before each repetition.

   Layers are measured from outside the kernel only: host timers around
   the benchmark's own calls into public functions, what [Hive.Metrics],
   [Sim.Engine] and [Flash.Sips] already export, and a benchmark-owned
   [Sim.Event] sink on [sys.events] in traced repetitions. *)

open Printf
module Sc = Bench.Scenario
module S = Hive.Metrics.Snapshot

(* ---------- host clocks ---------- *)

let wall = Unix.gettimeofday

let timed f =
  let t0 = wall () in
  let v = f () in
  (v, wall () -. t0)

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Peak resident set of this process: the kernel's high-water mark. *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" In_channel.input_all
  |> String.split_on_char '\n'
  |> List.find_map (fun l -> Scanf.sscanf_opt l "VmHWM: %f kB" (fun kb -> kb /. 1024.))
  |> Option.value ~default:nan

let ns_to_ms ns = Int64.to_float ns /. 1e6

let ns_to_s ns = Int64.to_float ns /. 1e9

let median xs =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* ---------- metrics: the sweep's metric/direction type plus a unit ---------- *)

type metric = { m : Sc.metric; unit_ : string }

let metric ?(dir = Sc.Info) name unit_ v = { m = Sc.metric ~dir name v; unit_ }

let count name v = metric name "count" (float_of_int v)

let name x = x.m.Sc.m_name

(* The byte-identity self-check compares this rendering. *)
let render ms =
  String.concat "\n"
    (List.map (fun x -> sprintf "%s %.17g %s" (name x) x.m.Sc.m_value x.unit_) ms)

(* A percentile is reported only with at least ten samples beyond it
   (p99.9 needs 10k samples); otherwise it reads 0, and the sample count
   reported beside it says why. *)
let supported ~n q = float_of_int n *. (1. -. q) >= 10.

(* ---------- what Hive.Metrics exports ---------- *)

(* Quantile over several exported log2-bucket histograms plus [extra_n]
   samples pinned at [extra_v], by linear interpolation inside the bucket
   holding the target rank. Returns the estimate and the sample count. *)
let bucket_quantile ?(extra_n = 0) ?(extra_v = 0.) hs q =
  let buckets =
    List.concat_map
      (fun (h : S.hist) ->
        List.map (fun (lo, hi, n) -> (Int64.to_float lo, Int64.to_float hi, n)) h.S.buckets)
      hs
    @ (if extra_n > 0 then [ (extra_v, extra_v, extra_n) ] else [])
    |> List.sort compare
  in
  let total = List.fold_left (fun a (_, _, n) -> a + n) 0 buckets in
  let rank = q *. float_of_int total in
  let rec go cum = function
    | [] -> 0.
    | (lo, hi, n) :: rest ->
      let cum' = cum +. float_of_int n in
      if cum' >= rank then lo +. ((hi -. lo) *. (rank -. cum) /. float_of_int n)
      else go cum' rest
  in
  (go 0. buckets, total)

let hist_count hs = List.fold_left (fun a (h : S.hist) -> a + h.S.count) 0 hs

let hist_mean_ns hs =
  let n = hist_count hs in
  if n = 0 then 0.
  else
    List.fold_left (fun a (h : S.hist) -> a +. (h.S.mean_ns *. float_of_int h.S.count)) 0. hs
    /. float_of_int n

(* Median of one op: the sampled p50 of a single run's histogram, bucket
   interpolation when several campaigns' histograms are merged. *)
let hist_p50_ns = function
  | [] -> 0.
  | [ (h : S.hist) ] -> h.S.p50_ns
  | hs -> fst (bucket_quantile hs 0.5)

(* A counter summed over every cell and the system registry. *)
let counter snaps key =
  let get l = Option.value ~default:0 (List.assoc_opt key l) in
  List.fold_left
    (fun acc (s : S.t) ->
      List.fold_left (fun a (c : S.cell) -> a + get c.S.counters) (acc + get s.S.system_counters)
        s.S.cells)
    0 snaps

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* The RPC ops the workloads are built around, and the syscall classes
   whose spans ("sys.<class>") the traced run splits out. *)
let rpc_ops = [ "fs.lookup"; "fs.locate"; "share.release"; "server.read" ]

let syscall_classes = [ "open"; "read"; "write"; "creat"; "close"; "exec"; "touch"; "write_word" ]

(* Per-layer metrics read from metrics snapshots; identical in traced and
   untraced runs of one seed. *)
let layer_metrics snaps =
  let c = counter snaps in
  let hists table op = List.filter_map (fun (s : S.t) -> List.assoc_opt op (table s)) snaps in
  let client = hists (fun s -> s.S.rpc_client) and server = hists (fun s -> s.S.rpc_server) in
  let sends = List.fold_left (fun a (s : S.t) -> a + s.S.sips.S.sends) 0 snaps in
  let calls =
    List.fold_left
      (fun a (s : S.t) -> List.fold_left (fun a (_, (h : S.hist)) -> a + h.S.count) a s.S.rpc_client)
      0 snaps
  in
  let per_op op =
    let ch = client op and sh = server op in
    let n = hist_count ch in
    let handler = hist_mean_ns sh /. 1e3 in
    [ count (sprintf "rpc.%s.count" op) n;
      metric (sprintf "rpc.%s.p50_us" op) "us"
        (if supported ~n 0.5 then hist_p50_ns ch /. 1e3 else 0.);
      metric (sprintf "rpc.%s.handler_us" op) "us" handler;
      metric (sprintf "rpc.%s.wait_us" op) "us" (if n = 0 then 0. else (hist_mean_ns ch /. 1e3) -. handler) ]
  in
  let sharing_rpcs =
    List.fold_left (fun a op -> a + hist_count (client op)) 0
      [ "fs.locate"; "share.release"; "share.release_batch"; "share.invalidate" ]
  in
  let imports = c "share.imports" and hits = c "share.cache_hits" in
  [ count "sips.sends" sends;
    metric "sips.sends_per_op" "sends/rpc" (ratio sends calls);
    count "rpc.calls" calls ]
  @ List.map (fun k -> count ("rpc." ^ k) (c ("rpc." ^ k)))
      [ "retransmits"; "shed"; "expired"; "deadline_exceeded" ]
  @ List.concat_map per_op rpc_ops
  @ [ count "share.imports" imports;
      count "share.cache_hits" hits;
      metric "share.hit_ratio" "ratio" (ratio hits (hits + c "fs.remote_locates"));
      metric "share.rpcs_per_remote_page" "rpcs/page" (ratio sharing_rpcs (imports + hits)) ]
  @ List.map (fun k -> count k (c k))
      [ "fs.remote_locates"; "fs.readahead_pages"; "share.invalidates"; "share.releases";
        "vm.faults"; "vm.refault_retries"; "firewall.changes"; "careful_ref.enter";
        "agreement.rounds"; "wax.rejected_hints"; "proc.forks"; "proc.remote_forks" ]
  @ [ count "wax.hints_acted" (c "wax.swap_hints_acted") ]
  @ List.map (fun k -> count (sprintf "syscall.%s.count" k) (c ("syscall." ^ k))) syscall_classes

(* ---------- recovery breakdown ---------- *)

let recovery_marks =
  [ ("recovery.detect_ms", "recovery.hint");
    ("recovery.agreement_ms", "recovery.barrier1");
    ("recovery.discard_ms", "recovery.barrier2");
    ("recovery.resume_ms", "recovery.resume");
    ("recovery.reintegrate_ms", "recovery.reintegrate") ]

let first_mark (snap : S.t) ~after phase =
  List.find_map
    (fun (p, t) -> if p = phase && Int64.compare t after >= 0 then Some t else None)
    snap.S.recovery_timeline

let no_recovery () =
  metric ~dir:Sc.Lower_better "recovery_ms" "ms" 0.
  :: List.map (fun (n, _) -> metric n "ms" 0.) recovery_marks

(* Fault -> first hint -> barrier 1 -> barrier 2 -> resume -> first
   reintegration, off the kernel's recovery timeline. [recovery_ms] is the
   reintegration instant minus the injection instant the workload itself
   recorded; the five parts must sum to it in integer nanoseconds, and a
   missing or out-of-order marker fails the run. *)
let recovery_metrics ~problems ~fault_ns snap =
  let marks t0 = List.map (fun (_, ph) -> first_mark snap ~after:t0 ph) recovery_marks in
  match fault_ns with
  | None -> no_recovery ()
  | Some t0 when List.exists Option.is_none (marks t0) ->
    problems := "recovery timeline incomplete" :: !problems;
    no_recovery ()
  | Some t0 ->
    let marks = marks t0 in
    let ts = t0 :: List.map Option.get marks in
    let parts = List.map2 Int64.sub (List.tl ts) (List.rev (List.tl (List.rev ts))) in
    let total = Int64.sub (List.nth ts 5) t0 in
    if List.exists (fun d -> Int64.compare d 0L < 0) parts then
      problems := "recovery timeline out of order" :: !problems;
    if Int64.compare (List.fold_left Int64.add 0L parts) total <> 0 then
      problems := "recovery parts do not sum to recovery_ms" :: !problems;
    metric ~dir:Sc.Lower_better "recovery_ms" "ms" (ns_to_ms total)
    :: List.map2 (fun (n, _) d -> metric n "ms" (ns_to_ms d)) recovery_marks parts

(* ---------- the benchmark-owned event sink ---------- *)

type span_acc = { mutable n : int; mutable self_ns : int64; mutable host_s : float }

type frame = { fname : string; start : int64; host0 : float; mutable rpc_ns : int64 }

type tracer = {
  stacks : (int, frame list) Hashtbl.t;
  spans : (string, span_acc) Hashtbl.t;
  mutable events : int;
  mutable queue_peak : int;
}

let tracer () =
  { stacks = Hashtbl.create 1024; spans = Hashtbl.create 64; events = 0; queue_peak = 0 }

let is_rpc_call s = String.length s > 9 && String.sub s 0 9 = "rpc.call:"

(* Pair Begin/End per simulation thread. Self time is the span minus the
   [rpc.call:*] spans directly beneath it on the same thread; the host
   time between the two ends is kept for the report. *)
let on_event tr ~tid ~phase ~name ~ts =
  tr.events <- tr.events + 1;
  let stack = Option.value ~default:[] (Hashtbl.find_opt tr.stacks tid) in
  match (phase : Sim.Event.phase) with
  | Begin ->
    Hashtbl.replace tr.stacks tid ({ fname = name; start = ts; host0 = wall (); rpc_ns = 0L } :: stack)
  | End -> (
    match stack with
    | f :: rest when f.fname = name ->
      Hashtbl.replace tr.stacks tid rest;
      let dur = Int64.sub ts f.start in
      let acc =
        match Hashtbl.find_opt tr.spans name with
        | Some a -> a
        | None ->
          let a = { n = 0; self_ns = 0L; host_s = 0. } in
          Hashtbl.replace tr.spans name a;
          a
      in
      acc.n <- acc.n + 1;
      acc.self_ns <- Int64.add acc.self_ns (Int64.sub dur f.rpc_ns);
      acc.host_s <- acc.host_s +. (wall () -. f.host0);
      (match rest with
      | parent :: _ when is_rpc_call name -> parent.rpc_ns <- Int64.add parent.rpc_ns dur
      | _ -> ())
    | _ -> () (* opened before the sink was attached *))
  | Instant | Counter -> ()

let sink tr eng =
  { Sim.Event.emit =
      (fun e ->
        tr.queue_peak <- max tr.queue_peak (Sim.Engine.queue_capacity eng);
        on_event tr ~tid:e.Sim.Event.tid ~phase:e.Sim.Event.phase ~name:e.Sim.Event.name
          ~ts:e.Sim.Event.ts);
    flush = ignore }

(* Replay a Chrome trace written by [Fuzz.run_plan ~trace_out]: fuzz
   campaigns own their systems, so their spans are reachable only through
   that file. Threads are keyed by (file, cell, tid). *)
let replay_chrome tr ~file_id path =
  let j =
    match Sim.Json.of_string (In_channel.with_open_bin path In_channel.input_all) with
    | Ok j -> j
    | Error e -> failwith (sprintf "%s: %s" path e)
  in
  let get k conv e = Option.bind (Sim.Json.member k e) conv in
  List.iter
    (fun e ->
      match
        ( get "ph" Sim.Json.to_string_opt e, get "name" Sim.Json.to_string_opt e,
          get "ts" Sim.Json.to_float_opt e, get "tid" Sim.Json.to_int_opt e,
          get "pid" Sim.Json.to_int_opt e )
      with
      | Some ph, Some name, Some ts_us, Some tid, Some pid ->
        let phase : Sim.Event.phase =
          match ph with "B" -> Begin | "E" -> End | _ -> Instant
        in
        on_event tr ~tid:((((file_id * 1000) + pid) * 1_000_000) + tid) ~phase ~name
          ~ts:(Int64.of_float (Float.round (ts_us *. 1e3)))
      | _ -> ())
    (Option.value ~default:[] (Sim.Json.to_list_opt j))

let span_metrics tr =
  count "trace.events" tr.events
  :: count "sim.queue_capacity" tr.queue_peak
  :: List.concat_map
       (fun k ->
         let n, self =
           match Hashtbl.find_opt tr.spans ("sys." ^ k) with
           | Some a -> (a.n, Int64.to_float a.self_ns /. 1e3)
           | None -> (0, 0.)
         in
         [ count (sprintf "syscall.%s.spans" k) n; metric (sprintf "syscall.%s.self_us" k) "us" self ])
       syscall_classes

let print_top_spans tr =
  Hashtbl.fold (fun k a l -> (k, a) :: l) tr.spans []
  |> List.sort (fun (_, a) (_, b) -> Int64.compare b.self_ns a.self_ns)
  |> List.iteri (fun i (k, a) ->
         if i < 12 then
           printf "#   span %-30s n=%-8d self %14.1f us  host %8.3f s\n" k a.n
             (Int64.to_float a.self_ns /. 1e3) a.host_s)

(* ---------- one repetition ---------- *)

type iter = {
  boot_s : float;
  wsetup_s : float;
  run_s : float;  (** wall time of the fixed work *)
  verify_s : float;
  sim_s : float;  (** simulated seconds the fixed work covered *)
  events : int;  (** engine events scheduled during the fixed work *)
  minor_words : float;
  major_gcs : int;
  cpu_s : float;
  campaign_ms : float list;  (** host time of each fuzz campaign *)
  ref_s : float;  (** wall time of the reference run just before *)
  sim : metric list;  (** must repeat byte for byte within a run *)
  fingerprint : string;  (** further simulated output held to the same rule *)
  layers : metric list;  (** snapshot-derived; fuzz has them only when traced *)
  tracer : tracer option;
  problems : string list;
}

type ctx = { seed : int; traced : bool; nproc : int; tmp : string }

let seeded ctx salt = Sim.Prng.of_int64 (Int64.logxor (Int64.of_int ctx.seed) salt)

let attach ctx (sys : Hive.Types.system) =
  if not ctx.traced then None
  else begin
    let tr = tracer () in
    Sim.Event.attach sys.Hive.Types.events (sink tr sys.Hive.Types.eng);
    Some tr
  end

(* Time the fixed work of a booted system on the host clocks. *)
let measure eng f =
  let e0 = Sim.Engine.events_scheduled eng and t0 = Sim.Engine.now eng in
  let g0 = Gc.quick_stat () and c0 = cpu_s () in
  let v, run_s = timed f in
  let cpu = cpu_s () -. c0 and g1 = Gc.quick_stat () in
  let sim_s = ns_to_s (Int64.sub (Sim.Engine.now eng) t0) and events = Sim.Engine.events_scheduled eng - e0 in
  ( v,
    fun ~boot_s ~wsetup_s ~verify_s ~sim ~layers ~tracer ~problems ->
      { boot_s; wsetup_s; run_s; verify_s; sim_s; events;
        minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
        major_gcs = g1.Gc.major_collections - g0.Gc.major_collections;
        cpu_s = cpu; campaign_ms = []; ref_s = 0.; sim; fingerprint = ""; layers; tracer;
        problems } )

(* Every invariant violation fails the run, except those of a checker in
   [known]: a defect this workload reproduces that awaits a kernel fix.
   Those are printed and counted in [invariants.known_violations], never
   passed silently. *)
let check_invariants ~problems ?(known = []) sys =
  let n = ref 0 in
  List.iter
    (fun v ->
      let s = Hive.Invariants.to_string v in
      if List.mem v.Hive.Invariants.inv known then begin
        printf "# known defect: invariant %s\n" s;
        incr n
      end
      else problems := ("invariant " ^ s) :: !problems)
    (Hive.Invariants.check sys);
  count "invariants.known_violations" !n

(* The traffic metrics, zero on the workloads that serve no requests. *)
let traffic_metrics ?(reads = 0) ?(read_q = fun _ -> 0.) ?(churn = 0) ?(churn_p99 = 0.)
    ?(shed = 0) ?(redirected = 0) () =
  let lower n v = metric ~dir:Sc.Lower_better n "ms" v in
  [ count "reads" reads;
    lower "read_p50_ms" (read_q 0.5);
    lower "read_p99_ms" (read_q 0.99);
    lower "read_p999_ms" (read_q 0.999);
    count "churn" churn;
    lower "churn_p99_ms" churn_p99;
    count "server.shed_legs" shed;
    count "server.redirected" redirected ]

(* Outputs that are not byte-identical are failed ops. Outside [may_lose]
   (the outputs a killed cell is allowed to take with it) they are also a
   wrong answer, and a corrupt output is wrong anywhere. *)
let judge_outputs ~problems ~may_lose outcomes =
  let open Workloads.Workload in
  List.iter
    (fun (path, v) ->
      match v with
      | Match -> ()
      | (Data_loss | Missing) when List.mem path may_lose -> ()
      | v -> problems := sprintf "%s: %s" path (verify_outcome_to_string v) :: !problems)
    outcomes;
  (List.length outcomes, List.length (List.filter (fun (_, v) -> v <> Match) outcomes))

let unified (sys : Hive.Types.system) =
  let n = Array.length sys.Hive.Types.cells in
  (not sys.Hive.Types.recovery_in_progress)
  && Array.for_all
       (fun (c : Hive.Types.cell) -> Hive.Types.cell_alive c && List.length c.Hive.Types.live_set = n)
       sys.Hive.Types.cells

let elapsed ns = metric ~dir:Sc.Lower_better "elapsed_sim_s" "s" (ns_to_s ns)

let failed_pct ~failed ~attempted =
  [ metric ~dir:Sc.Lower_better "ops_failed_pct" "%" (100. *. ratio failed attempted);
    count "ops.attempted" attempted ]

(* pmake64-kill: the paper's full envelope. 64 cells over 128 nodes at the
   default 8192 pages per node with Wax on, pmake with two files per cell;
   the last cell's first node fail-stops 500 ms into the build plus a
   seed-drawn offset under 5 ms. Done when the build has finished and the
   live set is whole again. *)
let pmake64_kill ctx =
  let ncells = 64 in
  let mcfg = Flash.Config.with_nodes Flash.Config.default 128 in
  let (eng, sys), boot_s = timed (fun () -> Bench.Harness.boot ~ncells ~mcfg ~wax:true ()) in
  let cfg =
    { Workloads.Pmake.default with Workloads.Pmake.files = 2 * ncells; jobs = ncells; anon_pages = 64 }
  in
  let (), wsetup_s =
    timed (fun () ->
        (* Wax publishes stats and runs a few policy passes first *)
        Sim.Engine.run ~until:(Int64.add (Sim.Engine.now eng) 400_000_000L) eng;
        Workloads.Pmake.setup sys cfg)
  in
  let tracer = attach ctx sys in
  let victim = ncells - 1 in
  let offset_ns = Int64.of_int (1_000 * Sim.Prng.int (seeded ctx 0x9a4eL) 5_000) in
  let fault_ns = ref None in
  ignore
    (Sim.Engine.spawn eng ~name:"perfbench.fault" (fun () ->
         Sim.Engine.delay (Int64.add 500_000_000L offset_ns);
         fault_ns := Some (Sim.Engine.now eng);
         Hive.System.inject_node_failure sys (List.hd sys.Hive.Types.cells.(victim).Hive.Types.cell_nodes)));
  let t0 = Sim.Engine.now eng in
  let reunified, finish =
    measure eng (fun () ->
        ignore (Workloads.Pmake.run ~cfg sys);
        Hive.System.run_until sys ~deadline:(Int64.add (Sim.Engine.now eng) 30_000_000_000L)
          (fun () -> unified sys))
  in
  let sim_ns = Int64.sub (Sim.Engine.now eng) t0 in
  let problems = ref (if reunified then [] else [ "live set not reunified" ]) in
  let ((attempted, failed), known), verify_s =
    timed (fun () ->
        let known = check_invariants ~problems sys in
        let may_lose =
          Workloads.Pmake.binary_path
          :: List.init 2 (fun k -> Workloads.Pmake.obj_path ((k * ncells) + victim))
        in
        (judge_outputs ~problems ~may_lose (Workloads.Pmake.verify ~cfg sys), known))
  in
  let snap = Hive.Metrics.capture sys in
  finish ~boot_s ~wsetup_s ~verify_s
    ~sim:
      ((elapsed sim_ns :: failed_pct ~failed ~attempted)
      @ traffic_metrics ()
      @ recovery_metrics ~problems ~fault_ns:!fault_ns snap
      @ [ known ])
    ~layers:(layer_metrics [ snap ]) ~tracer ~problems:!problems

(* ocean16-write: 16 cells over 16 nodes, one ocean worker per cell with
   the paper's step parameters. The seed drives the engine's tie-break
   jitter from the start of the run: each seed is one interleaving of the
   same writes. *)
let ocean16_write ctx =
  let ncells = 16 in
  let mcfg = Flash.Config.with_nodes Flash.Config.default ncells in
  let (eng, sys), boot_s = timed (fun () -> Bench.Harness.boot ~ncells ~mcfg ()) in
  let cfg = { Workloads.Ocean.default with Workloads.Ocean.workers = ncells } in
  let (), wsetup_s = timed (fun () -> Workloads.Ocean.setup sys cfg) in
  let tracer = attach ctx sys in
  Sim.Engine.set_jitter eng (Some (seeded ctx 0x0cea1L));
  let t0 = Sim.Engine.now eng in
  let (result, _), finish = measure eng (fun () -> Workloads.Ocean.run ~cfg sys) in
  let sim_ns = Int64.sub (Sim.Engine.now eng) t0 in
  let problems = ref (if result.Workloads.Workload.completed then [] else [ "ocean incomplete" ]) in
  let ((attempted, failed), known), verify_s =
    timed (fun () ->
        let known = check_invariants ~problems sys in
        (judge_outputs ~problems ~may_lose:[] (Workloads.Ocean.verify ~cfg sys), known))
  in
  let snap = Hive.Metrics.capture sys in
  finish ~boot_s ~wsetup_s ~verify_s
    ~sim:
      ((elapsed sim_ns :: failed_pct ~failed ~attempted)
      @ traffic_metrics ()
      @ recovery_metrics ~problems ~fault_ns:None snap
      @ [ known ])
    ~layers:(layer_metrics [ snap ]) ~tracer ~problems:!problems

(* serve16-kill: 16 cells, open-loop Poisson arrivals at 800 req/s, Zipf
   1.1, 10% fork/exit churn, 250 ms deadline, the last cell killed halfway
   through. 16 s of traffic gives the 10k reads a p99.9 needs. The arrival
   streams are fixed: at this rate, next to the shedding knee, the streams
   of different seeds range from 2% to 10% failed requests and their engine
   event counts from 640k to 940k, so a seed-drawn stream would measure
   which stream was drawn more than the code. As in ocean16-write, the seed
   drives the engine's tie-break jitter: each seed is one interleaving of
   the same traffic. *)
let serve_ms = 16_000

let serve_streams = 0x5e7e5L

let settle_ns = 300_000_000L

let serve16_kill ctx =
  let ncells = 16 in
  let mcfg = Flash.Config.with_nodes Flash.Config.default ncells in
  let (eng, sys), boot_s = timed (fun () -> Bench.Harness.boot ~ncells ~mcfg ()) in
  let (), wsetup_s =
    timed (fun () ->
        Workloads.Server.register_ops ();
        (* every cell publishes its clock before traffic starts *)
        Sim.Engine.run ~until:(Int64.add (Sim.Engine.now eng) 50_000_000L) eng)
  in
  let tracer = attach ctx sys in
  let cfg =
    { Workloads.Server.default with
      Workloads.Server.duration_ms = serve_ms; rate_rps = 800.; zipf_s = 1.1; churn_pct = 10;
      deadline_ms = 250;
      fault = Some { Workloads.Server.kill_cell = ncells - 1; at_ms = serve_ms / 2 };
      seed = Sim.Prng.int64 (Sim.Prng.of_int64 serve_streams) Int64.max_int }
  in
  Sim.Engine.set_jitter eng (Some (seeded ctx serve_streams));
  let t0 = Sim.Engine.now eng in
  let (result, st), finish = measure eng (fun () -> Workloads.Server.run ~cfg sys) in
  let sim_ns = Int64.sub (Sim.Engine.now eng) t0 in
  let open Workloads.Server in
  let problems =
    ref (if result.Workloads.Workload.completed then [] else [ sprintf "traffic incomplete (%d errors)" st.errors ])
  in
  let (known, snap), verify_s =
    timed (fun () ->
        (* quiesce: let the reapers' releases of the last requests land *)
        Sim.Engine.run ~until:(Int64.add (Sim.Engine.now eng) settle_ns) eng;
        (* Parked imports losing their home's export record under this
           traffic is a kernel defect found by this workload; it is
           counted until the sharing protocol is fixed. *)
        let known = check_invariants ~problems ~known:[ "import-cache" ] sys in
        (known, Hive.Metrics.capture sys))
  in
  (* Every read attempted: served and redirected reads at their latency
     from the scheduled arrival; fail-fast, deadline-exceeded and lost
     reads, and arrivals skipped on the dead cell, at the deadline. *)
  let ophists klass =
    List.filter_map (fun ph -> S.op_hist snap (klass ^ "|" ^ ph)) [ "before"; "during"; "after" ]
  in
  let served = ophists "server.read" @ ophists "server.read_redirected" in
  let failed_reads = st.fail_fast + st.deadline_exceeded + st.client_lost + st.skipped in
  let read_q q =
    let v, n =
      bucket_quantile ~extra_n:failed_reads ~extra_v:(float_of_int cfg.deadline_ms *. 1e6) served q
    in
    if supported ~n q then v /. 1e6 else 0.
  in
  let churn = ophists "server.churn" in
  let churn_n = hist_count churn in
  let attempted = st.arrivals + st.skipped in
  finish ~boot_s ~wsetup_s ~verify_s
    ~sim:
      ((elapsed sim_ns
       :: failed_pct ~failed:(failed_reads + st.churn_sent - st.churn_ok) ~attempted)
      @ traffic_metrics ~reads:(hist_count served + failed_reads) ~read_q ~churn:churn_n
          ~churn_p99:
            (if supported ~n:churn_n 0.99 then fst (bucket_quantile churn 0.99) /. 1e6 else 0.)
          ~shed:st.shed_legs ~redirected:st.reads_redirected ()
      @ recovery_metrics ~problems ~fault_ns:st.fault_at_ns snap
      @ [ known ])
    ~layers:(layer_metrics [ snap ]) ~tracer ~problems:!problems

(* fuzz-batch: a fixed batch of consecutive fuzz seeds starting at the
   workload seed, through [Campaign.run_parallel] on min(2, nproc)
   domains. Traced repetitions also have every campaign write its metrics
   snapshot, and the first few their Chrome trace, into the scratch
   directory, and read them back. *)
let fuzz_batch = 384

let fuzz_traced_campaigns = 4

let fuzz_jobs ctx = min 2 ctx.nproc

let fuzz_batch_run ctx =
  let seeds = Array.init fuzz_batch (fun i -> Int64.of_int (ctx.seed + i)) in
  (* deriving the plans takes well under a millisecond: derive them several
     times and keep the median time *)
  let tries = List.init 9 (fun _ -> timed (fun () -> Array.map Faultinj.Fuzz.plan_of_seed seeds)) in
  let plans = fst (List.hd tries) and wsetup_s = median (List.map snd tries) in
  let file kind i = Filename.concat ctx.tmp (sprintf "%s%d.json" kind i) in
  let results = ref [] in
  let g0 = Gc.quick_stat () and c0 = cpu_s () in
  let (), run_s =
    timed (fun () ->
        Faultinj.Campaign.run_parallel ~jobs:(fuzz_jobs ctx) ~seeds
          ~run:(fun s ->
            let i = Int64.to_int (Int64.sub s seeds.(0)) in
            let metrics_out = if ctx.traced then Some (file "m" i) else None in
            let trace_out = if ctx.traced && i < fuzz_traced_campaigns then Some (file "t" i) else None in
            let w0 = Gc.minor_words () in
            let r, host_s = timed (fun () -> Faultinj.Fuzz.run_plan ?metrics_out ?trace_out plans.(i)) in
            (r, host_s, Gc.minor_words () -. w0))
          ~on_record:(fun _ x -> results := x :: !results))
  in
  let cpu = cpu_s () -. c0 and g1 = Gc.quick_stat () in
  let results = List.rev !results in
  let records = List.map (fun (r, _, _) -> r) results in
  let sim_ns = List.fold_left (fun a r -> Int64.add a r.Faultinj.Fuzz.r_sim_ns) 0L records in
  let events = List.fold_left (fun a r -> a + r.Faultinj.Fuzz.r_events) 0 records in
  let failing = List.filter Faultinj.Fuzz.failed records in
  List.iter
    (fun r ->
      printf "# fuzz seed %Ld fails: %s\n" r.Faultinj.Fuzz.r_seed (String.concat "; " r.Faultinj.Fuzz.r_violations))
    failing;
  let (layers, tracer), verify_s =
    timed (fun () ->
        if not ctx.traced then ([], None)
        else begin
          let consume path f =
            let v = f path in
            Sys.remove path;
            v
          in
          let snap i =
            consume (file "m" i) (fun p ->
                match S.of_string (In_channel.with_open_bin p In_channel.input_all) with
                | Ok s -> s
                | Error e -> failwith (sprintf "%s: %s" p e))
          in
          let snaps = List.init fuzz_batch snap in
          let tr = tracer () in
          for i = 0 to fuzz_traced_campaigns - 1 do
            consume (file "t" i) (replay_chrome tr ~file_id:i)
          done;
          (layer_metrics snaps, Some tr)
        end)
  in
  { boot_s = 0.; wsetup_s; run_s; verify_s; sim_s = ns_to_s sim_ns; events;
    minor_words = List.fold_left (fun a (_, _, w) -> a +. w) 0. results;
    major_gcs = g1.Gc.major_collections - g0.Gc.major_collections; cpu_s = cpu;
    campaign_ms = List.map (fun (_, h, _) -> h *. 1e3) results; ref_s = 0.;
    sim =
      (elapsed sim_ns :: failed_pct ~failed:(List.length failing) ~attempted:fuzz_batch)
      @ traffic_metrics ()
      @ no_recovery ()
      @ [ count "invariants.known_violations" 0 ];
    fingerprint = String.concat "\n" (List.map Faultinj.Fuzz.record_to_json records);
    layers; tracer; problems = [] }

let workloads =
  [ ("pmake64-kill", pmake64_kill); ("ocean16-write", ocean16_write);
    ("serve16-kill", serve16_kill); ("fuzz-batch", fuzz_batch_run) ]

(* ---------- the run ---------- *)

(* Never used while the benchmark was tuned: keep it for checking claims. *)
let held_out_seed = 7919

let usage () =
  eprintf "usage: main.exe --workload {%s} --seed N --seconds S --trace 0|1 [--nproc N] [--tmp DIR]\n"
    (String.concat "|" (List.map fst workloads));
  exit 2

let print_metric x =
  let dir = match x.m.Sc.m_dir with Sc.Lower_better -> "lower" | Higher_better -> "higher" | Info -> "" in
  printf "%-34s %18.6f %-10s %s\n" (name x) x.m.Sc.m_value x.unit_ dir

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0. and trace = ref (-1) in
  let nproc = ref (Domain.recommended_domain_count ()) and tmp = ref "." in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "");
      ("--seed", Arg.Set_int seed, "");
      ("--seconds", Arg.Set_float seconds, "");
      ("--trace", Arg.Set_int trace, "");
      ("--nproc", Arg.Set_int nproc, "");
      ("--tmp", Arg.Set_string tmp, "") ]
    (fun _ -> usage ())
    "perfbench";
  let run =
    match List.assoc_opt !workload workloads with
    | Some f when !seed >= 0 && !seconds > 0. && (!trace = 0 || !trace = 1) && !nproc >= 1 -> f
    | _ -> usage ()
  in
  let tracing = !trace = 1 and fuzz = !workload = "fuzz-batch" in
  let ctx traced = { seed = !seed; traced; nproc = !nproc; tmp = !tmp } in
  let domains = if fuzz then fuzz_jobs (ctx false) else 1 in
  printf "# perfbench %s seed=%d seconds=%g trace=%d\n" !workload !seed !seconds !trace;
  printf "# host: nproc=%d domains=%d ocaml=%s\n" !nproc domains Sys.ocaml_version;
  printf "# held-out seed for claim checks: %d\n" held_out_seed;
  printf
    "# model: unvalidated at these shapes (the paper measured a 4-processor machine; \
     Table 7.2 error stays in the bench sections report)\n%!";
  (* Repeat while another repetition fits the budget: at least two
     untraced repetitions (the same-seed check) and, when tracing, traced
     ones interleaved. Each repetition is preceded by a reference run, which
     measures how fast the host is at that moment. *)
  ignore (Reference.run ());
  let t_end = wall () +. !seconds in
  let rec loop acc k =
    let t0 = wall () in
    let traced = tracing && k mod 2 = 1 in
    (* every run starts from a collected heap, outside the timers *)
    Gc.full_major ();
    let _, ref_s = timed Reference.run in
    Gc.full_major ();
    let it = { (run (ctx traced)) with ref_s } in
    printf "# repetition %d%s: setup %.4f s, run %.4f s, verify %.4f s, reference %.4f s\n" k
      (if traced then " (traced)" else "") (it.boot_s +. it.wsetup_s) it.run_s it.verify_s ref_s;
    List.iter (printf "# FAIL %s\n%!") it.problems;
    let acc = (traced, it) :: acc in
    let nt = List.length (List.filter fst acc) in
    if wall () +. (wall () -. t0) < t_end || List.length acc - nt < 2 || (tracing && nt = 0) then
      loop acc (k + 1)
    else List.rev acc
  in
  let iters = loop [] 0 in
  let all = List.map snd iters in
  let untraced = List.filter_map (fun (t, it) -> if t then None else Some it) iters in
  let traced = List.filter_map (fun (t, it) -> if t then Some it else None) iters in
  (* Self-check: the simulated output repeats byte for byte across every
     repetition of this seed, traced or not. *)
  let same key its =
    match List.filter_map key its with [] -> true | k :: rest -> List.for_all (String.equal k) rest
  in
  let deterministic =
    same (fun it -> Some (render it.sim ^ it.fingerprint)) all
    && same (fun it -> if it.layers = [] then None else Some (render it.layers)) all
    && same (fun it -> Option.map (fun tr -> render (span_metrics tr)) it.tracer) all
  in
  if not deterministic then printf "# FAIL simulated metrics differ between repetitions of one seed\n";
  let failed = List.length (List.filter (fun it -> it.problems <> []) all) in
  let med f its = median (List.map f its) in
  (* A shared host runs the same work at different speeds from one minute
     to the next. Work done on one domain is therefore scaled by the host's
     speed over the same repetitions, as the reference run measured it: a
     phase x times slower lengthens both sums x-fold. It reads in seconds
     on a host that runs the reference in [Reference.nominal_s]. Fuzz
     campaigns spread over the domains as each one frees up, which a
     one-domain reference does not track, so there interference is
     filtered by taking the fastest repetition. *)
  let scaled f its =
    let sum g = List.fold_left (fun a it -> a +. g it) 0. its in
    sum f /. sum (fun it -> it.ref_s) *. Reference.nominal_s
  in
  let host_time f its =
    if domains = 1 then scaled f its else List.fold_left (fun a it -> Float.min a (f it)) infinity its
  in
  let first = List.hd all in
  let end_to_end =
    [ metric ~dir:Sc.Lower_better "setup_s" "s" (scaled (fun it -> it.boot_s +. it.wsetup_s) all);
      metric ~dir:Sc.Lower_better "host_s" "s" (host_time (fun it -> it.run_s) untraced);
      metric ~dir:Sc.Higher_better "campaigns_per_s" "1/s"
        (float_of_int (max 1 (List.length first.campaign_ms))
        /. host_time (fun it -> it.boot_s +. it.wsetup_s +. it.run_s) untraced) ]
  in
  let campaign_ms = List.sort compare (List.concat_map (fun it -> it.campaign_ms) untraced) in
  let campaign_q q =
    let n = List.length campaign_ms in
    if supported ~n q then List.nth campaign_ms (int_of_float (q *. float_of_int n)) else 0.
  in
  let tr = List.find_map (fun it -> it.tracer) traced in
  let per_layer =
    [ metric ~dir:Sc.Lower_better "peak_rss_mb" "MB" (peak_rss_mb ());
      metric ~dir:Sc.Higher_better "sim_s_per_host_s" "sim_s/s" (med (fun it -> it.sim_s /. it.run_s) untraced);
      metric "sim.host_ns_per_event" "ns" (med (fun it -> it.run_s *. 1e9 /. float_of_int (max 1 it.events)) untraced);
      metric "gc.minor_words_per_event" "words"
        (med (fun it -> it.minor_words /. float_of_int (max 1 it.events)) untraced);
      metric "gc.major_collections" "count" (med (fun it -> float_of_int it.major_gcs) untraced);
      metric "host.boot_s" "s" (med (fun it -> it.boot_s) all);
      metric "host.workload_setup_s" "s" (med (fun it -> it.wsetup_s) all);
      metric "host.verify_s" "s" (med (fun it -> it.verify_s) untraced);
      metric "host.reference_s" "s" (med (fun it -> it.ref_s) all);
      count "host.domains" domains;
      count "fuzz.campaigns" (List.length campaign_ms);
      metric "fuzz.campaign_host_ms_p50" "ms" (campaign_q 0.5);
      metric "fuzz.campaign_host_ms_p90" "ms" (campaign_q 0.9);
      metric "fuzz.cpu_over_wall" "ratio" (if fuzz then med (fun it -> it.cpu_s /. it.run_s) untraced else 0.);
      metric "trace.overhead_pct" "%"
        (if traced = [] then 0.
         else 100. *. ((med (fun it -> it.run_s) traced /. med (fun it -> it.run_s) untraced) -. 1.));
      count "sim.events" (List.hd untraced).events ]
    @ first.sim
    @ (match List.find_opt (fun it -> it.layers <> []) all with Some it -> it.layers | None -> [])
    @ (match tr with Some t -> span_metrics t | None -> [])
  in
  printf "# repetitions: %d untraced, %d traced, %d failed\n" (List.length untraced) (List.length traced) failed;
  List.iter print_metric end_to_end;
  if tracing then begin
    List.iter print_metric per_layer;
    Option.iter print_top_spans tr
  end;
  let reported = if tracing then per_layer else end_to_end in
  let finite = List.for_all (fun x -> Float.is_finite x.m.Sc.m_value) reported in
  if not finite then printf "# FAIL a reported metric is not finite\n";
  let correct = failed = 0 && deterministic && finite in
  printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct (List.length all)
    (if correct then 0 else max 1 failed)
    (String.concat ", "
       (List.map
          (fun x ->
            sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" (name x)
              (if Float.is_finite x.m.Sc.m_value then x.m.Sc.m_value else 0.)
              x.unit_)
          reported));
  exit (if correct then 0 else 1)
