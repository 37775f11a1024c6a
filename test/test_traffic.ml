(* Traffic-serving tests: the Zipf sampler behind the server workload,
   end-to-end RPC deadline budgets, dequeue-time expiry of orphaned
   requests, sheddable-op admission control, per-phase op latency
   export, fuzz-plan append-only compatibility, and the server workload
   itself (determinism and serving through a cell kill). *)

let contains hay needle =
  let n = String.length hay and m = String.length needle in
  let rec go i = i + m <= n && (String.sub hay i m = needle || go (i + 1)) in
  go 0

(* ---- sampler properties ---- *)

let test_zipf_skew_and_determinism () =
  let n = 50 in
  let dist = Sim.Prng.zipf ~n ~s:1.1 in
  let draws rng = Array.init 5000 (fun _ -> Sim.Prng.zipf_draw rng dist) in
  let a = draws (Sim.Prng.create 11) in
  let b = draws (Sim.Prng.create 11) in
  Alcotest.(check bool) "equal seeds, identical sequences" true (a = b);
  let counts = Array.make n 0 in
  Array.iter
    (fun r ->
      Alcotest.(check bool) "rank in range" true (r >= 0 && r < n);
      counts.(r) <- counts.(r) + 1)
    a;
  Alcotest.(check bool) "rank 0 is the most popular" true
    (Array.for_all (fun c -> counts.(0) >= c) counts);
  Alcotest.(check bool) "head rank dominates the tail rank" true
    (counts.(0) > 10 * (counts.(n - 1) + 1))

(* ---- RPC deadline budget across retransmissions ---- *)

let echo_op = Hive.Rpc.Op.declare "traffic.echo"
let slow_op = Hive.Rpc.Op.declare "traffic.slow"
let shed_op = Hive.Rpc.Op.declare ~sheddable:true "traffic.shed"
let solid_op = Hive.Rpc.Op.declare "traffic.solid"

let () =
  Hive.Rpc.serve echo_op (fun _sys _cell ~src:_ arg ->
      Hive.Types.Immediate (Ok arg))

let () =
  Hive.Rpc.serve slow_op (fun _sys _cell ~src:_ _arg ->
      Hive.Types.Queued
        (fun () ->
          Sim.Engine.delay 100_000_000L;
          Ok Hive.Types.P_unit))

let () =
  Hive.Rpc.serve shed_op (fun _sys _cell ~src:_ arg ->
      Hive.Types.Queued (fun () -> Ok arg))

let () =
  Hive.Rpc.serve solid_op (fun _sys _cell ~src:_ arg ->
      Hive.Types.Queued (fun () -> Ok arg))

let with_sys ?params f =
  let eng = Sim.Engine.create () in
  let mcfg =
    { Flash.Config.small with Flash.Config.nodes = 2; mem_pages_per_node = 256 }
  in
  let sys = Hive.System.boot ~mcfg ?params ~ncells:2 ~wax:false eng in
  f eng sys

let call_from_thread eng sys ~op ?timeout_ns ?deadline_ns arg =
  let out = ref (Error Hive.Types.EFAULT) in
  let dur = ref 0L in
  ignore
    (Sim.Engine.spawn eng ~name:"caller" ~owner:0 (fun () ->
         let t0 = Sim.Engine.time () in
         out :=
           Hive.Rpc.call sys ~target:1 ~op
             ?timeout_ns ?deadline_ns arg;
         dur := Int64.sub (Sim.Engine.time ()) t0));
  Sim.Engine.run ~until:(Int64.add (Sim.Engine.now eng) 30_000_000_000L) eng;
  (!out, !dur)

let black_hole sys =
  sys.Hive.Types.on_hint <- None;
  let sips = Flash.Machine.sips sys.Hive.Types.machine in
  Flash.Sips.degrade sips ~rng:(Sim.Prng.create 7)
    {
      Flash.Sips.deg_from = -1;
      deg_to = 1;
      from_ns = 0L;
      until_ns = 60_000_000_000L;
      drop_pct = 100;
      dup_pct = 0;
      delay_pct = 0;
      max_delay_ns = 0L;
    }

(* The end-to-end budget spans every retransmission and backoff sleep: a
   call into a black hole stops at the deadline with ETIMEDOUT instead of
   burning the whole per-attempt retry schedule to EHOSTDOWN. *)
let test_deadline_caps_total_time () =
  let timed_out_dur =
    with_sys (fun eng sys ->
        black_hole sys;
        let deadline = Int64.add (Sim.Engine.now eng) 120_000_000L in
        match
          call_from_thread eng sys ~op:echo_op ~timeout_ns:50_000_000L
            ~deadline_ns:deadline Hive.Types.P_unit
        with
        | Error Hive.Types.ETIMEDOUT, dur -> dur
        | Ok _, _ -> Alcotest.fail "black-hole call cannot succeed"
        | Error _, _ -> Alcotest.fail "expected ETIMEDOUT under a deadline")
  in
  Alcotest.(check bool)
    (Printf.sprintf "gave up within budget + one attempt (%.1f ms)"
       (Int64.to_float timed_out_dur /. 1e6))
    true
    (Int64.compare timed_out_dur 180_000_000L <= 0);
  let full_schedule_dur =
    with_sys (fun eng sys ->
        black_hole sys;
        match
          call_from_thread eng sys ~op:echo_op ~timeout_ns:50_000_000L
            Hive.Types.P_unit
        with
        | Error Hive.Types.EHOSTDOWN, dur -> dur
        | _ -> Alcotest.fail "expected EHOSTDOWN after retries exhausted")
  in
  (* 4 attempts x 50 ms + 20/40/80 ms backoff: the unbudgeted call takes
     the full schedule, well past where the deadline cut its sibling off. *)
  Alcotest.(check bool) "no deadline means the full retry schedule" true
    (Int64.compare full_schedule_dur 300_000_000L >= 0)

(* Dequeue-time expiry: a request that outlives its deadline while queued
   behind a slow op is dropped by the server pool (rpc.expired) instead of
   being served to a client that provably gave up. *)
let test_expired_request_dropped_at_dequeue () =
  with_sys
    ~params:{ Hive.Params.default with Hive.Params.rpc_server_pool = 1 }
    (fun eng sys ->
      sys.Hive.Types.on_hint <- None;
      ignore
        (Sim.Engine.spawn eng ~name:"occupier" ~owner:0 (fun () ->
             ignore
               (Hive.Rpc.call sys ~target:1
                  ~op:slow_op Hive.Types.P_unit)));
      let late = ref (Error Hive.Types.EFAULT) in
      ignore
        (Sim.Engine.spawn eng ~name:"late-caller" ~owner:0 (fun () ->
             Sim.Engine.delay 5_000_000L;
             let deadline =
               Int64.add (Sim.Engine.time ()) 30_000_000L
             in
             late :=
               Hive.Rpc.call sys ~target:1
                 ~op:solid_op ~deadline_ns:deadline Hive.Types.P_unit));
      Sim.Engine.run ~until:(Int64.add (Sim.Engine.now eng) 5_000_000_000L) eng;
      (match !late with
      | Error Hive.Types.ETIMEDOUT -> ()
      | _ -> Alcotest.fail "late caller must time out on its deadline");
      Alcotest.(check bool) "server dropped the orphaned request" true
        (Sim.Stats.value sys.Hive.Types.cells.(1).Hive.Types.counters
           "rpc.expired"
        >= 1))

(* Admission control: with the queue bound at zero every sheddable request
   is refused with EBUSY at enqueue time; kernel ops are never shed. *)
let test_sheddable_refused_when_saturated () =
  with_sys
    ~params:{ Hive.Params.default with Hive.Params.rpc_queue_bound = 0 }
    (fun eng sys ->
      (match call_from_thread eng sys ~op:shed_op Hive.Types.P_unit with
      | Error Hive.Types.EBUSY, _ -> ()
      | _ -> Alcotest.fail "sheddable op must be refused at bound 0");
      Alcotest.(check bool) "rpc.shed counted" true
        (Sim.Stats.value sys.Hive.Types.cells.(1).Hive.Types.counters
           "rpc.shed"
        >= 1);
      match call_from_thread eng sys ~op:solid_op Hive.Types.P_unit with
      | Ok _, _ -> ()
      | _ -> Alcotest.fail "non-sheddable op must still be served")

(* ---- server workload ---- *)

let server_sys () =
  let eng = Sim.Engine.create () in
  let mcfg =
    { Flash.Config.small with Flash.Config.nodes = 2; mem_pages_per_node = 512 }
  in
  let sys = Hive.System.boot ~mcfg ~ncells:2 ~wax:false eng in
  sys

let short_cfg =
  {
    Workloads.Server.default with
    Workloads.Server.duration_ms = 400;
    rate_rps = 60.;
    seed = 0xBEEFL;
  }

(* The redirect order as first written: a polymorphic dedup of
   [primary :: home :: 0 .. ncells - 1]. *)
let targets_reference ncells home alt =
  let primary = (home + alt) mod ncells in
  let order = primary :: home :: List.init ncells (fun i -> i) in
  let rec dedup seen = function
    | [] -> []
    | t :: rest ->
      if List.mem t seen then dedup seen rest else t :: dedup (t :: seen) rest
  in
  dedup [] order

let test_targets_match_reference () =
  for ncells = 1 to 64 do
    for home = 0 to ncells - 1 do
      for alt = 0 to ncells - 1 do
        if
          Workloads.Server.targets ncells home alt
          <> targets_reference ncells home alt
        then
          Alcotest.failf "targets %d %d %d differs from the reference" ncells
            home alt
      done
    done
  done

(* Words allocated straight into the major heap (not promoted). *)
let direct_major_words () =
  let s = Gc.quick_stat () in
  s.Gc.major_words -. s.Gc.promoted_words

(* A served read drops its data, so it must not allocate a page-sized
   buffer per request: a 2-page buffer is 1,025 words, all of it in the
   major heap. *)
let test_read_handler_keeps_no_buffer () =
  let sys = server_sys () in
  let c = sys.Hive.Types.cells.(0) in
  let rec probe i =
    let p = Printf.sprintf "/srv/alloc%d" i in
    if Hive.Fs.home_of_path sys p = 0 then p else probe (i + 1)
  in
  let path = probe 0 in
  ignore
    (Hive.Fs.create_local sys c ~path
       ~content:(Bytes.make (4 * Flash.Config.page_size) 'r'));
  let serve () =
    match
      Workloads.Server.read_handler sys c ~src:0
        (Workloads.Server.P_srv_read { path })
    with
    | Hive.Types.Queued f -> (
      match f () with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "served read failed")
    | Hive.Types.Immediate _ -> Alcotest.fail "read was not queued"
  in
  let reads = 200 in
  let per_read = ref nan in
  let eng = sys.Hive.Types.eng in
  let thr =
    Sim.Engine.spawn eng ~name:"reads" ~owner:0 (fun () ->
        (* The warm-up also covers a one-time 29 k-word allocation the
           system makes near 100 ms of simulated time. *)
        for _ = 1 to reads do
          serve ()
        done;
        let before = direct_major_words () in
        for _ = 1 to reads do
          serve ()
        done;
        per_read := (direct_major_words () -. before) /. float_of_int reads)
  in
  Sim.Engine.run ~until:(Int64.add (Sim.Engine.now eng) 60_000_000_000L) eng;
  Alcotest.(check bool) "reader finished" true thr.Sim.Engine.dead;
  Alcotest.(check bool)
    (Printf.sprintf "%.0f direct major words per read < 256" !per_read)
    true (!per_read < 256.)

let test_server_workload_deterministic () =
  let run () =
    let sys = server_sys () in
    Workloads.Server.run ~cfg:short_cfg sys
  in
  let r1, s1 = run () in
  let r2, s2 = run () in
  Alcotest.(check bool) "completed" true r1.Workloads.Workload.completed;
  Alcotest.(check bool) "identical stats across runs" true (s1 = s2);
  Alcotest.(check bool) "identical elapsed time" true
    (r1.Workloads.Workload.elapsed_ns = r2.Workloads.Workload.elapsed_ns);
  Alcotest.(check bool) "traffic actually flowed" true
    (s1.Workloads.Server.arrivals > 0 && s1.Workloads.Server.reads_served > 0)

let test_server_through_cell_kill () =
  let cfg =
    {
      short_cfg with
      Workloads.Server.duration_ms = 800;
      fault = Some { Workloads.Server.kill_cell = 1; at_ms = 300 };
    }
  in
  let sys = server_sys () in
  let result, stats = Workloads.Server.run ~cfg sys in
  Alcotest.(check bool) "completed through the kill" true
    result.Workloads.Workload.completed;
  (match stats.Workloads.Server.recovered_at_ns with
  | Some _ -> ()
  | None -> Alcotest.fail "victim cell must reintegrate before the end");
  let budget_ns =
    Int64.of_int (cfg.Workloads.Server.deadline_ms * 1_000_000)
  in
  Alcotest.(check bool)
    (Printf.sprintf "fail-fast within deadline budget (max %.1f ms)"
       (Int64.to_float stats.Workloads.Server.fail_fast_max_ns /. 1e6))
    true
    (Int64.compare stats.Workloads.Server.fail_fast_max_ns
       (Int64.add budget_ns 50_000_000L)
    <= 0);
  Alcotest.(check int) "no unexpected client errors" 0
    stats.Workloads.Server.errors

(* At rate 0 the arrival gap is infinite: the run must refuse the config
   up front instead of never finishing. *)
let test_server_rejects_zero_rate () =
  let sys = server_sys () in
  match
    Workloads.Server.run
      ~cfg:{ short_cfg with Workloads.Server.rate_rps = 0. }
      sys
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument for rate_rps = 0"

(* Per-phase end-to-end op latency lands in the snapshot, p99.9 included,
   and survives a JSON round trip losslessly. *)
let test_metrics_ops_roundtrip () =
  let sys = server_sys () in
  let _ = Workloads.Server.run ~cfg:short_cfg sys in
  let snap = Hive.Metrics.capture sys in
  (match Hive.Metrics.Snapshot.op_hist snap "server.read|before" with
  | Some h ->
    Alcotest.(check bool) "read latency recorded" true (h.count > 0);
    Alcotest.(check bool) "p999 at or above p99" true
      (h.Hive.Metrics.Snapshot.p999_ns >= h.Hive.Metrics.Snapshot.p99_ns)
  | None -> Alcotest.fail "server.read|before histogram missing");
  match Hive.Metrics.Snapshot.(of_string (to_string snap)) with
  | Ok snap' ->
    Alcotest.(check bool) "snapshot round-trips losslessly" true
      (snap = snap')
  | Error e -> Alcotest.fail ("snapshot did not parse back: " ^ e)

(* ---- fuzz-plan compatibility ---- *)

(* Plan strings captured before the traffic dimension existed. Seeds that
   do not draw traffic must derive byte-identical plans forever (replay
   compatibility); seeds that do draw it may only append to the string. *)
let frozen_plans =
  [
    ( 1L,
      "seed=0x1 cells=2x1 mem=1024 wl=ocean jitter=off faults=[corrupt \
       address map on cell 1 @ 454ms]" );
    ( 2L,
      "seed=0x2 cells=2x2 mem=2048 wl=pmake jitter=on faults=[degrade link \
       *->2 for 87 ms (drop 20% dup 17% delay 44%) @ 457ms; node 3 \
       fail-stop @ 480ms]" );
    ( 5L,
      "seed=0x5 cells=4x1 mem=1024 wl=pmake jitter=on faults=[node 1 CPU \
       dead, memory alive @ 82ms; degrade link *->3 for 313 ms (drop 23% \
       dup 32% delay 3%) @ 533ms; node 2 fail-stop @ 1025ms; node 3 \
       fail-stop @ 1038ms]" );
    ( 28L,
      "seed=0x1c cells=4x1 mem=2048 wl=pmake jitter=on faults=[degrade \
       link 3->2 for 122 ms (drop 21% dup 1% delay 15%) @ 1130ms]" );
  ]

let frozen_traffic_prefixes =
  [
    ( 3L,
      "seed=0x3 cells=2x1 mem=2048 wl=pmake jitter=off faults=[corrupt \
       address map on cell 1 @ 472ms]" );
    ( 38L,
      "seed=0x26 cells=4x2 mem=2048 wl=raytrace jitter=off \
       faults=[partition cell 1 for 208 ms (inbound only) @ 74ms; corrupt \
       address map on cell 3 @ 584ms]" );
    ( 47L,
      "seed=0x2f cells=2x1 mem=2048 wl=ocean jitter=on faults=[degrade \
       link *->1 for 87 ms (drop 20% dup 4% delay 30%) @ 856ms; node 1 \
       CPU dead, memory alive @ 877ms]" );
  ]

let test_traffic_free_plans_unchanged () =
  List.iter
    (fun (seed, expected) ->
      let p = Faultinj.Fuzz.plan_of_seed seed in
      Alcotest.(check string)
        (Printf.sprintf "seed %Ld byte-identical" seed)
        expected
        (Faultinj.Fuzz.describe_plan p))
    frozen_plans

let test_traffic_plans_append_only () =
  List.iter
    (fun (seed, prefix) ->
      let p = Faultinj.Fuzz.plan_of_seed seed in
      let s = Faultinj.Fuzz.describe_plan p in
      Alcotest.(check bool)
        (Printf.sprintf "seed %Ld keeps its pre-traffic prefix" seed)
        true
        (String.length s > String.length prefix
        && String.sub s 0 (String.length prefix) = prefix);
      Alcotest.(check bool)
        (Printf.sprintf "seed %Ld gained a traffic clause" seed)
        true
        (contains s " traffic=[rate="))
    frozen_traffic_prefixes

let suite =
  [
    Alcotest.test_case "zipf sampler: skew and determinism" `Quick
      test_zipf_skew_and_determinism;
    Alcotest.test_case "deadline caps total time across retries" `Quick
      test_deadline_caps_total_time;
    Alcotest.test_case "expired queued request dropped at dequeue" `Quick
      test_expired_request_dropped_at_dequeue;
    Alcotest.test_case "sheddable op refused when saturated" `Quick
      test_sheddable_refused_when_saturated;
    Alcotest.test_case "redirect order matches the reference" `Quick
      test_targets_match_reference;
    Alcotest.test_case "served read allocates no buffer" `Quick
      test_read_handler_keeps_no_buffer;
    Alcotest.test_case "server workload is deterministic" `Slow
      test_server_workload_deterministic;
    Alcotest.test_case "server traffic rides out a cell kill" `Slow
      test_server_through_cell_kill;
    Alcotest.test_case "server run rejects a zero rate" `Quick
      test_server_rejects_zero_rate;
    Alcotest.test_case "per-phase op latency round-trips with p999" `Slow
      test_metrics_ops_roundtrip;
    Alcotest.test_case "traffic-free fuzz plans byte-identical" `Quick
      test_traffic_free_plans_unchanged;
    Alcotest.test_case "traffic fuzz plans are append-only" `Quick
      test_traffic_plans_append_only;
  ]
