(* Observability subsystem tests: event bus spans, ring sink, metrics
   JSON shape, and the recovery phase timeline. *)

let recovery_phases =
  [
    "recovery.hint"; "recovery.agreement"; "recovery.barrier1";
    "recovery.discard"; "recovery.barrier2"; "recovery.resume";
  ]

(* ---------- Event bus and spans ---------- *)

let test_span_nesting () =
  let eng = Sim.Engine.create () in
  let bus = Sim.Event.create eng in
  let r = Sim.Event.ring ~capacity:64 in
  Sim.Event.attach bus (Sim.Event.ring_sink r);
  ignore
    (Sim.Engine.spawn eng ~name:"worker" (fun () ->
         Sim.Event.span bus ~cat:Sim.Event.Workload "outer" (fun () ->
             Sim.Engine.delay 1_000L;
             Sim.Event.span bus ~cat:Sim.Event.Workload "inner" (fun () ->
                 Sim.Engine.delay 2_000L);
             Sim.Engine.delay 3_000L)));
  Sim.Engine.run eng;
  let evs = Sim.Event.ring_contents r in
  let shape =
    List.map
      (fun (e : Sim.Event.t) ->
        ( e.Sim.Event.name,
          (match e.Sim.Event.phase with
          | Sim.Event.Begin -> "B"
          | Sim.Event.End -> "E"
          | Sim.Event.Instant -> "i"
          | Sim.Event.Counter -> "C"),
          e.Sim.Event.ts ))
      evs
  in
  match shape with
  | [ ("outer", "B", t0); ("inner", "B", t1); ("inner", "E", t2);
      ("outer", "E", t3) ] ->
    Alcotest.(check int64) "inner starts after outer" 1_000L
      (Int64.sub t1 t0);
    Alcotest.(check int64) "inner span duration" 2_000L (Int64.sub t2 t1);
    Alcotest.(check int64) "outer span duration" 6_000L (Int64.sub t3 t0)
  | _ ->
    Alcotest.failf "unexpected event sequence: %s"
      (String.concat "; "
         (List.map (fun (n, p, _) -> n ^ "/" ^ p) shape))

let test_span_closes_on_exception () =
  let eng = Sim.Engine.create () in
  let bus = Sim.Event.create eng in
  let r = Sim.Event.ring ~capacity:8 in
  Sim.Event.attach bus (Sim.Event.ring_sink r);
  ignore
    (Sim.Engine.spawn eng (fun () ->
         try
           Sim.Event.span bus ~cat:(Sim.Event.Custom "test") "boom" (fun () ->
               failwith "inside span")
         with Failure _ -> ()));
  Sim.Engine.run eng;
  let phases =
    List.map (fun (e : Sim.Event.t) -> e.Sim.Event.phase)
      (Sim.Event.ring_contents r)
  in
  Alcotest.(check bool) "Begin and End both emitted" true
    (phases = [ Sim.Event.Begin; Sim.Event.End ])

let test_ring_overwrites_oldest () =
  let eng = Sim.Engine.create () in
  let bus = Sim.Event.create eng in
  let r = Sim.Event.ring ~capacity:4 in
  Sim.Event.attach bus (Sim.Event.ring_sink r);
  for i = 1 to 10 do
    Sim.Event.instant bus ~cat:(Sim.Event.Custom "test") (string_of_int i)
  done;
  Alcotest.(check int) "total counts every event" 10 (Sim.Event.ring_total r);
  Alcotest.(check (list string)) "ring keeps the newest"
    [ "7"; "8"; "9"; "10" ]
    (List.map (fun (e : Sim.Event.t) -> e.Sim.Event.name)
       (Sim.Event.ring_contents r))

let test_no_sink_is_free () =
  let eng = Sim.Engine.create () in
  let bus = Sim.Event.create eng in
  Alcotest.(check bool) "disabled without sinks" false
    (Sim.Event.enabled bus);
  (* Must not raise, and spans still return their value. *)
  let v = Sim.Event.span bus ~cat:Sim.Event.Rpc "noop" (fun () -> 41 + 1) in
  Alcotest.(check int) "span returns body value" 42 v

(* ---------- Histograms ---------- *)

let test_histogram_percentiles () =
  let h = Sim.Stats.histogram () in
  (* 1..1000 us, exact percentiles from the reservoir (n < capacity). *)
  for i = 1 to 1000 do
    Sim.Stats.hist_add h (Int64.of_int (i * 1000))
  done;
  Alcotest.(check int) "count" 1000 (Sim.Stats.hist_count h);
  let p50 = Sim.Stats.hist_percentile h 50. in
  let p99 = Sim.Stats.hist_percentile h 99. in
  Alcotest.(check bool) "p50 near median" true
    (p50 >= 490_000. && p50 <= 510_000.);
  Alcotest.(check bool) "p99 near tail" true
    (p99 >= 980_000. && p99 <= 1_000_000.);
  Alcotest.(check bool) "buckets cover all samples" true
    (List.fold_left (fun acc (_, _, n) -> acc + n) 0
       (Sim.Stats.hist_nonempty h)
    = 1000)

let test_reservoir_bounded () =
  let h = Sim.Stats.histogram () in
  for _ = 1 to 100_000 do
    Sim.Stats.hist_add h 5_000L
  done;
  Alcotest.(check int) "count tracks all adds" 100_000
    (Sim.Stats.hist_count h);
  Alcotest.(check (float 1.)) "constant series percentile" 5_000.
    (Sim.Stats.hist_percentile h 95.)

(* ---------- Metrics JSON shape ---------- *)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let boot_sys ?(ncells = 4) () =
  let eng = Sim.Engine.create () in
  let mcfg =
    { Flash.Config.small with Flash.Config.nodes = ncells; mem_pages_per_node = 512 }
  in
  let sys = Hive.System.boot ~mcfg ~ncells ~wax:false eng in
  (eng, sys)

let test_metrics_json_shape () =
  let eng, sys = boot_sys () in
  (* Drive one real RPC so the per-op histograms are non-empty. *)
  ignore
    (Sim.Engine.spawn eng ~owner:0 (fun () ->
         ignore
           (Hive.Rpc.call sys ~target:1
              ~op:Hive.Agreement.ping_op Hive.Types.P_unit)));
  Sim.Engine.run ~until:(Int64.add (Sim.Engine.now eng) 1_000_000_000L) eng;
  let json = Hive.Metrics.Snapshot.to_string (Hive.Metrics.capture sys) in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("metrics JSON has " ^ needle) true
        (contains ~needle json))
    [
      "\"sim_time_ns\""; "\"rpc\""; "\"client\""; "\"server\"";
      "\"agree.ping\""; "\"count\":1"; "\"p50_ns\""; "\"p95_ns\"";
      "\"p99_ns\""; "\"buckets\""; "\"cells\""; "\"id\":3";
      "\"status\":\"up\""; "\"live_set\""; "\"counters\"";
      "\"system_counters\""; "\"recovery_timeline\"";
    ]

(* ---------- Recovery timeline ---------- *)

let await_recovery sys =
  Hive.System.run_until sys
    ~deadline:(Int64.add (Sim.Engine.now sys.Hive.Types.eng) 3_000_000_000L)
    (fun () ->
      (not (Hive.Types.recovery_in_progress sys))
      && sys.Hive.Types.recovery_events <> [])

(* [phases] must appear in [timeline] in order (other entries may be
   interleaved), with non-decreasing timestamps. *)
let assert_ordered_subsequence timeline phases =
  let rec go entries expect last_ts =
    match expect with
    | [] -> ()
    | phase :: rest -> (
      match entries with
      | [] -> Alcotest.failf "phase %s missing from timeline" phase
      | (p, ts) :: tl when p = phase ->
        Alcotest.(check bool)
          (Printf.sprintf "%s not before its predecessor" phase)
          true
          (Int64.compare ts last_ts >= 0);
        go tl rest ts
      | _ :: tl -> go tl expect last_ts)
  in
  go timeline phases 0L

let test_recovery_timeline_phases () =
  let eng, sys = boot_sys () in
  let r = Sim.Event.ring ~capacity:4096 in
  Sim.Event.attach sys.Hive.Types.events (Sim.Event.ring_sink r);
  Sim.Engine.run ~until:(Int64.add (Sim.Engine.now eng) 50_000_000L) eng;
  Hive.System.inject_node_failure sys 2;
  Alcotest.(check bool) "recovery completed" true (await_recovery sys);
  (* The structured timeline records all six phases in order. *)
  assert_ordered_subsequence sys.Hive.Types.recovery_timeline recovery_phases;
  (* And the same six phases reached the event bus as Recovery instants. *)
  let recovery_events =
    List.filter_map
      (fun (e : Sim.Event.t) ->
        if e.Sim.Event.cat = Sim.Event.Recovery then
          Some (e.Sim.Event.name, e.Sim.Event.ts)
        else None)
      (Sim.Event.ring_contents r)
  in
  assert_ordered_subsequence recovery_events recovery_phases

let suite =
  [
    Alcotest.test_case "span nesting and timestamps" `Quick test_span_nesting;
    Alcotest.test_case "span closes on exception" `Quick
      test_span_closes_on_exception;
    Alcotest.test_case "ring keeps newest events" `Quick
      test_ring_overwrites_oldest;
    Alcotest.test_case "no sink means no overhead, same results" `Quick
      test_no_sink_is_free;
    Alcotest.test_case "histogram percentiles" `Quick
      test_histogram_percentiles;
    Alcotest.test_case "reservoir stays bounded" `Quick test_reservoir_bounded;
    Alcotest.test_case "metrics JSON shape" `Quick test_metrics_json_shape;
    Alcotest.test_case "recovery timeline has six ordered phases" `Quick
      test_recovery_timeline_phases;
  ]
