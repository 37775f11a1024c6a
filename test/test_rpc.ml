(* RPC subsystem tests: dispatch, queued service, error paths, costs. *)

(* Op descriptors are declared and served once per process, at module
   initialization. *)
let echo_op = Hive.Rpc.Op.declare "test.echo"

let queued_echo_op = Hive.Rpc.Op.declare "test.queued_echo"

let fail_op = Hive.Rpc.Op.declare "test.fail"

let raise_op = Hive.Rpc.Op.declare "test.raise"

let slow_op = Hive.Rpc.Op.declare "test.slow"

let nonexistent_op = Hive.Rpc.Op.declare "test.nonexistent"

let slow99_op = Hive.Rpc.Op.declare "test.slow99"

let () =
  Hive.Rpc.serve echo_op (fun _sys _cell ~src:_ arg ->
      Hive.Types.Immediate (Ok arg))

let () =
  Hive.Rpc.serve queued_echo_op (fun _sys _cell ~src:_ arg ->
      Hive.Types.Queued (fun () -> Ok arg))

let () =
  Hive.Rpc.serve fail_op (fun _sys _cell ~src:_ _arg ->
      Hive.Types.Immediate (Error Hive.Types.EAGAIN))

let () =
  Hive.Rpc.serve raise_op (fun _sys _cell ~src:_ _arg ->
      raise (Hive.Types.Syscall_error Hive.Types.EFAULT))

let () =
  Hive.Rpc.serve slow_op (fun sys _cell ~src:_ _arg ->
      Hive.Types.Queued
        (fun () ->
          ignore sys;
          Sim.Engine.delay 50_000_000L;
          Ok Hive.Types.P_unit))

let () =
  Hive.Rpc.serve slow99_op (fun _sys _cell ~src:_ _arg ->
      Hive.Types.Queued
        (fun () ->
          Sim.Engine.delay 1_200_000_000L;
          Ok (Hive.Types.P_int 99)))

let with_sys f =
  let eng = Sim.Engine.create () in
  let mcfg =
    { Flash.Config.small with Flash.Config.nodes = 2; mem_pages_per_node = 256 }
  in
  let sys = Hive.System.boot ~mcfg ~ncells:2 ~wax:false eng in
  f eng sys

(* A client cell whose processors die with a request in flight sends
   nothing more: no retransmit of that request leaves its node. The
   client thread is a plain engine thread of cell 1, like the server
   workload's traffic threads, which a halt does not kill. *)
let test_dead_client_sends_no_request () =
  let eng = Sim.Engine.create () in
  let mcfg =
    { Flash.Config.small with Flash.Config.nodes = 2; mem_pages_per_node = 256 }
  in
  let params = { Hive.Params.default with Hive.Params.auto_reintegrate = false } in
  let sys = Hive.System.boot ~mcfg ~params ~ncells:2 ~wax:false eng in
  let c0 = sys.Hive.Types.cells.(0) in
  let served () = Sim.Stats.value c0.Hive.Types.counters "rpc.served" in
  let served0 = served () in
  let out = ref None in
  ignore
    (Sim.Engine.spawn eng ~name:"client" ~owner:1 (fun () ->
         out :=
           Some
             (Hive.Rpc.call sys ~target:0
                ~op:slow99_op Hive.Types.P_unit)));
  Sim.Engine.run ~until:(Int64.add (Sim.Engine.now eng) 50_000_000L) eng;
  Alcotest.(check int) "the request reached cell 0" (served0 + 1) (served ());
  Hive.System.inject_cpu_failure sys 1;
  Sim.Engine.run ~until:(Int64.add (Sim.Engine.now eng) 2_000_000_000L) eng;
  Alcotest.(check int) "no request after the client's processors died"
    (served0 + 1) (served ());
  Alcotest.(check bool) "the call fails EHOSTDOWN" true
    (!out = Some (Error Hive.Types.EHOSTDOWN))

(* A caller acts as its thread's cell, so a thread that no cell owns has
   no authority to call: the call is a simulator bug, and nothing is
   sent. *)
let test_unowned_caller_is_a_bug () =
  with_sys (fun eng sys ->
      let c1 = sys.Hive.Types.cells.(1) in
      let served () = Sim.Stats.value c1.Hive.Types.counters "rpc.served" in
      let served0 = served () in
      ignore
        (Sim.Engine.spawn eng ~name:"unowned" (fun () ->
             ignore (Hive.Rpc.call sys ~target:1 ~op:echo_op Hive.Types.P_unit)));
      (match
         Sim.Engine.run ~until:(Int64.add (Sim.Engine.now eng) 50_000_000L) eng
       with
      | () -> Alcotest.fail "a call from an unowned thread went through"
      | exception Failure msg ->
        Alcotest.(check bool) msg true
          (String.starts_with ~prefix:"simulator bug" msg));
      Alcotest.(check int) "nothing served" served0 (served ()))

(* Returns (outcome, simulated call duration). *)
let call_from_thread eng sys ~op ?timeout_ns ?arg_bytes arg =
  let out = ref (Error Hive.Types.EFAULT) in
  let dur = ref 0L in
  ignore
    (Sim.Engine.spawn eng ~name:"caller" ~owner:0 (fun () ->
         let t0 = Sim.Engine.time () in
         out :=
           Hive.Rpc.call sys ~target:1 ~op
             ?timeout_ns ?arg_bytes arg;
         dur := Int64.sub (Sim.Engine.time ()) t0));
  Sim.Engine.run ~until:(Int64.add (Sim.Engine.now eng) 30_000_000_000L) eng;
  (!out, !dur)

let test_echo () =
  with_sys (fun eng sys ->
      match call_from_thread eng sys ~op:echo_op (Hive.Types.P_int 42) with
      | Ok (Hive.Types.P_int 42), _ -> ()
      | _ -> Alcotest.fail "echo failed")

let test_queued_echo () =
  with_sys (fun eng sys ->
      match
        call_from_thread eng sys ~op:queued_echo_op (Hive.Types.P_int 7)
      with
      | Ok (Hive.Types.P_int 7), _ -> ()
      | _ -> Alcotest.fail "queued echo failed")

let test_error_propagates () =
  with_sys (fun eng sys ->
      match call_from_thread eng sys ~op:fail_op Hive.Types.P_unit with
      | Error Hive.Types.EAGAIN, _ -> ()
      | _ -> Alcotest.fail "expected EAGAIN")

let test_handler_exception_becomes_error () =
  with_sys (fun eng sys ->
      match call_from_thread eng sys ~op:raise_op Hive.Types.P_unit with
      | Error Hive.Types.EFAULT, _ -> ()
      | _ -> Alcotest.fail "expected EFAULT")

let test_unknown_op () =
  with_sys (fun eng sys ->
      match call_from_thread eng sys ~op:nonexistent_op Hive.Types.P_unit with
      | Error Hive.Types.EFAULT, _ -> ()
      | _ -> Alcotest.fail "expected EFAULT for unknown op")

let test_retry_survives_slow_op () =
  with_sys (fun eng sys ->
      (* 50 ms handler with a 5 ms per-attempt timeout: the client
         retransmits, the server suppresses the duplicates (the original
         is still executing), and the first reply completes the call. *)
      match
        call_from_thread eng sys ~op:slow_op ~timeout_ns:5_000_000L
          Hive.Types.P_unit
      with
      | Ok _, _ ->
        let c0 = sys.Hive.Types.cells.(0) in
        let c1 = sys.Hive.Types.cells.(1) in
        Alcotest.(check bool) "client retransmitted" true
          (Sim.Stats.value c0.Hive.Types.counters "rpc.retransmits" > 0);
        Alcotest.(check bool) "server suppressed duplicates" true
          (Sim.Stats.value c1.Hive.Types.counters "rpc.dup_suppressed" > 0)
      | _ -> Alcotest.fail "expected retransmission to ride out the slow op")

let test_timeout_after_retries_exhausted () =
  with_sys (fun eng sys ->
      (* A black-hole link to the server: every attempt is dropped, so the
         caller gives up only after the full retransmission budget. *)
      sys.Hive.Types.on_hint <- None;
      let sips = Flash.Machine.sips sys.Hive.Types.machine in
      Flash.Sips.degrade sips ~rng:(Sim.Prng.create 7)
        { Flash.Sips.deg_from = -1; deg_to = 1; from_ns = 0L;
          until_ns = 60_000_000_000L; drop_pct = 100; dup_pct = 0;
          delay_pct = 0; max_delay_ns = 0L };
      match
        call_from_thread eng sys ~op:echo_op ~timeout_ns:5_000_000L
          Hive.Types.P_unit
      with
      | Error Hive.Types.EHOSTDOWN, _ ->
        let c0 = sys.Hive.Types.cells.(0) in
        Alcotest.(check int) "used every retransmission"
          Hive.Params.rpc_max_retries
          (Sim.Stats.value c0.Hive.Types.counters "rpc.retransmits");
        Alcotest.(check int) "counted one timeout" 1
          (Sim.Stats.value c0.Hive.Types.counters "rpc.timeouts")
      | _ -> Alcotest.fail "expected timeout")

let test_known_dead_target_fast_fail () =
  with_sys (fun eng sys ->
      let c0 = sys.Hive.Types.cells.(0) in
      c0.Hive.Types.live_set <- [ 0 ];
      match call_from_thread eng sys ~op:echo_op Hive.Types.P_unit with
      | Error Hive.Types.EHOSTDOWN, dur ->
        (* No timeout wait: the live-set check short-circuits. *)
        Alcotest.(check bool) "instant failure" true
          (Int64.compare dur 1_000_000L < 0)
      | _ -> Alcotest.fail "expected EHOSTDOWN")

let test_large_args_cost_more () =
  with_sys (fun eng sys ->
      let timed arg_bytes =
        match
          call_from_thread eng sys ~op:echo_op ~arg_bytes
            Hive.Types.P_unit
        with
        | Ok _, dur -> dur
        | Error _, _ -> Alcotest.fail "call failed"
      in
      let small = timed 32 in
      let big = timed 4096 in
      Alcotest.(check bool) "copy through shared memory costs more" true
        (Int64.compare big small > 0))

let test_concurrent_calls () =
  with_sys (fun eng sys ->
      let done_count = ref 0 in
      for _ = 1 to 20 do
        ignore
          (Sim.Engine.spawn eng ~owner:0 (fun () ->
               match
                 Hive.Rpc.call sys ~target:1
                   ~op:queued_echo_op Hive.Types.P_unit
               with
               | Ok _ -> incr done_count
               | Error _ -> ()))
      done;
      Sim.Engine.run ~until:(Int64.add (Sim.Engine.now eng) 30_000_000_000L) eng;
      Alcotest.(check int) "all 20 concurrent queued calls served" 20
        !done_count)

(* Three cells so a quorum survives killing the client cell. *)
let with_sys3 ?(params = Hive.Params.default) f =
  let eng = Sim.Engine.create () in
  let mcfg =
    { Flash.Config.small with Flash.Config.nodes = 3; mem_pages_per_node = 256 }
  in
  let sys = Hive.System.boot ~mcfg ~params ~ncells:3 ~wax:false eng in
  f eng sys

(* A reply addressed to a previous incarnation of the client cell — its
   call was issued, then the cell failed and was reintegrated with a
   bumped incarnation — must be discarded, never delivered into the new
   life (where a rebooted kernel reuses low call ids). *)
let test_reboot_drops_stale_reply () =
  with_sys3 (fun eng sys ->
      ignore
        (Sim.Engine.spawn eng ~name:"pre-reboot-caller" ~owner:0 (fun () ->
             ignore
               (Hive.Rpc.call sys ~target:1
                  ~op:slow99_op ~timeout_ns:3_000_000_000L Hive.Types.P_unit)));
      ignore
        (Sim.Engine.spawn eng (fun () ->
             Sim.Engine.delay 100_000_000L;
             Hive.System.inject_node_failure sys 0));
      (* Recovery reintegrates cell 0 well before the 1.2 s handler
         finishes; its reply is then addressed to the dead incarnation. *)
      ignore (Hive.System.run_until sys ~deadline:5_000_000_000L (fun () -> false));
      let c0 = sys.Hive.Types.cells.(0) in
      Alcotest.(check bool) "cell 0 rebooted" true
        (c0.Hive.Types.incarnation > 0);
      Alcotest.(check bool) "pre-reboot reply dropped as stale" true
        (Sim.Stats.value c0.Hive.Types.counters "rpc.stale_reply_drops" >= 1);
      Alcotest.(check (list string)) "no stale acceptance recorded" []
        (List.map Hive.Invariants.to_string
           (Hive.Invariants.check_rpc_epochs sys));
      (* A fresh post-reboot call completes normally with its own payload;
         the discarded reply (P_int 99) cannot leak into it. *)
      match call_from_thread eng sys ~op:echo_op (Hive.Types.P_int 42) with
      | Ok (Hive.Types.P_int 42), _ -> ()
      | _ -> Alcotest.fail "post-reboot call failed")

(* Same scenario with the epoch check deliberately disabled: the stale
   acceptance must be recorded and the epoch invariant checker must name
   it (this is how the fuzzer proves the checker has teeth). *)
let test_epoch_checker_catches_disabled_check () =
  with_sys3
    ~params:
      {
        Hive.Params.default with
        Hive.Params.planted_bug = Some Hive.Params.Epoch_check_off;
      }
    (fun eng sys ->
      ignore
        (Sim.Engine.spawn eng ~owner:0 (fun () ->
             ignore
               (Hive.Rpc.call sys ~target:1
                  ~op:slow99_op ~timeout_ns:3_000_000_000L Hive.Types.P_unit)));
      ignore
        (Sim.Engine.spawn eng (fun () ->
             Sim.Engine.delay 100_000_000L;
             Hive.System.inject_node_failure sys 0));
      ignore
        (Hive.System.run_until sys ~deadline:5_000_000_000L (fun () -> false));
      Alcotest.(check bool) "stale acceptance flagged" true
        (Hive.Invariants.check_rpc_epochs sys <> []))

(* A reply that arrives after the caller exhausted its retransmission
   budget and gave up: counted, dropped, and it must not complete (or
   corrupt) any later call. *)
let test_late_reply_after_timeout () =
  with_sys (fun eng sys ->
      (match
         call_from_thread eng sys ~op:slow99_op ~timeout_ns:5_000_000L
           Hive.Types.P_unit
       with
      | Error Hive.Types.EHOSTDOWN, _ -> ()
      | _ -> Alcotest.fail "expected the call to give up");
      (* call_from_thread ran the engine until idle, so the 1.2 s handler
         has completed and its reply has been delivered by now. *)
      let c0 = sys.Hive.Types.cells.(0) in
      Alcotest.(check int) "late reply counted and dropped" 1
        (Sim.Stats.value c0.Hive.Types.counters "rpc.late_replies");
      match call_from_thread eng sys ~op:echo_op (Hive.Types.P_int 7) with
      | Ok (Hive.Types.P_int 7), _ -> ()
      | _ -> Alcotest.fail "call after the late reply failed")

(* [echo_op] was served at module initialization above. *)
let test_second_serve_raises () =
  Alcotest.check_raises "second serve"
    (Invalid_argument "Rpc.serve: duplicate test.echo") (fun () ->
      Hive.Rpc.serve echo_op (fun _ _ ~src:_ _ ->
          Hive.Types.Immediate (Ok Hive.Types.P_unit)))

(* At-most-once transport over a link into the server cell that drops,
   duplicates and delays 25% of messages each for the whole run (seeded,
   so deterministic). The agreement hint path is detached so the test
   isolates the transport. *)
let test_degraded_link_at_most_once () =
  let eng, sys = Bench.Harness.boot ~ncells:2 () in
  sys.Hive.Types.on_hint <- None;
  Flash.Sips.degrade
    (Flash.Machine.sips sys.Hive.Types.machine)
    ~rng:(Sim.Prng.create 42)
    {
      Flash.Sips.deg_from = -1;
      deg_to = sys.Hive.Types.cells.(1).Hive.Types.boss_node;
      from_ns = 0L;
      until_ns = Int64.max_int;
      drop_pct = 25;
      dup_pct = 25;
      delay_pct = 25;
      max_delay_ns = 1_000_000L;
    };
  let n = 400 in
  let ok = ref 0 and gave_up = ref 0 in
  Bench.Harness.in_thread ~owner:0 eng (fun () ->
      for _ = 1 to n do
        match
          Hive.Rpc.call sys ~target:1
            ~op:Bench.Harness.noop_op ~timeout_ns:2_000_000L
            Hive.Types.P_unit
        with
        | Ok _ -> incr ok
        | Error _ -> incr gave_up
      done);
  let count cell name =
    Sim.Stats.value sys.Hive.Types.cells.(cell).Hive.Types.counters name
  in
  Alcotest.(check int) "every call returned" n (!ok + !gave_up);
  Alcotest.(check bool) ">= 90% of calls completed" true (!ok >= n * 9 / 10);
  Alcotest.(check bool) "client retransmitted" true
    (count 0 "rpc.retransmits" > 0);
  Alcotest.(check bool) "reply cache suppressed duplicates" true
    (count 1 "rpc.dup_suppressed" > 0);
  Alcotest.(check (list string)) "no duplicate execution" []
    (List.map Hive.Invariants.to_string
       (Hive.Invariants.check_rpc_at_most_once sys))

let suite =
  [
    Alcotest.test_case "echo" `Quick test_echo;
    Alcotest.test_case "queued echo" `Quick test_queued_echo;
    Alcotest.test_case "handler error propagates" `Quick test_error_propagates;
    Alcotest.test_case "handler exception becomes error reply" `Quick
      test_handler_exception_becomes_error;
    Alcotest.test_case "unknown op" `Quick test_unknown_op;
    Alcotest.test_case "retry survives slow op" `Quick
      test_retry_survives_slow_op;
    Alcotest.test_case "timeout after retries exhausted" `Quick
      test_timeout_after_retries_exhausted;
    Alcotest.test_case "known-dead target fails fast" `Quick
      test_known_dead_target_fast_fail;
    Alcotest.test_case "large args cost more" `Quick test_large_args_cost_more;
    Alcotest.test_case "20 concurrent queued calls" `Quick
      test_concurrent_calls;
    Alcotest.test_case "reboot drops stale-incarnation replies" `Quick
      test_reboot_drops_stale_reply;
    Alcotest.test_case "epoch checker catches stale acceptance" `Quick
      test_epoch_checker_catches_disabled_check;
    Alcotest.test_case "late reply after timeout is dropped" `Quick
      test_late_reply_after_timeout;
    Alcotest.test_case "second serve raises" `Quick test_second_serve_raises;
    Alcotest.test_case "a call from a thread no cell owns is a simulator bug"
      `Quick test_unowned_caller_is_a_bug;
    Alcotest.test_case "dead client sends no request" `Quick
      test_dead_client_sends_no_request;
    Alcotest.test_case "at-most-once over a degraded link" `Quick
      test_degraded_link_at_most_once;
  ]
