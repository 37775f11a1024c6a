(* Failure detection, agreement, recovery and reintegration tests. *)

let with_sys ?(ncells = 4) ?(oracle = false) ?(params = Hive.Params.default) f =
  let eng = Sim.Engine.create () in
  let mcfg =
    { Flash.Config.small with Flash.Config.nodes = ncells; mem_pages_per_node = 512 }
  in
  let sys = Hive.System.boot ~mcfg ~params ~ncells ~oracle ~wax:false eng in
  f eng sys

(* Several tests below inspect the post-recovery "cell stays down" state,
   which only exists when the recovery master is not allowed to repair
   and reboot the failed cell on its own. *)
let manual = { Hive.Params.default with Hive.Params.auto_reintegrate = false }

let settle eng = Sim.Engine.run ~until:(Int64.add (Sim.Engine.now eng) 50_000_000L) eng

let await_recovery sys =
  Hive.System.run_until sys
    ~deadline:(Int64.add (Sim.Engine.now sys.Hive.Types.eng) 3_000_000_000L)
    (fun () ->
      (not sys.Hive.Types.recovery_in_progress)
      && sys.Hive.Types.recovery_events <> [])

let test_all_cells_enter_recovery () =
  with_sys (fun eng sys ->
      settle eng;
      Hive.System.inject_node_failure sys 2;
      Alcotest.(check bool) "recovery completed" true (await_recovery sys);
      let entered = List.map fst sys.Hive.Types.recovery_events in
      Alcotest.(check (list int)) "all survivors entered recovery" [ 0; 1; 3 ]
        (List.sort compare entered))

let test_live_sets_updated () =
  with_sys ~params:manual (fun eng sys ->
      settle eng;
      Hive.System.inject_node_failure sys 1;
      ignore (await_recovery sys);
      Array.iter
        (fun (c : Hive.Types.cell) ->
          if Hive.Types.cell_alive c then
            Alcotest.(check bool)
              (Printf.sprintf "cell %d dropped cell 1" c.Hive.Types.cell_id)
              false
              (List.mem 1 c.Hive.Types.live_set))
        sys.Hive.Types.cells)

let test_oracle_agreement () =
  with_sys ~oracle:true (fun eng sys ->
      settle eng;
      Hive.System.inject_node_failure sys 3;
      Alcotest.(check bool) "recovery with oracle" true (await_recovery sys))

let test_false_alert_dismissed () =
  with_sys (fun eng sys ->
      settle eng;
      (* A spurious hint against a perfectly healthy cell must be voted
         down, and the suspect must survive. *)
      let c0 = sys.Hive.Types.cells.(0) in
      (match sys.Hive.Types.on_hint with
      | Some f -> f c0 ~suspect:2 ~reason:"spurious"
      | None -> Alcotest.fail "no hint handler");
      Sim.Engine.run ~until:(Int64.add (Sim.Engine.now eng) 500_000_000L) eng;
      Alcotest.(check bool) "suspect survived" true
        (Hive.Types.cell_alive sys.Hive.Types.cells.(2));
      Alcotest.(check bool) "no recovery ran" true
        (sys.Hive.Types.recovery_events = []);
      Alcotest.(check bool) "gates reopened" true
        (Array.for_all
           (fun (c : Hive.Types.cell) -> c.Hive.Types.user_gate_open)
           sys.Hive.Types.cells);
      Alcotest.(check int) "dismissal counted" 1
        (Sim.Stats.value sys.Hive.Types.sys_counters "agreement.dismissed"))

let test_repeated_false_accuser_distrusted () =
  with_sys (fun eng sys ->
      settle eng;
      let c0 = sys.Hive.Types.cells.(0) in
      let accuse () =
        (match sys.Hive.Types.on_hint with
        | Some f -> f c0 ~suspect:2 ~reason:"crying wolf"
        | None -> ());
        Sim.Engine.run ~until:(Int64.add (Sim.Engine.now eng) 500_000_000L) eng
      in
      accuse ();
      accuse ();
      accuse ();
      (* Voters now refuse to confirm cell 0's alerts. *)
      Alcotest.(check bool) "cell 2 still alive after repeated alerts" true
        (Hive.Types.cell_alive sys.Hive.Types.cells.(2));
      let c1 = sys.Hive.Types.cells.(1) in
      Alcotest.(check bool) "peers count the false alerts" true
        (Hive.Agreement.false_alert_count c1 0 >= 2))

let test_processes_killed_by_dependency () =
  with_sys (fun eng sys ->
      settle eng;
      (* A process on cell 0 that mapped pages from cell 2 must die when
         cell 2 dies; an independent process survives. *)
      let dependent_killed = ref false in
      let independent_finished = ref false in
      let dep =
        Hive.Process.spawn sys sys.Hive.Types.cells.(0) ~name:"dep"
          (fun sys p ->
            (* Build dependency on cell 2: map a file homed on cell 2. *)
            let path =
              (* Find a path hashed to cell 2 (outside /tmp etc.). *)
              let rec go k =
                let c = Printf.sprintf "/x/dep.%d" k in
                if Hive.Fs.home_of_path sys c = 2 then c else go (k + 1)
              in
              go 0
            in
            let fd =
              Hive.Syscall.creat sys p ~content:(Bytes.make 4096 'd') path
            in
            ignore (Hive.Syscall.pread sys p ~fd ~pos:0 ~len:4096);
            Hive.Syscall.compute sys p 5_000_000_000L)
      in
      let indep =
        Hive.Process.spawn sys sys.Hive.Types.cells.(0) ~name:"indep"
          (fun sys p ->
            Hive.Syscall.compute sys p 600_000_000L;
            independent_finished := true)
      in
      ignore
        (Sim.Engine.spawn eng (fun () ->
             Sim.Engine.delay 200_000_000L;
             Hive.System.inject_node_failure sys 2));
      ignore
        (Hive.System.run_until_processes_done sys ~deadline:10_000_000_000L
           [ dep; indep ]);
      dependent_killed := dep.Hive.Types.killed_by_failure;
      Alcotest.(check bool) "dependent process killed" true !dependent_killed;
      Alcotest.(check bool) "independent process finished" true
        !independent_finished)

let test_preemptive_discard_counts () =
  with_sys ~ncells:2 (fun eng sys ->
      settle eng;
      (* Cell 1 writes into a cell-0 file, leaving remotely-writable
         pages; when cell 1 dies, cell 0 must discard them. *)
      let writer =
        Hive.Process.spawn sys sys.Hive.Types.cells.(1) ~name:"w"
          (fun sys p ->
            let fd = Hive.Syscall.creat sys p "/tmp/victim.dat" in
            ignore (Hive.Syscall.write sys p ~fd (Bytes.make 16384 'v'));
            Hive.Syscall.compute sys p 5_000_000_000L)
      in
      ignore writer;
      Sim.Engine.run ~until:(Int64.add (Sim.Engine.now eng) 100_000_000L) eng;
      let c0 = sys.Hive.Types.cells.(0) in
      let writable_before = Hive.Wild_write.remotely_writable_pages sys c0 in
      Alcotest.(check bool) "pages remotely writable before" true
        (writable_before > 0);
      Hive.System.inject_node_failure sys 1;
      ignore (await_recovery sys);
      Alcotest.(check int) "no remotely-writable pages after discard" 0
        (Hive.Wild_write.remotely_writable_pages sys c0);
      Alcotest.(check bool) "discards counted" true
        (Sim.Stats.value c0.Hive.Types.counters "vm.discarded_pages" > 0))

let test_wax_dies_and_restarts () =
  let eng = Sim.Engine.create () in
  let mcfg =
    { Flash.Config.small with Flash.Config.nodes = 4; mem_pages_per_node = 512 }
  in
  let sys = Hive.System.boot ~mcfg ~ncells:4 ~wax:true eng in
  Sim.Engine.run ~until:500_000_000L eng;
  Alcotest.(check int) "first incarnation" 1 sys.Hive.Types.wax_incarnation;
  Hive.System.inject_node_failure sys 2;
  let ok =
    Hive.System.run_until sys ~deadline:3_000_000_000L (fun () ->
        sys.Hive.Types.wax_incarnation >= 2)
  in
  Alcotest.(check bool) "wax restarted by recovery master" true ok

let test_reintegration () =
  with_sys ~params:manual (fun eng sys ->
      settle eng;
      (* Create a file on cell 1, kill cell 1, reintegrate it, and check
         the file is still there (disk survives) and the cell serves. *)
      let path =
        let rec go k =
          let c = Printf.sprintf "/y/data.%d" k in
          if Hive.Fs.home_of_path sys c = 1 then c else go (k + 1)
        in
        go 0
      in
      let creator =
        Hive.Process.spawn sys sys.Hive.Types.cells.(1) ~name:"creator"
          (fun sys p ->
            let fd =
              Hive.Syscall.creat sys p ~content:(Bytes.of_string "persists")
                path
            in
            ignore fd;
            Hive.Syscall.sync sys p)
      in
      ignore
        (Hive.System.run_until_processes_done sys ~deadline:10_000_000_000L
           [ creator ]);
      Hive.System.inject_node_failure sys 1;
      ignore (await_recovery sys);
      Alcotest.(check bool) "down" false
        (Hive.Types.cell_alive sys.Hive.Types.cells.(1));
      Hive.System.reintegrate sys 1;
      Sim.Engine.run ~until:(Int64.add (Sim.Engine.now eng) 100_000_000L) eng;
      Alcotest.(check bool) "up again" true
        (Hive.Types.cell_alive sys.Hive.Types.cells.(1));
      (* Everyone has it back in the live set. *)
      Array.iter
        (fun (c : Hive.Types.cell) ->
          if Hive.Types.cell_alive c then
            Alcotest.(check bool) "in live set" true
              (List.mem 1 c.Hive.Types.live_set))
        sys.Hive.Types.cells;
      (* The file survived on disk and is served again. *)
      let reader =
        Hive.Process.spawn sys sys.Hive.Types.cells.(0) ~name:"reader"
          (fun sys p ->
            let fd = Hive.Syscall.openf sys p path in
            let b = Hive.Syscall.pread sys p ~fd ~pos:0 ~len:8 in
            assert (Bytes.to_string b = "persists"))
      in
      ignore
        (Hive.System.run_until_processes_done sys ~deadline:20_000_000_000L
           [ reader ]);
      Alcotest.(check (option int)) "read after reintegration" (Some 0)
        reader.Hive.Types.exit_code)

let test_double_failure () =
  with_sys ~params:manual (fun eng sys ->
      settle eng;
      Hive.System.inject_node_failure sys 1;
      ignore (await_recovery sys);
      sys.Hive.Types.recovery_events <- [];
      Hive.System.inject_node_failure sys 2;
      Alcotest.(check bool) "second recovery completes" true (await_recovery sys);
      Alcotest.(check (list int)) "two survivors" [ 0; 3 ]
        (List.sort compare (Hive.System.live_cells sys));
      ignore eng)

let test_round_restart_on_nested_failure () =
  with_sys ~params:manual (fun eng sys ->
      settle eng;
      let t0 = Sim.Engine.now eng in
      Hive.System.inject_node_failure sys 2;
      (* Wait until the round is in flight and past barrier 1, then kill a
         second participant mid-round: the survivors must abort the
         barriers and restart with the enlarged dead set instead of
         deadlocking on cell 1's barrier slot. *)
      let mid_round =
        Hive.System.run_until sys ~step:100_000L
          ~deadline:(Int64.add t0 3_000_000_000L)
          (fun () ->
            sys.Hive.Types.recovery_round_active
            && List.exists
                 (fun (phase, t) ->
                   phase = "recovery.barrier1" && Int64.compare t t0 >= 0)
                 sys.Hive.Types.recovery_timeline)
      in
      Alcotest.(check bool) "round reached barrier 1" true mid_round;
      Hive.System.inject_node_failure sys 1;
      Alcotest.(check bool) "restarted round completes" true
        (await_recovery sys);
      Alcotest.(check bool) "round restart counted" true
        (Sim.Stats.value sys.Hive.Types.sys_counters "recovery.round_restarts"
        >= 1);
      Alcotest.(check bool) "restart marker in timeline" true
        (List.exists
           (fun (p, _) -> p = "recovery.restart")
           sys.Hive.Types.recovery_timeline);
      Alcotest.(check (list int)) "two survivors" [ 0; 3 ]
        (List.sort compare (Hive.System.live_cells sys));
      Array.iter
        (fun (c : Hive.Types.cell) ->
          if Hive.Types.cell_alive c then begin
            Alcotest.(check bool)
              (Printf.sprintf "cell %d dropped cell 1" c.Hive.Types.cell_id)
              false
              (List.mem 1 c.Hive.Types.live_set);
            Alcotest.(check bool)
              (Printf.sprintf "cell %d dropped cell 2" c.Hive.Types.cell_id)
              false
              (List.mem 2 c.Hive.Types.live_set)
          end)
        sys.Hive.Types.cells)

let test_auto_reintegration () =
  with_sys (fun eng sys ->
      settle eng;
      Hive.System.inject_node_failure sys 2;
      Alcotest.(check bool) "recovery completes" true (await_recovery sys);
      (* With [auto_reintegrate] (the default) the recovery master repairs
         the failed nodes after diagnostics and reboots the cell without
         any manual call. *)
      let rebooted =
        Hive.System.run_until sys
          ~deadline:(Int64.add (Sim.Engine.now eng) 2_000_000_000L)
          (fun () -> Hive.Types.cell_alive sys.Hive.Types.cells.(2))
      in
      Alcotest.(check bool) "cell 2 rebooted by master" true rebooted;
      Alcotest.(check int) "one reintegration counted" 1
        (Sim.Stats.value sys.Hive.Types.sys_counters "cell.reintegrations");
      Alcotest.(check bool) "reintegrate marker in timeline" true
        (List.exists
           (fun (p, _) -> p = "recovery.reintegrate")
           sys.Hive.Types.recovery_timeline);
      Array.iter
        (fun (c : Hive.Types.cell) ->
          if Hive.Types.cell_alive c then
            Alcotest.(check bool)
              (Printf.sprintf "cell %d has cell 2 back" c.Hive.Types.cell_id)
              true
              (List.mem 2 c.Hive.Types.live_set))
        sys.Hive.Types.cells)

let test_panic_cuts_off_memory () =
  with_sys ~ncells:2 (fun eng sys ->
      settle eng;
      Hive.Panic.panic sys sys.Hive.Types.cells.(1) "test panic";
      (* Remote reads of the panicked cell's memory now bus-error. *)
      let p =
        Hive.Process.spawn sys sys.Hive.Types.cells.(0) ~name:"prober"
          (fun sys p ->
            ignore p;
            let c1 = sys.Hive.Types.cells.(1) in
            match
              Flash.Memory.read sys.Hive.Types.eng
                (Flash.Machine.memory sys.Hive.Types.machine)
                ~by:0 c1.Hive.Types.clock_addr 8
            with
            | _ -> failwith "expected cutoff"
            | exception Flash.Memory.Bus_error { cause = Flash.Memory.Cutoff; _ }
              -> ())
      in
      ignore
        (Hive.System.run_until_processes_done sys ~deadline:5_000_000_000L [ p ]);
      Alcotest.(check (option int)) "prober saw cutoff" (Some 0)
        p.Hive.Types.exit_code;
      ignore eng)

(* A panic and a hardware fail-stop stop a cell the same way: it is
   down, its kernel threads are gone, every live process on it was killed
   by the failure and the failure machinery heard of it once. Only the
   panic also cuts off the cell's memory: a remote read of a fail-stopped
   node fails because the node is gone, not because of a cutoff. *)
let check_halt ~panic =
  with_sys ~ncells:2 ~params:manual (fun eng sys ->
      let c1 = sys.Hive.Types.cells.(1) in
      let busy =
        List.init 2 (fun i ->
            Hive.Process.spawn sys c1 ~name:(Printf.sprintf "busy%d" i)
              (fun sys p -> Hive.Process.compute sys p 10_000_000_000L))
      in
      settle eng;
      let deaths = ref [] in
      let notify = sys.Hive.Types.on_cell_death in
      sys.Hive.Types.on_cell_death <-
        Some
          (fun id ->
            deaths := id :: !deaths;
            Option.iter (fun f -> f id) notify);
      if panic then Hive.Panic.panic sys c1 "test panic"
      else
        Hive.System.inject_node_failure sys (List.hd c1.Hive.Types.cell_nodes);
      Alcotest.(check bool) "cell down" false (Hive.Types.cell_alive c1);
      Alcotest.(check int) "no kernel threads" 0
        (List.length c1.Hive.Types.kernel_threads);
      Alcotest.(check (list bool)) "live processes killed by the failure"
        [ true; true ]
        (List.map
           (fun (p : Hive.Types.process) -> p.Hive.Types.killed_by_failure)
           busy);
      Alcotest.(check (list int)) "on_cell_death ran once" [ 1 ] !deaths;
      let cause = ref None in
      let prober =
        Hive.Process.spawn sys sys.Hive.Types.cells.(0) ~name:"prober"
          (fun sys _ ->
            match
              Flash.Memory.read sys.Hive.Types.eng
                (Flash.Machine.memory sys.Hive.Types.machine)
                ~by:0 c1.Hive.Types.clock_addr 8
            with
            | _ -> ()
            | exception Flash.Memory.Bus_error { cause = c; _ } ->
              cause := Some c)
      in
      ignore
        (Hive.System.run_until_processes_done sys ~deadline:5_000_000_000L
           [ prober ]);
      Alcotest.(check bool) "memory cut off" panic
        (!cause = Some Flash.Memory.Cutoff))

let test_panic_halts_cell () = check_halt ~panic:true

let test_failstop_halts_cell () = check_halt ~panic:false

let suite =
  [
    Alcotest.test_case "all survivors enter recovery" `Quick
      test_all_cells_enter_recovery;
    Alcotest.test_case "live sets updated" `Quick test_live_sets_updated;
    Alcotest.test_case "agreement oracle mode" `Quick test_oracle_agreement;
    Alcotest.test_case "false alert dismissed, suspect survives" `Quick
      test_false_alert_dismissed;
    Alcotest.test_case "repeated false accuser distrusted" `Quick
      test_repeated_false_accuser_distrusted;
    Alcotest.test_case "dependent processes killed, others survive" `Quick
      test_processes_killed_by_dependency;
    Alcotest.test_case "preemptive discard revokes and frees" `Quick
      test_preemptive_discard_counts;
    Alcotest.test_case "wax dies with a cell and restarts" `Quick
      test_wax_dies_and_restarts;
    Alcotest.test_case "reintegration after repair" `Quick test_reintegration;
    Alcotest.test_case "two successive failures" `Quick test_double_failure;
    Alcotest.test_case "nested failure restarts the round" `Quick
      test_round_restart_on_nested_failure;
    Alcotest.test_case "automatic reintegration by the master" `Quick
      test_auto_reintegration;
    Alcotest.test_case "panic cuts off remote memory access" `Quick
      test_panic_cuts_off_memory;
    Alcotest.test_case "panic halts the cell and cuts off its memory" `Quick
      test_panic_halts_cell;
    Alcotest.test_case "fail-stop halts the cell like a panic" `Quick
      test_failstop_halts_cell;
  ]
