(* Failure detection, agreement, recovery and reintegration tests. *)

let with_sys ?(ncells = 4) ?(params = Hive.Params.default) f =
  let eng = Sim.Engine.create () in
  let mcfg =
    { Flash.Config.small with Flash.Config.nodes = ncells; mem_pages_per_node = 512 }
  in
  let sys = Hive.System.boot ~mcfg ~params ~ncells ~wax:false eng in
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
      (not (Hive.Types.recovery_in_progress sys))
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

(* Two hints at the same instant: cell 1's agreement runs first and
   stands as the recovery in progress, so cell 0's round finds it
   reaching cell 0 and is skipped. The skip must clear cell 0's suspect,
   or cell 0 never hints against cell 2 again; a later hint then starts
   its own agreement. *)
let test_skipped_agreement_clears_suspect () =
  with_sys (fun eng sys ->
      settle eng;
      let hint from suspect =
        match sys.Hive.Types.on_hint with
        | Some f -> f sys.Hive.Types.cells.(from) ~suspect ~reason:"test"
        | None -> Alcotest.fail "no hint handler"
      in
      let rounds () =
        Sim.Stats.value sys.Hive.Types.sys_counters "agreement.rounds"
      in
      let suspects () = Hive.Types.suspects sys ~accuser:0 ~suspect:2 in
      hint 1 3;
      hint 0 2;
      Alcotest.(check bool) "hint starts an agreement against the suspect"
        true (suspects ());
      Sim.Engine.run ~until:(Int64.add (Sim.Engine.now eng) 500_000_000L) eng;
      Alcotest.(check int) "only cell 1's round ran" 1 (rounds ());
      Alcotest.(check bool) "skipped round released its agreement" false
        (suspects ());
      hint 0 2;
      Sim.Engine.run ~until:(Int64.add (Sim.Engine.now eng) 500_000_000L) eng;
      Alcotest.(check int) "second hint started an agreement" 2 (rounds ());
      Alcotest.(check int) "both rounds dismissed" 2
        (Sim.Stats.value sys.Hive.Types.sys_counters "agreement.dismissed"))

let hint sys ~by ~suspect =
  match sys.Hive.Types.on_hint with
  | Some f -> f sys.Hive.Types.cells.(by) ~suspect ~reason:"test"
  | None -> Alcotest.fail "no hint handler"

(* Every cell up, with every cell in every live set, and no recovery. *)
let whole sys =
  let n = Array.length sys.Hive.Types.cells in
  (not (Hive.Types.recovery_in_progress sys))
  && Array.for_all
       (fun (c : Hive.Types.cell) ->
         Hive.Types.cell_alive c && List.length c.Hive.Types.live_set = n)
       sys.Hive.Types.cells

(* The accuser's cell panics while its vote runs, as when a healed
   partition stops a cell that was declared dead. The panic kills the
   thread that owns the agreement; its exit hook must release it, or
   recovery stays in progress forever and every later hint is taken as a
   mid-recovery hint that nothing acts on. *)
let test_accuser_panic_releases_agreement () =
  with_sys (fun eng sys ->
      settle eng;
      hint sys ~by:0 ~suspect:2;
      Sim.Engine.run ~until:(Int64.add (Sim.Engine.now eng) 100_000L) eng;
      Alcotest.(check bool) "vote running" true
        (Hive.Types.recovery_in_progress sys);
      Hive.Panic.panic sys sys.Hive.Types.cells.(0) "test: accuser panics";
      Alcotest.(check bool) "recovery settles with cell 0 back" true
        (Hive.System.run_until sys
           ~deadline:(Int64.add (Sim.Engine.now eng) 5_000_000_000L)
           (fun () -> whole sys));
      Alcotest.(check int) "no agreement left" 0
        (List.length sys.Hive.Types.agreements);
      let rounds () =
        Sim.Stats.value sys.Hive.Types.sys_counters "agreement.rounds"
      in
      let before = rounds () in
      hint sys ~by:1 ~suspect:3;
      Sim.Engine.run ~until:(Int64.add (Sim.Engine.now eng) 500_000_000L) eng;
      Alcotest.(check int) "a later hint starts an agreement" (before + 1)
        (rounds ()))

let liveness sys =
  List.map Hive.Invariants.to_string
    (Hive.Invariants.check_recovery_liveness sys)

(* An active round that no live participant drives: the planted round
   names cell 1, which runs no recovery thread. *)
let test_liveness_round_without_thread () =
  with_sys (fun eng sys ->
      settle eng;
      Alcotest.(check (list string)) "clean at boot" [] (liveness sys);
      let b () = Sim.Barrier.create 1 in
      sys.Hive.Types.round <-
        Some
          { Hive.Types.dead = [ 2 ]; participants = [ 1 ]; barrier1 = b ();
            barrier2 = b () };
      Alcotest.(check (list string)) "planted round is named"
        [ "[recovery-liveness] round 0 is active but no live participant runs \
           its recovery" ]
        (liveness sys);
      Alcotest.(check bool) "reported while recovery is in progress" true
        (List.exists
           (fun (v : Hive.Invariants.violation) ->
             v.Hive.Invariants.inv = "recovery-liveness")
           (Hive.Invariants.check sys)))

(* A down cell still in live sets that nobody suspects: planted by
   marking cell 2 down without the panic that peers would detect. *)
let test_liveness_undetected_down_cell () =
  with_sys (fun eng sys ->
      settle eng;
      let c2 = sys.Hive.Types.cells.(2) in
      c2.Hive.Types.cstatus <- Hive.Types.Cell_down;
      Alcotest.(check (list string)) "down cell nobody suspects is named"
        [ "[recovery-liveness] cell 2 is down and in cell 0's live set, but \
           no agreement suspects it and no round has it dead" ]
        (liveness sys);
      sys.Hive.Types.agreements <-
        [ { Hive.Types.accuser = 0; suspect = 2; electorate = [] } ];
      Alcotest.(check (list string)) "an agreement against it covers it" []
        (liveness sys))

(* Both liveness clauses hold through a real recovery: mid-round, with
   the failed cell in the round's dead set, and once it has settled. *)
let test_liveness_silent_on_recovery () =
  with_sys (fun eng sys ->
      settle eng;
      let t0 = Sim.Engine.now eng in
      Hive.System.inject_node_failure sys 2;
      Alcotest.(check bool) "round reaches barrier 1" true
        (Hive.System.run_until sys ~step:100_000L
           ~deadline:(Int64.add t0 3_000_000_000L)
           (fun () ->
             List.exists
               (fun (phase, t) ->
                 phase = "recovery.barrier1" && Int64.compare t t0 >= 0)
               sys.Hive.Types.recovery_timeline));
      Alcotest.(check (list string)) "silent mid-round" [] (liveness sys);
      Alcotest.(check bool) "recovery settles" true
        (Hive.System.run_until sys
           ~deadline:(Int64.add (Sim.Engine.now eng) 5_000_000_000L)
           (fun () -> whole sys));
      Alcotest.(check (list string)) "silent after recovery" []
        (List.map Hive.Invariants.to_string (Hive.Invariants.check sys)))

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

(* Preemptive discard resets a page the dead cell could write to its
   node's default: a 2-node survivor keeps writing its own second-node
   page with its first node's processor. *)
let test_discard_keeps_own_processors () =
  let eng = Sim.Engine.create () in
  let mcfg =
    { Flash.Config.small with Flash.Config.nodes = 4; mem_pages_per_node = 512 }
  in
  let sys = Hive.System.boot ~mcfg ~params:manual ~ncells:2 ~wax:false eng in
  settle eng;
  let fw = Flash.Machine.firewall sys.Hive.Types.machine in
  let pfn = Flash.Addr.first_pfn_of_node mcfg 1 + 7 in
  Flash.Firewall.grant_many fw ~by:1 ~pfn [ 2; 3 ];
  Hive.System.inject_node_failure sys 2;
  Alcotest.(check bool) "recovery completed" true (await_recovery sys);
  Alcotest.(check bool) "dead cell's grant revoked" false
    (Flash.Firewall.allowed fw ~pfn ~proc:2);
  let wrote = ref false in
  ignore
    (Sim.Engine.spawn eng ~name:"w" (fun () ->
         match
           Flash.Memory.write_i64 (Flash.Machine.memory sys.Hive.Types.machine)
             ~by:0 (Flash.Addr.addr_of_pfn pfn) 42L
         with
         | () -> wrote := true
         | exception Flash.Memory.Bus_error _ -> ()));
  settle eng;
  Alcotest.(check bool) "cell 0 writes its node-1 page" true !wrote

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

(* Reboot is boot: the reintegrated cell is a new record that starts as
   [Cell.make] builds it, and carries over only the files, the counters
   and the bumped incarnation. *)
let test_reboot_starts_fresh () =
  with_sys ~params:manual (fun eng sys ->
      settle eng;
      let old = sys.Hive.Types.cells.(1) in
      let path =
        let rec go k =
          let c = Printf.sprintf "/y/kept.%d" k in
          if Hive.Fs.home_of_path sys c = 1 then c else go (k + 1)
        in
        go 0
      in
      ignore
        (Hive.Fs.create_local sys old ~path ~content:(Bytes.of_string "kept"));
      old.Hive.Types.alloc_preference <- [ 2; 3 ];
      old.Hive.Types.clock_hand_targets <- [ 0 ];
      old.Hive.Types.rr_cpu <- 5;
      old.Hive.Types.flush_epoch <- 7;
      old.Hive.Types.swap_hint <- 9;
      let boots = Sim.Stats.value old.Hive.Types.counters "cell.boots" in
      Hive.System.inject_node_failure sys 1;
      ignore (await_recovery sys);
      Hive.System.reintegrate sys 1;
      Sim.Engine.run ~until:(Int64.add (Sim.Engine.now eng) 100_000_000L) eng;
      let c = sys.Hive.Types.cells.(1) in
      let made =
        Hive.Cell.make sys.Hive.Types.mcfg ~id:1 ~nodes:old.Hive.Types.cell_nodes
      in
      let ids = Alcotest.(list int) in
      Alcotest.check ids "alloc_preference" made.Hive.Types.alloc_preference
        c.Hive.Types.alloc_preference;
      Alcotest.check ids "clock_hand_targets"
        made.Hive.Types.clock_hand_targets c.Hive.Types.clock_hand_targets;
      Alcotest.(check int) "rr_cpu" made.Hive.Types.rr_cpu c.Hive.Types.rr_cpu;
      Alcotest.(check int) "flush_epoch" made.Hive.Types.flush_epoch
        c.Hive.Types.flush_epoch;
      Alcotest.(check int) "swap_hint" made.Hive.Types.swap_hint
        c.Hive.Types.swap_hint;
      Alcotest.(check bool) "a new record" true (c != old);
      Alcotest.(check bool) "old record stays down" true
        (old.Hive.Types.cstatus = Hive.Types.Cell_down);
      Alcotest.(check bool) "new record up" true (Hive.Types.cell_alive c);
      Alcotest.(check bool) "files kept" true
        (Option.is_some (Hive.Fs.find_local c path));
      Alcotest.(check int) "counters kept" (boots + 1)
        (Sim.Stats.value c.Hive.Types.counters "cell.boots");
      Alcotest.(check int) "incarnation bumped"
        (old.Hive.Types.incarnation + 1) c.Hive.Types.incarnation)

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
            Option.is_some sys.Hive.Types.round
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
              Flash.Memory.read
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
              Flash.Memory.read
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
    Alcotest.test_case "false alert dismissed, suspect survives" `Quick
      test_false_alert_dismissed;
    Alcotest.test_case "skipped agreement clears its suspect" `Quick
      test_skipped_agreement_clears_suspect;
    Alcotest.test_case "accuser panic mid-vote releases its agreement" `Quick
      test_accuser_panic_releases_agreement;
    Alcotest.test_case "liveness: active round with no recovery thread"
      `Quick test_liveness_round_without_thread;
    Alcotest.test_case "liveness: down cell nobody suspects" `Quick
      test_liveness_undetected_down_cell;
    Alcotest.test_case "liveness clauses silent through a recovery" `Quick
      test_liveness_silent_on_recovery;
    Alcotest.test_case "repeated false accuser distrusted" `Quick
      test_repeated_false_accuser_distrusted;
    Alcotest.test_case "dependent processes killed, others survive" `Quick
      test_processes_killed_by_dependency;
    Alcotest.test_case "preemptive discard revokes and frees" `Quick
      test_preemptive_discard_counts;
    Alcotest.test_case "discard keeps a 2-node cell's own processors" `Quick
      test_discard_keeps_own_processors;
    Alcotest.test_case "wax dies with a cell and restarts" `Quick
      test_wax_dies_and_restarts;
    Alcotest.test_case "reintegration after repair" `Quick test_reintegration;
    Alcotest.test_case "reboot starts fresh" `Quick test_reboot_starts_fresh;
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
