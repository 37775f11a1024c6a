(* Wax at the paper's full envelope: 32-64 cells.

   Wax is only ever a hinting layer — the kernels validate everything it
   deposits against local state, so these tests drive the validation
   contract at scale: malformed hints (dead, duplicate, out-of-range
   cells; oversized or pressureless swap wants) are rejected and counted,
   the coordinator's death forks a fresh incarnation spanning exactly the
   survivors, and a pressured cell's allocations migrate toward the cells
   Wax observed to have free memory. *)

let counter (c : Hive.Types.cell) name =
  Sim.Stats.value c.Hive.Types.counters name

let boot_large ~ncells ~nodes ?(wax = true) () =
  let eng = Sim.Engine.create () in
  let mcfg =
    { (Flash.Config.with_nodes Flash.Config.default nodes) with
      Flash.Config.mem_pages_per_node = 256 }
  in
  let params =
    { Hive.Params.default with Hive.Params.auto_reintegrate = false }
  in
  (eng, Hive.System.boot ~mcfg ~params ~ncells ~wax eng)

(* Every malformed hint shape is refused, bumps the counter, and leaves
   the last accepted preference in place — at 32 cells, with a genuinely
   dead cell in the live set's past. *)
let test_hint_validation_32_cells () =
  let eng, sys = boot_large ~ncells:32 ~nodes:64 ~wax:false () in
  Sim.Engine.run ~until:100_000_000L eng;
  (* Fail-stop the last cell and let recovery excise it, so "dead cell"
     means dead-per-live-set, not just out-of-range. *)
  Hive.System.inject_node_failure sys
    (List.hd sys.Hive.Types.cells.(31).Hive.Types.cell_nodes);
  let excised =
    Hive.System.run_until sys ~deadline:10_000_000_000L (fun () ->
        (not (Hive.Types.recovery_in_progress sys))
        && not
             (List.mem 31 sys.Hive.Types.cells.(5).Hive.Types.live_set))
  in
  Alcotest.(check bool) "recovery excised the dead cell" true excised;
  let c = sys.Hive.Types.cells.(5) in
  let r0 = counter c "wax.rejected_hints" in
  Alcotest.(check bool) "valid hint accepted" true
    (Hive.Wax.sanity_check_hint c (Alloc_preference [ 0; 1; 2; 3 ]));
  Alcotest.(check (list int)) "preference installed (self filtered)"
    [ 0; 1; 2; 3 ] c.Hive.Types.alloc_preference;
  Alcotest.(check bool) "dead cell rejected" false
    (Hive.Wax.sanity_check_hint c (Alloc_preference [ 0; 31 ]));
  Alcotest.(check bool) "duplicate rejected" false
    (Hive.Wax.sanity_check_hint c (Alloc_preference [ 1; 1 ]));
  Alcotest.(check bool) "out-of-range rejected" false
    (Hive.Wax.sanity_check_hint c (Alloc_preference [ 0; 99 ]));
  Alcotest.(check bool) "negative rejected" false
    (Hive.Wax.sanity_check_hint c (Alloc_preference [ -1 ]));
  Alcotest.(check bool) "clock hint: dead cell rejected" false
    (Hive.Wax.sanity_check_hint c (Clock_hand_targets [ 31 ]));
  Alcotest.(check bool) "clock hint: duplicate rejected" false
    (Hive.Wax.sanity_check_hint c (Clock_hand_targets [ 2; 2 ]));
  Alcotest.(check (list int)) "rejections never clobber the preference"
    [ 0; 1; 2; 3 ] c.Hive.Types.alloc_preference;
  Alcotest.(check int) "every rejection counted" (r0 + 6)
    (counter c "wax.rejected_hints");
  (* Swap hints are validated against *local* pressure: a fresh cell has
     plenty of free frames, so any deposited want is refused — a corrupt
     coordinator cannot force needless paging. *)
  let r1 = counter c "wax.rejected_hints" in
  c.Hive.Types.swap_hint <- 4;
  Hive.Wax.act_on_swap_hint sys c;
  Alcotest.(check int) "pressureless swap want refused" (r1 + 1)
    (counter c "wax.rejected_hints");
  Alcotest.(check int) "hint slot cleared either way" 0
    c.Hive.Types.swap_hint;
  (* An absurd want is bounds-rejected before pressure is even consulted. *)
  c.Hive.Types.swap_hint <- max_int;
  Hive.Wax.act_on_swap_hint sys c;
  Alcotest.(check int) "oversized swap want refused" (r1 + 2)
    (counter c "wax.rejected_hints");
  Alcotest.(check int) "no swap ever ran" 0
    (counter c "wax.swap_hints_acted")

(* Killing the coordinator cell of a 64-cell span forks a fresh
   incarnation covering exactly the 63 survivors, and the re-elected
   coordinator's hints flow again without ever naming the dead cell. *)
let test_coordinator_failover_64_cells () =
  let eng, sys = boot_large ~ncells:64 ~nodes:128 () in
  Sim.Engine.run ~until:500_000_000L eng;
  Alcotest.(check int) "one incarnation up" 1
    sys.Hive.Types.wax_incarnation;
  Hive.System.inject_node_failure sys
    (List.hd sys.Hive.Types.cells.(0).Hive.Types.cell_nodes);
  let restarted =
    Hive.System.run_until sys ~deadline:10_000_000_000L (fun () ->
        sys.Hive.Types.wax_incarnation >= 2
        && not (Hive.Types.recovery_in_progress sys))
  in
  Alcotest.(check bool) "fresh incarnation after coordinator death" true
    restarted;
  Alcotest.(check int) "span covers exactly the survivors" 63
    (List.length sys.Hive.Types.wax_threads);
  List.iter
    (fun (t : Sim.Engine.thread) ->
      Alcotest.(check bool)
        (Printf.sprintf "thread %S is incarnation 2" t.Sim.Engine.name)
        true
        (String.length t.Sim.Engine.name > 4
        && String.sub t.Sim.Engine.name 0 4 = "wax2"))
    sys.Hive.Types.wax_threads;
  Sim.Engine.run ~until:(Int64.add (Sim.Engine.now eng) 1_000_000_000L) eng;
  Array.iter
    (fun (c : Hive.Types.cell) ->
      if Hive.Types.cell_alive c then begin
        Alcotest.(check bool)
          (Printf.sprintf "cell %d got post-failover hints" c.Hive.Types.cell_id)
          true
          (c.Hive.Types.alloc_preference <> []);
        Alcotest.(check bool)
          (Printf.sprintf "cell %d hints exclude the dead coordinator"
             c.Hive.Types.cell_id)
          false
          (List.mem 0 c.Hive.Types.alloc_preference)
      end)
    sys.Hive.Types.cells

(* A cell driven out of free memory allocates its next frame from one of
   the cells Wax's published-stats view said had memory to spare. *)
let test_pressure_migrates_allocation_32_cells () =
  let eng, sys = boot_large ~ncells:32 ~nodes:64 () in
  Sim.Engine.run ~until:1_000_000_000L eng;
  Array.iter
    (fun (c : Hive.Types.cell) ->
      Alcotest.(check bool)
        (Printf.sprintf "cell %d has a preference" c.Hive.Types.cell_id)
        true
        (c.Hive.Types.alloc_preference <> []);
      Alcotest.(check bool)
        (Printf.sprintf "cell %d never prefers itself" c.Hive.Types.cell_id)
        false
        (List.mem c.Hive.Types.cell_id c.Hive.Types.alloc_preference))
    sys.Hive.Types.cells;
  let c0 = sys.Hive.Types.cells.(0) in
  let borrowed = ref None in
  let pref_at_alloc = ref [] in
  let finished = ref false in
  ignore
    (Sim.Engine.spawn eng ~name:"drain" ~owner:0 (fun () ->
         (* Exhaust the local free list without touching remote cells. *)
         while Option.is_some (Hive.Page_alloc.take_free ~own_only:true sys c0) do
           ()
         done;
         (* The next general allocation must go intercell, steered by
            the preference standing at this moment (the loan itself
            shifts the next published top-k, so snapshot now). *)
         pref_at_alloc := c0.Hive.Types.alloc_preference;
         let pf = Hive.Page_alloc.alloc sys c0 in
         if not (Hive.Page_alloc.own c0 pf.Hive.Types.pfn) then
           borrowed := Some (Hive.Page_alloc.lender sys pf.Hive.Types.pfn);
         finished := true));
  Sim.Engine.run ~until:(Int64.add (Sim.Engine.now eng) 2_000_000_000L) eng;
  Alcotest.(check bool) "drain thread finished" true !finished;
  Alcotest.(check bool) "allocation borrowed intercell" true
    (counter c0 "page_alloc.borrows" > 0);
  match !borrowed with
  | None -> Alcotest.fail "frame not marked borrowed"
  | Some home ->
    Alcotest.(check bool)
      (Printf.sprintf "borrowed from a Wax-preferred cell (got %d, pref=[%s])"
         home
         (String.concat ";" (List.map string_of_int !pref_at_alloc)))
      true
      (List.mem home !pref_at_alloc)

let suite =
  [
    Alcotest.test_case "hint validation rejects malformed hints at 32 cells"
      `Quick test_hint_validation_32_cells;
    Alcotest.test_case "coordinator failover re-spans 63 survivors at 64 cells"
      `Quick test_coordinator_failover_64_cells;
    Alcotest.test_case "pressure migrates allocation per published stats"
      `Quick test_pressure_migrates_allocation_32_cells;
  ]
