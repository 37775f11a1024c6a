(* Tests for the two previously-untested policy modules.

   Wax: the resource-policy process spans every cell, with its coordinator
   thread on the lowest live cell. When that cell fails, the whole span
   dies (Wax uses all cells' resources) and recovery forks a fresh
   incarnation whose span covers — and whose coordinator is owned by — the
   new live set.

   Swap: anonymous pages round-trip through the per-cell swap partition,
   and a frame that was remotely writable before swap-out comes back with
   its firewall grants revoked. *)

let test_wax_span_ownership_transfer_across_failure () =
  let eng = Sim.Engine.create () in
  let mcfg =
    { Flash.Config.small with Flash.Config.nodes = 4; mem_pages_per_node = 512 }
  in
  let params =
    { Hive.Params.default with Hive.Params.auto_reintegrate = false }
  in
  let sys = Hive.System.boot ~mcfg ~params ~ncells:4 ~wax:true eng in
  Sim.Engine.run ~until:500_000_000L eng;
  Alcotest.(check int) "one incarnation" 1 sys.Hive.Types.wax_incarnation;
  (* Fail cell 0 — the span's coordinator/owner cell. *)
  Hive.System.inject_node_failure sys 0;
  let restarted =
    Hive.System.run_until sys ~deadline:5_000_000_000L (fun () ->
        sys.Hive.Types.wax_incarnation >= 2
        && not (Hive.Types.recovery_in_progress sys))
  in
  Alcotest.(check bool) "new incarnation after owner-cell failure" true
    restarted;
  (* The new span covers exactly the surviving cells. *)
  Alcotest.(check int) "one thread per surviving cell" 3
    (List.length sys.Hive.Types.wax_threads);
  List.iter
    (fun (t : Sim.Engine.thread) ->
      Alcotest.(check bool)
        (Printf.sprintf "thread %S belongs to incarnation 2" t.Sim.Engine.name)
        true
        (String.length t.Sim.Engine.name > 4
        && String.sub t.Sim.Engine.name 0 4 = "wax2"))
    sys.Hive.Types.wax_threads;
  (* Let the re-elected coordinator (now cell 1) run policy passes: its
     hints must reach the survivors and must never name the dead cell. *)
  Sim.Engine.run ~until:(Int64.add (Sim.Engine.now eng) 1_000_000_000L) eng;
  List.iter
    (fun id ->
      let c = sys.Hive.Types.cells.(id) in
      Alcotest.(check bool)
        (Printf.sprintf "cell %d received post-transfer hints" id)
        true
        (c.Hive.Types.alloc_preference <> []);
      Alcotest.(check bool)
        (Printf.sprintf "cell %d hints exclude the dead cell" id)
        false
        (List.mem 0 c.Hive.Types.alloc_preference))
    [ 1; 2; 3 ]

let test_swap_roundtrip_preserves_contents_under_revocation () =
  let eng = Sim.Engine.create () in
  let mcfg =
    { Flash.Config.small with Flash.Config.nodes = 2; mem_pages_per_node = 512 }
  in
  let sys = Hive.System.boot ~mcfg ~ncells:2 ~wax:false eng in
  let npages = 3 in
  let word vp = Int64.of_int ((vp * 1_000_003) + 7) in
  let swapped = ref 0 in
  let back = ref [] in
  let pfns_before = ref [] in
  let p =
    Hive.Process.spawn sys sys.Hive.Types.cells.(0) ~name:"swapper"
      (fun sys p ->
        let r = Hive.Syscall.mmap_anon sys p ~npages in
        let vp0 = r.Hive.Types.start_page in
        for i = 0 to npages - 1 do
          Hive.Syscall.write_word sys p ~vpage:(vp0 + i) ~offset:0
            (word (vp0 + i))
        done;
        (* A remote child imports the pages, so their frames become
           remotely writable through the firewall. *)
        let child =
          Hive.Syscall.fork sys p ~on_cell:1 ~name:"remote-reader"
            (fun sys c ->
              for i = 0 to npages - 1 do
                ignore (Hive.Syscall.read_word sys c ~vpage:(vp0 + i) ~offset:0)
              done)
        in
        ignore (Hive.Syscall.wait sys p child);
        (* Let the reaper release the child's imports (revocation). *)
        Hive.Syscall.compute sys p 100_000_000L;
        (* Fork dropped the parent's writable mappings (COW); touch the
           pages so they re-fault into the mapping table the swapper
           walks. *)
        for i = 0 to npages - 1 do
          ignore (Hive.Syscall.read_word sys p ~vpage:(vp0 + i) ~offset:0)
        done;
        Hashtbl.iter
          (fun _ (m : Hive.Types.mapping) ->
            pfns_before := m.Hive.Types.map_pf.Hive.Types.pfn :: !pfns_before)
          p.Hive.Types.mappings;
        swapped := Hive.Swap.swap_out_process sys p;
        (* Faulting the pages back in must restore the exact contents. *)
        for i = 0 to npages - 1 do
          back :=
            ( Hive.Syscall.read_word sys p ~vpage:(vp0 + i) ~offset:0,
              word (vp0 + i) )
            :: !back
        done)
  in
  let ok =
    Hive.System.run_until_processes_done sys ~deadline:120_000_000_000L [ p ]
  in
  Alcotest.(check bool) "process finished" true ok;
  Alcotest.(check bool) "at least one page swapped out" true (!swapped > 0);
  List.iter
    (fun (got, want) ->
      Alcotest.(check int64) "round-trip preserves word" want got)
    !back;
  (* The old frames were freed by swap-out; none may retain a firewall
     grant to cell 1 (proc 1) — revocation must survive the round-trip. *)
  let fw = Flash.Machine.firewall sys.Hive.Types.machine in
  List.iter
    (fun pfn ->
      Alcotest.(check bool)
        (Printf.sprintf "pfn %d holds no stale remote grant" pfn)
        false
        (Flash.Firewall.allowed fw ~pfn ~proc:1))
    !pfns_before;
  Alcotest.(check int) "swap table drained by faults" 0
    (Hive.Swap.swapped_pages sys.Hive.Types.cells.(0))

let suite =
  [
    Alcotest.test_case "wax span ownership transfers across cell failure"
      `Quick test_wax_span_ownership_transfer_across_failure;
    Alcotest.test_case "swap round-trip preserves contents, grants revoked"
      `Quick test_swap_roundtrip_preserves_contents_under_revocation;
  ]
