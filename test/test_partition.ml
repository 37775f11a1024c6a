(* Interconnect partitions, asymmetric reachability, the single-recovery-
   master invariant, and CXL-style memory salvage.

   Partitions are directed blackout windows at the SIPS layer; kernels
   must infer them from probe behavior (timeouts, not bus errors). The
   agreement protocol's quorum rule keeps the minority side from electing
   a second recovery master, the [Types.master_begin] latch proves it,
   and windows heal deterministically so the halves reconcile into one
   live set. *)

let with_sys ?(ncells = 4) ?(params = Hive.Params.default) f =
  let eng = Sim.Engine.create () in
  let mcfg =
    { Flash.Config.small with Flash.Config.nodes = ncells; mem_pages_per_node = 512 }
  in
  let sys = Hive.System.boot ~mcfg ~params ~ncells ~wax:false eng in
  f eng sys

let manual = { Hive.Params.default with Hive.Params.auto_reintegrate = false }

let settle eng =
  Sim.Engine.run ~until:(Int64.add (Sim.Engine.now eng) 50_000_000L) eng

let run_until_t eng t = Sim.Engine.run ~until:t eng

let await_recovery sys =
  Hive.System.run_until sys
    ~deadline:(Int64.add (Sim.Engine.now sys.Hive.Types.eng) 3_000_000_000L)
    (fun () ->
      (not (Hive.Types.recovery_in_progress sys))
      && sys.Hive.Types.recovery_events <> [])

let hint sys ~by ~suspect =
  match sys.Hive.Types.on_hint with
  | Some f -> f sys.Hive.Types.cells.(by) ~suspect ~reason:"test hint"
  | None -> Alcotest.fail "no hint handler installed"

let sips sys = Flash.Machine.sips sys.Hive.Types.machine

(* Sever one cell from the rest of the machine. [inbound_only] models
   asymmetric reachability: traffic INTO the cell is lost while its own
   sends still get out. *)
let sever sys ~cell ~from_ns ~until_ns ~inbound_only =
  List.iter
    (fun n ->
      Flash.Sips.partition (sips sys)
        {
          Flash.Sips.part_from = -1;
          part_to = n;
          part_from_ns = from_ns;
          part_until_ns = until_ns;
        };
      if not inbound_only then
        Flash.Sips.partition (sips sys)
          {
            Flash.Sips.part_from = n;
            part_to = -1;
            part_from_ns = from_ns;
            part_until_ns = until_ns;
          })
    sys.Hive.Types.cells.(cell).Hive.Types.cell_nodes

let live_set_of sys i =
  List.sort compare sys.Hive.Types.cells.(i).Hive.Types.live_set

let check_reconciled sys ~ncells =
  let all = List.init ncells Fun.id in
  Array.iter
    (fun (c : Hive.Types.cell) ->
      Alcotest.(check bool)
        (Printf.sprintf "cell %d alive after heal" c.Hive.Types.cell_id)
        true
        (Hive.Types.cell_alive c);
      Alcotest.(check (list int))
        (Printf.sprintf "cell %d sees one live set" c.Hive.Types.cell_id)
        all
        (live_set_of sys c.Hive.Types.cell_id))
    sys.Hive.Types.cells

let no_dual_master sys =
  Alcotest.(check (list string)) "no concurrent recovery masters" []
    sys.Hive.Types.master_overlaps

(* Run [f] on a fresh engine thread of cell [owner] and drive the engine
   until it finishes (kernel-level test work that needs an execution
   context for RPCs and delays). *)
let in_thread ?(owner = 0) eng f =
  let out = ref None in
  ignore (Sim.Engine.spawn eng ~owner (fun () -> out := Some (f ())));
  Sim.Engine.run ~until:(Int64.add (Sim.Engine.now eng) 5_000_000_000L) eng;
  match !out with
  | Some v -> v
  | None -> Alcotest.fail "engine thread did not finish"

(* ---------- symmetric split ---------- *)

let test_symmetric_split_one_master () =
  with_sys (fun eng sys ->
      settle eng;
      let t0 = Sim.Engine.now eng in
      let heal = Int64.add t0 600_000_000L in
      sever sys ~cell:3 ~from_ns:t0 ~until_ns:heal ~inbound_only:false;
      hint sys ~by:0 ~suspect:3;
      Alcotest.(check bool) "recovery completed" true (await_recovery sys);
      (* The majority excised the unreachable cell... *)
      Alcotest.(check (list int)) "majority live set" [ 0; 1; 2 ]
        (live_set_of sys 0);
      (* ...but the cell itself is still running behind the blackout, so
         reclamation is deferred until the heal. *)
      Alcotest.(check bool) "reclaim deferred" true
        (List.exists
           (fun (p, _) -> p = "recovery.reclaim_deferred")
           sys.Hive.Types.recovery_timeline);
      no_dual_master sys;
      (* After the heal the master stops the excised half and reboots it
         into the one surviving live set. *)
      run_until_t eng (Int64.add heal 500_000_000L);
      check_reconciled sys ~ncells:4;
      no_dual_master sys;
      Alcotest.(check (list string)) "single-master oracle clean" []
        (List.map
           (fun (v : Hive.Invariants.violation) -> v.Hive.Invariants.detail)
           (Hive.Invariants.check_single_master sys)))

(* ---------- asymmetric reachability ---------- *)

let test_asymmetric_no_deadlock_no_dual_master () =
  with_sys (fun eng sys ->
      settle eng;
      let t0 = Sim.Engine.now eng in
      let heal = Int64.add t0 500_000_000L in
      (* Only traffic INTO cell 3 is lost: it can shout, nobody can
         answer. Probes time out in the request direction for the
         majority and in the reply direction for the victim — both sides
         must classify "unreachable", not "dead hardware". *)
      sever sys ~cell:3 ~from_ns:t0 ~until_ns:heal ~inbound_only:true;
      hint sys ~by:0 ~suspect:3;
      Alcotest.(check bool) "no deadlock: recovery completed" true
        (await_recovery sys);
      Alcotest.(check bool) "agreement confirmed via unreachable votes" true
        (Sim.Stats.value sys.Hive.Types.sys_counters "agreement.confirmed" >= 1);
      Alcotest.(check (list int)) "majority live set" [ 0; 1; 2 ]
        (live_set_of sys 0);
      no_dual_master sys;
      run_until_t eng (Int64.add heal 500_000_000L);
      check_reconciled sys ~ncells:4;
      no_dual_master sys)

(* ---------- minority stand-down ---------- *)

let test_minority_stands_down () =
  with_sys (fun eng sys ->
      settle eng;
      let t0 = Sim.Engine.now eng in
      (* The heal must outlast the minority's agreement round: its vote
         RPCs to the unreachable majority each burn through every
         retransmission (~1 s per voter) before it can conclude it has no
         quorum. *)
      let heal = Int64.add t0 3_000_000_000L in
      sever sys ~cell:0 ~from_ns:t0 ~until_ns:heal ~inbound_only:false;
      (* The minority side raises the alarm: it can reach nobody, so it
         cannot muster a quorum — confirming would elect a recovery
         master concurrent with the majority's. It stands down. *)
      hint sys ~by:0 ~suspect:1;
      let stood_down =
        Hive.System.run_until sys
          ~deadline:(Int64.add t0 2_800_000_000L)
          (fun () -> not (Hive.Types.cell_alive sys.Hive.Types.cells.(0)))
      in
      Alcotest.(check bool) "minority cell stood down" true stood_down;
      Alcotest.(check bool) "no-quorum counted" true
        (Sim.Stats.value sys.Hive.Types.sys_counters "agreement.no_quorum" >= 1);
      Alcotest.(check bool) "standdown marker in timeline" true
        (List.exists
           (fun (p, _) -> p = "recovery.standdown")
           sys.Hive.Types.recovery_timeline);
      (* Meanwhile the majority's own clock monitoring has excised cell 0
         with a clean 3-of-4 quorum; after the heal the deferred reclaim
         reboots it into the one surviving live set. *)
      run_until_t eng (Int64.add heal 500_000_000L);
      check_reconciled sys ~ncells:4;
      no_dual_master sys)

(* ---------- short blackout: dismissal, heal, no false excision ---------- *)

(* Sever ONE link (both directions) between two cells, leaving every other
   path intact. *)
let sever_link sys ~a ~b ~from_ns ~until_ns =
  List.iter
    (fun na ->
      List.iter
        (fun nb ->
          Flash.Sips.partition (sips sys)
            {
              Flash.Sips.part_from = na;
              part_to = nb;
              part_from_ns = from_ns;
              part_until_ns = until_ns;
            };
          Flash.Sips.partition (sips sys)
            {
              Flash.Sips.part_from = nb;
              part_to = na;
              part_from_ns = from_ns;
              part_until_ns = until_ns;
            })
        sys.Hive.Types.cells.(b).Hive.Types.cell_nodes)
    sys.Hive.Types.cells.(a).Hive.Types.cell_nodes

let test_short_blackout_heals_without_excision () =
  with_sys (fun eng sys ->
      settle eng;
      let c0 = sys.Hive.Types.cells.(0) in
      (* A file homed on cell 1, created before the blackout. *)
      let path =
        let rec go k =
          let p = Printf.sprintf "/part/heal.%d" k in
          if Hive.Fs.home_of_path sys p = 1 then p else go (k + 1)
        in
        go 0
      in
      let content = Bytes.make 4096 'h' in
      in_thread eng (fun () ->
          match Hive.Fs.create_file sys c0 ~path ~content with
          | Ok _ -> ()
          | Error _ -> Alcotest.fail "create failed");
      let t0 = Sim.Engine.now eng in
      sever_link sys ~a:0 ~b:1 ~from_ns:t0 ~until_ns:(Int64.add t0 80_000_000L);
      (* Cell 0's clock monitor notices its severed neighbor within a few
         ticks and accuses — but cells 2 and 3 still reach cell 1 and vote
         it alive, so the alert is DISMISSED: one lost link must not
         excise a live cell. Meanwhile the read below rides RPC
         retransmissions through the window and completes after the
         heal. *)
      let read_ok =
        in_thread eng (fun () ->
            match Hive.Fs.open_file sys c0 ~path with
            | Error _ -> false
            | Ok (vn, gen) -> (
              match
                Hive.Fs.read sys c0 vn ~opened_gen:gen ~pos:0 ~len:4096
              with
              | Ok b -> Bytes.equal b content
              | Error _ -> false))
      in
      Alcotest.(check bool) "read completed through the heal" true read_ok;
      Alcotest.(check bool) "blackout dropped envelopes" true
        (Flash.Sips.partition_blocked_count (sips sys) > 0);
      Alcotest.(check int) "no excision was confirmed" 0
        (Sim.Stats.value sys.Hive.Types.sys_counters "agreement.confirmed");
      Alcotest.(check (list int)) "live set intact" [ 0; 1; 2; 3 ]
        (live_set_of sys 0);
      Alcotest.(check (list string)) "invariants clean after heal" []
        (List.map Hive.Invariants.to_string (Hive.Invariants.check sys)))

(* ---------- the single-master oracle itself ---------- *)

let test_oracle_latches_concurrent_masters () =
  with_sys (fun eng sys ->
      settle eng;
      ignore eng;
      Hive.Types.master_begin sys 0;
      Hive.Types.master_begin sys 1;
      Hive.Types.master_end sys 0;
      Hive.Types.master_end sys 1;
      (* Both masters are long gone — the overlap must still be latched. *)
      let vs = Hive.Invariants.check_single_master sys in
      Alcotest.(check bool) "overlap latched after both ended" true
        (List.exists
           (fun (v : Hive.Invariants.violation) ->
             v.Hive.Invariants.inv = "single-master")
           vs))

let test_oracle_flags_mastership_leak () =
  with_sys (fun eng sys ->
      settle eng;
      ignore eng;
      Hive.Types.master_begin sys 2;
      let leaked = Hive.Invariants.check_single_master sys in
      Alcotest.(check bool) "leak flagged" true (leaked <> []);
      Hive.Types.master_end sys 2;
      Alcotest.(check int) "clean after master_end" 0
        (List.length (Hive.Invariants.check_single_master sys)))

(* ---------- cpu-dead / memory-alive classification ---------- *)

let test_cpu_dead_mem_alive_classified_hard_dead () =
  with_sys ~params:manual (fun eng sys ->
      settle eng;
      Hive.System.inject_cpu_failure sys 2;
      Alcotest.(check bool) "memory banks still answer" true
        sys.Hive.Types.cells.(2).Hive.Types.mem_alive;
      hint sys ~by:0 ~suspect:2;
      Alcotest.(check bool) "recovery completed" true (await_recovery sys);
      (* A readable clock with a silent kernel is dead hardware, not a
         partition: the suspect leaves the quorum base and the survivors
         confirm immediately. *)
      Alcotest.(check (list int)) "survivors excised the victim" [ 0; 1; 3 ]
        (List.sort compare (Hive.System.live_cells sys));
      no_dual_master sys;
      Hive.System.reintegrate sys 2;
      settle eng;
      Alcotest.(check bool) "mem-alive flag cleared by reintegration" false
        sys.Hive.Types.cells.(2).Hive.Types.mem_alive)

(* ---------- memory salvage ---------- *)

(* Boot a 2-cell system, home a 2-page file on cell 1, import both pages
   into cell 0 (clean, read-only unless [writable]), then kill cell 1's
   processors while its memory lives on. Returns what the caller needs to
   inspect the aftermath. *)
let salvage_scenario ?(params = manual) ~writable f =
  with_sys ~ncells:2 ~params (fun eng sys ->
      settle eng;
      let c0 = sys.Hive.Types.cells.(0) in
      let path =
        let rec go k =
          let p = Printf.sprintf "/cxl/data.%d" k in
          if Hive.Fs.home_of_path sys p = 1 then p else go (k + 1)
        in
        go 0
      in
      let content = Bytes.cat (Bytes.make 4096 'A') (Bytes.make 4096 'B') in
      let vn, gen =
        in_thread eng (fun () ->
            match Hive.Fs.create_file sys c0 ~path ~content with
            | Ok _ -> (
              match Hive.Fs.open_file sys c0 ~path with
              | Ok (vn, gen) -> (vn, gen)
              | Error _ -> Alcotest.fail "open failed")
            | Error _ -> Alcotest.fail "create failed")
      in
      (* Make the home copy durable and clean. *)
      in_thread ~owner:1 eng (fun () ->
          Hive.Fs.sync_cell sys sys.Hive.Types.cells.(1));
      let imported =
        in_thread eng (fun () ->
            List.for_all
              (fun page ->
                match
                  Hive.Fs.get_page sys c0 vn ~page ~writable ~opened_gen:gen
                    ~usage:`Syscall
                with
                | Ok _ -> true
                | Error _ -> false)
              [ 0; 1 ])
      in
      Alcotest.(check bool) "pages imported before the failure" true imported;
      Hive.System.inject_cpu_failure sys 1;
      hint sys ~by:0 ~suspect:1;
      Alcotest.(check bool) "recovery completed" true (await_recovery sys);
      f eng sys ~c0 ~vn ~gen ~content)

let salvaged_pfdats (c : Hive.Types.cell) =
  let out = ref [] in
  Hive.Pfdat.iter_pages c (fun pf ->
      match pf.Hive.Types.role with
      | Hive.Types.Salvaged _ -> out := pf :: !out
      | _ -> ());
  !out

let test_salvage_clean_pages_byte_identical () =
  salvage_scenario ~writable:false (fun eng sys ~c0 ~vn ~gen ~content ->
      Alcotest.(check int) "both clean pages salvaged" 2
        (Sim.Stats.value c0.Hive.Types.counters "vm.salvaged_pages");
      (* Ground truth: the salvaged frames hold byte-identical copies. *)
      let mem = Flash.Machine.memory sys.Hive.Types.machine in
      List.iter
        (fun (pf : Hive.Types.pfdat) ->
          let bytes =
            Flash.Memory.peek mem
              (Flash.Addr.addr_of_pfn pf.Hive.Types.pfn)
              4096
          in
          let page =
            match pf.Hive.Types.lid with
            | Some l -> l.Hive.Types.page
            | None -> Alcotest.fail "salvaged page has no logical id"
          in
          Alcotest.(check bytes) "salvaged copy byte-identical"
            (Bytes.sub content (page * 4096) 4096)
            bytes)
        (salvaged_pfdats c0);
      (* And the file system serves reads from them while the home stays
         down — no disk, no dead-home RPC. *)
      let served =
        in_thread eng (fun () ->
            match Hive.Fs.get_page sys c0 vn ~page:0 ~writable:false
                    ~opened_gen:gen ~usage:`Syscall
            with
            | Ok pf -> pf.Hive.Types.role = Hive.Types.Salvaged { home = 1 }
            | Error _ -> false)
      in
      Alcotest.(check bool) "reads served from the salvaged copy" true served)

let test_salvage_read_only_and_purged_at_reintegration () =
  salvage_scenario ~writable:false (fun eng sys ~c0 ~vn ~gen ~content:_ ->
      (* A write must fail exactly as a locate to the dead home would:
         dirtying the copy would be lost (and stale) after reboot. *)
      let write_errno =
        in_thread eng (fun () ->
            match Hive.Fs.get_page sys c0 vn ~page:0 ~writable:true
                    ~opened_gen:gen ~usage:`Syscall
            with
            | Ok _ -> None
            | Error e -> Some e)
      in
      Alcotest.(check bool) "salvaged copy is read-only (EIO)" true
        (write_errno = Some Hive.Types.EIO);
      Alcotest.(check bool) "salvaged bindings present before reboot" true
        (salvaged_pfdats c0 <> []);
      (* Reintegration restarts the home's generations from disk: every
         salvaged binding must be purged, or cell 0 would serve dead
         data. *)
      Hive.System.reintegrate sys 1;
      settle eng;
      Alcotest.(check (list int)) "no salvaged bindings survive reboot" []
        (List.map
           (fun (pf : Hive.Types.pfdat) -> pf.Hive.Types.pfn)
           (salvaged_pfdats c0));
      Alcotest.(check bool) "purge counted" true
        (Sim.Stats.value c0.Hive.Types.counters "vm.salvage_purged" > 0))

let test_wild_write_suspect_pages_discarded () =
  (* Import WRITABLE: the firewall granted cell 0 write access, so the
     home copy could have been scribbled on by the dying kernel — the
     wild-write filter must refuse to salvage it. *)
  salvage_scenario ~writable:true (fun _eng _sys ~c0 ~vn:_ ~gen:_ ~content:_ ->
      Alcotest.(check int) "nothing salvaged" 0
        (Sim.Stats.value c0.Hive.Types.counters "vm.salvaged_pages");
      Alcotest.(check (list int)) "suspect bindings discarded" []
        (List.map
           (fun (pf : Hive.Types.pfdat) -> pf.Hive.Types.pfn)
           (salvaged_pfdats c0)))

let test_salvage_ablation_discards_instead () =
  (* Same clean-import scenario with the knob off: recovery discards the
     bindings and post-failure reads hit the dead home. *)
  let params =
    { manual with Hive.Params.enable_salvage = false }
  in
  salvage_scenario ~params ~writable:false
    (fun eng sys ~c0 ~vn ~gen ~content:_ ->
      Alcotest.(check int) "ablation: nothing salvaged" 0
        (Sim.Stats.value c0.Hive.Types.counters "vm.salvaged_pages");
      let read_errno =
        in_thread eng (fun () ->
            match Hive.Fs.get_page sys c0 vn ~page:0 ~writable:false
                    ~opened_gen:gen ~usage:`Syscall
            with
            | Ok _ -> None
            | Error e -> Some e)
      in
      Alcotest.(check bool) "ablation: read fails against the dead home" true
        (read_errno <> None))

(* ---------- quorum property test ---------- *)

(* 500 random directed reachability matrices through the real quorum
   rule. Model: every cell is actually alive; a probe succeeds only if
   request and reply both get through (two-way reachability); silence is
   partition silence (stays in the quorum base). For every accuser/
   suspect pair the pure decision function says whether that accuser
   would confirm and start recovery (electing the lowest cell of its
   reachability class as master). Safety: all confirming accusers must
   lie in ONE mutual-reachability class — so at most one recovery master
   — and with the quorum check disabled (the planted --demo-split-brain
   bug) the 500 matrices must exhibit at least one multi-class confirm,
   proving the property test can actually see the bug. *)
let test_quorum_property_500_matrices () =
  let rng = Sim.Prng.of_int64 0x51_0B_AD_5EEDL in
  let legacy_splits = ref 0 in
  for _case = 1 to 500 do
    let n = 3 + Sim.Prng.int rng 6 in
    let reach = Array.init n (fun _ -> Array.make n false) in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        reach.(i).(j) <- i = j || Sim.Prng.int rng 3 <> 0
      done
    done;
    let reach2 i j = reach.(i).(j) && reach.(j).(i) in
    (* Mutual-reachability classes: connected components over two-way
       links. *)
    let comp = Array.make n (-1) in
    let rec flood root i =
      if comp.(i) < 0 then begin
        comp.(i) <- root;
        for j = 0 to n - 1 do
          if reach2 i j then flood root j
        done
      end
    in
    for i = 0 to n - 1 do
      flood i i
    done;
    let confirms ~quorum_check a s =
      let alive = ref 0 and unreachable = ref 0 in
      (* The accuser's own probe... *)
      if reach2 a s then incr alive else incr unreachable;
      (* ...plus every voter it can actually talk to. Silent voters are
         partition silence: no vote, but they stay in the quorum base. *)
      for v = 0 to n - 1 do
        if v <> s && v <> a && reach2 a v then
          if reach2 v s then incr alive else incr unreachable
      done;
      Hive.Agreement.quorum_confirms ~quorum_check
        {
          Hive.Agreement.t_alive = !alive;
          t_dead = 0;
          t_unreachable = !unreachable;
          t_hard_dead = 0;
          t_live_set = n;
        }
    in
    let classes_confirming quorum_check =
      let cs = ref [] in
      for a = 0 to n - 1 do
        for s = 0 to n - 1 do
          if s <> a && confirms ~quorum_check a s then
            if not (List.mem comp.(a) !cs) then cs := comp.(a) :: !cs
        done
      done;
      !cs
    in
    let quorum_classes = classes_confirming true in
    if List.length quorum_classes > 1 then
      Alcotest.failf
        "matrix %d (n=%d): %d reachability classes confirmed deaths under \
         the quorum rule — concurrent recovery masters"
        _case n
        (List.length quorum_classes);
    if List.length (classes_confirming false) > 1 then incr legacy_splits
  done;
  Alcotest.(check bool)
    "legacy no-quorum rule exhibits split-brain on these matrices" true
    (!legacy_splits > 0)

(* ---------- the planted split-brain bug ---------- *)

let has_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let contains_single_master violations =
  List.exists (fun v -> has_substring v "single-master") violations

let test_demo_split_brain_caught () =
  let plan = Faultinj.Fuzz.plan_of_seed 1L in
  let r = Faultinj.Fuzz.run_plan ~plant:Faultinj.Fuzz.Split_brain plan in
  Alcotest.(check bool) "planted split-brain detected" true
    (Faultinj.Fuzz.failed r);
  Alcotest.(check bool) "single-master oracle fired" true
    (contains_single_master r.Faultinj.Fuzz.r_violations)

let test_demo_split_brain_shrinks () =
  let plan = Faultinj.Fuzz.plan_of_seed 1L in
  let _plan', r' = Faultinj.Fuzz.shrink ~plant:Faultinj.Fuzz.Split_brain plan in
  Alcotest.(check bool) "shrunk plan still fails" true
    (Faultinj.Fuzz.failed r');
  Alcotest.(check bool) "shrunk failure still names single-master" true
    (contains_single_master r'.Faultinj.Fuzz.r_violations)

(* Two agreements vote at once. Cell 3, cut off from the machine, cannot
   reach the electorate of cell 0's vote, so it runs its own. Cell 0's
   vote is dismissed first, and recovery stays in progress while cell
   3's still runs. *)
let test_dismissal_keeps_other_vote () =
  with_sys (fun eng sys ->
      settle eng;
      let now = Sim.Engine.now eng in
      sever sys ~cell:3 ~from_ns:now ~until_ns:(Int64.add now 10_000_000_000L)
        ~inbound_only:false;
      hint sys ~by:0 ~suspect:2;
      hint sys ~by:3 ~suspect:1;
      let accusers () =
        List.map
          (fun (a : Hive.Types.agreement) -> a.Hive.Types.accuser)
          sys.Hive.Types.agreements
      in
      Alcotest.(check bool) "cell 0's vote ends first" true
        (Hive.System.run_until sys ~step:100_000L
           ~deadline:(Int64.add now 5_000_000_000L)
           (fun () -> accusers () <> [ 3; 0 ]));
      Alcotest.(check int) "both votes ran" 2
        (Sim.Stats.value sys.Hive.Types.sys_counters "agreement.rounds");
      Alcotest.(check int) "cell 0's vote was dismissed" 1
        (Sim.Stats.value sys.Hive.Types.sys_counters "agreement.dismissed");
      Alcotest.(check (list int)) "cell 3's vote still runs" [ 3 ]
        (accusers ());
      Alcotest.(check bool) "recovery still in progress" true
        (Hive.Types.recovery_in_progress sys))

let suite =
  [
    Alcotest.test_case "symmetric split elects one master, heal reconciles"
      `Quick test_symmetric_split_one_master;
    Alcotest.test_case "asymmetric reachability: no deadlock, no dual master"
      `Quick test_asymmetric_no_deadlock_no_dual_master;
    Alcotest.test_case "minority side stands down" `Quick
      test_minority_stands_down;
    Alcotest.test_case "short blackout heals without excision" `Quick
      test_short_blackout_heals_without_excision;
    Alcotest.test_case "oracle latches concurrent masters" `Quick
      test_oracle_latches_concurrent_masters;
    Alcotest.test_case "oracle flags mastership leak" `Quick
      test_oracle_flags_mastership_leak;
    Alcotest.test_case "cpu-dead/mem-alive classified hard-dead" `Quick
      test_cpu_dead_mem_alive_classified_hard_dead;
    Alcotest.test_case "salvage: clean pages byte-identical" `Quick
      test_salvage_clean_pages_byte_identical;
    Alcotest.test_case "salvage: read-only, purged at reintegration" `Quick
      test_salvage_read_only_and_purged_at_reintegration;
    Alcotest.test_case "salvage: wild-write suspects discarded" `Quick
      test_wild_write_suspect_pages_discarded;
    Alcotest.test_case "salvage ablation discards instead" `Quick
      test_salvage_ablation_discards_instead;
    Alcotest.test_case "quorum property: 500 reachability matrices" `Quick
      test_quorum_property_500_matrices;
    Alcotest.test_case "demo split-brain caught by the oracle" `Quick
      test_demo_split_brain_caught;
    Alcotest.test_case "demo split-brain shrinks" `Slow
      test_demo_split_brain_shrinks;
    Alcotest.test_case "a dismissal leaves another vote in progress" `Quick
      test_dismissal_keeps_other_vote;
  ]
