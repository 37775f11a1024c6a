(* VM and copy-on-write tree tests, including a model-based property test
   of COW semantics across fork chains. *)

let with_sys ?(ncells = 2) f =
  let eng = Sim.Engine.create () in
  let mcfg =
    { Flash.Config.small with Flash.Config.nodes = ncells; mem_pages_per_node = 768 }
  in
  let sys = Hive.System.boot ~mcfg ~ncells ~wax:false eng in
  f eng sys

let run_to_completion sys p =
  let ok =
    Hive.System.run_until_processes_done sys ~deadline:300_000_000_000L [ p ]
  in
  Alcotest.(check bool) "finished" true ok;
  Alcotest.(check (option int)) "exit 0" (Some 0) p.Hive.Types.exit_code

let in_proc sys ~on ~name body =
  Hive.Process.spawn sys sys.Hive.Types.cells.(on) ~name body

let test_anon_zero_fill () =
  with_sys (fun _eng sys ->
      let p =
        in_proc sys ~on:0 ~name:"t" (fun sys p ->
            let r = Hive.Syscall.mmap_anon sys p ~npages:4 in
            let v =
              Hive.Syscall.read_word sys p ~vpage:r.Hive.Types.start_page
                ~offset:8
            in
            assert (v = 0L))
      in
      run_to_completion sys p)

let test_word_rw () =
  with_sys (fun _eng sys ->
      let p =
        in_proc sys ~on:0 ~name:"t" (fun sys p ->
            let r = Hive.Syscall.mmap_anon sys p ~npages:2 in
            let vp = r.Hive.Types.start_page in
            Hive.Syscall.write_word sys p ~vpage:vp ~offset:16 123L;
            Hive.Syscall.write_word sys p ~vpage:(vp + 1) ~offset:0 456L;
            assert (Hive.Syscall.read_word sys p ~vpage:vp ~offset:16 = 123L);
            assert (Hive.Syscall.read_word sys p ~vpage:(vp + 1) ~offset:0 = 456L))
      in
      run_to_completion sys p)

(* A word access touches its page, which costs an L2 hit, and only then
   reads the mapping. A thread that drops the mapping inside that window
   (swap-out, unmap, a refault elsewhere) must send the access back
   through the fault path, not raise [Not_found] out of the syscall. *)
let test_word_mapping_dropped_mid_touch () =
  with_sys (fun eng sys ->
      let dropped = ref false in
      let p =
        in_proc sys ~on:0 ~name:"t" (fun sys p ->
            let r = Hive.Syscall.mmap_anon sys p ~npages:1 in
            let vp = r.Hive.Types.start_page in
            Hive.Syscall.write_word sys p ~vpage:vp ~offset:8 77L;
            let unmap_at =
              Int64.add (Sim.Engine.time ()) (Int64.div Flash.Config.l2_hit_ns 2L)
            in
            ignore
              (Sim.Engine.spawn eng ~at:unmap_at (fun () ->
                   dropped := Hashtbl.mem p.Hive.Types.mappings vp;
                   Hive.Vm.unmap_page p vp));
            match Hive.Vm.read_word sys p ~vpage:vp ~offset:8 with
            | Ok v -> assert (v = 77L)
            | Error _ -> failwith "read_word failed")
      in
      run_to_completion sys p;
      Alcotest.(check bool) "mapping dropped inside the touch" true !dropped)

(* The refcount checker against a list model of it (the quadratic
   original): the same violations, in the same order, on a cell whose
   counts drifted both ways and which maps a pfdat it no longer holds. *)
let refcounts_model (c : Hive.Types.cell) =
  let counts = ref [] in
  let count_for pf =
    match List.find_opt (fun (q, _) -> q == pf) !counts with
    | Some (_, r) -> r
    | None ->
      let r = ref 0 in
      counts := (pf, r) :: !counts;
      r
  in
  List.iter
    (fun (p : Hive.Types.process) ->
      Hashtbl.iter
        (fun _ (m : Hive.Types.mapping) -> incr (count_for m.Hive.Types.map_pf))
        p.Hive.Types.mappings)
    c.Hive.Types.processes;
  let seen = ref [] and bad = ref [] in
  let check (pf : Hive.Types.pfdat) =
    if not (List.memq pf !seen) then begin
      seen := pf :: !seen;
      let expect =
        match List.find_opt (fun (q, _) -> q == pf) !counts with
        | Some (_, r) -> !r
        | None -> 0
      in
      if pf.Hive.Types.refs <> expect then
        bad :=
          Printf.sprintf
            "[refcount] cell %d pfn %d: refs=%d but %d mapping(s) exist"
            c.Hive.Types.cell_id pf.Hive.Types.pfn pf.Hive.Types.refs expect
          :: !bad
    end
  in
  Hashtbl.iter (fun _ pf -> check pf) c.Hive.Types.frames;
  Hive.Pfdat.iter_pages c check;
  List.iter (fun (pf, _) -> check pf) !counts;
  List.rev !bad

let test_refcounts_match_model () =
  with_sys (fun _eng sys ->
      let c0 = sys.Hive.Types.cells.(0) in
      let mapped = ref [] in
      let p =
        in_proc sys ~on:0 ~name:"t" (fun sys p ->
            let r = Hive.Syscall.mmap_anon sys p ~npages:8 in
            for k = 0 to 7 do
              Hive.Syscall.write_word sys p ~vpage:(r.Hive.Types.start_page + k)
                ~offset:0 (Int64.of_int k)
            done;
            mapped :=
              Hashtbl.fold
                (fun _ (m : Hive.Types.mapping) acc -> m.Hive.Types.map_pf :: acc)
                p.Hive.Types.mappings []
              |> List.sort (fun (a : Hive.Types.pfdat) b ->
                     compare a.Hive.Types.pfn b.Hive.Types.pfn);
            (* Stay alive, mappings intact, while the checks run. *)
            Sim.Engine.delay 1_000_000_000L)
      in
      Sim.Engine.run ~until:500_000_000L sys.Hive.Types.eng;
      let check () =
        List.map Hive.Invariants.to_string
          (Hive.Invariants.check_refcounts sys ~cells:[ c0 ])
      in
      Alcotest.(check (list string)) "clean" [] (check ());
      (match !mapped with
      | a :: b :: c :: _ ->
        a.Hive.Types.refs <- a.Hive.Types.refs + 2;
        b.Hive.Types.refs <- 0;
        (* Mappings to two pfdats the cell no longer holds. *)
        List.iter
          (fun (vpage, refs) ->
            Hashtbl.replace p.Hive.Types.mappings vpage
              { Hive.Types.map_lid =
                  { Hive.Types.tag =
                      Hive.Types.File_obj { Hive.Types.home = 0; ino = 0 };
                    page = 0 };
                map_pf = { c with Hive.Types.refs };
                map_writable = false })
          [ (-1, 5); (-2, 7) ]
      | _ -> Alcotest.fail "expected mapped pages");
      let got = check () in
      Alcotest.(check int) "four violations" 4 (List.length got);
      Alcotest.(check (list string)) "same violations, same order"
        (refcounts_model c0) got;
      Hashtbl.remove p.Hive.Types.mappings (-1);
      Hashtbl.remove p.Hive.Types.mappings (-2))

let test_fault_out_of_region () =
  with_sys (fun _eng sys ->
      let p =
        in_proc sys ~on:0 ~name:"t" (fun sys p ->
            match Hive.Vm.touch sys p ~vpage:9999 ~write:false with
            | Error Hive.Types.EFAULT -> ()
            | _ -> failwith "expected EFAULT")
      in
      run_to_completion sys p)

let test_write_to_readonly_region () =
  with_sys (fun _eng sys ->
      let p =
        in_proc sys ~on:0 ~name:"t" (fun sys p ->
            let fd =
              Hive.Syscall.creat sys p ~content:(Bytes.make 4096 'r')
                "/tmp/ro.txt"
            in
            Hive.Syscall.close sys p ~fd;
            let fd = Hive.Syscall.openf sys p "/tmp/ro.txt" in
            let r = Hive.Syscall.mmap_file sys p ~fd ~npages:1 ~writable:false in
            match
              Hive.Vm.touch sys p ~vpage:r.Hive.Types.start_page ~write:true
            with
            | Error Hive.Types.EFAULT -> ()
            | _ -> failwith "expected EFAULT on write to read-only region")
      in
      run_to_completion sys p)

let test_grandchild_cow_chain () =
  with_sys (fun _eng sys ->
      (* Three generations: the grandchild must see the value written by
         the grandparent before any fork, through two tree levels. *)
      let seen = ref 0L in
      let p =
        in_proc sys ~on:0 ~name:"gp" (fun sys p ->
            let r = Hive.Syscall.mmap_anon sys p ~npages:2 in
            let vp = r.Hive.Types.start_page in
            Hive.Syscall.write_word sys p ~vpage:vp ~offset:0 77L;
            let child =
              Hive.Syscall.fork sys p ~name:"c" (fun sys c ->
                  let gc =
                    Hive.Syscall.fork sys c ~name:"gc" (fun sys g ->
                        seen := Hive.Syscall.read_word sys g ~vpage:vp ~offset:0)
                  in
                  ignore (Hive.Syscall.wait sys c gc))
            in
            ignore (Hive.Syscall.wait sys p child))
      in
      run_to_completion sys p;
      Alcotest.(check int64) "grandchild saw grandparent's write" 77L !seen)

let test_sibling_isolation () =
  with_sys (fun _eng sys ->
      (* Two children fork from the same parent; each writes its own copy;
         neither sees the other's value. *)
      let a = ref 0L and b = ref 0L in
      let p =
        in_proc sys ~on:0 ~name:"p" (fun sys p ->
            let r = Hive.Syscall.mmap_anon sys p ~npages:1 in
            let vp = r.Hive.Types.start_page in
            Hive.Syscall.write_word sys p ~vpage:vp ~offset:0 1L;
            let c1 =
              Hive.Syscall.fork sys p ~name:"c1" (fun sys c ->
                  Hive.Syscall.write_word sys c ~vpage:vp ~offset:0 100L;
                  Hive.Syscall.compute sys c 5_000_000L;
                  a := Hive.Syscall.read_word sys c ~vpage:vp ~offset:0)
            in
            let c2 =
              Hive.Syscall.fork sys p ~name:"c2" (fun sys c ->
                  Hive.Syscall.write_word sys c ~vpage:vp ~offset:0 200L;
                  Hive.Syscall.compute sys c 5_000_000L;
                  b := Hive.Syscall.read_word sys c ~vpage:vp ~offset:0)
            in
            ignore (Hive.Syscall.wait sys p c1);
            ignore (Hive.Syscall.wait sys p c2))
      in
      run_to_completion sys p;
      Alcotest.(check int64) "c1 kept its copy" 100L !a;
      Alcotest.(check int64) "c2 kept its copy" 200L !b)

let test_parent_write_after_fork_invisible_to_child () =
  with_sys (fun _eng sys ->
      let child_saw = ref 0L in
      let p =
        in_proc sys ~on:0 ~name:"p" (fun sys p ->
            let r = Hive.Syscall.mmap_anon sys p ~npages:1 in
            let vp = r.Hive.Types.start_page in
            Hive.Syscall.write_word sys p ~vpage:vp ~offset:0 5L;
            let gate = Sim.Ivar.create () in
            let child =
              Hive.Syscall.fork sys p ~name:"c" (fun sys c ->
                  ignore (Sim.Ivar.read sys.Hive.Types.eng gate);
                  child_saw := Hive.Syscall.read_word sys c ~vpage:vp ~offset:0)
            in
            (* Parent overwrites after the fork... *)
            Hive.Syscall.write_word sys p ~vpage:vp ~offset:0 6L;
            Sim.Ivar.fill sys.Hive.Types.eng gate ();
            ignore (Hive.Syscall.wait sys p child))
      in
      run_to_completion sys p;
      Alcotest.(check int64) "child sees the pre-fork value" 5L !child_saw)

let test_cow_node_full () =
  with_sys (fun _eng sys ->
      let p =
        in_proc sys ~on:0 ~name:"t" (fun sys p ->
            ignore p;
            let leaf = Hive.Cow.create_root sys ~capacity:4 () in
            for k = 0 to 3 do
              Hive.Cow.record_write sys leaf ~page:k
            done;
            match Hive.Cow.record_write sys leaf ~page:4 with
            | () -> failwith "expected Node_full"
            | exception Hive.Cow.Node_full -> ())
      in
      run_to_completion sys p)

let test_cow_free_clears_tag () =
  with_sys (fun _eng sys ->
      let leaf = ref None in
      let p0 =
        in_proc sys ~on:0 ~name:"t" (fun sys _ ->
            let l = Hive.Cow.create_root sys () in
            Hive.Cow.free_node sys l;
            leaf := Some l)
      in
      run_to_completion sys p0;
      let p1 =
        in_proc sys ~on:1 ~name:"u" (fun sys _ ->
            (* A remote careful walk must now reject the stale pointer. *)
            match Hive.Cow.lookup sys (Option.get !leaf) ~page:0 with
            | Hive.Cow.Defended (Hive.Careful_ref.Bad_tag _) -> ()
            | _ -> failwith "expected tag defense after free")
      in
      run_to_completion sys p1)

let test_cow_lookup_cross_cell () =
  with_sys (fun _eng sys ->
      (* A fork onto cell 1 splits the root: each cell branches it in its
         own memory. *)
      let root = ref None in
      let p0 =
        in_proc sys ~on:0 ~name:"t" (fun sys _ ->
            let r = Hive.Cow.create_root sys () in
            Hive.Cow.record_write sys r ~page:9;
            ignore (Hive.Cow.branch sys r);
            root := Some r)
      in
      run_to_completion sys p0;
      let p1 =
        in_proc sys ~on:1 ~name:"u" (fun sys _ ->
            let cl = Hive.Cow.branch sys (Option.get !root) in
            (* Cell 1 walks from its leaf up to the root on cell 0. *)
            (match Hive.Cow.lookup sys cl ~page:9 with
            | Hive.Cow.Found r -> assert (r.Hive.Types.cow_cell = 0)
            | _ -> failwith "expected Found in remote root");
            match Hive.Cow.lookup sys cl ~page:10 with
            | Hive.Cow.Not_present -> ()
            | _ -> failwith "expected Not_present")
      in
      run_to_completion sys p1)

let test_write_word_refault_bounded () =
  with_sys (fun _eng sys ->
      let p =
        in_proc sys ~on:1 ~name:"t" (fun sys p ->
            (* Import a writable file page from the cell-0 data home. *)
            let path =
              let rec go k =
                let c = Printf.sprintf "/z/refault.%d" k in
                if Hive.Fs.home_of_path sys c = 0 then c else go (k + 1)
              in
              go 0
            in
            let fd =
              Hive.Syscall.creat sys p ~content:(Bytes.make 4096 'r') path
            in
            let r = Hive.Syscall.mmap_file sys p ~fd ~npages:1 ~writable:true in
            let vp = r.Hive.Types.start_page in
            Hive.Syscall.write_word sys p ~vpage:vp ~offset:0 1L;
            (* The home revokes the firewall grant without tearing down the
               import binding (what recovery's mass revocation does): the
               refault hits the local pfdat cache, which still records the
               write grant, and remaps without restoring permission. The
               retry loop must give up with EFAULT instead of recursing
               forever. *)
            let m = Hashtbl.find p.Hive.Types.mappings vp in
            let pfn = m.Hive.Types.map_pf.Hive.Types.pfn in
            let node = Flash.Addr.node_of_pfn sys.Hive.Types.mcfg pfn in
            let fwall = Flash.Machine.firewall sys.Hive.Types.machine in
            Flash.Firewall.reset fwall ~by:node ~pfn;
            (match Hive.Vm.write_word sys p ~vpage:vp ~offset:0 2L with
            | Error Hive.Types.EFAULT -> ()
            | Ok () -> failwith "expected EFAULT"
            | Error _ -> failwith "unexpected errno");
            let c1 = sys.Hive.Types.cells.(1) in
            let retries =
              Sim.Stats.value c1.Hive.Types.counters "vm.refault_retries"
            in
            let bound =
              Hive.Params.max_refault_retries
            in
            if retries <> bound + 1 then
              failwith
                (Printf.sprintf "expected %d refault attempts, saw %d"
                   (bound + 1) retries))
      in
      run_to_completion sys p)

let test_anon_get_careful_failure_reports_hint () =
  with_sys (fun _eng sys ->
      let p =
        in_proc sys ~on:0 ~name:"t" (fun sys p ->
            ignore p;
            let c0 = sys.Hive.Types.cells.(0) in
            let c1 = sys.Hive.Types.cells.(1) in
            (* A remote COW reference whose target is not a COW node: the
               careful tag check must defend, and the failure must be
               reported as a hint against the owner (it may be corrupt),
               not silently swallowed. *)
            let bogus =
              { Hive.Types.cow_cell = 1;
                cow_addr = c1.Hive.Types.kmem.Hive.Types.kmem_base + 8 }
            in
            (match Hive.Vm.anon_get sys c0 bogus ~page:0 ~writable:false with
            | Error Hive.Types.EFAULT -> ()
            | Ok _ -> failwith "expected EFAULT"
            | Error _ -> failwith "unexpected errno");
            assert (
              Sim.Stats.value c0.Hive.Types.counters
                "vm.anon_careful_failures"
              >= 1);
            assert (
              Sim.Stats.value c0.Hive.Types.counters "failure.hints" >= 1);
            assert (Hive.Types.suspects sys ~accuser:0 ~suspect:1))
      in
      run_to_completion sys p)

(* Model-based property: a random interleaving of writes/forks/reads on a
   small anon region behaves like a functional environment model. *)
let qcheck_cow_model =
  QCheck.Test.make ~name:"cow: fork/write/read matches functional model"
    ~count:25
    QCheck.(
      list_of_size Gen.(1 -- 12) (pair (int_bound 3) (int_bound 200)))
    (fun script ->
      (* Interpreted as: (page, v) -> parent writes v to page, forks a
         child that reads all pages and checks against the model, then
         continues. *)
      let eng = Sim.Engine.create () in
      let mcfg =
        { Flash.Config.small with Flash.Config.nodes = 2; mem_pages_per_node = 768 }
      in
      let sys = Hive.System.boot ~mcfg ~ncells:2 ~wax:false eng in
      let ok = ref true in
      let p =
        in_proc sys ~on:0 ~name:"model" (fun sys p ->
            let r = Hive.Syscall.mmap_anon sys p ~npages:4 in
            let vp = r.Hive.Types.start_page in
            let model = Array.make 4 0L in
            let target = ref 1 in
            List.iter
              (fun (page, v) ->
                let v = Int64.of_int (v + 1) in
                Hive.Syscall.write_word sys p ~vpage:(vp + page) ~offset:0 v;
                model.(page) <- v;
                let snapshot = Array.copy model in
                (* Alternate children between the two cells. *)
                target := 1 - !target;
                let child =
                  Hive.Syscall.fork sys p ~on_cell:!target ~name:"check"
                    (fun sys c ->
                      Array.iteri
                        (fun i expected ->
                          let got =
                            Hive.Syscall.read_word sys c ~vpage:(vp + i)
                              ~offset:0
                          in
                          if got <> expected then ok := false)
                        snapshot)
                in
                ignore (Hive.Syscall.wait sys p child))
              script)
      in
      ignore
        (Hive.System.run_until_processes_done sys ~deadline:600_000_000_000L
           [ p ]);
      !ok && p.Hive.Types.exit_code = Some 0)

(* Frames the cell has loaned out. *)
let loans c =
  List.length
    (Hive.Page_alloc.held c (fun _ -> function
       | Hive.Types.Loaned _ -> true
       | _ -> false))

let qcheck_page_alloc_conservation =
  QCheck.Test.make ~name:"page_alloc: borrow/return conserves frames"
    ~count:40
    QCheck.(list_of_size Gen.(1 -- 8) (int_bound 5))
    (fun counts ->
      let eng = Sim.Engine.create () in
      let mcfg =
        { Flash.Config.small with Flash.Config.nodes = 2; mem_pages_per_node = 256 }
      in
      let sys = Hive.System.boot ~mcfg ~ncells:2 ~wax:false eng in
      let c0 = sys.Hive.Types.cells.(0) in
      let c1 = sys.Hive.Types.cells.(1) in
      let total () =
        Hive.Page_alloc.free_count c0
        + Hive.Page_alloc.free_count c1
        + loans c1
      in
      let before = total () in
      let ok = ref true in
      let p =
        in_proc sys ~on:0 ~name:"q" (fun sys p ->
            ignore p;
            List.iter
              (fun n ->
                let got = Hive.Page_alloc.borrow sys c0 ~home:1 ~count:(n + 1) in
                List.iter
                  (fun pfn ->
                    if Hive.Page_alloc.state c0 pfn <> Hive.Types.Free then
                      ok := false)
                  got;
                Hive.Page_alloc.return_frames sys c0 got)
              counts)
      in
      ignore
        (Hive.System.run_until_processes_done sys ~deadline:60_000_000_000L
           [ p ]);
      !ok && total () = before && loans c1 = 0)

let suite =
  [
    Alcotest.test_case "anon pages are zero-filled" `Quick test_anon_zero_fill;
    Alcotest.test_case "word read/write" `Quick test_word_rw;
    Alcotest.test_case "fault outside any region -> EFAULT" `Quick
      test_fault_out_of_region;
    Alcotest.test_case "write fault on read-only region -> EFAULT" `Quick
      test_write_to_readonly_region;
    Alcotest.test_case "grandchild reads through two tree levels" `Quick
      test_grandchild_cow_chain;
    Alcotest.test_case "sibling COW isolation" `Quick test_sibling_isolation;
    Alcotest.test_case "post-fork parent writes invisible to child" `Quick
      test_parent_write_after_fork_invisible_to_child;
    Alcotest.test_case "cow node capacity" `Quick test_cow_node_full;
    Alcotest.test_case "freed cow node fails tag check" `Quick
      test_cow_free_clears_tag;
    Alcotest.test_case "cow lookup across cells" `Quick
      test_cow_lookup_cross_cell;
    Alcotest.test_case "write refault retries are bounded" `Quick
      test_write_word_refault_bounded;
    Alcotest.test_case "careful anon_get failure reports a hint" `Quick
      test_anon_get_careful_failure_reports_hint;
    QCheck_alcotest.to_alcotest qcheck_cow_model;
    QCheck_alcotest.to_alcotest qcheck_page_alloc_conservation;
    Alcotest.test_case "word access refaults a mapping dropped mid-touch" `Quick
      test_word_mapping_dropped_mid_touch;
    Alcotest.test_case "refcount checker matches its list model" `Quick
      test_refcounts_match_model;
  ]
