(* Memory-sharing corner cases: the logical/physical interactions of
   Section 5.5 and the Wax-directed clock hand. *)

(* Frames the cell has loaned out. *)
let loans c =
  List.length
    (Hive.Page_alloc.held c (fun _ -> function
       | Hive.Types.Loaned _ -> true
       | _ -> false))

let with_sys ?(ncells = 2) f =
  let eng = Sim.Engine.create () in
  let mcfg =
    { Flash.Config.small with Flash.Config.nodes = ncells; mem_pages_per_node = 512 }
  in
  let sys = Hive.System.boot ~mcfg ~ncells ~wax:false eng in
  f eng sys

(* Run [body] in a thread of cell 0, which it acts as. *)
let in_thread sys body =
  let eng = sys.Hive.Types.eng in
  let thr = Sim.Engine.spawn eng ~name:"t" ~owner:0 body in
  Sim.Engine.run ~until:(Int64.add (Sim.Engine.now eng) 60_000_000_000L) eng;
  Alcotest.(check bool) "thread done" true thr.Sim.Engine.dead

(* A frame simultaneously loaned out and imported back into its memory
   home (the CC-NUMA placement optimization): the import is an ordinary
   one, and the loan stays the frame pool's state throughout. *)
let test_loaned_and_reimported () =
  with_sys (fun _eng sys ->
      in_thread sys (fun () ->
          let c0 = sys.Hive.Types.cells.(0) in
          let c1 = sys.Hive.Types.cells.(1) in
          (* Cell 0 borrows a frame from cell 1 (cell 1 = memory home). *)
          let pfns = Hive.Page_alloc.borrow sys c0 ~home:1 ~count:1 in
          let pfn = List.hd pfns in
          Alcotest.(check bool) "loan recorded at memory home" true
            (Hive.Page_alloc.state c1 pfn = Hive.Types.Loaned 0);
          (* Cell 0 (data home) caches a logical page in the borrowed
             frame, which it allocates after its own, and exports it back
             to cell 1. *)
          let rec alloc_borrowed () =
            let pf = Hive.Page_alloc.alloc sys c0 in
            if pf.Hive.Types.pfn = pfn then pf else alloc_borrowed ()
          in
          let data_pf = alloc_borrowed () in
          Alcotest.(check bool) "borrowed frame in use" true
            (Hive.Page_alloc.state c0 pfn = Hive.Types.In_use);
          let lid =
            { Hive.Types.tag =
                Hive.Types.File_obj { Hive.Types.home = 0; ino = 777 };
              page = 0 }
          in
          Hive.Pfdat.insert c0 lid data_pf;
          Hive.Share.export sys c0 data_pf ~client:1 ~writable:false;
          (* Cell 1 imports the page that physically lives in its own
             loaned frame. *)
          let imp =
            Hive.Share.import sys c1 ~pfn ~data_home:0 ~lid ~gen:0
              ~writable:false
          in
          Alcotest.(check bool) "logical level bound" true
            (match imp.Hive.Types.role with
            | Hive.Types.Import { home; _ } -> home = 0
            | _ -> false);
          Alcotest.(check bool) "physical level intact" true
            (Hive.Page_alloc.state c1 pfn = Hive.Types.Loaned 0);
          Alcotest.(check int) "reimport counted" 1
            (Sim.Stats.value c1.Hive.Types.counters "share.reimports");
          (* Releasing the import parks it like any read-only import,
             and keeps the loan. *)
          Hive.Share.release sys c1 imp;
          Alcotest.(check bool) "import released to the cache" true
            (Hive.Pfdat.parked imp);
          Alcotest.(check bool) "loan survives release" true
            (Hive.Page_alloc.state c1 pfn = Hive.Types.Loaned 0)))

(* A loan grants the borrower's processors write access to the frame;
   its return resets the frame's vector to the memory home's default. *)
let test_loan_grants_borrower () =
  with_sys (fun _eng sys ->
      in_thread sys (fun () ->
          let c0 = sys.Hive.Types.cells.(0) in
          let c1 = sys.Hive.Types.cells.(1) in
          let fw = Flash.Machine.firewall sys.Hive.Types.machine in
          let pfn = List.hd (Hive.Page_alloc.borrow sys c0 ~home:1 ~count:1) in
          let allowed proc = Flash.Firewall.allowed fw ~pfn ~proc in
          Alcotest.(check bool) "borrower granted" true (allowed 0);
          Alcotest.(check bool) "home keeps its own" true (allowed 1);
          Hive.Page_alloc.return_frames sys c0 [ pfn ];
          Alcotest.(check bool) "loan ended" true
            (Hive.Page_alloc.state c1 pfn = Hive.Types.Free);
          Alcotest.(check bool) "return revokes the borrower" false (allowed 0);
          Alcotest.(check bool) "home still writes" true (allowed 1)))

(* An illegal frame transition panics the cell that attempts it, with a
   reason naming the time, the cell, the pfn, the state and the
   transition. [attempt] sets up and returns the pfn and the illegal
   step. *)
let check_illegal ~cell ~expect attempt () =
  with_sys (fun _eng sys ->
      let got = ref "" and wanted = ref "" and down = ref false in
      in_thread sys (fun () ->
          let pfn, step = attempt sys in
          wanted :=
            Printf.sprintf "t=%Ldns cell %d pfn %d: illegal %s"
              (Sim.Engine.time ()) cell pfn expect;
          match step () with
          | () -> ()
          | exception Hive.Panic.Kernel_corruption r ->
            got := r;
            down := not (Hive.Types.cell_alive sys.Hive.Types.cells.(cell)));
      Alcotest.(check string) "panic reason" !wanted !got;
      Alcotest.(check bool) "cell panicked" true !down)

let double_release sys =
  let c0 = sys.Hive.Types.cells.(0) in
  let pf = Hive.Page_alloc.alloc sys c0 in
  Hive.Page_alloc.release sys c0 pf;
  (pf.Hive.Types.pfn, fun () -> Hive.Page_alloc.release sys c0 pf)

let release_loaned sys =
  let c0 = sys.Hive.Types.cells.(0) in
  let c1 = sys.Hive.Types.cells.(1) in
  let pfn = List.hd (Hive.Page_alloc.borrow sys c0 ~home:1 ~count:1) in
  (pfn, fun () -> Hive.Page_alloc.release sys c1 (Hive.Pfdat.make ~pfn))

let unloan_free sys =
  let c0 = sys.Hive.Types.cells.(0) in
  let pf = Hive.Page_alloc.alloc sys c0 in
  Hive.Page_alloc.release sys c0 pf;
  (pf.Hive.Types.pfn, fun () -> Hive.Page_alloc.unloan sys c0 pf.Hive.Types.pfn)

let test_clock_hand_returns_borrowed_frames () =
  with_sys (fun eng sys ->
      in_thread sys (fun () ->
          let c0 = sys.Hive.Types.cells.(0) in
          let c1 = sys.Hive.Types.cells.(1) in
          let loans_before = loans c1 in
          ignore (Hive.Page_alloc.borrow sys c0 ~home:1 ~count:4);
          Alcotest.(check int) "loans outstanding" (loans_before + 4)
            (loans c1);
          (* Wax marks cell 1 as pressured; the clock hand must return the
             idle borrowed frames on its next sweep. *)
          c0.Hive.Types.clock_hand_targets <- [ 1 ]);
      Sim.Engine.run ~until:(Int64.add (Sim.Engine.now eng) 600_000_000L) eng;
      let c1 = sys.Hive.Types.cells.(1) in
      Alcotest.(check int) "loans returned by the clock hand" 0
        (loans c1);
      let c0 = sys.Hive.Types.cells.(0) in
      Alcotest.(check bool) "clock hand counted its work" true
        (Sim.Stats.value c0.Hive.Types.counters "clock_hand.released" >= 4))

let test_borrowed_frames_not_returned_without_hint () =
  with_sys (fun eng sys ->
      in_thread sys (fun () ->
          let c0 = sys.Hive.Types.cells.(0) in
          ignore (Hive.Page_alloc.borrow sys c0 ~home:1 ~count:2));
      (* No Wax hint: several sweeps later the loan must still stand
         (the data home keeps its CC-NUMA placement). *)
      Sim.Engine.run ~until:(Int64.add (Sim.Engine.now eng) 600_000_000L) eng;
      let c1 = sys.Hive.Types.cells.(1) in
      Alcotest.(check int) "loans kept without pressure hint" 2
        (loans c1))

let test_exhaustion_borrows_transparently () =
  (* Allocating far beyond a cell's own memory transparently borrows from
     the other cell (physical-level sharing under pressure). *)
  with_sys (fun _eng sys ->
      in_thread sys (fun () ->
          let c0 = sys.Hive.Types.cells.(0) in
          let own_pages = Hive.Page_alloc.free_count c0 in
          let n = own_pages + 64 in
          let remote = ref 0 in
          for _ = 1 to n do
            let pf = Hive.Page_alloc.alloc sys c0 in
            if Flash.Addr.node_of_pfn sys.Hive.Types.mcfg pf.Hive.Types.pfn <> 0
            then incr remote
          done;
          Alcotest.(check bool) "borrowed under pressure" true (!remote >= 64)))

(* A revoke drops the grant record in the step that clears the firewall
   bits, before it waits for the flush: an invariant check taken between
   the two finds the record and the hardware in agreement. *)
let test_revoke_mid_flush () =
  with_sys (fun eng sys ->
      let c0 = sys.Hive.Types.cells.(0) in
      let pf = ref (Hive.Pfdat.make ~pfn:(-1)) in
      in_thread sys (fun () ->
          pf := Hive.Page_alloc.alloc sys c0;
          Hive.Pfdat.insert c0
            { Hive.Types.tag =
                Hive.Types.File_obj { Hive.Types.home = 0; ino = 600 };
              page = 0 }
            !pf;
          Hive.Share.export sys c0 !pf ~client:1 ~writable:true);
      let pf = !pf in
      Alcotest.(check (list int)) "granted" [ 1 ] pf.Hive.Types.write_granted_to;
      let fw = Flash.Machine.firewall sys.Hive.Types.machine in
      let allowed () =
        Flash.Firewall.allowed fw ~pfn:pf.Hive.Types.pfn
          ~proc:(List.hd sys.Hive.Types.cells.(1).Hive.Types.cell_nodes)
      in
      let bits = ref true and grants = ref [] and found = ref [] in
      ignore
        (Sim.Engine.spawn eng ~name:"revoke" ~owner:0 (fun () ->
             Hive.Wild_write.revoke_client sys c0 pf ~client:1));
      ignore
        (Sim.Engine.spawn eng ~name:"check" (fun () ->
             (* After the bits change, before the flush ends. *)
             Sim.Engine.delay
               (Int64.add Flash.Config.uncached_op_ns
                  (Int64.div Flash.Config.mem_ns 2L));
             bits := allowed ();
             grants := pf.Hive.Types.write_granted_to;
             found :=
               Hive.Invariants.check sys
               |> List.filter (fun (v : Hive.Invariants.violation) ->
                      v.Hive.Invariants.inv = "firewall-grant")
               |> List.map Hive.Invariants.to_string));
      Sim.Engine.run ~until:(Int64.add (Sim.Engine.now eng) 1_000_000_000L) eng;
      Alcotest.(check (list string)) "no firewall-grant violation" [] !found;
      Alcotest.(check bool) "bits cleared mid-flush" false !bits;
      Alcotest.(check (list int)) "record dropped mid-flush" [] !grants)

(* From a thread, run [f] in a thread of cell [owner] and wait for it: a
   thread acts as one cell, so another cell's step gets its own. *)
let as_cell sys owner f =
  let eng = sys.Hive.Types.eng in
  let iv = Sim.Ivar.create () in
  ignore
    (Sim.Engine.spawn eng ~name:"step" ~owner (fun () ->
         f ();
         Sim.Ivar.fill eng iv ()));
  Sim.Ivar.read_exn eng iv

(* Property: the firewall's remotely-writable page count on the home
   always equals the number of pages with an outstanding writable export,
   through any interleaving of writable/read-only exports and releases. *)
let qcheck_firewall_tracks_exports =
  QCheck.Test.make
    ~name:"firewall count equals outstanding writable exports" ~count:30
    QCheck.(list_of_size Gen.(1 -- 20) (pair (int_bound 7) bool))
    (fun script ->
      let eng = Sim.Engine.create () in
      let mcfg =
        { Flash.Config.small with Flash.Config.nodes = 2; mem_pages_per_node = 512 }
      in
      let sys = Hive.System.boot ~mcfg ~ncells:2 ~wax:false eng in
      let ok = ref true in
      let thr =
        Sim.Engine.spawn eng ~name:"q" ~owner:0 (fun () ->
            let c0 = sys.Hive.Types.cells.(0) in
            let c1 = sys.Hive.Types.cells.(1) in
            (* Eight pages of a cell-0 file. *)
            let pfs =
              List.init 8 (fun page ->
                  let pf = Hive.Page_alloc.alloc sys c0 in
                  let lid =
                    { Hive.Types.tag =
                        Hive.Types.File_obj { Hive.Types.home = 0; ino = 500 };
                      page }
                  in
                  Hive.Pfdat.insert c0 lid pf;
                  (lid, pf))
            in
            let writable_exports = Hashtbl.create 8 in
            List.iter
              (fun (page, writable) ->
                let lid, pf = List.nth pfs page in
                if Hashtbl.mem writable_exports page then begin
                  (* Release from the client side. *)
                  (match Hive.Pfdat.lookup c1 lid with
                  | Some imp ->
                    as_cell sys 1 (fun () -> Hive.Share.release sys c1 imp)
                  | None -> ());
                  Hashtbl.remove writable_exports page
                end
                else begin
                  Hive.Share.export sys c0 pf ~client:1 ~writable;
                  ignore
                    (Hive.Share.import sys c1 ~pfn:pf.Hive.Types.pfn
                       ~data_home:0 ~lid ~gen:0 ~writable);
                  if writable then Hashtbl.replace writable_exports page ()
                end;
                let expected = Hashtbl.length writable_exports in
                let measured =
                  Hive.Wild_write.remotely_writable_pages sys c0
                in
                if measured <> expected then ok := false)
              script)
      in
      Sim.Engine.run ~until:(Int64.add (Sim.Engine.now eng) 60_000_000_000L) eng;
      !ok && thr.Sim.Engine.dead)

let suite =
  [
    Alcotest.test_case "loaned frame reimported: ordinary import (S5.5)"
      `Quick test_loaned_and_reimported;
    Alcotest.test_case "loan grants the borrower, return resets" `Quick
      test_loan_grants_borrower;
    Alcotest.test_case "double release panics the cell" `Quick
      (check_illegal ~cell:0 ~expect:"release of a frame that is free"
         double_release);
    Alcotest.test_case "release of a loaned frame panics" `Quick
      (check_illegal ~cell:1
         ~expect:"release of a frame that is loaned to cell 0" release_loaned);
    Alcotest.test_case "unloan of a free frame panics" `Quick
      (check_illegal ~cell:0 ~expect:"unloan of a frame that is free"
         unloan_free);
    Alcotest.test_case "clock hand returns loans to pressured homes" `Quick
      test_clock_hand_returns_borrowed_frames;
    Alcotest.test_case "loans kept without pressure hint" `Quick
      test_borrowed_frames_not_returned_without_hint;
    Alcotest.test_case "allocation borrows transparently when exhausted"
      `Quick test_exhaustion_borrows_transparently;
    Alcotest.test_case "revoke drops the grant with the bits" `Quick
      test_revoke_mid_flush;
    QCheck_alcotest.to_alcotest qcheck_firewall_tracks_exports;
  ]
