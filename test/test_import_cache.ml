(* Remote-page import cache, batched releases, invalidation callbacks,
   and the sharing-path leak regressions that motivated them. *)

let with_sys ?(ncells = 2) ?(params = Hive.Params.default) f =
  let eng = Sim.Engine.create () in
  let mcfg =
    { Flash.Config.small with Flash.Config.nodes = ncells; mem_pages_per_node = 768 }
  in
  let sys = Hive.System.boot ~mcfg ~params ~ncells ~wax:false eng in
  f eng sys

let in_thread sys body =
  let eng = sys.Hive.Types.eng in
  let thr = Sim.Engine.spawn eng ~name:"t" body in
  Sim.Engine.run ~until:(Int64.add (Sim.Engine.now eng) 60_000_000_000L) eng;
  Alcotest.(check bool) "thread done" true thr.Sim.Engine.dead

let in_proc sys ~on ~name body =
  Hive.Process.spawn sys sys.Hive.Types.cells.(on) ~name body

let run_to_completion sys p =
  let ok =
    Hive.System.run_until_processes_done sys ~deadline:120_000_000_000L [ p ]
  in
  Alcotest.(check bool) "process finished" true ok;
  Alcotest.(check (option int)) "clean exit" (Some 0) p.Hive.Types.exit_code

let counter (c : Hive.Types.cell) name = Sim.Stats.value c.Hive.Types.counters name

let file_lid ~ino page =
  { Hive.Types.tag = Hive.Types.File_obj { Hive.Types.home = 0; ino }; page }

(* Export a page of a cell-0 object to [client] and import it there,
   mirroring the fs/vm import paths. *)
let share_page sys ~lid ~client ~writable =
  let c0 = sys.Hive.Types.cells.(0) in
  let cc = sys.Hive.Types.cells.(client) in
  let pf = Hive.Page_alloc.alloc_frame sys c0 in
  Hive.Pfdat.insert c0 lid pf;
  Hive.Share.export sys c0 pf ~client ~writable;
  let imp =
    Hive.Share.import sys cc ~pfn:pf.Hive.Types.pfn ~data_home:0 ~lid ~gen:0
      ~writable
  in
  (pf, imp)

(* A writable import through the anon/spanning path (which calls
   Share.import directly, not the fs paths) must carry the client-side
   grant bookkeeping itself: before the fix only the fs.ml call sites set
   write_granted_to, so an anon writable import left the firewall state
   and the pfdat inconsistent. *)
let test_writable_anon_import_grants () =
  with_sys (fun _eng sys ->
      in_thread sys (fun () ->
          let c0 = sys.Hive.Types.cells.(0) in
          let lid =
            { Hive.Types.tag =
                Hive.Types.Anon_obj { cow_home = 0; node_id = 42 };
              page = 0 }
          in
          let _pf, imp = share_page sys ~lid ~client:1 ~writable:true in
          Alcotest.(check bool) "client grant recorded on the import" true
            (List.mem 1 imp.Hive.Types.write_granted_to);
          Alcotest.(check bool) "writable import marked dirty" true
            imp.Hive.Types.dirty;
          Alcotest.(check int) "firewall counts the writable export" 1
            (Hive.Wild_write.remotely_writable_pages sys c0);
          (* A writable import is never parked: release really releases. *)
          Hive.Share.release sys sys.Hive.Types.cells.(1) imp;
          Alcotest.(check bool) "released, not parked" true
            (imp.Hive.Types.imported_from = None && not imp.Hive.Types.cached);
          Alcotest.(check int) "firewall grant revoked" 0
            (Hive.Wild_write.remotely_writable_pages sys c0)))

(* Releasing a read-only file import parks it; a later writable export of
   the same page to a third cell must invalidate the parked binding
   through the share.invalidate callback and retire the export record. *)
let test_writable_export_invalidates_parked () =
  with_sys ~ncells:3 (fun _eng sys ->
      in_thread sys (fun () ->
          let c0 = sys.Hive.Types.cells.(0) in
          let c1 = sys.Hive.Types.cells.(1) in
          let lid = file_lid ~ino:900 0 in
          let pf, imp = share_page sys ~lid ~client:1 ~writable:false in
          Hive.Share.release sys c1 imp;
          Alcotest.(check bool) "binding parked" true
            (imp.Hive.Types.cached
            && List.memq imp (Hive.Types.parked_bindings c1));
          Alcotest.(check int) "insertion counted" 1
            (counter c1 "share.cache_insertions");
          (* Cell 2 wants the page writable: cell 1's parked copy must go. *)
          Hive.Share.export sys c0 pf ~client:2 ~writable:true;
          Alcotest.(check bool) "parked binding invalidated" true
            (Hive.Pfdat.lookup c1 lid = None);
          Alcotest.(check (list int)) "cache emptied" []
            (List.map (fun (p : Hive.Types.pfdat) -> p.Hive.Types.pfn)
               (Hive.Types.parked_bindings c1));
          Alcotest.(check int) "invalidation counted" 1
            (counter c1 "share.cache_invalidations");
          Alcotest.(check bool) "export record retired at the home" true
            (not (List.mem 1 pf.Hive.Types.exported_to));
          Alcotest.(check bool) "writable client still exported" true
            (List.mem 2 pf.Hive.Types.exported_to)))

(* The cache is bounded: parking beyond capacity evicts (and really
   releases) the least-recently-parked binding. *)
let test_cache_eviction_at_capacity () =
  let params = { Hive.Params.default with Hive.Params.import_cache_pages = 2 } in
  with_sys ~params (fun _eng sys ->
      in_thread sys (fun () ->
          let c1 = sys.Hive.Types.cells.(1) in
          let imports =
            List.map
              (fun page ->
                let lid = file_lid ~ino:901 page in
                let _pf, imp = share_page sys ~lid ~client:1 ~writable:false in
                imp)
              [ 0; 1; 2 ]
          in
          List.iter (fun imp -> Hive.Share.release sys c1 imp) imports;
          Alcotest.(check int) "cache bounded at capacity" 2
            (List.length (Hive.Types.parked_bindings c1));
          Alcotest.(check int) "eviction counted" 1
            (counter c1 "share.cache_evictions");
          let oldest = List.nth imports 0 in
          Alcotest.(check bool) "evicted binding fully released" true
            (oldest.Hive.Types.imported_from = None
            && not oldest.Hive.Types.cached)))

(* Recovery flush: no parked binding survives flush_remote_bindings (the
   pre-barrier-1 step) — the data home may be dead or about to discard. *)
let test_recovery_flush_drops_parked () =
  with_sys (fun _eng sys ->
      in_thread sys (fun () ->
          let c1 = sys.Hive.Types.cells.(1) in
          let lid = file_lid ~ino:902 0 in
          let _pf, imp = share_page sys ~lid ~client:1 ~writable:false in
          Hive.Share.release sys c1 imp;
          Alcotest.(check bool) "binding parked" true imp.Hive.Types.cached;
          Hive.Vm.flush_remote_bindings sys c1;
          Alcotest.(check int) "import cache flushed" 0
            (List.length (Hive.Types.parked_bindings c1));
          Alcotest.(check bool) "binding gone" true
            (Hive.Pfdat.lookup c1 lid = None)))

let drop_everything sys =
  let now = Sim.Engine.now sys.Hive.Types.eng in
  Flash.Sips.degrade
    (Flash.Machine.sips sys.Hive.Types.machine)
    ~rng:(Sim.Prng.of_int64 0x5eedL)
    {
      Flash.Sips.deg_from = -1;
      deg_to = -1;
      from_ns = now;
      until_ns = Int64.add now 55_000_000_000L;
      drop_pct = 100;
      dup_pct = 0;
      delay_pct = 0;
      max_delay_ns = 0L;
    }

(* A release whose RPC is lost must not vanish silently: the client
   counts it and raises a failure hint naming the data home (the export
   record over there may now be leaked until recovery). *)
let test_lost_release_counted_and_hinted () =
  with_sys (fun _eng sys ->
      let hints = ref [] in
      sys.Hive.Types.on_hint <-
        Some (fun _c ~suspect ~reason -> hints := (suspect, reason) :: !hints);
      in_thread sys (fun () ->
          let c1 = sys.Hive.Types.cells.(1) in
          (* Writable, so release takes the RPC path rather than parking. *)
          let lid = file_lid ~ino:903 0 in
          let _pf, imp = share_page sys ~lid ~client:1 ~writable:true in
          drop_everything sys;
          Hive.Share.release sys c1 imp;
          Alcotest.(check int) "lost release counted" 1
            (counter c1 "share.release_lost");
          Alcotest.(check bool) "failure hint raised against the home" true
            (List.exists (fun (suspect, _) -> suspect = 0) !hints)))

(* close() must not swallow a failed bulk release invisibly: the error is
   counted, and the counter rides into the metrics JSON. *)
let test_close_counts_lost_batch_release () =
  with_sys (fun _eng sys ->
      sys.Hive.Types.on_hint <- Some (fun _c ~suspect:_ ~reason:_ -> ());
      let p =
        in_proc sys ~on:1 ~name:"t" (fun sys p ->
            let fd = Hive.Syscall.creat sys p "/tmp/lost-release.dat" in
            ignore (Hive.Syscall.write sys p ~fd (Bytes.make 4096 'x'));
            drop_everything sys;
            Hive.Syscall.close sys p ~fd)
      in
      run_to_completion sys p;
      let c1 = sys.Hive.Types.cells.(1) in
      Alcotest.(check bool) "swallowed release error counted" true
        (counter c1 "fs.release_errors" >= 1);
      Alcotest.(check bool) "lost release counted" true
        (counter c1 "share.release_lost" >= 1);
      let json = Hive.Metrics.to_json sys in
      let contains hay needle =
        let nl = String.length needle and hl = String.length hay in
        let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "surfaced in metrics JSON" true
        (contains json "fs.release_errors"))

(* A vectored locate crossing EOF must stop at the last page: no binding,
   client or home side, past the end of the file. *)
let test_locate_batch_stops_at_eof () =
  with_sys (fun _eng sys ->
      let p =
        in_proc sys ~on:1 ~name:"t" (fun sys p ->
            let fd =
              Hive.Syscall.creat sys p ~content:(Bytes.make 10000 'e')
                "/tmp/eof.dat"
            in
            ignore (Hive.Syscall.pread sys p ~fd ~pos:0 ~len:10000);
            Hive.Syscall.close sys p ~fd)
      in
      run_to_completion sys p;
      let last_page = 10000 / Flash.Config.page_size in
      (match Hive.Fs.find_local sys.Hive.Types.cells.(0) "/tmp/eof.dat" with
      | Some f ->
        Hashtbl.iter
          (fun pg _ ->
            Alcotest.(check bool) "home caches no page past EOF" true
              (pg <= last_page))
          f.Hive.Types.cached_pages
      | None -> Alcotest.fail "file missing at home");
      Hive.Pfdat.iter_pages sys.Hive.Types.cells.(1) (fun pf ->
          match pf.Hive.Types.lid with
          | Some { Hive.Types.page; _ } ->
            Alcotest.(check bool) "client binds no page past EOF" true
              (page <= last_page)
          | None -> ()))

(* A generation bump landing while a vectored locate is paging in its
   batch must fail the whole batch with EIO — never export a mix of pre-
   and post-discard pages. *)
let test_gen_bump_mid_batch_fails_whole_batch () =
  with_sys (fun _eng sys ->
      let got_eio = ref false in
      let p =
        in_proc sys ~on:1 ~name:"t" (fun sys p ->
            let fd =
              Hive.Syscall.creat sys p ~content:(Bytes.make 32768 'g')
                "/tmp/genbump.dat"
            in
            (* The batch read below pages 8 uncached pages in from disk at
               the home; land a dirty-page discard (generation bump) in
               the middle of that. *)
            ignore
              (Sim.Engine.spawn sys.Hive.Types.eng ~name:"bump" (fun () ->
                   Sim.Engine.delay 5_000_000L;
                   let c0 = sys.Hive.Types.cells.(0) in
                   match Hive.Fs.find_local c0 "/tmp/genbump.dat" with
                   | Some f ->
                     Hive.Fs.note_discard sys c0 f ~page:0 ~dirty:true
                   | None -> ()));
            (try ignore (Hive.Syscall.pread sys p ~fd ~pos:0 ~len:32768)
             with Hive.Types.Syscall_error Hive.Types.EIO -> got_eio := true);
            Hive.Syscall.close sys p ~fd)
      in
      run_to_completion sys p;
      Alcotest.(check bool) "whole batch failed with EIO" true !got_eio;
      let stale = ref 0 in
      Hive.Pfdat.iter_pages sys.Hive.Types.cells.(1) (fun pf ->
          if pf.Hive.Types.imported_from <> None then incr stale);
      Alcotest.(check int) "no stale page imported" 0 !stale)

(* Sequential fault streams grow the adaptive read-ahead window: far
   fewer locate RPCs than pages, with the read-ahead pages counted. *)
let test_fault_readahead_batches_locates () =
  with_sys (fun _eng sys ->
      let npages = 16 in
      let p =
        in_proc sys ~on:1 ~name:"t" (fun sys p ->
            let fd =
              Hive.Syscall.creat sys p
                ~content:(Bytes.make (npages * Flash.Config.page_size) 'r')
                "/tmp/ra.dat"
            in
            let reg = Hive.Syscall.mmap_file sys p ~fd ~npages ~writable:false in
            for k = 0 to npages - 1 do
              Hive.Syscall.touch sys p
                ~vpage:(reg.Hive.Types.start_page + k)
                ~write:false
            done)
      in
      run_to_completion sys p;
      let c1 = sys.Hive.Types.cells.(1) in
      Alcotest.(check bool) "fewer locates than pages" true
        (counter c1 "fs.remote_locates" < npages / 2);
      Alcotest.(check bool) "read-ahead pages counted" true
        (counter c1 "fs.readahead_pages" > 0))

(* [enable_import_cache = false] alone selects the whole pre-cache
   protocol: a sequential fault pass locates one page per fault, a re-read
   after the bindings were dropped finds nothing parked, and every release
   (including the writable ones a rewrite leaves at close) is its own
   share.release RPC, never a vectored release_batch. With the default
   params each of these checks fails. *)
let test_cache_off_is_legacy_protocol () =
  let params = { Hive.Params.default with enable_import_cache = false } in
  with_sys ~params (fun eng sys ->
      let npages = 16 in
      let path = "/tmp/legacy.dat" in
      let fault_pass =
        in_proc sys ~on:1 ~name:"faults" (fun sys p ->
            let fd =
              Hive.Syscall.creat sys p
                ~content:(Bytes.make (npages * Flash.Config.page_size) 'l')
                path
            in
            let reg = Hive.Syscall.mmap_file sys p ~fd ~npages ~writable:false in
            for k = 0 to npages - 1 do
              Hive.Syscall.touch sys p
                ~vpage:(reg.Hive.Types.start_page + k)
                ~write:false
            done;
            Hive.Syscall.close sys p ~fd)
      in
      run_to_completion sys fault_pass;
      let read_pass =
        in_proc sys ~on:1 ~name:"reads" (fun sys p ->
            let len = npages * Flash.Config.page_size in
            let fd = Hive.Syscall.openf sys p path in
            ignore (Hive.Syscall.pread sys p ~fd ~pos:0 ~len);
            Hive.Syscall.close sys p ~fd;
            let fd = Hive.Syscall.openf sys p ~writable:true path in
            ignore (Hive.Syscall.pwrite sys p ~fd ~pos:0 (Bytes.make len 'm'));
            Hive.Syscall.close sys p ~fd)
      in
      run_to_completion sys read_pass;
      (* Let the reaper drain the fault pass's exit-time releases. *)
      Sim.Engine.run ~until:(Int64.add (Sim.Engine.now eng) 1_000_000_000L) eng;
      let total = Hive.System.counter_total sys in
      let calls op =
        match
          Hive.Metrics.Snapshot.client_hist (Hive.Metrics.capture sys) op
        with
        | Some h -> h.Hive.Metrics.Snapshot.count
        | None -> 0
      in
      Alcotest.(check int) "no fault read-ahead" 0 (total "fs.readahead_pages");
      Alcotest.(check int) "no cache hits" 0 (total "share.cache_hits");
      Alcotest.(check int) "no vectored releases" 0
        (calls "share.release_batch");
      Alcotest.(check bool) "pages were imported" true
        (total "share.imports" >= 2 * npages);
      Alcotest.(check int) "one release RPC per imported page"
        (total "share.imports") (calls "share.release"))

(* Everything above must leave the system consistent under the new
   import-cache invariant (and all the old ones). *)
let test_invariants_hold_after_cache_traffic () =
  with_sys ~ncells:3 (fun _eng sys ->
      in_thread sys (fun () ->
          let c1 = sys.Hive.Types.cells.(1) in
          let c2 = sys.Hive.Types.cells.(2) in
          List.iter
            (fun page ->
              let lid = file_lid ~ino:905 page in
              let pf, imp = share_page sys ~lid ~client:1 ~writable:false in
              Hive.Share.release sys c1 imp;
              if page mod 2 = 0 then begin
                Hive.Share.export sys sys.Hive.Types.cells.(0) pf ~client:2
                  ~writable:false;
                let imp2 =
                  Hive.Share.import sys c2 ~pfn:pf.Hive.Types.pfn ~data_home:0
                    ~lid ~gen:0 ~writable:false
                in
                Hive.Share.release sys c2 imp2
              end)
            [ 0; 1; 2; 3; 4; 5 ]);
      Alcotest.(check (list string)) "no invariant violations" []
        (List.map
           (fun v -> v.Hive.Invariants.inv ^ ": " ^ v.Hive.Invariants.detail)
           (Hive.Invariants.check sys)))

(* Eviction drops the least recently *parked* live binding: a hit takes
   a binding out of the cache, and parking it again makes it the newest,
   so the binding parked second is the one evicted. *)
let test_eviction_order_after_hit_and_repark () =
  let params = { Hive.Params.default with Hive.Params.import_cache_pages = 2 } in
  with_sys ~params (fun _eng sys ->
      in_thread sys (fun () ->
          let c1 = sys.Hive.Types.cells.(1) in
          let imp page =
            snd (share_page sys ~lid:(file_lid ~ino:906 page) ~client:1
                   ~writable:false)
          in
          let a = imp 0 and b = imp 1 and c = imp 2 in
          Hive.Share.release sys c1 a;
          Hive.Share.release sys c1 b;
          Hive.Share.cache_hit c1 a;
          Hive.Share.release sys c1 a;
          Alcotest.(check (list int)) "most recently parked first"
            [ a.Hive.Types.pfn; b.Hive.Types.pfn ]
            (List.map (fun (p : Hive.Types.pfdat) -> p.Hive.Types.pfn)
               (Hive.Types.parked_bindings c1));
          Hive.Share.release sys c1 c;
          Alcotest.(check bool) "b evicted and released" true
            ((not b.Hive.Types.cached) && b.Hive.Types.imported_from = None);
          Alcotest.(check bool) "a and c still parked" true
            (a.Hive.Types.cached && c.Hive.Types.cached);
          Alcotest.(check int) "live count" 2
            c1.Hive.Types.import_cache.Hive.Types.live))

(* The import-cache checker sees the cache's own bookkeeping drift, not
   just bad bindings: a wrong live count, a live entry whose binding is
   not marked cached, and a cached binding without a live entry. *)
let test_import_cache_checker_sees_drift () =
  with_sys (fun _eng sys ->
      let c1 = sys.Hive.Types.cells.(1) in
      let parked = ref [] in
      in_thread sys (fun () ->
          parked :=
            List.map
              (fun page ->
                let _pf, imp =
                  share_page sys ~lid:(file_lid ~ino:907 page) ~client:1
                    ~writable:false
                in
                Hive.Share.release sys c1 imp;
                imp)
              [ 0; 1; 2 ];
          (* a hit and a re-park leave a dead entry behind *)
          Hive.Share.cache_hit c1 (List.hd !parked);
          Hive.Share.release sys c1 (List.hd !parked));
      let details () =
        List.map
          (fun v -> v.Hive.Invariants.detail)
          (Hive.Invariants.check_import_cache sys ~cells:[ c1 ])
      in
      let mentions needle =
        List.exists
          (fun d ->
            let n = String.length needle in
            let rec go i =
              i + n <= String.length d && (String.sub d i n = needle || go (i + 1))
            in
            go 0)
          (details ())
      in
      Alcotest.(check (list string)) "clean" [] (details ());
      let ic = c1.Hive.Types.import_cache in
      ic.Hive.Types.live <- ic.Hive.Types.live + 1;
      Alcotest.(check bool) "live count drift" true (mentions "live count 4");
      ic.Hive.Types.live <- ic.Hive.Types.live - 1;
      let pf = List.nth !parked 1 in
      pf.Hive.Types.cached <- false;
      Alcotest.(check bool) "entry not marked cached" true
        (mentions "in cache list but not marked cached");
      pf.Hive.Types.cached <- true;
      let stamp = pf.Hive.Types.park_stamp in
      pf.Hive.Types.park_stamp <- 0;
      Alcotest.(check bool) "cached without an entry" true
        (mentions "marked cached but absent");
      pf.Hive.Types.park_stamp <- stamp;
      Alcotest.(check (list string)) "clean again" [] (details ()))

let suite =
  [
    Alcotest.test_case "writable anon import carries the firewall grant"
      `Quick test_writable_anon_import_grants;
    Alcotest.test_case "writable export invalidates parked bindings" `Quick
      test_writable_export_invalidates_parked;
    Alcotest.test_case "cache evicts at capacity" `Quick
      test_cache_eviction_at_capacity;
    Alcotest.test_case "recovery flush drops parked bindings" `Quick
      test_recovery_flush_drops_parked;
    Alcotest.test_case "lost release is counted and hinted" `Quick
      test_lost_release_counted_and_hinted;
    Alcotest.test_case "close counts a lost batch release" `Quick
      test_close_counts_lost_batch_release;
    Alcotest.test_case "vectored locate stops at EOF" `Quick
      test_locate_batch_stops_at_eof;
    Alcotest.test_case "generation bump mid-batch fails the whole batch"
      `Quick test_gen_bump_mid_batch_fails_whole_batch;
    Alcotest.test_case "sequential faults batch their locates" `Quick
      test_fault_readahead_batches_locates;
    Alcotest.test_case "cache off alone selects the legacy protocol" `Quick
      test_cache_off_is_legacy_protocol;
    Alcotest.test_case "invariants hold after cache traffic" `Quick
      test_invariants_hold_after_cache_traffic;
    Alcotest.test_case "eviction order after a hit and a re-park" `Quick
      test_eviction_order_after_hit_and_repark;
    Alcotest.test_case "import-cache checker sees bookkeeping drift" `Quick
      test_import_cache_checker_sees_drift;
  ]
