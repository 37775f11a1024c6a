(* File system unit tests: creation, truncation, read/write, sizes,
   persistence, generations, remote attribute propagation. *)

let with_sys ?(ncells = 2) f =
  let eng = Sim.Engine.create () in
  let mcfg =
    { Flash.Config.small with Flash.Config.nodes = ncells; mem_pages_per_node = 768 }
  in
  let sys = Hive.System.boot ~mcfg ~ncells ~wax:false eng in
  f eng sys

let run_to_completion sys p =
  let ok =
    Hive.System.run_until_processes_done sys ~deadline:120_000_000_000L [ p ]
  in
  Alcotest.(check bool) "process finished" true ok;
  Alcotest.(check (option int)) "clean exit" (Some 0) p.Hive.Types.exit_code

let in_proc sys ~on ~name body =
  Hive.Process.spawn sys sys.Hive.Types.cells.(on) ~name body

let test_create_read_roundtrip () =
  with_sys (fun _eng sys ->
      let p =
        in_proc sys ~on:0 ~name:"t" (fun sys p ->
            let fd =
              Hive.Syscall.creat sys p
                ~content:(Bytes.of_string "the quick brown fox")
                "/tmp/a.txt"
            in
            let back = Hive.Syscall.pread sys p ~fd ~pos:4 ~len:5 in
            assert (Bytes.to_string back = "quick");
            Hive.Syscall.close sys p ~fd)
      in
      run_to_completion sys p)

let test_write_updates_size () =
  with_sys (fun _eng sys ->
      let p =
        in_proc sys ~on:0 ~name:"t" (fun sys p ->
            let fd = Hive.Syscall.creat sys p "/tmp/grow.txt" in
            ignore (Hive.Syscall.write sys p ~fd (Bytes.make 10000 'a'));
            assert (Hive.Syscall.fsize sys p ~fd = 10000);
            ignore (Hive.Syscall.write sys p ~fd (Bytes.make 5 'b'));
            assert (Hive.Syscall.fsize sys p ~fd = 10005))
      in
      run_to_completion sys p)

let test_remote_write_updates_home_size () =
  with_sys (fun _eng sys ->
      let p =
        in_proc sys ~on:1 ~name:"t" (fun sys p ->
            let fd = Hive.Syscall.creat sys p "/tmp/remote-grow.txt" in
            ignore (Hive.Syscall.write sys p ~fd (Bytes.make 9000 'z'));
            Hive.Syscall.close sys p ~fd)
      in
      run_to_completion sys p;
      (* The data home (cell 0) must know the new size. *)
      match Hive.Fs.find_local sys.Hive.Types.cells.(0) "/tmp/remote-grow.txt" with
      | Some f -> Alcotest.(check int) "home size" 9000 f.Hive.Types.size
      | None -> Alcotest.fail "file missing at home")

let test_truncate_invalidates_cache () =
  with_sys (fun _eng sys ->
      let p =
        in_proc sys ~on:0 ~name:"t" (fun sys p ->
            let fd =
              Hive.Syscall.creat sys p ~content:(Bytes.of_string "version-one")
                "/tmp/trunc.txt"
            in
            (* Warm the page cache with the old content. *)
            ignore (Hive.Syscall.pread sys p ~fd ~pos:0 ~len:11);
            Hive.Syscall.close sys p ~fd;
            (* Re-create with new content; cached pages must not leak. *)
            let fd =
              Hive.Syscall.creat sys p ~content:(Bytes.of_string "version-TWO")
                "/tmp/trunc.txt"
            in
            let back = Hive.Syscall.pread sys p ~fd ~pos:0 ~len:11 in
            assert (Bytes.to_string back = "version-TWO"))
      in
      run_to_completion sys p)

(* Re-creating a file releases its old pages even when they sit in
   frames borrowed from another cell. Cell 0 has used all its own frames,
   so page 0 of the file lands in a frame loaned by cell 1; after the
   file is re-created, a page-in must read the new contents. When cell 1
   then dies, recovery forgets the frame it lent, and a later re-create
   must not release that frame a second time. *)
let test_recreate_releases_borrowed_pages () =
  with_sys (fun eng sys ->
      let c0 = sys.Hive.Types.cells.(0) in
      let path =
        let rec go k =
          let p = if k = 0 then "/tmp/x" else Printf.sprintf "/tmp/x%d" k in
          if Hive.Fs.home_of_path sys p = 0 then p else go (k + 1)
        in
        go 0
      in
      let psize = Flash.Config.page_size in
      let borrowed = ref false and back = ref "" and after = ref "" in
      let thr =
        Sim.Engine.spawn eng ~name:"t" ~owner:0 (fun () ->
            while Hive.Page_alloc.take_free ~own_only:true sys c0 <> None do
              ()
            done;
            let page_in content =
              let f = Hive.Fs.create_local sys c0 ~path ~content in
              Hive.Fs.page_in sys c0 f 0
            in
            let pf = page_in (Bytes.make psize 'A') in
            borrowed := not (Hive.Page_alloc.own c0 pf.Hive.Types.pfn);
            let first4 (pf : Hive.Types.pfdat) =
              Bytes.to_string
                (Flash.Memory.peek
                   (Flash.Machine.memory sys.Hive.Types.machine)
                   (Flash.Addr.addr_of_pfn pf.Hive.Types.pfn)
                   4)
            in
            back := first4 (page_in (Bytes.make psize 'B'));
            Hive.System.inject_node_failure sys 1;
            Sim.Engine.delay 2_000_000_000L;
            after := first4 (page_in (Bytes.make psize 'C')))
      in
      Sim.Engine.run ~until:(Int64.add (Sim.Engine.now eng) 4_000_000_000L) eng;
      Alcotest.(check bool) "thread done" true thr.Sim.Engine.dead;
      Alcotest.(check bool) "first page in a borrowed frame" true !borrowed;
      Alcotest.(check string) "new contents" "BBBB" !back;
      Alcotest.(check bool) "cell 0 up" true
        (Hive.Types.cell_alive sys.Hive.Types.cells.(0));
      Alcotest.(check string) "after the lender died" "CCCC" !after)

(* A dirty file page in a frame borrowed from cell 1 is lost when cell 1
   dies. Recovery forgets the frame, and it must tell the file system:
   the page leaves the page cache and the generation records the loss,
   so a later sync never writes the lender's memory to the disk. *)
let test_lender_death_loses_borrowed_page () =
  with_sys (fun eng sys ->
      let c0 = sys.Hive.Types.cells.(0) in
      let path =
        let rec go k =
          let p = Printf.sprintf "/tmp/lost%d" k in
          if Hive.Fs.home_of_path sys p = 0 then p else go (k + 1)
        in
        go 0
      in
      let psize = Flash.Config.page_size in
      let borrowed = ref false and dirty = ref false and synced = ref false in
      let f = ref None in
      let thr =
        Sim.Engine.spawn eng ~name:"t" ~owner:0 (fun () ->
            while Hive.Page_alloc.take_free ~own_only:true sys c0 <> None do
              ()
            done;
            let file =
              Hive.Fs.create_local sys c0 ~path ~content:(Bytes.make psize 'A')
            in
            f := Some file;
            ignore
              (Hive.Fs.write sys c0 (Hive.Types.Local_vnode file)
                 ~opened_gen:file.Hive.Types.generation ~pos:0
                 (Bytes.of_string "DDDD"));
            (match Hashtbl.find_opt file.Hive.Types.cached_pages 0 with
            | Some pf ->
              borrowed := not (Hive.Page_alloc.own c0 pf.Hive.Types.pfn);
              dirty := pf.Hive.Types.dirty
            | None -> ());
            Hive.System.inject_node_failure sys 1;
            Sim.Engine.delay 2_000_000_000L;
            Hive.Fs.sync_file sys c0 file;
            synced := true)
      in
      Sim.Engine.run ~until:(Int64.add (Sim.Engine.now eng) 4_000_000_000L) eng;
      Alcotest.(check bool) "thread done" true thr.Sim.Engine.dead;
      Alcotest.(check bool) "sync returned" true !synced;
      Alcotest.(check bool) "page in a borrowed frame" true !borrowed;
      Alcotest.(check bool) "page dirty" true !dirty;
      let f = Option.get !f in
      Alcotest.(check int) "loss recorded in the generation" 1
        f.Hive.Types.generation;
      Alcotest.(check string) "disk keeps its last contents" "AAAA"
        (Bytes.sub_string f.Hive.Types.disk_content 0 4))

let test_sync_persists_to_disk () =
  with_sys (fun _eng sys ->
      let p =
        in_proc sys ~on:0 ~name:"t" (fun sys p ->
            let fd = Hive.Syscall.creat sys p "/tmp/sync.txt" in
            ignore (Hive.Syscall.write sys p ~fd (Bytes.of_string "durable"));
            Hive.Syscall.sync sys p)
      in
      run_to_completion sys p;
      match Workloads.Workload.stable_content sys "/tmp/sync.txt" with
      | Some b -> Alcotest.(check string) "on disk" "durable" (Bytes.to_string b)
      | None -> Alcotest.fail "no stable content")

let test_unsynced_data_not_on_disk () =
  with_sys (fun _eng sys ->
      let p =
        in_proc sys ~on:0 ~name:"t" (fun sys p ->
            let fd = Hive.Syscall.creat sys p "/tmp/dirty.txt" in
            ignore (Hive.Syscall.write sys p ~fd (Bytes.of_string "volatile")))
      in
      run_to_completion sys p;
      match Workloads.Workload.stable_content sys "/tmp/dirty.txt" with
      | Some b ->
        Alcotest.(check bool) "write-behind: not yet stable" true
          (Bytes.length b = 0 || Bytes.to_string b <> "volatile")
      | None -> ())

let test_open_missing_enoent () =
  with_sys (fun _eng sys ->
      let got = ref "" in
      let p =
        in_proc sys ~on:0 ~name:"t" (fun sys p ->
            try ignore (Hive.Syscall.openf sys p "/tmp/nope")
            with Hive.Types.Syscall_error e ->
              got := Hive.Types.errno_to_string e)
      in
      run_to_completion sys p;
      Alcotest.(check string) "errno" "ENOENT" !got)

let test_remote_open_missing_enoent () =
  with_sys (fun _eng sys ->
      let got = ref "" in
      let p =
        in_proc sys ~on:1 ~name:"t" (fun sys p ->
            try ignore (Hive.Syscall.openf sys p "/tmp/nope-remote")
            with Hive.Types.Syscall_error e ->
              got := Hive.Types.errno_to_string e)
      in
      run_to_completion sys p;
      Alcotest.(check string) "errno" "ENOENT" !got)

let test_unlink () =
  with_sys (fun _eng sys ->
      let p =
        in_proc sys ~on:0 ~name:"t" (fun sys p ->
            let fd = Hive.Syscall.creat sys p "/tmp/gone.txt" in
            Hive.Syscall.close sys p ~fd;
            Hive.Syscall.unlink sys p "/tmp/gone.txt";
            match Hive.Syscall.openf sys p "/tmp/gone.txt" with
            | _ -> failwith "open after unlink should fail"
            | exception Hive.Types.Syscall_error Hive.Types.ENOENT -> ())
      in
      run_to_completion sys p)

let test_remote_unlink () =
  with_sys (fun _eng sys ->
      let again = ref "" in
      let p =
        in_proc sys ~on:1 ~name:"t" (fun sys p ->
            let fd = Hive.Syscall.creat sys p "/tmp/gone-remote.txt" in
            Hive.Syscall.close sys p ~fd;
            Hive.Syscall.unlink sys p "/tmp/gone-remote.txt";
            (* The path is gone now: a remote unlink of a missing path
               fails as a local one does. *)
            try Hive.Syscall.unlink sys p "/tmp/gone-remote.txt"
            with Hive.Types.Syscall_error e ->
              again := Hive.Types.errno_to_string e)
      in
      run_to_completion sys p;
      Alcotest.(check bool) "removed at home" true
        (Hive.Fs.find_local sys.Hive.Types.cells.(0) "/tmp/gone-remote.txt"
        = None);
      Alcotest.(check string) "missing path" "ENOENT" !again)

(* A path that begins with a NUL byte and "unlink:" is just a file name:
   a remote creat of it must create that file on its home, not delete
   the file its suffix names. *)
let test_remote_creat_of_unlink_like_path () =
  with_sys (fun _eng sys ->
      let prefix = "\000unlink:" in
      let home = Hive.Fs.home_of_path sys in
      let rec find_victim k =
        let v = Printf.sprintf "/tmp/victim%d.txt" k in
        if home v = 0 && home (prefix ^ v) = 0 then v else find_victim (k + 1)
      in
      let victim = find_victim 0 in
      let p =
        in_proc sys ~on:1 ~name:"t" (fun sys p ->
            let fd = Hive.Syscall.creat sys p victim in
            Hive.Syscall.close sys p ~fd;
            let fd = Hive.Syscall.creat sys p (prefix ^ victim) in
            Hive.Syscall.close sys p ~fd)
      in
      run_to_completion sys p;
      let c0 = sys.Hive.Types.cells.(0) in
      Alcotest.(check bool) "victim still on its home" true
        (Option.is_some (Hive.Fs.find_local c0 victim));
      Alcotest.(check bool) "created file on its home" true
        (Option.is_some (Hive.Fs.find_local c0 (prefix ^ victim))))

let test_generation_bump_gives_eio_locally () =
  with_sys (fun _eng sys ->
      let got_eio = ref false in
      let p =
        in_proc sys ~on:0 ~name:"t" (fun sys p ->
            let fd =
              Hive.Syscall.creat sys p ~content:(Bytes.of_string "gen0")
                "/tmp/gen.txt"
            in
            (* Simulate the FS noting a discarded dirty page. *)
            (match Hive.Fs.find_local sys.Hive.Types.cells.(0) "/tmp/gen.txt" with
            | Some f ->
              Hive.Fs.note_discard sys sys.Hive.Types.cells.(0) f ~page:0
                ~dirty:true
            | None -> failwith "missing");
            (try ignore (Hive.Syscall.pread sys p ~fd ~pos:0 ~len:4)
             with Hive.Types.Syscall_error Hive.Types.EIO -> got_eio := true);
            (* A fresh descriptor opened after the bump works. *)
            let fd2 = Hive.Syscall.openf sys p "/tmp/gen.txt" in
            ignore (Hive.Syscall.pread sys p ~fd:fd2 ~pos:0 ~len:4))
      in
      run_to_completion sys p;
      Alcotest.(check bool) "EIO on stale descriptor" true !got_eio)

(* The full preemptive-discard path, not a simulated note_discard: cell 1
   holds a dirty write grant on a cell-0 file when its node fail-stops.
   Recovery discards the dirty page and bumps the generation, so the
   pre-failure descriptor returns EIO while a fresh open sees the last
   synced data under the new generation. *)
let test_preemptive_discard_reopen_after_failure () =
  with_sys (fun _eng sys ->
      let creator =
        in_proc sys ~on:0 ~name:"creator" (fun sys p ->
            let fd =
              Hive.Syscall.creat sys p
                ~content:(Bytes.of_string "stable-data")
                "/tmp/disc.txt"
            in
            Hive.Syscall.close sys p ~fd;
            Hive.Syscall.sync sys p)
      in
      run_to_completion sys creator;
      (* Dirty remote write, held open across the failure. *)
      let _writer =
        in_proc sys ~on:1 ~name:"dirty-writer" (fun sys q ->
            let fd = Hive.Syscall.openf sys q ~writable:true "/tmp/disc.txt" in
            ignore
              (Hive.Syscall.pwrite sys q ~fd ~pos:0 (Bytes.of_string "DIRTY"));
            (* Hold the import until the node dies under us. *)
            Hive.Syscall.compute sys q 60_000_000_000L)
      in
      ignore
        (Sim.Engine.spawn sys.Hive.Types.eng ~name:"injector" (fun () ->
             Sim.Engine.delay 300_000_000L;
             Hive.System.inject_node_failure sys 1));
      let stale_eio = ref false in
      let gen_old = ref (-1) and gen_new = ref (-1) in
      let reopened = ref Bytes.empty in
      let reader =
        in_proc sys ~on:0 ~name:"reader" (fun sys p ->
            let fd = Hive.Syscall.openf sys p "/tmp/disc.txt" in
            gen_old := (Hive.Syscall.fd_of p fd).Hive.Types.opened_gen;
            (* Wait out the failure, recovery and reintegration. *)
            Hive.Syscall.compute sys p 3_000_000_000L;
            (try ignore (Hive.Syscall.pread sys p ~fd ~pos:0 ~len:6)
             with Hive.Types.Syscall_error Hive.Types.EIO ->
               stale_eio := true);
            let fd2 = Hive.Syscall.openf sys p "/tmp/disc.txt" in
            gen_new := (Hive.Syscall.fd_of p fd2).Hive.Types.opened_gen;
            reopened := Hive.Syscall.pread sys p ~fd:fd2 ~pos:0 ~len:11)
      in
      let ok =
        Hive.System.run_until_processes_done sys ~deadline:120_000_000_000L
          [ reader ]
      in
      Alcotest.(check bool) "reader finished" true ok;
      Alcotest.(check bool) "pre-failure fd got EIO" true !stale_eio;
      Alcotest.(check bool) "generation bumped" true (!gen_new > !gen_old);
      Alcotest.(check string) "reopen sees last synced data" "stable-data"
        (Bytes.to_string !reopened))

let test_close_releases_imports () =
  with_sys (fun _eng sys ->
      let p =
        in_proc sys ~on:1 ~name:"t" (fun sys p ->
            let fd =
              Hive.Syscall.creat sys p ~content:(Bytes.make 8192 'q')
                "/tmp/imports.txt"
            in
            ignore (Hive.Syscall.pread sys p ~fd ~pos:0 ~len:8192);
            let c1 = sys.Hive.Types.cells.(1) in
            let imported_before =
              Hive.Types.Page_hash.fold
                (fun _ (pf : Hive.Types.pfdat) n ->
                  match pf.Hive.Types.role with
                  | Hive.Types.Import _ -> n + 1
                  | _ -> n)
                c1.Hive.Types.page_hash 0
            in
            assert (imported_before > 0);
            Hive.Syscall.close sys p ~fd;
            (* Close no longer drops read-only bindings on the floor: they
               park in the import cache, still bound but marked cached. *)
            Hive.Types.Page_hash.iter
              (fun _ (pf : Hive.Types.pfdat) ->
                match pf.Hive.Types.role with
                | Hive.Types.Import _ ->
                  assert (Hive.Pfdat.parked pf);
                  assert (List.memq pf (Hive.Pfdat.parked_bindings c1))
                | _ -> ())
              c1.Hive.Types.page_hash;
            assert (List.length (Hive.Pfdat.parked_bindings c1) = imported_before);
            (* Re-reading after close+reopen is served from the parked
               bindings: cache hits, no new locate RPCs. *)
            let locates_before =
              Sim.Stats.value c1.Hive.Types.counters "fs.remote_locates"
            in
            let fd = Hive.Syscall.openf sys p "/tmp/imports.txt" in
            ignore (Hive.Syscall.pread sys p ~fd ~pos:0 ~len:8192);
            Hive.Syscall.close sys p ~fd;
            assert (
              Sim.Stats.value c1.Hive.Types.counters "fs.remote_locates"
              = locates_before);
            assert (
              Sim.Stats.value c1.Hive.Types.counters "share.cache_hits"
              = imported_before))
      in
      run_to_completion sys p)

let test_export_pins_page () =
  with_sys (fun _eng sys ->
      (* An exported page must not be reclaimed by the data home. *)
      let p =
        in_proc sys ~on:1 ~name:"t" (fun sys p ->
            let fd =
              Hive.Syscall.creat sys p ~content:(Bytes.make 4096 'p')
                "/tmp/pinned.txt"
            in
            ignore (Hive.Syscall.pread sys p ~fd ~pos:0 ~len:4096);
            let c0 = sys.Hive.Types.cells.(0) in
            let reclaimed = Hive.Page_alloc.reclaim sys c0 ~want:10000 in
            ignore reclaimed;
            (* The page must still be found in the home's hash. *)
            match Hive.Fs.find_local c0 "/tmp/pinned.txt" with
            | Some f ->
              let fid = f.Hive.Types.fid in
              let lid = { Hive.Types.tag = Hive.Types.File_obj fid; page = 0 } in
              assert (Hive.Pfdat.lookup c0 lid <> None)
            | None -> failwith "missing")
      in
      run_to_completion sys p)

(* ---- discarding reads ---- *)

(* A 3-page file homed on cell 1 whose bytes differ from page to page. *)
let make_far_file sys =
  let rec probe i =
    let p = Printf.sprintf "/data/far%d.dat" i in
    if Hive.Fs.home_of_path sys p = 1 then p else probe (i + 1)
  in
  let path = probe 0 in
  let content =
    Bytes.init (3 * Flash.Config.page_size) (fun i -> Char.chr (i mod 251))
  in
  ignore
    (Hive.Fs.create_local sys sys.Hive.Types.cells.(1) ~path ~content);
  (path, content)

(* On a fresh 2-cell system, cell 0 reads two pages of the far file
   with [Fs.read] (binding them), optionally fails node 1, then reads
   two pages at offset 100 through [read]. Returns the outcome, the
   simulated time the second read took, and the [fs.reads] and memory
   reads it added. *)
let second_remote_read ~fail_home read =
  with_sys (fun eng sys ->
      let path, _ = make_far_file sys in
      let c0 = sys.Hive.Types.cells.(0) in
      let mem = Flash.Machine.memory sys.Hive.Types.machine in
      let fs_reads () = Sim.Stats.value c0.Hive.Types.counters "fs.reads" in
      let mem_reads () =
        let r, _, _ = Flash.Memory.stats mem in
        r
      in
      let result = ref None in
      let thr =
        Sim.Engine.spawn eng ~name:"reader" ~owner:0 (fun () ->
            match Hive.Fs.open_file sys c0 ~path with
            | Error _ -> Alcotest.fail "open of the far file failed"
            | Ok (vn, gen) ->
              let len = 2 * Flash.Config.page_size in
              ignore (Hive.Fs.read sys c0 vn ~opened_gen:gen ~pos:0 ~len);
              if fail_home then Flash.Machine.fail_node sys.Hive.Types.machine 1;
              let fr0 = fs_reads () and mr0 = mem_reads () in
              let t0 = Sim.Engine.now eng in
              let outcome =
                match read sys c0 vn ~opened_gen:gen ~pos:100 ~len with
                | Ok () -> "ok"
                | Error e -> Printexc.to_string (Hive.Types.Syscall_error e)
                | exception (Sim.Engine.Killed as k) -> raise k
                | exception e -> Printexc.to_string e
              in
              result :=
                Some
                  ( outcome,
                    Int64.sub (Sim.Engine.now eng) t0,
                    fs_reads () - fr0,
                    mem_reads () - mr0 ))
      in
      Sim.Engine.run ~until:(Int64.add (Sim.Engine.now eng) 60_000_000_000L) eng;
      Alcotest.(check bool) "reader finished" true thr.Sim.Engine.dead;
      match !result with
      | Some r -> r
      | None -> Alcotest.fail "reader produced no result")

let check_discard_matches_read ~fail_home =
  let keep sys c vn ~opened_gen ~pos ~len =
    Result.map ignore (Hive.Fs.read sys c vn ~opened_gen ~pos ~len)
  in
  let o1, t1, f1, m1 = second_remote_read ~fail_home keep in
  let o2, t2, f2, m2 = second_remote_read ~fail_home Hive.Fs.read_discard in
  Alcotest.(check string) "same outcome" o1 o2;
  Alcotest.(check int64) "same simulated time" t1 t2;
  Alcotest.(check int) "same fs.reads" f1 f2;
  Alcotest.(check int) "same memory reads" m1 m2;
  (o1, f1, m1)

let test_read_discard_charges_like_read () =
  let outcome, fs_reads, mem_reads =
    check_discard_matches_read ~fail_home:false
  in
  Alcotest.(check string) "both succeed" "ok" outcome;
  Alcotest.(check int) "one fs read" 1 fs_reads;
  Alcotest.(check bool) "memory was read" true (mem_reads > 0)

let test_read_discard_fails_like_read () =
  let outcome, _, _ = check_discard_matches_read ~fail_home:true in
  Alcotest.(check bool)
    (Printf.sprintf "both fail (%s)" outcome)
    true (outcome <> "ok")

let test_read_discard_advances_position () =
  with_sys (fun _eng sys ->
      let path, content = make_far_file sys in
      let back = ref Bytes.empty and pos = ref (-1) in
      let p =
        in_proc sys ~on:0 ~name:"t" (fun sys p ->
            let fd = Hive.Syscall.openf sys p path in
            Hive.Syscall.read_discard sys p ~fd ~len:5000;
            pos := (Hive.Syscall.fd_of p fd).Hive.Types.pos;
            back := Hive.Syscall.read sys p ~fd ~len:10;
            Hive.Syscall.close sys p ~fd)
      in
      run_to_completion sys p;
      Alcotest.(check int) "position advanced by len" 5000 !pos;
      Alcotest.(check string) "next read continues there"
        (Bytes.sub_string content 5000 10)
        (Bytes.to_string !back))

let qcheck_fs_random_io =
  QCheck.Test.make ~name:"fs: random pwrite/pread matches a Bytes model"
    ~count:30
    QCheck.(
      list_of_size Gen.(1 -- 15)
        (pair (int_bound 20000) (string_of_size Gen.(1 -- 600))))
    (fun ops ->
      let eng = Sim.Engine.create () in
      let mcfg =
        { Flash.Config.small with Flash.Config.nodes = 2; mem_pages_per_node = 768 }
      in
      let sys = Hive.System.boot ~mcfg ~ncells:2 ~wax:false eng in
      let model = Bytes.make 32768 '\000' in
      let model_size = ref 0 in
      let ok = ref true in
      let p =
        in_proc sys ~on:1 ~name:"q" (fun sys p ->
            let fd = Hive.Syscall.creat sys p "/tmp/q.dat" in
            List.iter
              (fun (pos, data) ->
                let data = Bytes.of_string data in
                ignore (Hive.Syscall.pwrite sys p ~fd ~pos data);
                Bytes.blit data 0 model pos (Bytes.length data);
                model_size := max !model_size (pos + Bytes.length data))
              ops;
            (* Read the whole file back and compare. *)
            let back = Hive.Syscall.pread sys p ~fd ~pos:0 ~len:!model_size in
            if not (Bytes.equal back (Bytes.sub model 0 !model_size)) then
              ok := false)
      in
      ignore
        (Hive.System.run_until_processes_done sys ~deadline:300_000_000_000L
           [ p ]);
      !ok && p.Hive.Types.exit_code = Some 0)

let suite =
  [
    Alcotest.test_case "create + pread roundtrip" `Quick
      test_create_read_roundtrip;
    Alcotest.test_case "write extends size" `Quick test_write_updates_size;
    Alcotest.test_case "remote write propagates size to home" `Quick
      test_remote_write_updates_home_size;
    Alcotest.test_case "truncate invalidates cached pages" `Quick
      test_truncate_invalidates_cache;
    Alcotest.test_case "re-create releases borrowed pages" `Quick
      test_recreate_releases_borrowed_pages;
    Alcotest.test_case "lender death loses a borrowed dirty page" `Quick
      test_lender_death_loses_borrowed_page;
    Alcotest.test_case "sync persists to disk" `Quick test_sync_persists_to_disk;
    Alcotest.test_case "write-behind: unsynced data not stable" `Quick
      test_unsynced_data_not_on_disk;
    Alcotest.test_case "open missing -> ENOENT" `Quick test_open_missing_enoent;
    Alcotest.test_case "remote open missing -> ENOENT" `Quick
      test_remote_open_missing_enoent;
    Alcotest.test_case "unlink" `Quick test_unlink;
    Alcotest.test_case "remote unlink" `Quick test_remote_unlink;
    Alcotest.test_case "remote creat of an unlink-like path" `Quick
      test_remote_creat_of_unlink_like_path;
    Alcotest.test_case "generation bump -> EIO on old fd only" `Quick
      test_generation_bump_gives_eio_locally;
    Alcotest.test_case "preemptive discard: reopen fresh, old fd EIO" `Quick
      test_preemptive_discard_reopen_after_failure;
    Alcotest.test_case "close releases import bindings" `Quick
      test_close_releases_imports;
    Alcotest.test_case "exported pages are pinned against reclaim" `Quick
      test_export_pins_page;
    Alcotest.test_case "discarding read charges like read" `Quick
      test_read_discard_charges_like_read;
    Alcotest.test_case "discarding read fails like read" `Quick
      test_read_discard_fails_like_read;
    Alcotest.test_case "discarding read advances the position" `Quick
      test_read_discard_advances_position;
    QCheck_alcotest.to_alcotest qcheck_fs_random_io;
  ]
