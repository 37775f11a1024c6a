(* pmake: parallel compilation of 11 files of GnuChess 3.1, four at a time
   (Table 7.1) — the paper's compute-server workload.

   Each compile job execs the shared compiler binary, searches include
   directories, reads its source, and pipelines through preprocessor /
   compiler / assembler stages with intermediate files in /tmp — whose
   data home is cell 0, making one cell the file server for compiler
   temporaries exactly as in Section 4.2 (the cell serving /tmp showed the
   peak count of remotely-writable pages). Outputs are deterministic
   functions of the inputs so fault-injection runs can detect corruption. *)

type cfg = {
  files : int;
  jobs : int; (* concurrent compiles *)
  src_bytes : int;
  hdr_bytes : int;
  cc_bytes : int;
  intermediate_bytes : int;
  obj_bytes : int;
  anon_pages : int; (* compiler heap, touched per job *)
  include_searches : int; (* small name-lookup ops per job *)
  cpp_ns : int64;
  cc1_ns : int64;
  as_ns : int64;
  link_ns : int64;
}

let default =
  {
    files = 11;
    jobs = 4;
    src_bytes = 48 * 1024;
    hdr_bytes = 512 * 1024;
    cc_bytes = 1024 * 1024;
    intermediate_bytes = 96 * 1024;
    obj_bytes = 32 * 1024;
    anon_pages = 220;
    include_searches = 460;
    cpp_ns = 340_000_000L;
    cc1_ns = 880_000_000L;
    as_ns = 330_000_000L;
    link_ns = 400_000_000L;
  }

let src_path i = Printf.sprintf "/src/chess%d.c" i

let obj_path i = Printf.sprintf "/tmp/chess%d.o" i

let cc_path = "/bin/cc"

let hdr_path = "/usr/include/chess.h"

let lib_path = "/usr/lib/libchess.so"

let lib_bytes = 768 * 1024

let inc_path j = Printf.sprintf "/usr/include/sub/dep%d.h" j

(* Reference outputs for verification. *)
let expected_obj cfg i =
  Workload.derive_output
    ~input:(Workload.synth_content ~tag:(src_path i) ~bytes:cfg.src_bytes)
    ~bytes:cfg.obj_bytes

let expected_binary cfg =
  let all = Buffer.create (cfg.files * cfg.obj_bytes) in
  for i = 0 to cfg.files - 1 do
    Buffer.add_bytes all (expected_obj cfg i)
  done;
  Workload.derive_output ~input:(Buffer.to_bytes all) ~bytes:(8 * 4096)

let binary_path = "/tmp/gnuchess"

(* Create the input tree: compiler, headers, sources. *)
let setup (sys : Hive.Types.system) cfg =
  let c0 = sys.Hive.Types.cells.(0) in
  let p =
    Hive.Process.spawn sys c0 ~name:"pmake-setup" (fun sys p ->
        let mk path bytes =
          let fd =
            Hive.Syscall.creat sys p
              ~content:(Workload.synth_content ~tag:path ~bytes)
              path
          in
          Hive.Syscall.close sys p ~fd
        in
        mk cc_path cfg.cc_bytes;
        mk hdr_path cfg.hdr_bytes;
        mk lib_path lib_bytes;
        for j = 0 to 19 do
          mk (inc_path j) 2048
        done;
        for i = 0 to cfg.files - 1 do
          mk (src_path i) cfg.src_bytes
        done;
        Hive.Syscall.sync sys p;
        (* Warm the file cache, as the paper does before every run. *)
        let warm path bytes =
          let fd = Hive.Syscall.openf sys p path in
          Hive.Syscall.read_discard sys p ~fd ~len:bytes;
          Hive.Syscall.close sys p ~fd
        in
        warm cc_path cfg.cc_bytes;
        warm hdr_path cfg.hdr_bytes;
        warm lib_path lib_bytes;
        for i = 0 to cfg.files - 1 do
          warm (src_path i) cfg.src_bytes
        done)
  in
  ignore
    (Hive.System.run_until_processes_done sys ~deadline:120_000_000_000L [ p ])

(* One compile job, running as a forked process (possibly remote). *)
let compile_job cfg i (sys : Hive.Types.system) (p : Hive.Types.process) =
  (* exec the compiler: map and touch its text pages (shared machine-wide). *)
  ignore (Hive.Syscall.exec sys p cc_path);
  (* Include-path search: many small lookups, most of which miss. *)
  for j = 1 to cfg.include_searches do
    let path = inc_path (j mod 20) in
    match Hive.Fs.open_file sys sys.Hive.Types.cells.(p.Hive.Types.proc_cell) ~path with
    | Ok _ -> ()
    | Error _ -> ()
  done;
  (* Map and touch the shared C library (text shared machine-wide). *)
  let lfd = Hive.Syscall.openf sys p lib_path in
  let lreg =
    Hive.Syscall.mmap_file sys p ~fd:lfd
      ~npages:(lib_bytes / Flash.Config.page_size)
      ~writable:false
  in
  for k = 0 to lreg.Hive.Types.npages - 1 do
    Hive.Syscall.touch sys p ~vpage:(lreg.Hive.Types.start_page + k)
      ~write:false
  done;
  (* Map and touch the main header. *)
  let hfd = Hive.Syscall.openf sys p hdr_path in
  let hreg =
    Hive.Syscall.mmap_file sys p ~fd:hfd
      ~npages:(cfg.hdr_bytes / Flash.Config.page_size)
      ~writable:false
  in
  for k = 0 to hreg.Hive.Types.npages - 1 do
    Hive.Syscall.touch sys p ~vpage:(hreg.Hive.Types.start_page + k)
      ~write:false
  done;
  (* Read the source. *)
  let sfd = Hive.Syscall.openf sys p (src_path i) in
  let src = Hive.Syscall.read sys p ~fd:sfd ~len:cfg.src_bytes in
  Hive.Syscall.close sys p ~fd:sfd;
  (* Compiler heap, allocated incrementally as compilation proceeds (so
     address-map damage is tripped by a later fault, as in a real
     compiler that keeps allocating). *)
  let heap = Hive.Syscall.mmap_anon sys p ~npages:cfg.anon_pages in
  let heap_cursor = ref 0 in
  let grow_heap n =
    let upto = min cfg.anon_pages (!heap_cursor + n) in
    while !heap_cursor < upto do
      Hive.Syscall.touch sys p
        ~vpage:(heap.Hive.Types.start_page + !heap_cursor)
        ~write:true;
      incr heap_cursor
    done
  in
  (* Compute in slices, allocating heap between slices. *)
  let sliced_compute total =
    let slices = 10 in
    let per = Int64.div total (Int64.of_int slices) in
    for _ = 1 to slices do
      Hive.Syscall.compute sys p per;
      grow_heap (cfg.anon_pages / 30)
    done
  in
  grow_heap (cfg.anon_pages / 4);
  (* The output object is created (and kept open for writing) up front,
     like a linker holding its output; its pages stay remotely writable
     for the duration of the job. *)
  let ofd = Hive.Syscall.creat sys p (obj_path i) in
  ignore (Hive.Syscall.write sys p ~fd:ofd (Bytes.make cfg.obj_bytes '\000'));
  (* cpp: source -> /tmp/N.i *)
  sliced_compute cfg.cpp_ns;
  let i_path = Printf.sprintf "/tmp/cc%d.i" i in
  let i_data = Workload.derive_output ~input:src ~bytes:cfg.intermediate_bytes in
  let ifd = Hive.Syscall.creat sys p i_path in
  ignore (Hive.Syscall.write sys p ~fd:ifd i_data);
  Hive.Syscall.seek sys p ~fd:ifd 0;
  let i_back = Hive.Syscall.read sys p ~fd:ifd ~len:cfg.intermediate_bytes in
  (* cc1 keeps the preprocessor output open through its front-end pass. *)
  sliced_compute (Int64.div cfg.cc1_ns 2L);
  Hive.Syscall.close sys p ~fd:ifd;
  sliced_compute (Int64.div cfg.cc1_ns 2L);
  let s_path = Printf.sprintf "/tmp/cc%d.s" i in
  let s_data =
    Workload.derive_output ~input:i_back ~bytes:cfg.intermediate_bytes
  in
  let sfd = Hive.Syscall.creat sys p s_path in
  ignore (Hive.Syscall.write sys p ~fd:sfd s_data);
  Hive.Syscall.close sys p ~fd:sfd;
  (* as: /tmp/N.s -> /tmp/chessN.o; the object is derived from the source
     so corruption anywhere in the pipeline shows up in the output. *)
  sliced_compute cfg.as_ns;
  Hive.Syscall.seek sys p ~fd:ofd 0;
  ignore
    (Hive.Syscall.write sys p ~fd:ofd
       (Workload.derive_output ~input:src ~bytes:cfg.obj_bytes));
  Hive.Syscall.close sys p ~fd:ofd;
  Hive.Syscall.unlink sys p i_path;
  Hive.Syscall.unlink sys p s_path

(* The make driver: schedules [cfg.jobs] compiles at a time round-robin
   over the cells, then links. *)
let driver cfg (sys : Hive.Types.system) (p : Hive.Types.process) =
  let ncells = Array.length sys.Hive.Types.cells in
  let slots = Sim.Semaphore.create cfg.jobs in
  let eng = sys.Hive.Types.eng in
  let children = ref [] in
  for i = 0 to cfg.files - 1 do
    Sim.Semaphore.acquire eng slots;
    let target = i mod ncells in
    match
      Hive.Process.fork sys p ~on_cell:target
        ~name:(Printf.sprintf "cc%d" i)
        (fun sys child ->
          Fun.protect
            ~finally:(fun () -> Sim.Semaphore.release eng slots)
            (fun () -> compile_job cfg i sys child))
    with
    | Ok child -> children := child :: !children
    | Error _ ->
      (* Target cell is down: skip this compile (make reports an error). *)
      Sim.Semaphore.release eng slots
  done;
  List.iter (fun c -> ignore (Hive.Process.wait sys p c)) !children;
  (* Link step: read every object, produce the binary. Like make, give up
     if any compile failed (a cell died): no binary rather than a bad one. *)
  let all = Buffer.create (cfg.files * cfg.obj_bytes) in
  let missing = ref false in
  for i = 0 to cfg.files - 1 do
    match Hive.Fs.open_file sys sys.Hive.Types.cells.(p.Hive.Types.proc_cell)
            ~path:(obj_path i)
    with
    | Ok (vn, _) when (match vn with
        | Hive.Types.Local_vnode f -> f.Hive.Types.size >= cfg.obj_bytes
        | Hive.Types.Shadow_vnode _ -> true) ->
      let fd = Hive.Syscall.openf sys p (obj_path i) in
      Buffer.add_bytes all (Hive.Syscall.read sys p ~fd ~len:cfg.obj_bytes);
      Hive.Syscall.close sys p ~fd
    | Ok _ | Error _ -> missing := true
  done;
  if not !missing then begin
    Hive.Syscall.compute sys p cfg.link_ns;
    let fd = Hive.Syscall.creat sys p binary_path in
    ignore
      (Hive.Syscall.write sys p ~fd
         (Workload.derive_output ~input:(Buffer.to_bytes all)
            ~bytes:(8 * 4096)));
    Hive.Syscall.close sys p ~fd
  end;
  Hive.Syscall.sync sys p

(* Run pmake to completion; returns the result and the driver process. *)
let run ?(cfg = default) (sys : Hive.Types.system) =
  Workload.run_driver sys ~name:"pmake" (driver cfg)

(* Verify every output object against its reference. *)
let verify ?(cfg = default) (sys : Hive.Types.system) =
  let outcomes = ref [] in
  for i = 0 to cfg.files - 1 do
    outcomes :=
      (obj_path i, Workload.verify_output sys ~path:(obj_path i)
                     ~reference:(expected_obj cfg i))
      :: !outcomes
  done;
  outcomes :=
    (binary_path,
     Workload.verify_output sys ~path:binary_path
       ~reference:(expected_binary cfg))
    :: !outcomes;
  List.rev !outcomes
