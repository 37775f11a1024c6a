(* ocean: the Splash-2 scientific simulation (130x130 grid, 900-second
   interval), characteristic of supercomputer use (Table 7.1).

   Each worker owns a chunk of the write-shared global data segment,
   placed on its own cell (chunk files homed per cell), and writes
   boundary rows into its neighbours' chunks every step — so on a
   multicell system a large fraction of the data segment is remotely
   writable through the firewall (the paper measured an average of 550
   remotely-writable pages per cell, versus 15 for pmake), and every
   boundary store is a firewall-checked remote write miss. *)

type cfg = {
  workers : int;
  chunk_pages : int; (* per-worker share of the data segment *)
  boundary_words : int; (* words written into each neighbour per step *)
  steps : int;
  step_compute_ns : int64;
  init_compute_ns : int64;
}

let default =
  {
    workers = 4;
    chunk_pages = 550;
    boundary_words = 260; (* two 130-column boundary rows *)
    steps = 6;
    step_compute_ns = 950_000_000L;
    init_compute_ns = 300_000_000L;
  }

(* Find a path that the name service homes on [target]. *)
let path_homed (sys : Hive.Types.system) ~base ~target =
  let rec search k =
    let path = Printf.sprintf "%s.%d" base k in
    if Hive.Fs.home_of_path sys path = target then path else search (k + 1)
  in
  search 0

let chunk_path sys w = path_homed sys ~base:(Printf.sprintf "/data/ocean%d" w) ~target:w

let out_path = "/tmp/ocean.out"

(* Expected checksum of the final grid, computed analytically: every
   worker writes [step] into its boundary words each step and sums its
   own chunk contribution deterministically. *)
let expected_output cfg =
  let total = ref 0L in
  for w = 0 to cfg.workers - 1 do
    for s = 1 to cfg.steps do
      total :=
        Int64.add !total
          (Int64.of_int (((w + 1) * s) + (cfg.boundary_words mod 97)))
    done
  done;
  Workload.derive_output
    ~input:(Bytes.of_string (Int64.to_string !total))
    ~bytes:4096

let setup (sys : Hive.Types.system) cfg =
  let psize = Flash.Config.page_size in
  let c0 = sys.Hive.Types.cells.(0) in
  let p =
    Hive.Process.spawn sys c0 ~name:"ocean-setup" (fun sys p ->
        for w = 0 to cfg.workers - 1 do
          let path = chunk_path sys (w mod Array.length sys.Hive.Types.cells) in
          let fd =
            Hive.Syscall.creat sys p
              ~content:(Bytes.make (cfg.chunk_pages * psize) '\000')
              path
          in
          Hive.Syscall.close sys p ~fd
        done;
        Hive.Syscall.sync sys p;
        (* Warm the file cache, as the paper does before every run. *)
        for w = 0 to cfg.workers - 1 do
          let path = chunk_path sys (w mod Array.length sys.Hive.Types.cells) in
          let fd = Hive.Syscall.openf sys p path in
          Hive.Syscall.read_discard sys p ~fd ~len:(cfg.chunk_pages * psize);
          Hive.Syscall.close sys p ~fd
        done)
  in
  ignore
    (Hive.System.run_until_processes_done sys ~deadline:300_000_000_000L [ p ])

let worker cfg ~w ~barrier ~sums (sys : Hive.Types.system)
    (p : Hive.Types.process) =
  let ncells = Array.length sys.Hive.Types.cells in
  let eng = sys.Hive.Types.eng in
  (* A worker that dies — killed with its cell, torn down by recovery, or
     aborted on a syscall error — leaves the step barrier so the surviving
     workers are released instead of waiting forever on a party that will
     never arrive. A normal exit happens after the final await, where
     shrinking the barrier is harmless. *)
  Fun.protect ~finally:(fun () -> Sim.Barrier.remove_party eng barrier)
  @@ fun () ->
  (* Map every chunk writable; our own is local, neighbours' remote. *)
  let regions =
    Array.init cfg.workers (fun v ->
        let fd =
          Hive.Syscall.openf sys p ~writable:true (chunk_path sys (v mod ncells))
        in
        Hive.Syscall.mmap_file sys p ~fd ~npages:cfg.chunk_pages ~writable:true)
  in
  (* Initialization: touch the local chunk (first-touch placement). *)
  Hive.Syscall.compute sys p cfg.init_compute_ns;
  let own = regions.(w) in
  for k = 0 to cfg.chunk_pages - 1 do
    Hive.Syscall.touch sys p ~vpage:(own.Hive.Types.start_page + k) ~write:true
  done;
  Sim.Barrier.await eng barrier;
  let checksum = ref 0L in
  for s = 1 to cfg.steps do
    Hive.Syscall.compute sys p cfg.step_compute_ns;
    (* Multigrid relaxation writes spread over the whole shared segment:
       each step stores into every page of both neighbours' chunks (plus
       denser boundary-row traffic into the adjacent pages), so the data
       segment stays write-shared across the cells as in the paper. *)
    List.iter
      (fun nb ->
        let r = regions.(nb) in
        let per_page = Flash.Config.page_size / 8 in
        for pg = 0 to cfg.chunk_pages - 1 do
          Hive.Syscall.write_word sys p
            ~vpage:(r.Hive.Types.start_page + pg)
            ~offset:(w * 8)
            (Int64.of_int (((w + 1) * s) + pg))
        done;
        for k = 0 to cfg.boundary_words - 1 do
          let vpage = r.Hive.Types.start_page + (k / per_page) in
          Hive.Syscall.write_word sys p ~vpage ~offset:(k mod per_page * 8)
            (Int64.of_int (((w + 1) * s) + k))
        done)
      [ (w + 1) mod cfg.workers; (w + cfg.workers - 1) mod cfg.workers ];
    checksum :=
      Int64.add !checksum
        (Int64.of_int (((w + 1) * s) + (cfg.boundary_words mod 97)));
    Sim.Barrier.await eng barrier
  done;
  sums.(w) <- !checksum

let driver cfg sums (sys : Hive.Types.system) (p : Hive.Types.process) =
  let ncells = Array.length sys.Hive.Types.cells in
  let barrier = Sim.Barrier.create cfg.workers in
  let children = ref [] in
  for w = 0 to cfg.workers - 1 do
    match
      Hive.Process.fork sys p ~on_cell:(w mod ncells)
        ~name:(Printf.sprintf "ocean%d" w)
        (worker cfg ~w ~barrier ~sums)
    with
    | Ok c -> children := c :: !children
    | Error _ ->
      (* The worker's cell is down (or died mid-fork): it will never
         arrive at the step barrier, so shrink the barrier now or the
         workers that did start would wait on it forever. *)
      Sim.Barrier.remove_party sys.Hive.Types.eng barrier
  done;
  List.iter (fun c -> ignore (Hive.Process.wait sys p c)) !children;
  let total = Array.fold_left Int64.add 0L sums in
  let fd = Hive.Syscall.creat sys p out_path in
  ignore
    (Hive.Syscall.write sys p ~fd
       (Workload.derive_output
          ~input:(Bytes.of_string (Int64.to_string total))
          ~bytes:4096));
  Hive.Syscall.close sys p ~fd

let run ?(cfg = default) (sys : Hive.Types.system) =
  Workload.run_driver sys ~name:"ocean"
    (driver cfg (Array.make cfg.workers 0L))

let verify ?(cfg = default) (sys : Hive.Types.system) =
  [ (out_path,
     Workload.verify_output sys ~path:out_path ~reference:(expected_output cfg))
  ]
