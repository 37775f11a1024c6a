(* raytrace: rendering a teapot with 6 antialias rays per pixel
   (Table 7.1) — a parallel application whose workers read-share the scene
   built by the parent before the fork.

   The scene lives in the parent's anonymous memory, so every worker read
   is a copy-on-write tree search: on a multicell system, workers forked
   to other cells walk interior tree nodes on the parent's cell with the
   careful reference protocol and bind the pages with export/import — the
   exact path stressed by the paper's "during copy-on-write search" fault
   injections. Worker outputs mix in the scene words actually read, so a
   wild write to scene memory corrupts the output detectably. *)

type cfg = {
  workers : int;
  scene_pages : int;
  tile_pages : int;
  compute_ns : int64; (* per worker *)
  build_ns : int64;
}

let default =
  {
    workers = 4;
    scene_pages = 256;
    tile_pages = 64;
    compute_ns = 4_100_000_000L;
    build_ns = 200_000_000L;
  }

let out_path w = Printf.sprintf "/tmp/trace%d.out" w

let scene_word p = Int64.of_int ((p * 1234567) + 1)

let expected_scene_sum cfg =
  let s = ref 0L in
  for p = 0 to cfg.scene_pages - 1 do
    s := Int64.add !s (scene_word p)
  done;
  !s

let expected_output cfg w =
  Workload.derive_output
    ~input:
      (Bytes.of_string
         (Printf.sprintf "tile%d:%Ld" w (expected_scene_sum cfg)))
    ~bytes:(cfg.tile_pages * 512)

let worker cfg ~w ~scene_region (sys : Hive.Types.system)
    (p : Hive.Types.process) =
  (* Private tile buffer. *)
  let tiles = Hive.Syscall.mmap_anon sys p ~npages:cfg.tile_pages in
  for k = 0 to cfg.tile_pages - 1 do
    Hive.Syscall.touch sys p ~vpage:(tiles.Hive.Types.start_page + k)
      ~write:true
  done;
  (* Rays hit scene objects as rendering proceeds: read the scene through
     the COW tree in batches interleaved with compute, so copy-on-write
     searches keep happening throughout the run. *)
  let sum = ref 0L in
  let batches = 8 in
  let per_batch = (cfg.scene_pages + batches - 1) / batches in
  let per_compute = Int64.div cfg.compute_ns (Int64.of_int batches) in
  for b = 0 to batches - 1 do
    let lo = b * per_batch in
    let hi = min (cfg.scene_pages - 1) (lo + per_batch - 1) in
    for k = lo to hi do
      let v =
        Hive.Syscall.read_word sys p
          ~vpage:(scene_region.Hive.Types.start_page + k)
          ~offset:0
      in
      sum := Int64.add !sum v
    done;
    Hive.Syscall.compute sys p per_compute
  done;
  let fd = Hive.Syscall.creat sys p (out_path w) in
  ignore
    (Hive.Syscall.write sys p ~fd
       (Workload.derive_output
          ~input:(Bytes.of_string (Printf.sprintf "tile%d:%Ld" w !sum))
          ~bytes:(cfg.tile_pages * 512)));
  Hive.Syscall.close sys p ~fd

let driver cfg (sys : Hive.Types.system) (p : Hive.Types.process) =
  let ncells = Array.length sys.Hive.Types.cells in
  (* Build the scene in anonymous memory before forking. *)
  let scene = Hive.Syscall.mmap_anon sys p ~npages:cfg.scene_pages in
  Hive.Syscall.compute sys p cfg.build_ns;
  for k = 0 to cfg.scene_pages - 1 do
    Hive.Syscall.write_word sys p
      ~vpage:(scene.Hive.Types.start_page + k)
      ~offset:0 (scene_word k)
  done;
  let children = ref [] in
  for w = 0 to cfg.workers - 1 do
    match
      Hive.Process.fork sys p ~on_cell:(w mod ncells)
        ~name:(Printf.sprintf "trace%d" w)
        (worker cfg ~w ~scene_region:scene)
    with
    | Ok c -> children := c :: !children
    | Error _ -> ()
  done;
  List.iter (fun c -> ignore (Hive.Process.wait sys p c)) !children

let run ?(cfg = default) (sys : Hive.Types.system) =
  let t0 = Sim.Engine.now sys.Hive.Types.eng in
  let c0 = sys.Hive.Types.cells.(0) in
  let p = Hive.Process.spawn sys c0 ~name:"raytrace" (driver cfg) in
  let completed =
    Hive.System.run_until_processes_done sys ~deadline:600_000_000_000L [ p ]
  in
  let elapsed = Int64.sub (Sim.Engine.now sys.Hive.Types.eng) t0 in
  ( {
      Workload.name = "raytrace";
      elapsed_ns = elapsed;
      completed = completed && p.Hive.Types.exit_code = Some 0;
      procs_killed = 0;
    },
    p )

let verify ?(cfg = default) (sys : Hive.Types.system) =
  List.init cfg.workers (fun w ->
      ( out_path w,
        Workload.verify_output sys ~path:(out_path w)
          ~reference:(expected_output cfg w) ))
