(* The process model: UNIX-style processes that run as simulation threads
   on their cell's processors, with fork across cell boundaries (part of
   the single-system image), exec, exit and wait.

   At fork, copy-on-write leaves are split (Section 5.3); when the child
   lands on a different cell, the split leaf crosses the cell boundary and
   the COW tree becomes a distributed data structure. *)

module Count = struct
  let execs =
    Sim.Stats.declare ~name:"proc.execs" ~unit:"count" ~doc:"process execs"
  let forks =
    Sim.Stats.declare ~name:"proc.forks" ~unit:"count" ~doc:"process forks"
  let migrations_in =
    Sim.Stats.declare ~name:"proc.migrations_in" ~unit:"count"
      ~doc:"processes migrated onto this cell"
  let migrations_out =
    Sim.Stats.declare ~name:"proc.migrations_out" ~unit:"count"
      ~doc:"processes migrated off this cell"
  let remote_forks =
    Sim.Stats.declare ~name:"proc.remote_forks" ~unit:"count"
      ~doc:"forks that placed the child on another cell"
  let syscall_aborts =
    Sim.Stats.declare ~name:"proc.syscall_aborts" ~unit:"count"
      ~doc:"syscalls aborted by a failure of a cell they depended on"
end

type Types.payload +=
  | P_fork of {
      parent_pid : int;
      name : string;
      body : Types.system -> Types.process -> unit;
      regions : Types.region list;
      fds : (int * Types.fd) list;
    }
  | P_forked of { pid : int }

let fork_op = Rpc.Op.declare ~arg_bytes:512 "process.fork"

(* Process-image state transfer during migration (previously piggybacked
   on the agreement ping op, which hid it from per-op accounting). *)
let migrate_xfer_op = Rpc.Op.declare ~arg_bytes:512 "process.migrate_xfer"

let cell_of (sys : Types.system) (p : Types.process) =
  sys.Types.cells.(p.Types.proc_cell)

let cpu_of (sys : Types.system) (p : Types.process) =
  Flash.Machine.cpu sys.Types.machine p.Types.assigned_node

(* Consume CPU time on the process's assigned processor. *)
let compute (sys : Types.system) (p : Types.process) ns =
  Gate.pass (cell_of sys p);
  Flash.Cpu.use sys.Types.eng (cpu_of sys p) ns

let alloc_pid (sys : Types.system) =
  sys.Types.next_pid <- sys.Types.next_pid + 1;
  sys.Types.next_pid

let make_process (sys : Types.system) (c : Types.cell) ~name ~pid :
    Types.process =
  let nodes = c.Types.cell_nodes in
  let node = List.nth nodes (c.Types.rr_cpu mod List.length nodes) in
  c.Types.rr_cpu <- c.Types.rr_cpu + 1;
  let p =
    {
      Types.pid;
      proc_cell = c.Types.cell_id;
      assigned_node = node;
      pname = name;
      thread = None;
      regions = [];
      mappings = Hashtbl.create 32;
      fds = Hashtbl.create 8;
      next_fd = 3;
      pstate = Types.Proc_running;
      exit_code = None;
      killed_by_failure = false;
      exit_ivar = Sim.Ivar.create ();
      children = [];
      uses_cells = [];
    }
  in
  Hashtbl.replace sys.Types.proc_table pid p;
  c.Types.processes <- p :: c.Types.processes;
  p

(* Tear down a finished or killed process. *)
let reap (sys : Types.system) (p : Types.process) =
  if p.Types.pstate <> Types.Proc_zombie then begin
    p.Types.pstate <- Types.Proc_zombie;
    (try Vm.unmap_all sys p with _ -> ());
    if not (Sim.Ivar.is_filled p.Types.exit_ivar) then
      Sim.Ivar.fill sys.Types.eng p.Types.exit_ivar
        (match p.Types.exit_code with Some c -> c | None -> -1)
  end

(* Start the process body in its own thread with proper exit handling. *)
let start_thread (sys : Types.system) (c : Types.cell) (p : Types.process)
    body =
  let eng = sys.Types.eng in
  let thr =
    Sim.Engine.spawn eng ~name:(Printf.sprintf "pid%d.%s" p.Types.pid p.Types.pname)
      (fun () ->
        Sim.Engine.at_exit_thread (fun () -> reap sys p);
        Gate.pass c;
        match body sys p with
        | () -> p.Types.exit_code <- Some 0
        | exception Types.Syscall_error e ->
          Types.bump c Count.syscall_aborts;
          p.Types.exit_code <- Some 1;
          if Sim.Event.enabled sys.Types.events then
            Sim.Event.instant sys.Types.events ~cell:c.Types.cell_id
              ~cat:Sim.Event.Proc
              ~args:
                [
                  ("pid", Sim.Event.Int p.Types.pid);
                  ("errno", Sim.Event.Str (Types.errno_to_string e));
                ]
              "proc.abort"
        | exception Panic.Kernel_corruption _ ->
          (* The cell is panicking under us; the thread dies with it. *)
          ())
  in
  p.Types.thread <- Some thr

(* Spawn a fresh top-level process on a cell (used to start workloads). *)
let spawn (sys : Types.system) (c : Types.cell) ~name body =
  let p = make_process sys c ~name ~pid:(alloc_pid sys) in
  start_thread sys c p body;
  p

(* Split every anonymous region's COW leaf between parent and child. The
   old leaf becomes an interior node readable by both. *)
let split_anon_regions (sys : Types.system) (parent : Types.process)
    (child_cell : Types.cell) =
  let parent_cell = cell_of sys parent in
  let child_regions =
    List.map
      (fun (r : Types.region) ->
        match r.Types.kind with
        | Types.File_region _ -> r
        | Types.Anon_region leaf ->
          let parent_leaf, child_leaf =
            Cow.fork sys ~parent_cell ~child_cell leaf ()
          in
          (* Parent continues on its fresh leaf; its writable anon mappings
             must be dropped so post-fork writes re-fault and COW. *)
          let new_parent_r = { r with Types.kind = Types.Anon_region parent_leaf } in
          parent.Types.regions <-
            List.map
              (fun r' -> if r' == r then new_parent_r else r')
              parent.Types.regions;
          let doomed = ref [] in
          Hashtbl.iter
            (fun vpage (_ : Types.mapping) ->
              if
                vpage >= r.Types.start_page
                && vpage < r.Types.start_page + r.Types.npages
              then doomed := vpage :: !doomed)
            parent.Types.mappings;
          List.iter
            (fun vpage ->
              (match Hashtbl.find_opt parent.Types.mappings vpage with
              | Some m ->
                m.Types.map_pf.Types.refs <-
                  max 0 (m.Types.map_pf.Types.refs - 1)
              | None -> ());
              Hashtbl.remove parent.Types.mappings vpage)
            !doomed;
          { r with Types.kind = Types.Anon_region child_leaf })
      parent.Types.regions
  in
  child_regions

let copy_fds (parent : Types.process) =
  Hashtbl.fold (fun n fd acc -> (n, fd) :: acc) parent.Types.fds []

let install_child (sys : Types.system) (c : Types.cell) ~name ~regions ~fds
    ~parent_pid body =
  let p = make_process sys c ~name ~pid:(alloc_pid sys) in
  p.Types.regions <- regions;
  List.iter (fun (n, fd) -> Hashtbl.replace p.Types.fds n fd) fds;
  p.Types.next_fd <-
    List.fold_left (fun acc (n, _) -> max acc (n + 1)) 3 fds;
  (match Hashtbl.find_opt sys.Types.proc_table parent_pid with
  | Some parent -> parent.Types.children <- p :: parent.Types.children
  | None -> ());
  start_thread sys c p body;
  p

(* Fork a child running [body], optionally on another cell. *)
let fork (sys : Types.system) (parent : Types.process) ?on_cell ~name body =
  let here = cell_of sys parent in
  Gate.pass here;
  let target =
    match on_cell with Some c -> c | None -> parent.Types.proc_cell
  in
  Sim.Engine.delay Params.fork_local_ns;
  Types.bump here Count.forks;
  if target = parent.Types.proc_cell then begin
    let regions = split_anon_regions sys parent here in
    let child =
      install_child sys here ~name ~regions ~fds:(copy_fds parent)
        ~parent_pid:parent.Types.pid body
    in
    Ok child
  end
  else if not (List.mem target here.Types.live_set) then Error Types.EHOSTDOWN
  else begin
    (* Remote fork: split leaves across the boundary, then RPC the child
       image to the target cell. *)
    Types.bump here Count.remote_forks;
    Sim.Engine.delay Params.fork_remote_extra_ns;
    let regions = split_anon_regions sys parent sys.Types.cells.(target) in
    match
      Rpc.call sys ~from:here ~target ~op:fork_op
        (P_fork
           {
             parent_pid = parent.Types.pid;
             name;
             body;
             regions;
             fds = copy_fds parent;
           })
    with
    | Ok (P_forked { pid }) -> (
      match Hashtbl.find_opt sys.Types.proc_table pid with
      | Some child ->
        parent.Types.children <- child :: parent.Types.children;
        Ok child
      | None -> Error Types.ESRCH)
    | Ok _ -> Error Types.EFAULT
    | Error e -> Error e
  end

(* Exec: load a program image — open its file and fault in the text pages
   (shared across all processes running the same binary machine-wide). *)
let exec (sys : Types.system) (p : Types.process) ~path =
  let c = cell_of sys p in
  Gate.pass c;
  Sim.Engine.delay Params.exec_ns;
  Types.bump c Count.execs;
  match Fs.open_file sys c ~path with
  | Error e -> Error e
  | Ok (vnode, gen) -> (
    match Fs.file_size sys c vnode with
    | Error e -> Error e
    | Ok size ->
      let psize = Flash.Config.page_size in
      let npages = max 1 ((size + psize - 1) / psize) in
      let r = Vm.map_file sys p vnode ~opened_gen:gen ~writable:false ~npages in
      let rec load i =
        if i >= npages then Ok ()
        else
          match Vm.touch sys p ~vpage:(r.Types.start_page + i) ~write:false with
          | Ok () -> load (i + 1)
          | Error e -> Error e
      in
      load 0)

(* Migrate the calling process to another cell (load balancing of
   sequential processes, Section 3.2). Must be invoked at a safe point by
   the process itself: its mappings are flushed (pages re-fault on the new
   cell through the normal locate/import path) and its cell bookkeeping
   moves. *)
let migrate (sys : Types.system) (p : Types.process) ~to_cell =
  let here = cell_of sys p in
  Gate.pass here;
  if to_cell = p.Types.proc_cell then Ok ()
  else if not (List.mem to_cell here.Types.live_set) then
    Error Types.EHOSTDOWN
  else begin
    let dest = sys.Types.cells.(to_cell) in
    Types.bump here Count.migrations_out;
    Types.bump dest Count.migrations_in;
    (* Flush mappings; imported bindings stay cached on the old cell and
       get released by its reaper when idle. *)
    Vm.drop_mappings p;
    (* Anonymous regions: the leaf must be local to the process, so split
       it across the boundary exactly as a remote fork would. *)
    let migrated_regions = split_anon_regions sys p dest in
    p.Types.regions <- migrated_regions;
    here.Types.processes <-
      List.filter (fun q -> q != p) here.Types.processes;
    dest.Types.processes <- p :: dest.Types.processes;
    p.Types.proc_cell <- to_cell;
    let nodes = dest.Types.cell_nodes in
    dest.Types.rr_cpu <- dest.Types.rr_cpu + 1;
    p.Types.assigned_node <-
      List.nth nodes (dest.Types.rr_cpu mod List.length nodes);
    (* State transfer cost: one RPC plus the process image copy. *)
    Sim.Engine.delay Params.fork_remote_extra_ns;
    match
      Rpc.call sys ~from:here ~target:to_cell ~op:migrate_xfer_op
        Types.P_unit
    with
    | Ok _ -> Ok ()
    | Error e -> Error e
  end

(* Wait for a child to exit; the exit code is [-1] if it was killed by a
   cell failure. *)
let wait (sys : Types.system) (_parent : Types.process) (child : Types.process)
    =
  Sim.Ivar.read_exn sys.Types.eng child.Types.exit_ivar

(* Wait for all children. *)
let wait_all (sys : Types.system) (parent : Types.process) =
  List.map (fun c -> wait sys parent c) parent.Types.children

let () =
  Rpc.serve migrate_xfer_op (fun _sys _cell ~src:_ _arg ->
      Types.Immediate (Ok Types.P_unit))

let () =
  Rpc.serve fork_op (fun sys cell ~src:_ arg ->
      match arg with
      | P_fork { parent_pid; name; body; regions; fds } ->
        Types.Queued
          (fun () ->
            Sim.Engine.delay Params.fork_local_ns;
            let child =
              install_child sys cell ~name ~regions ~fds ~parent_pid body
            in
            Ok (P_forked { pid = child.Types.pid }))
      | _ -> Types.Immediate (Error Types.EFAULT))
