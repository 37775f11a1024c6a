(* Spanning tasks (Section 3.2).

   "Hive extends the UNIX process abstraction to span cell boundaries. A
   single parallel process can run threads on multiple cells at the same
   time. Each cell runs a separate local process containing the threads
   that are local to that cell. Shared process state such as the address
   space map is kept consistent among the component processes."

   The paper lists spanning tasks as not yet implemented; this module
   implements them on top of the existing sharing machinery: the task's
   shared segment is an unlinked shared-memory object whose pages live at
   a data home and are exported writable to every component cell (so all
   the wild-write defense applies to it), and the address-space map is
   replicated into each component local process when a thread is added. *)

module Count = struct
  let threads =
    Sim.Stats.declare ~name:"spanning.threads" ~unit:"count"
      ~doc:"threads spawned by spanning tasks"
end

type t = {
  home_cell : Types.cell_id;
  shm_path : string;
  shared_npages : int;
  mutable components : Types.process list; (* one local process per thread *)
  mutable next_thread : int;
}

(* Domain-local and reset at [System.boot]: task ids name the backing
   /shm objects, so they must be a function of the campaign alone, not of
   how many campaigns this domain ran before it. *)
let next_task_id_key : int ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref 0)

let reset_ids () = Domain.DLS.get next_task_id_key := 0

(* Create a spanning task with a shared writable segment of
   [shared_pages], homed on the creating process's cell. *)
let create (sys : Types.system) (creator : Types.process) ~shared_pages =
  let next_task_id = Domain.DLS.get next_task_id_key in
  incr next_task_id;
  let id = !next_task_id in
  let c = sys.Types.cells.(creator.Types.proc_cell) in
  let psize = Flash.Config.page_size in
  let shm_path = Printf.sprintf "/shm/task%d.cell%d" id creator.Types.proc_cell in
  (* The backing object must be homed locally; /shm paths hash, so probe
     for a name this cell owns. *)
  let rec pick k =
    let path = Printf.sprintf "%s.%d" shm_path k in
    if Fs.home_of_path sys path = creator.Types.proc_cell then path
    else pick (k + 1)
  in
  let shm_path = pick 0 in
  (match
     Fs.create_file sys c ~path:shm_path
       ~content:(Bytes.make (shared_pages * psize) '\000')
   with
  | Ok _ -> ()
  | Error e -> raise (Types.Syscall_error e));
  {
    home_cell = creator.Types.proc_cell;
    shm_path;
    shared_npages = shared_pages;
    components = [];
    next_thread = 0;
  }

(* The virtual page where every component maps the shared segment: kept
   identical across components (the consistent address-space map). *)
let shared_base = 1024

(* Map the task's shared segment into a component process. *)
let map_shared (sys : Types.system) (task : t) (p : Types.process) =
  let c = sys.Types.cells.(p.Types.proc_cell) in
  match Fs.open_file sys c ~path:task.shm_path with
  | Error e -> raise (Types.Syscall_error e)
  | Ok (vnode, gen) ->
    let r =
      {
        Types.start_page = shared_base;
        npages = task.shared_npages;
        kind = Types.File_region (vnode, 0);
        reg_writable = true;
        opened_gen = gen;
      }
    in
    p.Types.regions <- r :: p.Types.regions;
    let fid = Types.vnode_fid vnode in
    if fid.Types.home <> p.Types.proc_cell then
      p.Types.uses_cells <-
        (if List.mem fid.Types.home p.Types.uses_cells then
           p.Types.uses_cells
         else fid.Types.home :: p.Types.uses_cells)

(* Start a new thread of the task on [on_cell]: a component local process
   with the shared segment mapped at the same addresses. *)
let add_thread (sys : Types.system) (task : t) ~on_cell ~name body =
  let c = sys.Types.cells.(on_cell) in
  if not (Types.cell_alive c) then raise (Types.Syscall_error Types.EHOSTDOWN);
  task.next_thread <- task.next_thread + 1;
  let p =
    Process.spawn sys c
      ~name:(Printf.sprintf "%s.t%d" name task.next_thread)
      (fun sys p ->
        (* Replicate the shared address-space map before user code runs. *)
        map_shared sys task p;
        body sys p)
  in
  task.components <- p :: task.components;
  Types.bump c Count.threads;
  p

(* Word accessors into the shared segment (page, offset-in-page). *)
let read_shared (sys : Types.system) (p : Types.process) ~page ~offset =
  match Vm.read_word sys p ~vpage:(shared_base + page) ~offset with
  | Ok v -> v
  | Error e -> raise (Types.Syscall_error e)

let write_shared (sys : Types.system) (p : Types.process) ~page ~offset v =
  match Vm.write_word sys p ~vpage:(shared_base + page) ~offset v with
  | Ok () -> ()
  | Error e -> raise (Types.Syscall_error e)

(* Wait for every thread; returns per-thread exit codes. The task dies as
   a unit if any component's cell fails (its processes get killed by the
   dependency tracking, like Wax). *)
let join (sys : Types.system) (task : t) =
  List.rev_map
    (fun (p : Types.process) -> Sim.Ivar.read_exn sys.Types.eng p.Types.exit_ivar)
    task.components

(* Tear down: unlink the backing object. *)
let destroy (sys : Types.system) (task : t) =
  let home = sys.Types.cells.(task.home_cell) in
  if Types.cell_alive home then ignore (Fs.unlink sys home task.shm_path)
