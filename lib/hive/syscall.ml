(* The single-system-image syscall layer: the UNIX-flavoured API that
   processes (workloads, examples) program against. Every call passes the
   user gate (suspension during agreement/recovery) and raises
   [Types.Syscall_error] on failure. *)

exception E = Types.Syscall_error

let ok = function Ok v -> v | Error e -> raise (E e)

let getpid (p : Types.process) = p.Types.pid

let getcell (p : Types.process) = p.Types.proc_cell

(* A syscall's declared counter and trace span name, built once at
   module initialisation rather than on every call. *)
type call = { counter : Sim.Stats.counter_id; span : string }

let call name =
  {
    counter =
      Sim.Stats.declare ~name:("syscall." ^ name) ~unit:"calls"
        ~doc:("entries into the " ^ name ^ " syscall");
    span = "sys." ^ name;
  }

module Call = struct
  let open_ = call "open"
  let creat = call "creat"
  let read = call "read"
  let pread = call "pread"
  let write = call "write"
  let pwrite = call "pwrite"
  let seek = call "seek"
  let close = call "close"
  let fsize = call "fsize"
  let unlink = call "unlink"
  let sync = call "sync"
  let mmap_file = call "mmap_file"
  let mmap_anon = call "mmap_anon"
  let touch = call "touch"
  let write_word = call "write_word"
  let read_word = call "read_word"
  let fork = call "fork"
  let exec = call "exec"
  let migrate = call "migrate"
  let kill = call "kill"
  let killpg = call "killpg"
end

(* Common syscall prologue: every entry passes the user gate of the
   process's current cell (suspending while agreement or recovery has it
   closed), counts the call, and runs the body inside a tracing span. The
   cell is looked up once and handed to the body, so a call cannot
   accidentally mix gate cell and execution cell. *)
let enter (sys : Types.system) (p : Types.process) call f =
  let c = Types.cell_of_proc sys p in
  Gate.pass c;
  Types.bump c call.counter;
  if Sim.Event.enabled sys.Types.events then
    Sim.Event.span sys.Types.events ~cell:c.Types.cell_id ~cat:Sim.Event.Syscall
      call.span (fun () -> f c)
  else f c

(* ---------- Files ---------- *)

let install_fd (p : Types.process) vnode gen ~writable =
  let n = p.Types.next_fd in
  p.Types.next_fd <- n + 1;
  Hashtbl.replace p.Types.fds n
    { Types.vnode; pos = 0; opened_gen = gen; fd_writable = writable };
  n

let note_remote_home (p : Types.process) vnode =
  let fid = Types.vnode_fid vnode in
  if fid.Types.home <> p.Types.proc_cell then
    p.Types.uses_cells <-
      (if List.mem fid.Types.home p.Types.uses_cells then p.Types.uses_cells
       else fid.Types.home :: p.Types.uses_cells)

let openf (sys : Types.system) (p : Types.process) ?(writable = false) path =
  enter sys p Call.open_ @@ fun c ->
  let vnode, gen = ok (Fs.open_file sys c ~path) in
  note_remote_home p vnode;
  install_fd p vnode gen ~writable

let creat (sys : Types.system) (p : Types.process) ?(content = Bytes.empty)
    path =
  enter sys p Call.creat @@ fun c ->
  let vnode, gen = ok (Fs.create_file sys c ~path ~content) in
  note_remote_home p vnode;
  install_fd p vnode gen ~writable:true

let fd_of (p : Types.process) fd =
  match Hashtbl.find_opt p.Types.fds fd with
  | Some f -> f
  | None -> raise (E Types.EBADF)

(* A sequential read at the fd's position, which it advances by [len]:
   [fs_read] is [Fs.read] or [Fs.read_discard]. *)
let read_at_pos fs_read (sys : Types.system) (p : Types.process) ~fd ~len =
  enter sys p Call.read @@ fun c ->
  let f = fd_of p fd in
  let r =
    ok
      (fs_read sys c f.Types.vnode ~opened_gen:f.Types.opened_gen
         ~pos:f.Types.pos ~len)
  in
  f.Types.pos <- f.Types.pos + len;
  r

let read sys p ~fd ~len = read_at_pos Fs.read sys p ~fd ~len

let read_discard sys p ~fd ~len = read_at_pos Fs.read_discard sys p ~fd ~len

let pread (sys : Types.system) (p : Types.process) ~fd ~pos ~len =
  enter sys p Call.pread @@ fun c ->
  let f = fd_of p fd in
  ok (Fs.read sys c f.Types.vnode ~opened_gen:f.Types.opened_gen ~pos ~len)

let write (sys : Types.system) (p : Types.process) ~fd data =
  enter sys p Call.write @@ fun c ->
  let f = fd_of p fd in
  if not f.Types.fd_writable then raise (E Types.EBADF);
  let n =
    ok
      (Fs.write sys c f.Types.vnode ~opened_gen:f.Types.opened_gen
         ~pos:f.Types.pos data)
  in
  f.Types.pos <- f.Types.pos + n;
  n

let pwrite (sys : Types.system) (p : Types.process) ~fd ~pos data =
  enter sys p Call.pwrite @@ fun c ->
  let f = fd_of p fd in
  if not f.Types.fd_writable then raise (E Types.EBADF);
  ok (Fs.write sys c f.Types.vnode ~opened_gen:f.Types.opened_gen ~pos data)

let seek (sys : Types.system) (p : Types.process) ~fd pos =
  enter sys p Call.seek @@ fun _c -> (fd_of p fd).Types.pos <- pos

let close (sys : Types.system) (p : Types.process) ~fd =
  enter sys p Call.close @@ fun c ->
  let f = fd_of p fd in
  Hashtbl.remove p.Types.fds fd;
  (* Closing the last descriptor drops idle import bindings (and thereby
     remote firewall grants) unless the file is still mapped. *)
  let still_open =
    Hashtbl.fold
      (fun _ (g : Types.fd) acc ->
        acc || Types.vnode_fid g.Types.vnode = Types.vnode_fid f.Types.vnode)
      p.Types.fds false
  in
  let still_mapped =
    List.exists
      (fun (r : Types.region) ->
        match r.Types.kind with
        | Types.File_region (v, _) ->
          Types.vnode_fid v = Types.vnode_fid f.Types.vnode
        | Types.Anon_region _ -> false)
      p.Types.regions
  in
  if not (still_open || still_mapped) then
    Fs.release_file_imports sys c f.Types.vnode

let fsize (sys : Types.system) (p : Types.process) ~fd =
  enter sys p Call.fsize @@ fun _c -> ok (Fs.file_size sys (fd_of p fd).Types.vnode)

let unlink (sys : Types.system) (p : Types.process) path =
  enter sys p Call.unlink @@ fun c -> ok (Fs.unlink sys c path)

let sync (sys : Types.system) (p : Types.process) =
  enter sys p Call.sync @@ fun c -> Fs.sync_cell sys c

(* ---------- Memory ---------- *)

let mmap_file (sys : Types.system) (p : Types.process) ~fd ~npages ~writable =
  enter sys p Call.mmap_file @@ fun _c ->
  let f = fd_of p fd in
  if writable && not f.Types.fd_writable then raise (E Types.EBADF);
  Vm.map_file sys p f.Types.vnode ~opened_gen:f.Types.opened_gen ~writable
    ~npages

let mmap_anon (sys : Types.system) (p : Types.process) ~npages =
  enter sys p Call.mmap_anon @@ fun _c ->
  let leaf = Cow.create_root sys () in
  Vm.map_anon sys p leaf ~npages

let touch (sys : Types.system) (p : Types.process) ~vpage ~write =
  enter sys p Call.touch @@ fun _c -> ok (Vm.touch sys p ~vpage ~write)

let write_word (sys : Types.system) (p : Types.process) ~vpage ~offset v =
  enter sys p Call.write_word @@ fun _c ->
  ok (Vm.write_word sys p ~vpage ~offset v)

let read_word (sys : Types.system) (p : Types.process) ~vpage ~offset =
  enter sys p Call.read_word @@ fun _c -> ok (Vm.read_word sys p ~vpage ~offset)

(* ---------- Processes ---------- *)

let fork (sys : Types.system) (p : Types.process) ?on_cell ~name body =
  enter sys p Call.fork @@ fun _c -> ok (Process.fork sys p ?on_cell ~name body)

let exec (sys : Types.system) (p : Types.process) path =
  enter sys p Call.exec @@ fun _c -> ok (Process.exec sys p ~path)

let wait = Process.wait

let migrate (sys : Types.system) (p : Types.process) ~to_cell =
  enter sys p Call.migrate @@ fun _c -> ok (Process.migrate sys p ~to_cell)

(* ---------- Signals and process groups ---------- *)

let kill (sys : Types.system) (p : Types.process) ~pid signal =
  enter sys p Call.kill @@ fun _c -> ok (Signal.kill sys p ~pid signal)

let killpg (sys : Types.system) (p : Types.process) ~pgid signal =
  enter sys p Call.killpg @@ fun _c -> ok (Signal.kill_group sys p ~pgid signal)

let signal_handle (p : Types.process) s f = Signal.handle p s f

let setpgid (p : Types.process) pgid = Signal.set_pgid p pgid

let compute = Process.compute
