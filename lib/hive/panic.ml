(* Cell panic: a kernel that detects internal corruption shuts itself down.

   The panic routine uses the FLASH memory-cutoff feature to stop
   servicing remote accesses to its nodes' memory, preventing the spread
   of potentially corrupt data (Table 8.1); all kernel and user threads of
   the cell are killed. Peers notice the silence through clock monitoring
   or bus errors and run distributed agreement. *)

module Count = struct
  let panics =
    Sim.Stats.declare ~name:"cell.panics" ~unit:"count"
      ~doc:"cell kernel panics"
end

let panic (sys : Types.system) (c : Types.cell) reason =
  if c.Types.cstatus <> Types.Cell_down then begin
    c.Types.cstatus <- Types.Cell_down;
    Types.sys_bump sys Count.panics;
    if Sim.Event.enabled sys.Types.events then
      Sim.Event.instant sys.Types.events ~cell:c.Types.cell_id
        ~cat:Sim.Event.Recovery
        ~args:[ ("reason", Sim.Event.Str reason) ]
        "cell.panic";
    (* Cut off remote access to our memory before anything else. *)
    List.iter
      (fun node -> Flash.Machine.cutoff_node sys.Types.machine node)
      c.Types.cell_nodes;
    (* Kill every thread belonging to this kernel. *)
    let ts = c.Types.kernel_threads in
    c.Types.kernel_threads <- [];
    List.iter (fun t -> Sim.Engine.kill sys.Types.eng t) ts;
    (* And every user process thread running here. *)
    List.iter
      (fun (p : Types.process) ->
        match p.Types.thread with
        | Some t when p.Types.pstate <> Types.Proc_zombie ->
          p.Types.killed_by_failure <- true;
          Sim.Engine.kill sys.Types.eng t
        | _ -> ())
      c.Types.processes;
    (* Tell the failure machinery: if a recovery round is in flight and
       this cell was a participant, the round must restart rather than
       deadlock on a barrier party that will never arrive. *)
    match sys.Types.on_cell_death with
    | Some f -> f c.Types.cell_id
    | None -> ()
  end

exception Kernel_corruption of string

(* Invoked when a kernel thread dereferences bad data outside a careful
   section: on the real machine this is a bus error in kernel mode, which
   panics the cell rather than being survivable. *)
let kernel_bad_reference (sys : Types.system) (c : Types.cell) what =
  panic sys c ("kernel bad reference: " ^ what);
  raise (Kernel_corruption what)
