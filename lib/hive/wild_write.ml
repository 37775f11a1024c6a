(* Wild write defense, part 1: firewall management (Section 4.2).

   Policy: write access to a page is granted to all processors of a cell
   as a group, when any process on that cell faults the page into a
   writable portion of its address space; permission remains granted while
   any process on that cell has the page mapped. Kernel pages and
   local-only user pages are never remotely writable.

   Firewall bits can only be changed by the local processor of the page's
   node, so when the data home has borrowed the frame it must send an RPC
   to the memory home to change firewall state. *)

module Count = struct
  let changes =
    Sim.Stats.declare ~name:"firewall.changes" ~unit:"count"
      ~doc:"firewall permission changes"
end

type Types.payload +=
  | P_fw of { pfn : int; target_cell : Types.cell_id; grant : bool }

let firewall_rpc_op = Rpc.Op.declare "wild_write.fw_change"

(* Apply a grant/revoke on a frame whose node is local to [c]. *)
let apply_local (sys : Types.system) (c : Types.cell) ~pfn ~target_cell ~grant =
  let fw = Flash.Machine.firewall sys.Types.machine in
  let node = Flash.Addr.node_of_pfn sys.Types.mcfg pfn in
  if not (List.mem node c.Types.cell_nodes) then invalid_arg "fw: not local";
  (* Uncached operations to the coherence controller. *)
  Sim.Engine.delay Flash.Config.uncached_op_ns;
  let procs = sys.Types.cells.(target_cell).Types.cell_nodes in
  if grant then Flash.Firewall.grant_many fw ~by:node ~pfn procs
  else
    List.iter (fun p -> Flash.Firewall.revoke fw ~by:node ~pfn ~proc:p) procs;
  if not grant then
    (* Revoking write permission requires communication with remote nodes
       to ensure all valid writes have been delivered to memory. *)
    Sim.Engine.delay Flash.Config.mem_ns;
  Types.bump c Count.changes;
  if Sim.Event.enabled sys.Types.events then
    Sim.Event.instant sys.Types.events ~cell:c.Types.cell_id
      ~args:
        [ ("pfn", Sim.Event.Int pfn);
          ("target_cell", Sim.Event.Int target_cell) ]
      ~cat:Sim.Event.Firewall
      (if grant then "firewall.grant" else "firewall.revoke")

let () =
  Rpc.serve firewall_rpc_op (fun sys cell ~src:_ arg ->
      match arg with
      | P_fw { pfn; target_cell; grant } ->
        Types.Immediate
          (apply_local sys cell ~pfn ~target_cell ~grant;
           Ok Types.P_unit)
      | _ -> Types.Immediate (Error Types.EFAULT))

(* Change firewall state for [pfn] on behalf of the cell managing the data
   ([mgr]): direct when the frame's node is local, RPC to the memory home
   when the frame is borrowed. *)
let change (sys : Types.system) (mgr : Types.cell) ~pfn ~target_cell ~grant =
  let node = Flash.Addr.node_of_pfn sys.Types.mcfg pfn in
  if List.mem node mgr.Types.cell_nodes then
    apply_local sys mgr ~pfn ~target_cell ~grant
  else begin
    let home = Types.cell_of_node sys node in
    match
      Rpc.call sys ~from:mgr ~target:home.Types.cell_id ~op:firewall_rpc_op
        (P_fw { pfn; target_cell; grant })
    with
    | Ok _ -> ()
    | Error e -> raise (Types.Syscall_error e)
  end

(* Grant write access on export if needed, tracked in the data home's
   pfdat (only the data home knows the precise firewall status). *)
let grant_for_export sys (home : Types.cell) (pf : Types.pfdat) ~client =
  if not (List.mem client pf.Types.write_granted_to) then begin
    change sys home ~pfn:pf.Types.pfn ~target_cell:client ~grant:true;
    pf.Types.write_granted_to <- client :: pf.Types.write_granted_to
  end

let revoke_client sys (home : Types.cell) (pf : Types.pfdat) ~client =
  if List.mem client pf.Types.write_granted_to then begin
    (try change sys home ~pfn:pf.Types.pfn ~target_cell:client ~grant:false
     with Types.Syscall_error _ -> () (* memory home down: moot *));
    pf.Types.write_granted_to <-
      List.filter (fun c -> c <> client) pf.Types.write_granted_to
  end

(* Count of this cell's pages currently writable by a remote cell — the
   Section 4.2 statistic (avg 15/cell under pmake, 550 under ocean). *)
let remotely_writable_pages (sys : Types.system) (c : Types.cell) =
  let fw = Flash.Machine.firewall sys.Types.machine in
  List.fold_left
    (fun acc node -> acc + Flash.Firewall.remote_writable_pages fw ~node)
    0 c.Types.cell_nodes
