(* Distributed process groups and signal delivery.

   The paper's prototype single-system image "provides forks across cell
   boundaries, distributed process groups and signal delivery" (Section
   3.3). Process groups span cells: a signal sent to a group is delivered
   to every member wherever it runs, via one RPC per remote cell holding
   members. Groups and signal state are per-cell; the group id carries
   the cell that created it, and membership is tracked where each member
   runs (no shared mutable structure crosses a cell boundary). *)

type signal = SIGTERM | SIGKILL | SIGUSR1 | SIGUSR2

let signal_to_string = function
  | SIGTERM -> "SIGTERM"
  | SIGKILL -> "SIGKILL"
  | SIGUSR1 -> "SIGUSR1"
  | SIGUSR2 -> "SIGUSR2"

type Types.payload +=
  | P_signal of { pid : Types.pid; signal : signal }
  | P_signal_group of { pgid : int; signal : signal }

let signal_op = Rpc.Op.declare ~arg_bytes:16 "signal.deliver"

let signal_group_op = Rpc.Op.declare ~arg_bytes:16 "signal.deliver_group"

(* Per-process signal state lives outside the Types bundle, keyed by pid;
   entries die with the process table entry. *)
type pstate = {
  mutable handlers : (signal * (Types.process -> unit)) list;
  mutable pending : signal list;
  mutable pgid : int;
}

(* Domain-local (parallel fuzz workers share nothing) and reset on every
   [System.boot]: pids restart from 1 per system, so without the reset a
   later campaign in the same process would inherit pgids and handlers
   from identically-numbered processes of an earlier one. *)
let table_key : (Types.pid, pstate) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 64)

let reset () = Hashtbl.reset (Domain.DLS.get table_key)

let state_of (p : Types.process) =
  let table = Domain.DLS.get table_key in
  match Hashtbl.find_opt table p.Types.pid with
  | Some st -> st
  | None ->
    let st = { handlers = []; pending = []; pgid = p.Types.pid } in
    Hashtbl.replace table p.Types.pid st;
    st

(* Install a handler (SIGKILL cannot be caught). *)
let handle (p : Types.process) signal f =
  if signal = SIGKILL then invalid_arg "Signal.handle: SIGKILL";
  let st = state_of p in
  st.handlers <- (signal, f) :: List.remove_assoc signal st.handlers

let set_pgid (p : Types.process) pgid = (state_of p).pgid <- pgid

let get_pgid (p : Types.process) = (state_of p).pgid

(* Deliver a signal to a local process: run the handler if installed,
   otherwise the default action (terminate). *)
let deliver_local (sys : Types.system) (target : Types.process) signal =
  if target.Types.pstate <> Types.Proc_zombie then begin
    let st = state_of target in
    match (signal, List.assoc_opt signal st.handlers) with
    | SIGKILL, _ | _, None ->
      (* Default action: terminate the process. *)
      target.Types.exit_code <- Some 128;
      (match target.Types.thread with
      | Some t -> Sim.Engine.kill sys.Types.eng t
      | None -> ())
    | _, Some f ->
      st.pending <- st.pending @ [ signal ];
      (* Handlers run in process context at the next delivery point; for
         simulation purposes run it promptly in a helper thread bound to
         the target. *)
      ignore
        (Sim.Engine.spawn sys.Types.eng
           ~name:(Printf.sprintf "sig.%d" target.Types.pid)
           (fun () ->
             if target.Types.pstate <> Types.Proc_zombie then begin
               st.pending <-
                 List.filter (fun s -> s <> signal) st.pending;
               f target
             end))
  end

(* Kill: deliver a signal to a pid anywhere in the system. *)
let kill (sys : Types.system) (from : Types.process) ~pid signal =
  match Hashtbl.find_opt sys.Types.proc_table pid with
  | None -> Error Types.ESRCH
  | Some target ->
    let here = sys.Types.cells.(from.Types.proc_cell) in
    if target.Types.proc_cell = from.Types.proc_cell then begin
      Sim.Engine.delay (Flash.Config.cycles 400);
      deliver_local sys target signal;
      Ok ()
    end
    else
      match
        Rpc.call sys ~from:here ~target:target.Types.proc_cell ~op:signal_op
          (P_signal { pid; signal })
      with
      | Ok _ -> Ok ()
      | Error e -> Error e

(* Signal the members of a process group that run on [c]. *)
let deliver_group (sys : Types.system) (c : Types.cell) ~pgid signal =
  List.iter
    (fun (p : Types.process) ->
      if p.Types.pstate <> Types.Proc_zombie && (state_of p).pgid = pgid then
        deliver_local sys p signal)
    c.Types.processes

(* Signal every member of a process group, machine-wide: one RPC per
   remote cell (members are found by each cell locally). *)
let kill_group (sys : Types.system) (from : Types.process) ~pgid signal =
  let here = sys.Types.cells.(from.Types.proc_cell) in
  deliver_group sys here ~pgid signal;
  let errors = ref 0 in
  List.iter
    (fun cell_id ->
      if cell_id <> here.Types.cell_id then
        match
          Rpc.call sys ~from:here ~target:cell_id ~op:signal_group_op
            (P_signal_group { pgid; signal })
        with
        | Ok _ -> ()
        | Error _ -> incr errors)
    here.Types.live_set;
  if !errors = 0 then Ok () else Error Types.EHOSTDOWN

let () =
  Rpc.serve signal_op (fun sys _cell ~src:_ arg ->
      match arg with
      | P_signal { pid; signal } -> (
        match Hashtbl.find_opt sys.Types.proc_table pid with
        | Some target ->
          Types.Immediate
            (deliver_local sys target signal;
             Ok Types.P_unit)
        | None -> Types.Immediate (Error Types.ESRCH))
      | _ -> Types.Immediate (Error Types.EFAULT))

let () =
  Rpc.serve signal_group_op (fun sys cell ~src:_ arg ->
      match arg with
      | P_signal_group { pgid; signal } ->
        deliver_group sys cell ~pgid signal;
        Types.Immediate (Ok Types.P_unit)
      | _ -> Types.Immediate (Error Types.EFAULT))
