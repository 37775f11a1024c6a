(* User-level suspension gate.

   During distributed agreement and recovery, user-level processes are
   suspended while kernel-level threads continue (Section 4.3). Process
   threads pass through the gate at syscall and fault entry points and
   block while it is closed. *)

let gate_event (sys : Types.system) (c : Types.cell) name =
  Sim.Event.instant sys.Types.events ~cell:c.Types.cell_id
    ~cat:Sim.Event.Gate name

let close (sys : Types.system) (c : Types.cell) =
  if c.Types.user_gate_open then gate_event sys c "gate.close";
  c.Types.user_gate_open <- false

(* Waiters are kept newest-first (O(1) prepend in [pass], which runs on
   every syscall while the gate is closed) and reversed here so wake
   order stays arrival order. *)
let open_ (sys : Types.system) (c : Types.cell) =
  if not c.Types.user_gate_open then gate_event sys c "gate.open";
  c.Types.user_gate_open <- true;
  let ws = List.rev c.Types.gate_waiters in
  c.Types.gate_waiters <- [];
  List.iter (fun t -> ignore (Sim.Engine.try_resume sys.Types.eng t)) ws

let pass (c : Types.cell) =
  while not c.Types.user_gate_open do
    Sim.Engine.suspend (fun thr ->
        c.Types.gate_waiters <- thr :: c.Types.gate_waiters)
  done

(* Imports wait out their cell's recovery round. Between the cell's
   flush and barrier 1, a new binding's export record at the home would
   be dropped by the home's preemptive discard, leaving a binding with
   no invalidation channel. User threads stop at the gate on entry;
   this also stops a server-pool thread, which never passes the gate,
   and a syscall that entered before the round began. *)
let pass_recovery (sys : Types.system) (c : Types.cell) =
  if Types.in_recovery sys c then pass c
