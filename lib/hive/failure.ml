(* Failure hints (Section 4.3).

   A cell is considered potentially failed when: an RPC to it times out; an
   access to its memory causes a bus error; its published clock word stops
   incrementing; or data read from its memory fails the consistency checks
   of the careful reference protocol. A hint triggers distributed
   agreement immediately; confirmation is required before recovery.

   Hints that arrive while a recovery round is already in flight cannot run
   agreement (gates are closed, the peers are busy in the round), but they
   must not be dropped either: a hint against a participant that has
   observably stopped is exactly how a *nested* failure is detected, and
   escalates into a round restart with the enlarged dead set. *)

module Count = struct
  let hints =
    Sim.Stats.declare ~name:"failure.hints" ~unit:"count"
      ~doc:"failure hints reported"
  let hints_during_recovery =
    Sim.Stats.declare ~name:"failure.hints_during_recovery" ~unit:"count"
      ~doc:"failure hints reported while recovery was running"
end

let observably_down (sys : Types.system) suspect =
  let c = sys.Types.cells.(suspect) in
  c.Types.cstatus <> Types.Cell_up
  || List.exists
       (fun n -> not (Flash.Machine.node_alive sys.Types.machine n))
       c.Types.cell_nodes

let handle_hint (sys : Types.system) (reporter : Types.cell) ~suspect ~reason =
  if not (Types.cell_alive reporter) || suspect = reporter.Types.cell_id then ()
  else if Types.recovery_in_progress sys then begin
    (* Mid-recovery hint: per-phase RPC timeouts and clock monitoring keep
       firing while a round runs. Escalate only when the suspect is a
       participant that has demonstrably stopped; [Recovery.cell_died]
       dedups against the confirmed dead set and restarts the round. *)
    if
      List.mem suspect reporter.Types.live_set
      && observably_down sys suspect
    then begin
      Types.bump reporter Count.hints_during_recovery;
      Sim.Event.instant sys.Types.events ~cell:reporter.Types.cell_id
        ~cat:Sim.Event.Recovery
        ?args:(Types.suspect_args sys ~suspect ~reason)
        "recovery.hint_during_recovery";
      Recovery.cell_died sys suspect
    end
  end
  else if
    List.mem suspect reporter.Types.live_set
    && not (Types.suspects sys ~accuser:reporter.Types.cell_id ~suspect)
  then begin
    let a =
      { Types.accuser = reporter.Types.cell_id; suspect; electorate = [] }
    in
    sys.Types.agreements <- a :: sys.Types.agreements;
    Types.bump reporter Count.hints;
    Types.note_phase sys ~cell:reporter.Types.cell_id "recovery.hint"
      ?args:(Types.suspect_args sys ~suspect ~reason);
    (* Run agreement from a fresh kernel thread: hints fire from fault
       paths and interrupt handlers that must not block for milliseconds.
       The thread owns the agreement: however it exits, its exit hook
       removes it. *)
    ignore
      (Types.spawn_kernel sys reporter
         ~name:(Printf.sprintf "cell%d.agreement" reporter.Types.cell_id)
         ~on_exit:(fun () ->
           sys.Types.agreements <- List.filter (( != ) a) sys.Types.agreements;
           Types.sync_in_progress sys)
         (fun () -> Agreement.run sys reporter a ~reason))
  end

let install (sys : Types.system) =
  sys.Types.on_hint <- Some (handle_hint sys);
  (* Panics (and hardware fail-stops, via System's node-failure handler)
     report synchronously so an in-flight recovery round restarts instead
     of deadlocking on the dead participant's barrier slot. *)
  sys.Types.on_cell_death <- Some (fun id -> Recovery.cell_died sys id)
