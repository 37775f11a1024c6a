(* Recovery after a confirmed cell failure (Section 4.3).

   Given consensus on the live set, each surviving cell runs recovery to
   clean up dangling references and determine which processes must be
   killed. A double global barrier synchronizes the preemptive discard:

   - before barrier 1, each cell flushes its TLBs and removes remote
     mappings (faults arriving later are held up on the client side);
   - after barrier 1, no valid remote accesses are pending, so each cell
     revokes firewall permissions it granted to the failed cells, discards
     every page they could have written (notifying the file system about
     lost dirty pages), and cleans its VM structures;
   - after barrier 2, cells resume normal operation.

   Recovery must itself survive faults. If a participant dies *during* a
   round, the round's barriers are aborted (never waited on forever) and
   the surviving cells restart the round with the enlarged dead set; the
   round counter [sys.recovery_round] names the current attempt, and each
   participant loops until it completes a round that is still current.
   The round is [sys.round] until the master completes it.

   At the end of a round a recovery master is elected from the new live
   set; it runs hardware diagnostics on the failed nodes and (if they
   pass) reboots and reintegrates the failed cells via the reintegration
   hook installed by [System.boot]. *)

module Count = struct
  let completed =
    Sim.Stats.declare ~name:"recovery.completed" ~unit:"rounds"
      ~doc:"recovery rounds completed"
  let excised_unreachable =
    Sim.Stats.declare ~name:"recovery.excised_unreachable" ~unit:"count"
      ~doc:"unreachable cells excised from the live set"
  let initiated =
    Sim.Stats.declare ~name:"recovery.initiated" ~unit:"count"
      ~doc:"recoveries initiated"
  let master_standdown =
    Sim.Stats.declare ~name:"recovery.master_standdown" ~unit:"count"
      ~doc:"recovery masters that stood down for another"
  let procs_killed =
    Sim.Stats.declare ~name:"recovery.procs_killed" ~unit:"count"
      ~doc:"processes killed because they depended on a failed cell"
  let reintegrated =
    Sim.Stats.declare ~name:"recovery.reintegrated" ~unit:"count"
      ~doc:"cells reintegrated by the recovery master"
  let round_restarts =
    Sim.Stats.declare ~name:"recovery.round_restarts" ~unit:"rounds"
      ~doc:"recovery rounds restarted by a nested failure"
  let rounds =
    Sim.Stats.declare ~name:"recovery.rounds" ~unit:"rounds"
      ~doc:"recovery rounds a cell took part in"
end

let diagnostics_ns = 18_000_000L

(* Poll period while waiting for a partition to heal so an excised
   still-running cell can be stopped and reintegrated. *)
let reclaim_poll_ns = 50_000_000L

(* The master repairs and reintegrates every failed cell. A confirmed-dead
   cell still running on the far side of a partition cannot be stopped or
   rebooted yet: leave it excised and poll until the partition heals,
   then stop it and reboot it into the new live set — healed halves
   reconcile into one live set instead of two. [on_defer] and [on_settle]
   bracket each deferred reclaim. *)
let reintegrate_dead (sys : Types.system) (c : Types.cell) ~dead ~on_defer
    ~on_settle =
  let reintegrate_now d =
    Types.note_phase sys ~cell:c.Types.cell_id "recovery.reintegrate";
    Types.sys_bump sys Count.reintegrated;
    match sys.Types.reintegrate_fn with Some f -> f d | None -> ()
  in
  let rec reclaim ~deferred d =
    let up = sys.Types.cells.(d).Types.cstatus <> Types.Cell_down in
    if deferred && not (Types.cell_alive c && not (List.mem d c.Types.live_set))
    then on_settle () (* someone else reclaimed it, or we died *)
    else if up && Careful_ref.partitioned sys c ~target:d then begin
      if not deferred then begin
        Types.note_phase sys ~cell:c.Types.cell_id "recovery.reclaim_deferred";
        on_defer ()
      end;
      Sim.Engine.schedule sys.Types.eng ~after:reclaim_poll_ns (fun () ->
          reclaim ~deferred:true d)
    end
    else begin
      if up then
        Panic.panic sys sys.Types.cells.(d)
          (if deferred then "partition healed: stopped for reintegration"
           else "declared failed by distributed agreement");
      reintegrate_now d;
      if deferred then on_settle ()
    end
  in
  List.iter (reclaim ~deferred:false) (List.sort compare dead)

(* The per-cell recovery algorithm, run in its own kernel thread. It loops
   until it completes a round that is still the current one: any barrier
   abort (or a round-counter change observed after a barrier) means a
   participant died mid-round and the round was restarted with a larger
   dead set. *)
let recovery_sequence (sys : Types.system) (c : Types.cell) =
  let p = sys.Types.params in
  let eng = sys.Types.eng in
  sys.Types.recovery_events <-
    (c.Types.cell_id, Sim.Engine.now eng) :: sys.Types.recovery_events;
  (* Mastership spans the whole round INCLUDING deferred reclamation: a
     confirmed-dead cell still running behind a partition remains this
     master's responsibility until the heal lets it be stopped and
     rebooted, so master_end must wait for the last deferred reclaim. *)
  let deferred_reclaims = ref 0 in
  let release_mastership () =
    if !deferred_reclaims = 0 then Types.master_end sys c.Types.cell_id
  in
  let rec round () =
    (* The round may have ended before this thread joined it. *)
    match sys.Types.round with None -> () | Some r -> run r
  and run (r : Types.round) =
    let round_no = sys.Types.recovery_round in
    let dead = r.Types.dead in
    Gate.close sys c;
    Types.bump c Count.rounds;
    c.Types.live_set <-
      List.filter (fun id -> not (List.mem id dead)) c.Types.live_set;
    (* The recovery master (lowest live cell id) stamps the global recovery
       timeline; barrier phases are global sync points, so one cell's view
       of them is the system's. *)
    let min_live = List.fold_left min max_int c.Types.live_set in
    let is_master = c.Types.cell_id = min_live in
    (* Latch mastership the instant it is assumed: the split-brain oracle
       ([Invariants.check_single_master]) sees every overlap window, even
       one that closes before the run quiesces. *)
    if is_master then Types.master_begin sys c.Types.cell_id;
    let note ?args phase =
      if is_master then Types.note_phase sys ~cell:c.Types.cell_id ?args phase
    in
    (* A barrier abort means the round was restarted: go again with the
       enlarged dead set if this cell is still a participant. *)
    let restart () =
      if Types.cell_alive c && sys.Types.recovery_round <> round_no then begin
        Types.bump c Count.round_restarts;
        round ()
      end
    in
    (* Phase 1: TLB flush + removal of remote mappings and import bindings. *)
    Vm.flush_remote_bindings ~dead sys c;
    Sim.Engine.delay Params.recovery_phase_ns;
    match Sim.Barrier.await_abortable eng r.Types.barrier1 with
    | Sim.Barrier.Aborted -> restart ()
    | Sim.Barrier.Released -> (
      note "recovery.barrier1";
      (* Phase 2: nothing remote is pending now; revoke grants and discard
         everything the failed cells could have written. (The ablation knob
         models a system without preemptive discard: corrupt pages stay.) *)
      let discarded =
        if p.Params.enable_preemptive_discard then
          Vm.preemptive_discard sys c ~dead
        else 0
      in
      note "recovery.discard"
        ?args:
          (if Sim.Event.enabled sys.Types.events then
             Some [ ("pages", Sim.Event.Int discarded) ]
           else None);
      (* Kill processes that depended on resources of the failed cells. *)
      List.iter
        (fun (proc : Types.process) ->
          if
            proc.Types.pstate <> Types.Proc_zombie
            && List.exists (fun d -> List.mem d dead) proc.Types.uses_cells
          then begin
            proc.Types.killed_by_failure <- true;
            Types.bump c Count.procs_killed;
            match proc.Types.thread with
            | Some t -> Sim.Engine.kill eng t
            | None -> ()
          end)
        c.Types.processes;
      Sim.Engine.delay Params.recovery_phase_ns;
      match Sim.Barrier.await_abortable eng r.Types.barrier2 with
      | Sim.Barrier.Aborted -> restart ()
      | Sim.Barrier.Released ->
        if sys.Types.recovery_round <> round_no then
          (* A restart raced the final barrier release: go again. *)
          round ()
        else begin
          note "recovery.barrier2";
          (* Back to normal operation. *)
          Gate.open_ sys c;
          note "recovery.resume";
          (* The recovery master finishes the round. *)
          if is_master then begin
            (* A master that can no longer reach a strict majority of the
               new live set is on the minority side of a partition that
               armed mid-round; finishing here would run concurrently
               with the majority's master. Stand down instead. *)
            let reachable_live =
              List.filter
                (fun id ->
                  id = c.Types.cell_id
                  || not (Careful_ref.partitioned sys c ~target:id))
                c.Types.live_set
            in
            if
              p.Params.planted_bug <> Some Params.Quorum_check_off
              && List.length reachable_live * 2 <= List.length c.Types.live_set
            then begin
              Types.sys_bump sys Count.master_standdown;
              Types.note_phase sys ~cell:c.Types.cell_id
                "recovery.master_standdown";
              Types.master_end sys c.Types.cell_id;
              Panic.panic sys c "partition: recovery master lost quorum"
            end
            else begin
              (* Diagnose the failed nodes' hardware. *)
              Sim.Engine.delay diagnostics_ns;
              if sys.Types.recovery_round <> round_no then
                (* A participant died while diagnostics ran: rejoin the
                   restarted round. *)
                round ()
              else begin
                (* Diagnostics passed: repair and reintegrate every failed
                   cell, then declare the recovery over. *)
                if p.Params.auto_reintegrate then
                  reintegrate_dead sys c ~dead
                    ~on_defer:(fun () -> incr deferred_reclaims)
                    ~on_settle:(fun () ->
                      decr deferred_reclaims;
                      release_mastership ());
                sys.Types.recovery_complete_at <- Sim.Engine.now eng;
                sys.Types.round <- None;
                Types.sync_in_progress sys;
                Types.sys_bump sys Count.completed;
                release_mastership ();
                match sys.Types.wax_restart with
                | Some f -> f sys
                | None -> ()
              end
            end
          end
        end)
  in
  round ();
  (* Whatever path ended the loop, this cell holds no mastership beyond
     any still-deferred reclaims (no-op for non-masters; killed threads
     never get here and are handled by the liveness filter in
     [Types.master_begin]). *)
  release_mastership ()

(* The exit hook runs however the thread ends, [Sim.Engine.Killed]
   included, and releases the cell's [recovery_thread] unless a newer one
   has taken it. *)
let start_recovery_thread (sys : Types.system) (c : Types.cell) =
  let on_exit () =
    match c.Types.recovery_thread with
    | Some t when t.Sim.Engine.dead -> c.Types.recovery_thread <- None
    | Some _ | None -> ()
  in
  c.Types.recovery_thread <-
    Some
      (Types.spawn_kernel sys c ~on_exit
         ~name:(Printf.sprintf "cell%d.recovery" c.Types.cell_id)
         (fun () -> recovery_sequence sys c))

(* Make a round over [dead] the active one, among the live cells outside
   [dead] that [joins] accepts, and return them. *)
let start_round (sys : Types.system) ~dead joins =
  let live =
    Array.to_list sys.Types.cells
    |> List.filter (fun (c : Types.cell) ->
           Types.cell_alive c
           && (not (List.mem c.Types.cell_id dead))
           && joins c)
  in
  let parties = max 1 (List.length live) in
  sys.Types.round <-
    Some
      { Types.dead;
        participants = List.map (fun (c : Types.cell) -> c.Types.cell_id) live;
        barrier1 = Sim.Barrier.create parties;
        barrier2 = Sim.Barrier.create parties };
  Types.sync_in_progress sys;
  live

(* Kick off a recovery round for the confirmed dead set. Called on the
   accusing cell after agreement (or directly by the failure oracle).
   [by] names the initiating cell: under a partition only the cells it
   can reach participate in the round — the far side cannot hear the
   barriers and would deadlock them, and a "dead" cell that is merely
   unreachable cannot be stopped from here (it stays running, excised
   from the survivors' live sets until the partition heals). *)
let initiate ?by (sys : Types.system) ~dead =
  sys.Types.recovery_round <- sys.Types.recovery_round + 1;
  Types.sys_bump sys Count.initiated;
  let unreachable_from_initiator target =
    match by with
    | None -> false
    | Some b -> Careful_ref.partitioned sys sys.Types.cells.(b) ~target
  in
  (* The round starts before the dead cells stop, so their deaths find
     themselves already in its dead set. *)
  let live =
    start_round sys ~dead (fun c ->
        (match by with None -> true | Some b -> c.Types.cell_id = b)
        || not (unreachable_from_initiator c.Types.cell_id))
  in
  (* Force any "dead" cell that is in fact still running (erratic kernel)
     to stop: the confirmed consensus supersedes its own opinion. *)
  List.iter
    (fun d ->
      let dc = sys.Types.cells.(d) in
      if dc.Types.cstatus <> Types.Cell_down then
        if unreachable_from_initiator d then
          Types.sys_bump sys Count.excised_unreachable
        else Panic.panic sys dc "declared failed by distributed agreement")
    dead;
  List.iter (fun c -> start_recovery_thread sys c) live

(* A cell died. If a double-barrier round is in flight and the dead cell
   was a participant (not already in the confirmed dead set), the paper's
   protocol restarts the round with the enlarged dead set: bump the round
   counter, install fresh barriers sized to the shrunken live set, then
   abort the old barriers so nobody waits on a party that will never
   arrive. Participants still inside the round loop observe the abort and
   go again; participants that had already finished (or the master parked
   in diagnostics) are re-spawned or rejoin via the round counter. *)
let cell_died (sys : Types.system) id =
  match sys.Types.round with
  | Some r when not (List.mem id r.Types.dead) ->
    let eng = sys.Types.eng in
    let dead = id :: r.Types.dead in
    sys.Types.recovery_round <- sys.Types.recovery_round + 1;
    Types.sys_bump sys Count.round_restarts;
    Types.note_phase sys ~cell:id "recovery.restart"
      ?args:
        (if Sim.Event.enabled sys.Types.events then
           Some [ ("round", Sim.Event.Int sys.Types.recovery_round) ]
         else None);
    (* Restart among the cells already in the round: a live cell outside
       the old participant set (e.g. on the far side of a partition) must
       not be counted into barriers it will never reach. *)
    let live =
      start_round sys ~dead (fun c ->
          List.mem c.Types.cell_id r.Types.participants)
    in
    Sim.Barrier.abort eng r.Types.barrier1;
    Sim.Barrier.abort eng r.Types.barrier2;
    (* Survivors whose recovery thread already exited need a fresh one;
       the rest loop back when their barrier await returns [Aborted]. *)
    List.iter
      (fun (c : Types.cell) ->
        if Option.is_none c.Types.recovery_thread then
          start_recovery_thread sys c)
      live
  | Some _ | None -> ()
