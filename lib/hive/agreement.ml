(* Distributed agreement on cell failure (Section 4.3).

   A hint alone must not reboot a cell: a faulty cell that mistakenly
   concluded others were corrupt could destroy a large fraction of the
   system. When an alert is broadcast, all cells suspend user-level
   processes and vote on the suspect's liveness; consensus among the
   surviving cells is required before recovery. A cell that broadcasts
   the same alert twice but is voted down both times is itself considered
   corrupt by the other cells.

   Interconnect partitions add a third observable beside "alive" and
   "dead": *unreachable*. A bus error is the hardware answering "that
   memory is gone" (node dead); a timeout is silence — the peer may be
   alive on the far side of a partition. The vote therefore carries a
   tri-state verdict, and confirmation requires responses from a strict
   majority of the accuser's live set (minus cells whose hardware is
   demonstrably dead). An accuser that cannot muster that quorum is on
   the minority side of a split: confirming there would elect a recovery
   master concurrently with the majority's, so it stands down (panics)
   instead — safety over liveness, exactly the Hive bias.

   The paper simulated this protocol with an oracle (the group-membership
   algorithm was not yet implemented); we provide both the real
   broadcast-vote protocol and an oracle mode for reproducing the paper's
   experimental setup. *)

type verdict = V_alive | V_dead | V_unreachable

type Types.payload +=
  | P_vote_req of { suspect : Types.cell_id; accuser : Types.cell_id }
  | P_vote of { verdict : verdict }
  | P_dismiss of { accuser : Types.cell_id }

let vote_op = Rpc.Op.declare "agree.vote"

(* A liveness probe has no effect to replay. *)
let ping_op = Rpc.Op.declare ~idempotent:true "agree.ping"

let dismiss_op = Rpc.Op.declare "agree.dismiss"

let probe_timeout_ns = 2_000_000L

(* The confirmation decision as a pure function of one round's tallies,
   shared by the live protocol below and by property tests that drive it
   with thousands of synthetic electorates. [t_hard_dead] counts cells
   whose hardware demonstrably died (bus error or readable-but-frozen
   clock): they leave the quorum base. Unreachable silence does not — a
   partitioned peer may be alive, so it stays in the base and denies the
   accuser its vote. *)
type tally = {
  t_alive : int;  (** responders that saw the suspect alive *)
  t_dead : int;  (** responders that saw dead hardware *)
  t_unreachable : int;  (** responders that timed out probing the suspect *)
  t_hard_dead : int;  (** voters (or the suspect) with demonstrably dead hw *)
  t_live_set : int;  (** size of the accuser's live set *)
}

let quorum_confirms ~quorum_check (t : tally) =
  let responders = t.t_alive + t.t_dead + t.t_unreachable in
  let quorum_base = t.t_live_set - t.t_hard_dead in
  if quorum_check then
    t.t_alive = 0
    && (t.t_dead > 0 || t.t_unreachable > 0)
    && responders * 2 > quorum_base
  else
    (* Historical rule (no quorum): silence counts as a death vote. Kept
       as the planted bug behind --demo-split-brain: under a partition
       both sides confirm and elect concurrent masters. *)
    t.t_dead + t.t_unreachable > t.t_alive

(* Ground truth used in oracle mode, mirroring the SimOS machine model's
   failure oracle. *)
let oracle_dead (sys : Types.system) suspect =
  let c = sys.Types.cells.(suspect) in
  c.Types.cstatus = Types.Cell_down
  || List.exists
       (fun n -> not (Flash.Machine.node_alive sys.Types.machine n))
       c.Types.cell_nodes

(* Probe a suspect: careful read of its clock word plus a ping RPC. The
   careful section distinguishes a partitioned peer (times out:
   [Unreachable]) from dead hardware (bus error). A readable clock with a
   silent kernel means the processors are dead while the memory lives on
   (the Cpu_dead_mem_alive fault) — unless a partition armed between the
   two reads, which the clock re-read detects. *)
let probe (sys : Types.system) (voter : Types.cell) suspect =
  Sim.Engine.delay Params.agreement_vote_ns;
  if sys.Types.use_agreement_oracle then
    if oracle_dead sys suspect then V_dead else V_alive
  else begin
    match Clock.read_peer_clock sys voter ~target:suspect with
    | Error (Careful_ref.Unreachable _) -> V_unreachable
    | Error _ -> V_dead
    | Ok _ -> (
      match
        Rpc.call sys ~from:voter ~target:suspect ~op:ping_op
          ~timeout_ns:probe_timeout_ns Types.P_unit
      with
      | Ok _ -> V_alive
      | Error _ -> (
        match Clock.read_peer_clock sys voter ~target:suspect with
        | Error (Careful_ref.Unreachable _) -> V_unreachable
        | Ok _ | Error _ -> V_dead))
  end

let false_alert_count (c : Types.cell) accuser =
  match List.assoc_opt accuser c.Types.false_alerts with
  | Some n -> n
  | None -> 0

let bump_false_alerts (c : Types.cell) accuser =
  let n = false_alert_count c accuser in
  c.Types.false_alerts <-
    (accuser, n + 1) :: List.remove_assoc accuser c.Types.false_alerts

(* Does the recovery already in flight reach this cell? If the accuser is
   partitioned from every participant, that recovery cannot observe (or
   excise) anything on this side — the accuser must run its own round
   rather than silently deferring to a recovery it cannot see. *)
let standing_recovery_reaches (sys : Types.system) (accuser : Types.cell) =
  List.exists
    (fun p ->
      p <> accuser.Types.cell_id
      && not (Careful_ref.partitioned sys accuser ~target:p))
    sys.Types.recovery_participants

(* Run one agreement round from the accusing cell. *)
let run (sys : Types.system) (accuser : Types.cell) ~suspect ~reason =
  let skip =
    (not (Types.cell_alive accuser))
    || sys.Types.recovery_in_progress
       && (accuser.Types.in_recovery || standing_recovery_reaches sys accuser)
  in
  if skip then ()
  else begin
    sys.Types.recovery_in_progress <- true;
    (* Publish the round's electorate: a later hint on a partitioned cell
       consults it to decide whether this round can possibly reach it. *)
    sys.Types.recovery_participants <-
      List.filter (fun id -> id <> suspect) accuser.Types.live_set;
    Types.sys_bump sys "agreement.rounds";
    Types.note_phase sys ~cell:accuser.Types.cell_id "recovery.agreement"
      ?args:(Types.suspect_args sys ~suspect ~reason);
    Gate.close sys accuser;
    let voters =
      List.filter (fun id -> id <> suspect) accuser.Types.live_set
    in
    let votes_dead = ref 0 and votes_alive = ref 0 in
    let votes_unreachable = ref 0 in
    (* Voters that never answered, split by what their silence means:
       a readable clock or a bus error is dead hardware (out of the
       quorum base); a careful-section timeout is a partitioned peer that
       may well be alive (stays in the base, denies us its vote). *)
    let silent_unreachable = ref 0 and silent_dead = ref 0 in
    let count = function
      | V_alive -> incr votes_alive
      | V_dead -> incr votes_dead
      | V_unreachable -> incr votes_unreachable
    in
    let my_verdict = ref V_unreachable in
    List.iter
      (fun voter_id ->
        if voter_id = accuser.Types.cell_id then begin
          let v = probe sys accuser suspect in
          my_verdict := v;
          count v
        end
        else
          match
            Rpc.call sys ~from:accuser ~target:voter_id ~op:vote_op
              (P_vote_req { suspect; accuser = accuser.Types.cell_id })
          with
          | Ok (P_vote { verdict }) -> count verdict
          | Ok _ | Error _ -> (
            match Clock.read_peer_clock sys accuser ~target:voter_id with
            | Error (Careful_ref.Unreachable _) -> incr silent_unreachable
            | Ok _ | Error _ -> incr silent_dead))
      voters;
    let quorum_check =
      sys.Types.params.Params.planted_bug <> Some Params.Quorum_check_off
    in
    let hard_dead =
      !silent_dead + (match !my_verdict with V_dead -> 1 | _ -> 0)
    in
    let confirmed =
      quorum_confirms ~quorum_check
        {
          t_alive = !votes_alive;
          t_dead = !votes_dead;
          t_unreachable = !votes_unreachable;
          t_hard_dead = hard_dead;
          t_live_set = List.length accuser.Types.live_set;
        }
    in
    if confirmed then begin
      Types.sys_bump sys "agreement.confirmed";
      Recovery.initiate ~by:accuser.Types.cell_id sys ~dead:[ suspect ]
    end
    else if
      quorum_check
      && !votes_alive = 0
      && (!votes_unreachable > 0 || !silent_unreachable > 0)
    then begin
      (* No quorum, and the missing voters are unreachable rather than
         dead: this accuser is on the minority side of a partition. *)
      Types.sys_bump sys "agreement.no_quorum";
      Types.note_phase sys ~cell:accuser.Types.cell_id "recovery.standdown";
      if not sys.Types.recovery_round_active then
        sys.Types.recovery_in_progress <- false;
      Panic.panic sys accuser "partition: minority side, standing down"
    end
    else begin
      (* Dismissed: reopen gates everywhere and note the false alert. *)
      Types.sys_bump sys "agreement.dismissed";
      bump_false_alerts accuser accuser.Types.cell_id;
      accuser.Types.suspected <-
        List.filter (fun s -> s <> suspect) accuser.Types.suspected;
      List.iter
        (fun voter_id ->
          if voter_id <> accuser.Types.cell_id then
            ignore
              (Rpc.call sys ~from:accuser ~target:voter_id ~op:dismiss_op
                 (P_dismiss { accuser = accuser.Types.cell_id })))
        voters;
      Gate.open_ sys accuser;
      sys.Types.recovery_in_progress <- false
    end
  end

(* After voting "dead" a cell keeps its gate closed until the accuser
   either confirms (recovery closes it anyway) or dismisses the alert. A
   lost dismiss must not suspend user processes forever: re-check after a
   timeout and reopen if no recovery is in flight. While agreement or
   recovery is still running, re-arm and look again later. *)
let watchdog_timeout_ns = 2_000_000_000L

let watchdog_reopen (sys : Types.system) (cell : Types.cell) =
  let rec check () =
    if Types.cell_alive cell && not cell.Types.user_gate_open then begin
      if sys.Types.recovery_in_progress || cell.Types.in_recovery then
        Sim.Engine.schedule sys.Types.eng ~after:watchdog_timeout_ns check
      else begin
        Types.bump cell "agreement.watchdog_reopens";
        Gate.open_ sys cell
      end
    end
  in
  Sim.Engine.schedule sys.Types.eng ~after:watchdog_timeout_ns check

let registered = ref false

let register_handlers () =
  if not !registered then begin
    registered := true;
    Rpc.register ping_op (fun _sys _cell ~src:_ _arg ->
        Types.Immediate (Ok Types.P_unit));
    Rpc.register vote_op (fun sys cell ~src arg ->
        match arg with
        | P_vote_req { suspect; accuser } ->
          Types.Queued
            (fun () ->
              (* Suspend user-level processes for the duration of
                 agreement (and recovery, if confirmed). *)
              Gate.close sys cell;
              let verdict =
                if false_alert_count cell accuser >= 2 then
                  (* Repeated false accuser: considered corrupt; refuse to
                     confirm its alerts. *)
                  V_alive
                else probe sys cell suspect
              in
              ignore src;
              (match verdict with
              | V_alive ->
                (* Reopen optimistically; a confirm will re-close. *)
                Gate.open_ sys cell
              | V_dead | V_unreachable ->
                (* The gate stays closed awaiting the accuser's verdict.
                   On a degraded interconnect the dismiss RPC can be lost
                   even after every retransmission, which would leave this
                   cell's processes suspended forever — a watchdog reopens
                   the gate if no recovery materializes. *)
                watchdog_reopen sys cell);
              Ok (P_vote { verdict }))
        | _ -> Types.Immediate (Error Types.EFAULT));
    Rpc.register dismiss_op (fun sys cell ~src:_ arg ->
        match arg with
        | P_dismiss { accuser } ->
          bump_false_alerts cell accuser;
          Gate.open_ sys cell;
          Types.Immediate (Ok Types.P_unit)
        | _ -> Types.Immediate (Error Types.EFAULT))
  end
