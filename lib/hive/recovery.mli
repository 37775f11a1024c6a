(** Recovery after a confirmed cell failure (Section 4.3).

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

   Recovery is itself fault-tolerant: if a participant dies mid-round the
   barriers are aborted and the surviving cells restart the round with the
   enlarged dead set ({!cell_died}). At the end of a round the recovery
   master (lowest live cell id) runs hardware diagnostics on the failed
   nodes and, when [Params.auto_reintegrate] is set, reboots and
   reintegrates them through the hook installed by [System.boot]. *)

(** Start a recovery round ([sys.round]) for the confirmed dead set: force
    still-running "dead" cells to stop and start a recovery thread on
    every live participant; the thread's exit hook releases the cell's
    [recovery_thread] however it ends. [by] names the initiating cell;
    when given, participation is limited to the cells it can reach — a
    "dead" cell that is merely partitioned away stays running (excised
    from the survivors' live sets) and is stopped and reintegrated by the
    recovery master once the partition heals. *)
val initiate :
  ?by:Types.cell_id -> Types.system -> dead:Types.cell_id list -> unit

(** Notify recovery that a cell has died. A no-op unless a round is active
    and the cell is not already in its dead set, in which case the round
    restarts with the enlarged dead set (abortable barriers guarantee no
    survivor is left waiting on the dead participant). *)
val cell_died : Types.system -> Types.cell_id -> unit

