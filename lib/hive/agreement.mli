(** Distributed agreement on cell failure (Section 4.3).

   A hint alone must not reboot a cell: a faulty cell that mistakenly
   concluded others were corrupt could destroy a large fraction of the
   system. When an alert is broadcast, all cells suspend user-level
   processes and vote on the suspect's liveness; consensus among the
   surviving cells is required before recovery. A cell that broadcasts
   the same alert twice but is voted down both times is itself considered
   corrupt by the other cells.

   Interconnect partitions add a third observable beside "alive" and
   "dead": *unreachable* (a careful-section timeout, as opposed to a bus
   error). Votes carry the tri-state verdict; unless the
   [Params.Quorum_check_off] bug is planted, confirmation needs zero "alive"
   votes, some evidence, and responses from a strict majority of the
   accuser's live set minus demonstrably-dead hardware. An accuser that
   cannot muster that quorum while peers are unreachable is on the
   minority side of a partition and stands down (panics) instead of
   confirming — the single-recovery-master invariant.

   The paper simulated this protocol with a failure oracle (the
   group-membership algorithm was not yet implemented). This is the
   real broadcast-vote protocol, and the only one: every fault run,
   test and bench row agrees through it. *)

(** Test hook. *)
val ping_op : Rpc.Op.t

(** One agreement round's tallies, and the confirmation decision as a
    pure function of them — the exact rule the live protocol applies,
    exported so property tests can drive it with synthetic electorates.
    [t_hard_dead] counts demonstrably-dead hardware (bus errors, frozen
    clocks): it leaves the quorum base, whereas unreachable silence stays
    in the base and denies the accuser its vote. With [quorum_check]
    false the historical rule applies (silence counts as a death vote) —
    the planted bug behind [--demo-split-brain]. *)
type tally = {
  t_alive : int;
  t_dead : int;
  t_unreachable : int;
  t_hard_dead : int;
  t_live_set : int;
}

(** Test hook. *)
val quorum_confirms : quorum_check:bool -> tally -> bool

(** Test hook. *)
val false_alert_count : Types.cell -> Types.cell_id -> int

(** Run the vote of an agreement from its accuser, in the thread that owns
    it (the thread whose exit hook removes it from [sys.agreements]). The
    vote is skipped when a standing recovery already reaches the accuser;
    otherwise it sets the electorate and confirms, dismisses or stands
    down. *)
val run :
  Types.system -> Types.cell -> Types.agreement -> reason:string -> unit
