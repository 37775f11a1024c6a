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

   The paper simulated this protocol with an oracle (the group-membership
   algorithm was not yet implemented); we provide both the real
   broadcast-vote protocol and an oracle mode for reproducing the paper's
   experimental setup. *)

type verdict = V_alive | V_dead | V_unreachable

type Types.payload +=
    P_vote_req of { suspect : Types.cell_id;
      accuser : Types.cell_id;
    }
  | P_vote of { verdict : verdict; }
  | P_dismiss of { accuser : Types.cell_id; }
val vote_op : Rpc.Op.t
val ping_op : Rpc.Op.t
val dismiss_op : Rpc.Op.t
val probe_timeout_ns : int64

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

val quorum_confirms : quorum_check:bool -> tally -> bool
val oracle_dead : Types.system -> int -> bool
val probe :
  Types.system -> Types.cell -> Types.cell_id -> verdict
val false_alert_count : Types.cell -> Types.cell_id -> int
val bump_false_alerts : Types.cell -> Types.cell_id -> unit
val run :
  Types.system ->
  Types.cell -> suspect:Types.cell_id -> reason:string -> unit
val registered : bool ref
val register_handlers : unit -> unit
