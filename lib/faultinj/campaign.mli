(** Fault-injection campaigns (Section 7.4).

   Each test boots a four-cell system (or takes the caller's), runs a
   workload, injects one fault (a fail-stop node failure or a kernel data
   corruption), and then:

   - measures the latency until the last cell enters recovery;
   - checks that the fault's effects were contained: all other cells
     survive;
   - runs the pmake workload as a system correctness check (it forks
     processes on all surviving cells);
   - compares all output files of the workload run and the check run
     against reference copies to detect data corruption (stale data after
     a preemptive discard is data loss, not corruption);
   - checks that no RPC call is orphaned and that every invariant holds
     on every live cell but an undetected data-corruption victim.

   The workload/timing combinations follow Table 7.4: node failure during
   process creation (pmake), during copy-on-write search (raytrace), and
   at random times (pmake); corrupt pointer in a process address map
   (pmake) and in the copy-on-write tree (raytrace). *)

type fault =
    Node_failure of { node : int; at_ns : int64; }
  | Node_cascade of { first_node : int; second_node : int; at_ns : int64 }
      (** fail [first_node] at [at_ns], then [second_node] once that
          recovery round has passed barrier 1 (or after a simulated
          second), forcing a round restart with the enlarged dead set *)
  | Corrupt_map of { victim_cell : int; at_ns : int64;
      mode : Hive.System.corruption_mode;
    }
  | Corrupt_cow of { victim_cell : int; at_ns : int64;
      mode : Hive.System.corruption_mode;
    }
  | Link_degrade of {
      deg_from : int; (* source proc, -1 = any *)
      deg_to : int; (* destination node, -1 = any *)
      at_ns : int64;
      dur_ns : int64;
      drop_pct : int;
      dup_pct : int;
      delay_pct : int;
      max_delay_ns : int64;
      salt : int64; (* seeds the window's own per-message PRNG *)
    }
  | Partition of {
      part_cell : int; (* cell severed from the rest of the machine *)
      at_ns : int64;
      dur_ns : int64; (* heals deterministically at at_ns + dur_ns *)
      one_way : bool; (* true: only traffic INTO the cell is lost *)
    }
  | Cpu_dead_mem_alive of { node : int; at_ns : int64 }
type outcome = {
  fault_desc : string;
  injected_cells : int list;  (** every cell the fault landed on; [] = none *)
  contained : bool;
  detection_ms : float option;
  recovery_ms : float option;
  check_passed : bool;
  corrupt_outputs : string list;
  survivors : int list;
  violations : string list;  (** end-of-run invariant violations *)
}
type workload_kind = Use_pmake | Use_raytrace
(** Sever every link between [cell]'s nodes and the rest of the machine
    over [\[from_ns, until_ns)]; with [one_way] only inbound traffic is
    lost. *)
val sever_cell :
  Hive.Types.system ->
  cell:Hive.Types.cell_id -> from_ns:int64 -> until_ns:int64 -> one_way:bool ->
  unit

(** Inject [fault] now, from a simulation thread, and return the cells it
    landed on; [] means no suitable victim exists yet (retry later). A
    [Node_cascade] blocks the calling thread until its second failure. *)
val inject :
  Hive.Types.system -> Sim.Prng.t -> fault -> Hive.Types.cell_id list

(** [inject], retried every 20 ms (at most [tries] times) until a victim
    exists; returns the time of the last attempt and the cells hit. *)
val inject_retrying :
  Hive.Types.system -> Sim.Prng.t -> tries:int -> fault ->
  int64 * Hive.Types.cell_id list

(** Whether the fault destroys/corrupts kernel state on the victim cell
    (so checkers must exempt it). Link degradation never does: every cell
    must come out of it fully coherent. A partitioned minority cell
    stands down and is rebooted with zeroed memory at reintegration, so
    it counts. *)
val corrupts_cell : fault -> bool

val fault_time : fault -> int64
val describe : fault -> string

(** One test as above, with [fault] injected [fault_time] after pmake
    setup; [sys] defaults to a fresh four-cell Wax boot. *)
val run_test :
  ?seed:int -> ?sys:Hive.Types.system -> workload:workload_kind -> fault ->
  outcome

(** Contained, injected, check run complete and exact, no violations. *)
val passed : outcome -> bool
type campaign_row = {
  label : string;
  tests : int;
  all_contained : bool;
  avg_detect_ms : float;
  max_detect_ms : float;
  avg_recovery_ms : float;
  failures : string list;
}
val modes : Hive.System.corruption_mode array
val node_failure_during_creation : tests:int -> campaign_row
val node_failure_during_cow : tests:int -> campaign_row
val node_failure_random : tests:int -> campaign_row
val corrupt_map_campaign : tests:int -> campaign_row
val corrupt_cow_campaign : tests:int -> campaign_row

(** [run_parallel ~jobs ~seeds ~run ~on_record] shards [seeds] across
    [jobs] OCaml 5 domains with work stealing. Each worker executes
    [run seed] with a private, domain-bound simulation engine; results
    are handed to [on_record seed result] on the calling domain in seed
    order, so the merged output is byte-identical to a serial run for
    any [jobs]. [jobs <= 1] degenerates to a plain serial loop. A worker
    exception is re-raised on the calling domain at the position the
    failing seed holds in the order. [run] must not print or touch
    shared mutable state — everything it needs must be created inside
    the call (this is how the fuzzer's [run_plan] already behaves). *)
val run_parallel :
  jobs:int ->
  seeds:int64 array ->
  run:(int64 -> 'r) ->
  on_record:(int64 -> 'r -> unit) ->
  unit
