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
     on every live cell but an undetected data-corruption victim
     ({!end_of_run_check}, which {!Fuzz.run_plan} shares).

   The workload/timing combinations follow Table 7.4: node failure during
   process creation (pmake), during copy-on-write search (raytrace), and
   at random times (pmake); corrupt pointer in a process address map
   (pmake) and in the copy-on-write tree (raytrace). *)

type kind =
  | Node_failure of { node : int }
  | Node_cascade of { first_node : int; second_node : int }
      (** fail [first_node] at the fault's time, then [second_node] once
          that recovery round has passed barrier 1 (or after a simulated
          second), forcing a round restart with the enlarged dead set *)
  | Corrupt_map of { victim_cell : int; mode : Hive.System.corruption_mode }
  | Corrupt_cow of { victim_cell : int; mode : Hive.System.corruption_mode }
  | Link_degrade of {
      deg_from : int; (* source proc, -1 = any *)
      deg_to : int; (* destination node, -1 = any *)
      dur_ns : int64;
      drop_pct : int;
      dup_pct : int;
      delay_pct : int;
      max_delay_ns : int64;
      salt : int64; (* seeds the window's own per-message PRNG *)
    }
  | Partition of {
      part_cell : int; (* cell severed from the rest of the machine *)
      dur_ns : int64; (* heals deterministically [dur_ns] after injection *)
      one_way : bool; (* true: only traffic INTO the cell is lost *)
    }
  | Cpu_dead_mem_alive of { node : int }

type fault = {
  at_ns : int64;
      (** Injection time. {!run_test} counts it from the end of workload
          setup; Table 7.4's default pmake setup ends at 2,953 ms.
          {!Fuzz.run_plan} counts it from boot, so a fault drawn before
          setup ends waits for it: in fuzz shapes pmake setup ends at
          1,113 ms on average and ocean setup at 824 ms, so 222 of the
          465 faults in seeds 1-200 land together at the end of setup. *)
  kind : kind;
}

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

(** Sever every link between [cell]'s nodes and the rest of the machine
    over [\[from_ns, until_ns)]; with [one_way] only inbound traffic is
    lost. *)
val sever_cell :
  Hive.Types.system ->
  cell:Hive.Types.cell_id -> from_ns:int64 -> until_ns:int64 -> one_way:bool ->
  unit

(** Inject [fault] now, from a simulation thread, retrying every 20 ms
    (at most [tries] times) while no suitable victim exists. Returns the
    time of the last attempt and the cells the fault landed on ([] =
    none). A [Node_cascade] blocks the calling thread until its second
    failure. *)
val inject :
  Hive.Types.system -> Sim.Prng.t -> tries:int -> fault ->
  int64 * Hive.Types.cell_id list

(** Whether the fault destroys or corrupts kernel state on the victim
    cell, so the victim may die without breaking containment. Link
    degradation never does: every cell must come out of it fully
    coherent. A partitioned minority cell stands down, so it counts.
    {!Fuzz.plan_of_seed} counts these faults against the majority side's
    quorum. *)
val corrupts_cell : fault -> bool

val describe : fault -> string

(** Test hook. The cells the end-of-run invariant sweep exempts, given
    each fault that landed and the cells it landed on: only the victims of
    [Corrupt_map] and [Corrupt_cow], whose damaged structures may stay
    undetected. Fail-stop, cascade, partition and CPU-dead victims reboot
    with zeroed memory at reintegration and are checked in full. *)
val exempt_cells :
  (fault * Hive.Types.cell_id list) list -> Hive.Types.cell_id list

(** The end-of-run oracle of both {!run_test} and {!Fuzz.run_plan}:
    snapshot the outstanding RPC calls, run two simulated seconds (past
    the full retransmission schedule) and report every call still
    orphaned, then run [before_sweep] and sweep every invariant on every
    cell but [exempt_cells landed]. *)
val end_of_run_check :
  ?before_sweep:(unit -> unit) -> Hive.Types.system ->
  landed:(fault * Hive.Types.cell_id list) list ->
  Hive.Invariants.violation list

(** One test as above on [sys] (default: a fresh four-cell Wax boot):
    set up the default pmake (the check run's inputs) and [workload],
    inject [fault] [at_ns] after that setup, run [workload], then run
    the check and {!end_of_run_check}. *)
val run_test :
  ?seed:int -> ?sys:Hive.Types.system -> workload:Workloads.Spec.t -> fault ->
  outcome

(** Contained, injected, check run complete and exact, no violations. *)
val passed : outcome -> bool
type campaign_row = {
  tests : int;
  all_contained : bool;
  avg_detect_ms : float;
  max_detect_ms : float;
  avg_recovery_ms : float;
}
val modes : Hive.System.corruption_mode array
val node_failure_during_creation : tests:int -> campaign_row
val node_failure_during_cow : tests:int -> campaign_row
val node_failure_random : tests:int -> campaign_row
val corrupt_map_campaign : tests:int -> campaign_row
val corrupt_cow_campaign : tests:int -> campaign_row

(** [run_parallel ~jobs ~seeds ~run ~on_record] shards [seeds] across
    OCaml 5 domains with work stealing: the calling domain is one of the
    workers, and it spawns [spawned_domains] more. Each worker executes
    [run seed] with a private, domain-bound simulation engine; results
    are handed to [on_record seed result] on the calling domain in seed
    order, between the caller's own campaigns and after them, so the
    merged output is byte-identical to a serial run for any [jobs]. A
    single worker ([jobs <= 1], one seed or one CPU) degenerates to a
    plain serial loop. A worker exception is re-raised on the calling
    domain at the position the failing seed holds in the order, after
    the spawned domains are joined; so is an exception from
    [on_record]. [run] must not print or touch shared mutable
    state — everything it needs must be created inside the call (this
    is how the fuzzer's [run_plan] already behaves). *)
val run_parallel :
  jobs:int ->
  seeds:int64 array ->
  run:(int64 -> 'r) ->
  on_record:(int64 -> 'r -> unit) ->
  unit

(** Test hook. [spawned_domains ~jobs ~seeds ~cpus] is how many domains
    [run_parallel] spawns besides the caller for [seeds] seeds on a host
    recommending [cpus] domains: [min jobs seeds cpus - 1], at least 0. *)
val spawned_domains : jobs:int -> seeds:int -> cpus:int -> int
