(** Deterministic simulation fuzzer (DST harness).

    A single 64-bit seed derives a whole experiment: machine shape (cells,
    nodes per cell), workload and its scaled-down configuration, an
    optional scheduler-jitter stream, and a randomized fault schedule
    (node fail-stops, address-map and COW-tree corruptions, cascades
    timed to land inside a recovery round). Because the simulation engine
    is deterministic, replaying a seed reproduces the run bit-for-bit;
    a failing seed can then be shrunk to a minimal reproducer. *)

type workload = Pmake | Ocean | Raytrace

(** Interactive-traffic shape for seeds that run the server workload. *)
type traffic = {
  t_rate : int;  (** system-wide arrival rate, requests/s *)
  t_zipf_pct : int;  (** Zipf [s] times 100; 0 = uniform *)
  t_churn_pct : int;
  t_deadline_ms : int;  (** end-to-end client budget *)
}

type plan = {
  seed : int64;
  ncells : int;
  nodes_per_cell : int;
  mem_pages_per_node : int;
  workload : workload;
  jitter : bool;
  faults : Campaign.fault list;
      (** sorted by injection time, which counts from boot (not from the
          end of setup, as in {!Campaign.run_test}; see
          {!Campaign.fault}) *)
  traffic : traffic option;
      (** when set, interactive server traffic replaces the batch
          workload; [faults] still applies mid-traffic. Drawn from its
          own salted stream appended after every other draw, so seeds
          without traffic keep byte-identical plans. *)
}

type record = {
  r_seed : int64;
  r_plan : string;  (** human-readable plan summary *)
  r_injected : string list;  (** faults that actually landed, with cell *)
  r_completed : bool;  (** workload driver finished *)
  r_violations : string list;  (** invariant violations, empty = pass *)
  r_survivors : int list;
  r_sim_ns : int64;  (** virtual time at end of run *)
  r_events : int;
      (** events the engine scheduled: a deterministic measure of how
          much simulation work the seed did *)
}

val plan_of_seed : int64 -> plan

val describe_plan : plan -> string

(** A deliberately planted bug, used to prove the checkers catch one. *)
type plant =
  | Unrecorded_grant
      (** a firewall grant the kernel never recorded, planted once a
          cell-destroying fault lands; the firewall checker must flag it *)
  | Dup_execution
      (** reply-cache suppression off while a duplication-heavy
          machine-wide degradation window runs, so retransmitted requests
          execute twice; the at-most-once checker must flag it *)
  | Split_brain
      (** the agreement quorum check off (silence counts as a death vote)
          while cell 0 is severed from the rest of the machine, so both
          sides elect concurrent recovery masters; the latched
          single-master oracle must flag the overlap *)

(** Run one plan to completion, optionally with a [plant]ed bug: set up
    and run the workload while the injector lands each fault, wait for
    recovery to settle, run a small pmake check on a faulted run, then
    apply {!Campaign.end_of_run_check}, the oracle {!Campaign.run_test}
    also uses. [trace_out] writes a Chrome trace_event JSON file of
    the run; [metrics_out] writes the end-of-run typed metrics snapshot
    as JSON. *)
val run_plan :
  ?plant:plant -> ?trace_out:string -> ?metrics_out:string -> plan -> record

val failed : record -> bool

(** One JSON object (single line, stable field order) per record; two
    replays of the same seed produce byte-identical lines. *)
val record_to_json : record -> string

(** Shrink a failing plan: repeatedly drop faults, round fault times to
    coarser grains, and disable jitter, keeping each simplification only
    if the plan still fails. Returns the minimal plan and its record.
    Raises [Invalid_argument] if the plan does not fail to begin with. *)
val shrink : ?plant:plant -> plan -> plan * record
