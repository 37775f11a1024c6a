(** server: an interactive time-sharing traffic workload for quantifying
    "serve through failure" — open-loop Poisson arrivals on every cell,
    Zipf file popularity over files spread across data homes, fork/exit
    churn storms, and an optional cell kill mid-traffic.

    Clients spend an end-to-end deadline budget across redirect legs
    ([Hive.Rpc.call ?deadline_ns]); servers shed sheddable requests with
    EBUSY when saturated or mid-recovery. Request latencies land in
    [sys.op_ns] keyed ["class|phase"] (phases: before/during/after the
    failure), so [Hive.Metrics] exports per-phase p50/p95/p99/p99.9. *)

type fault = { kill_cell : int; at_ms : int }

type cfg = {
  duration_ms : int;
  rate_rps : float;  (** system-wide arrival rate (open loop) *)
  zipf_s : float;
  nfiles : int;
  churn_pct : int;  (** % of arrivals that are churn requests *)
  deadline_ms : int;  (** end-to-end client budget per request *)
  fault : fault option;
  seed : int64;
}

val default : cfg

(** Outcome counts and containment numbers for one run. *)
type stats = {
  arrivals : int;
  skipped : int;
  reads_served : int;
  reads_redirected : int;
  fail_fast : int;
  deadline_exceeded : int;
  client_lost : int;
  shed_legs : int;
  churn_sent : int;
  churn_ok : int;
  fault_at_ns : int64 option;
  recovered_at_ns : int64 option;
  fail_fast_max_ns : int64;
  errors : int;
}

type Hive.Types.payload +=
    P_srv_read of { path : string }
  | P_srv_data of { bytes : int }
  | P_srv_churn of { path : string }

(** Test hook. The serving side of the [server.read] op: open [path] on
    the serving cell, read its first [2] pages and drop them. *)
val read_handler : Hive.Rpc.handler

(** Test hook. [targets ncells home alt] is a read's redirect order: the first
    target [(home + alt) mod ncells], then the data home [home], then the
    remaining cells ascending. *)
val targets : int -> int -> int -> int list

(** Does nothing. The server's two ops are served when this module is
    initialized; the function stays for existing callers. *)
val register_ops : unit -> unit

(** Run the traffic against a booted system, driving the engine until
    the configured duration elapses and every in-flight request has
    resolved. [result.completed] also requires zero unexpected
    traffic-thread errors. Raises [Invalid_argument] unless
    [cfg.rate_rps] is positive. *)
val run :
  ?cfg:cfg -> Hive.Types.system -> Workload.result * stats

(** One-line human summary of {!stats} (plus fault/recovery times). *)
val print_stats : stats -> unit
