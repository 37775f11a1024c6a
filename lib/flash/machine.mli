(** The whole simulated FLASH machine: nodes (CPU + memory + disk), the
    firewall-protected memory system, SIPS messaging, and the fault
    injection API used by the experiments. *)

type node = {
  id : int;
  cpu : Cpu.t;
  disk : Disk.t;
  mutable alive : bool;
}

type t

val create : Sim.Engine.t -> Config.t -> t

val memory : t -> Memory.t

val firewall : t -> Firewall.t

val sips : t -> Sips.t

val cpu : t -> int -> Cpu.t

val disk : t -> int -> Disk.t

val node_alive : t -> int -> bool

(** Register a callback invoked (synchronously) when a node fail-stops. *)
val on_node_failure : t -> (int -> unit) -> unit

(** Inject a fail-stop hardware fault: processor halted, memory range
    denied, messages dropped. *)
val fail_node : t -> int -> unit

(** Inject a CXL-style processor failure: CPU halted and SIPS silenced,
    but the node's memory stays readable by survivors (pooled-memory
    fault model — "Towards CXL Resilience to CPU Failures"). *)
val fail_node_cpu : t -> int -> unit

(** Repair and reintegrate a node after diagnostics pass (memory zeroed). *)
val restore_node : t -> int -> unit

(** Memory cutoff (Table 8.1): stop servicing remote accesses to the
    node's memory. *)
val cutoff_node : t -> int -> unit
