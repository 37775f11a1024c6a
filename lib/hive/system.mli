(** The top-level Hive system: boot, fault injection entry points, and
   measurement helpers.

   [boot] partitions the machine's nodes evenly among [cells] independent
   kernels and starts them. With [cells = 1] and the firewall disabled the
   same kernel code runs as the SMP-OS baseline (the paper's IRIX 5.2
   comparison point): no remote paths are ever taken, no firewall checks
   are charged. *)

val boot :
  ?mcfg:Flash.Config.t ->
  ?params:Params.t ->
  ?ncells:int ->
  ?wax:bool -> Sim.Engine.t -> Types.system
val inject_node_failure : Types.system -> int -> unit

(** CXL-style processor failure: halts the node's CPU (fail-stopping its
    cell) while its memory banks keep answering remote reads, enabling
    page salvage during the ensuing recovery. *)
val inject_cpu_failure : Types.system -> int -> unit
type corruption_mode =
    Random_address
  | Off_by_one_word
  | Self_pointer
  | Cross_cell of Types.cell_id
val corrupt_cow_parent :
  Types.system ->
  Types.cell ->
  Types.cow_ref -> corruption_mode -> Sim.Prng.t -> unit
val corrupt_address_map :
  Types.system ->
  Types.process -> corruption_mode -> Sim.Prng.t -> bool
val reintegrate : Types.system -> Types.cell_id -> unit
val now : Sim.Engine.t -> int64
val run_until :
  Types.system ->
  ?step:int64 -> deadline:Int64.t -> (unit -> bool) -> bool
val run_until_processes_done :
  Types.system ->
  ?step:int64 -> deadline:Int64.t -> Types.process list -> bool
val live_cells : Types.system -> Types.cell_id list
val detection_latency_ns : Types.system -> t_fault:int64 -> int64 option
val counter_total : Types.system -> string -> int
(** A per-cell counter summed over every cell. *)
