(** Shared plumbing for the sweep scenarios: booting a system, timing a
    simulation-thread body in virtual time, the no-op RPC ops, a warmed
    data-home file and a timed page-touch pass over it. *)

val boot :
  ?ncells:int ->
  ?mcfg:Flash.Config.t ->
  ?wax:bool ->
  unit ->
  Sim.Engine.t * Hive.Types.system

(** Run a simulation-thread body to completion and return simulated ns. *)
val timed_in_thread : Sim.Engine.t -> (unit -> unit) -> int64

(** No-op RPC served at interrupt level / via the queued service. *)
val noop_op : Hive.Rpc.Op.t

val noop_queued_op : Hive.Rpc.Op.t

(** Average client-observed latency of [n] calls of [op], in us. *)
val avg_rpc_us :
  Sim.Engine.t ->
  Hive.Types.system ->
  op:Hive.Rpc.Op.t ->
  arg_bytes:int ->
  n:int ->
  float

(** Create an [npages]-page file homed on cell 0 and warm its page cache
    there; returns the path. *)
val make_warm_file : Hive.Types.system -> npages:int -> string

(** Map [npages] pages of [path] into a new process on [cell] and touch
    each once (writing if [write]); returns the per-touch simulated
    latency in ns, samples kept. *)
val touch_pass :
  Hive.Types.system ->
  cell:int ->
  path:string ->
  npages:int ->
  write:bool ->
  Sim.Stats.summary
