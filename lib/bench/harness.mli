(** Shared plumbing for the sweep scenarios: booting a system, running a
    body in a simulation thread, the no-op RPC ops, a warmed data-home
    file and a timed page-touch pass over it. *)

(** Boot [ncells] cells on [mcfg] (default {!Flash.Config.default}) with
    [params] (default {!Hive.Params.default}), Wax off unless [wax]. *)
val boot :
  ?mcfg:Flash.Config.t ->
  ?params:Hive.Params.t ->
  ?wax:bool ->
  ncells:int ->
  unit ->
  Sim.Engine.t * Hive.Types.system

(** [in_thread eng body] runs [body] in a new simulation thread, drives
    [eng] for 60 simulated seconds and returns [body]'s value. Raises
    [Failure] if [body] has not finished by then. *)
val in_thread : Sim.Engine.t -> (unit -> 'a) -> 'a

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
