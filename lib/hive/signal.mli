(** Distributed process groups and signal delivery.

   The paper's prototype single-system image "provides forks across cell
   boundaries, distributed process groups and signal delivery" (Section
   3.3). Process groups span cells: a signal sent to a group is delivered
   to every member wherever it runs, via one RPC per remote cell holding
   members. Groups and signal state are per-cell; the group id carries
   the cell that created it, and membership is tracked where each member
   runs (no shared mutable structure crosses a cell boundary). *)

type signal = SIGTERM | SIGKILL | SIGUSR1 | SIGUSR2
type Types.payload +=
    P_signal of { pid : Types.pid; signal : signal; }
  | P_signal_group of { pgid : int; signal : signal; }
type pstate = {
  mutable handlers : (signal * (Types.process -> unit)) list;
  mutable pending : signal list;
  mutable pgid : int;
}
(* Clear the domain-local per-pid signal state; called by [System.boot]
   so campaigns never inherit pgids or handlers from identically
   numbered pids of an earlier system on this domain. *)
val reset : unit -> unit

val handle :
  Types.process -> signal -> (Types.process -> unit) -> unit
val set_pgid : Types.process -> int -> unit
val kill :
  Types.system ->
  Types.process ->
  pid:Types.pid -> signal -> (unit, Types.errno) result
val kill_group :
  Types.system ->
  Types.process -> pgid:int -> signal -> (unit, Types.errno) result
