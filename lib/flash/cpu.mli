(** Processor occupancy model.

    One CPU per node. Simulation threads occupy the CPU for compute bursts
    (FIFO-fair); interrupt-level work ({!steal}) stretches whatever burst is
    in progress, modelling interrupt-level RPC service on a busy node. *)

exception Halted of int

type t

val create : int -> t

(** Fail-stop this processor: current and future occupants get {!Halted}. *)
val halt : t -> unit

val restore : t -> unit

(** Run interrupt-level work for [ns] (no queueing; stretches the current
    burst). *)
val steal : t -> int64 -> unit

(** Occupy the CPU for [ns] of computation. *)
val use : Sim.Engine.t -> t -> int64 -> unit
