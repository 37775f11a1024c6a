(** Latency model of an HP-97560-class disk (one per node), following the
    role of the validated drive model used by SimOS. Accesses serialize on
    the drive; sequential block runs are cheap, random accesses pay average
    seek plus rotation. *)

type t

val create : unit -> t

(** Blocking read of [bytes] starting at [block]. *)
val read : Sim.Engine.t -> t -> block:int -> bytes:int -> unit

(** Blocking write. *)
val write : Sim.Engine.t -> t -> block:int -> bytes:int -> unit
