(** Counting semaphore for simulation threads. *)

type t

val create : int -> t

val acquire : Engine.t -> t -> unit

val release : Engine.t -> t -> unit
