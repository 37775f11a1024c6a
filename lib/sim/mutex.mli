(** Non-reentrant mutual exclusion for simulation threads (FIFO-fair). *)

type t

val create : unit -> t

val lock : Engine.t -> t -> unit

val unlock : Engine.t -> t -> unit

(** [with_lock eng m f] runs [f] holding [m]; the lock is released even if
    [f] raises or the thread is killed. *)
val with_lock : Engine.t -> t -> (unit -> 'a) -> 'a
