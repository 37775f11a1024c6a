(** Cyclic synchronization barrier: the last of [parties] arrivals releases
    everyone. Used by parallel workloads and by Hive's double-global-barrier
    recovery protocol.

    A barrier can be torn down with {!abort} (all current and future waiters
    return {!Aborted} instead of blocking forever) or shrunk with
    {!remove_party} when a participant is known to have died; both exist so
    a failure *during* recovery releases the surviving participants instead
    of deadlocking them. *)

type t

(** Outcome of one {!await_abortable}: [Released] when all parties arrived,
    [Aborted] when the barrier was torn down. *)
type outcome = Released | Aborted

val create : int -> t

val parties : t -> int

(** Has the barrier been aborted? Aborted barriers never block again. *)
val aborted : t -> bool

(** Block until [parties] threads have called [await]. Returns immediately
    if the barrier has been aborted. *)
val await : Engine.t -> t -> unit

(** Like {!await}, but reports whether the release was a genuine barrier
    completion or a teardown. *)
val await_abortable : Engine.t -> t -> outcome

(** Tear the barrier down: release every waiter with [Aborted], and make
    all future awaits return [Aborted] immediately. Idempotent. *)
val abort : Engine.t -> t -> unit

(** Shrink the barrier by one party (a participant died and will never
    arrive). If the remaining arrivals already satisfy the smaller count,
    the generation is released now; removing the last party aborts. *)
val remove_party : Engine.t -> t -> unit
