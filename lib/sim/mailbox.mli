(** Unbounded FIFO message queue with blocking receive.

    Used for interrupt dispatch queues, RPC server pools and workload
    coordination. Delivery order is FIFO and deterministic.

    Send and receive are O(1): waiters live in a FIFO queue and a
    receiver that gives up (timeout, kill) tombstones its own record by
    identity rather than scanning, so a thread that re-enters [receive]
    can never invalidate its new registration by cleaning up an old
    one. *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int

(** Enqueue a message, waking the longest-waiting receiver if any. *)
val send : Engine.t -> 'a t -> 'a -> unit

(** Non-blocking receive. *)
val try_receive : 'a t -> 'a option

(** Discard all queued messages (waiters are untouched); returns how many
    were dropped. Models a hardware queue reset. *)
val clear : 'a t -> int

(** Discard queued messages matching the predicate, preserving the order
    of survivors; returns how many were dropped. Waiters are untouched. *)
val reject : 'a t -> ('a -> bool) -> int

(** Blocking receive; [None] on timeout. *)
val receive : ?timeout:int64 -> Engine.t -> 'a t -> 'a option
