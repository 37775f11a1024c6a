(** Min-heap (4-ary, for cache locality on the pop path) keyed by
    [(time, seq)], used as the simulation event queue. The keys sit in
    one flat [int] array and the payloads in a parallel array, so reading
    the top's payload, {!top_key} or {!top_seq} allocates nothing.

    Ordering contract. The top is always an entry with the smallest
    [(time, seq)] key, so an entry never pops after one with a strictly
    greater key. Callers keep every live key distinct (the engine's keys
    are unique, jittered or not), and pop order is then a pure function
    of the keys: the layout cannot be observed. Entries with equal keys
    pop in some order; nothing may depend on which. *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int

(** Slots in the backing arrays (>= {!length}); exposed so tests and the
    engine can assert that compaction and shrinking actually release
    memory. *)
val capacity : 'a t -> int

val is_empty : 'a t -> bool

(** [push_key h ~key ~seq payload] inserts an entry whose time, a value
    in [\[0, Int64.max_int\]], is given as its key (see {!key_of_time}),
    so a caller holding it as an [int] boxes no [int64]. *)
val push_key : 'a t -> key:int -> seq:int -> 'a -> unit

(** {2 The smallest entry}

    Each raises [Invalid_argument] on an empty heap. *)

val top : 'a t -> 'a

val top_time : 'a t -> int64

(** [top_time] as an order-preserving [int] key (see {!key_of_time}), for
    comparisons that must not allocate. *)
val top_key : 'a t -> int

(** The [seq] the top was pushed with. *)
val top_seq : 'a t -> int

(** Remove the smallest entry. Shrinks the backing arrays when they are
    mostly slack, so draining a large campaign releases its peak. *)
val drop_top : 'a t -> unit

(** [filter h keep] removes every entry whose payload fails [keep] and
    restores the heap invariant in O(n). [keep] is called exactly once
    per entry, in heap order, so it may carry side effects such as
    marking the dropped entries. The survivors keep the ordering contract
    above. Used by the engine to reclaim cancelled timers without waiting
    for their deadlines to drain through {!drop_top}. *)
val filter : 'a t -> ('a -> bool) -> unit

(** [key_of_time t] is [t - 2^62]: an exact, order-preserving map of
    [\[0, 2^63)] onto [int]. *)
val key_of_time : int64 -> int

(** The [2^62] that {!key_of_time} subtracts, for a caller that computes
    keys in its own hot path. *)
val time_offset : int64
