(** Deterministic discrete-event simulation engine.

    Simulated entities are cooperative green threads implemented with OCaml 5
    effect handlers; the engine advances a virtual nanosecond clock and runs
    events in deterministic [(time, sequence)] order. There is no wall-clock
    time and no OS concurrency anywhere: identical inputs give identical
    simulations.

    Threads block with {!delay} or {!suspend}; synchronization primitives
    ({!Ivar}, {!Mailbox}, {!Mutex}, ...) are built on {!suspend} and
    {!try_resume}. A thread that nothing wakes simply stays parked: once
    the queue drains, {!run} returns with {!live_threads} still positive,
    and drivers judge the run by what it failed to produce.

    An engine is single-threaded by construction: it may only be driven by
    the OCaml domain that created it. {!run} and event scheduling raise
    [Invalid_argument] when called from any other domain. Parallel fuzz
    campaigns exploit this by giving each worker domain a private engine
    and sharing nothing between them. *)

(** Raised inside a thread when it is {!kill}ed, so that [Fun.protect]-style
    cleanup runs. *)
exception Killed

(** Cancellable timer handle. *)
type timer

type thread = {
  tid : int;
  name : string;
  mutable owner : int;
      (** The client's tag for the thread, set at {!spawn}: Hive stores
          the id of the cell whose processors make its memory accesses,
          and -1 for none. The engine never reads it. *)
  hosted : bool;
      (** A second client tag: Hive sets it on kernel and process threads,
          whose uncaught exception panics [owner]. *)
  mutable dead : bool;
  mutable cont : (unit, unit) Effect.Deep.continuation option;
  mutable timers : timer list;
  mutable on_exit : (unit -> unit) list;
  mutable wake_at : int;
  mutable wake_key : int;
      (** Engine-internal: a queued delay's wake-up time (as a heap key)
          and sequence key. *)
  wake : unit -> unit;  (** Engine-internal: the delay wake-up. *)
  running : thread option;
      (** Engine-internal: [Some] of this thread, built once. *)
}

type t

val create : unit -> t

(** Current virtual time in nanoseconds. *)
val now : t -> int64

(** Tid of the thread the engine is currently executing, or 0 when called
    from outside any simulation thread. *)
val current_tid : t -> int

(** The thread the engine is currently executing. Raises
    [Invalid_argument] outside any simulation thread. *)
val current : t -> thread

(** Replace the handler invoked when a thread raises an uncaught exception.
    The default re-raises, aborting the simulation loudly. *)
val set_crash_handler : t -> (thread -> exn -> unit) -> unit

(** Install (or clear) a scheduler-jitter generator. When set, each newly
    scheduled event's tie-break key is perturbed with 3 bits from the
    generator, so logically-concurrent events (same virtual time) may
    interleave differently across seeds while each seed stays exactly
    replayable. Events at different virtual times are never reordered,
    and keys stay unique, so the event order is total with or without
    jitter. *)
val set_jitter : t -> Prng.t option -> unit

(** Schedule a callback at an absolute virtual time (clamped to now). *)
val schedule_at : t -> int64 -> (unit -> unit) -> timer

(** Schedule a callback after a relative delay. *)
val schedule : t -> after:int64 -> (unit -> unit) -> unit

(** Schedule a cancellable callback. *)
val timer : t -> after:int64 -> (unit -> unit) -> timer

(** Cancel a timer. Idempotent; a no-op on timers that already fired.
    Cancelled entries are reclaimed lazily: when they outnumber the live
    entries (beyond a small floor) the heap is compacted in one O(n)
    pass, so mass cancellation (thread kills, recovery aborts) cannot
    bloat the event queue until the dead deadlines drain. *)
val cancel : timer -> unit

(** Wake a suspended thread; [true] if this call captured its continuation,
    [false] if it had already been resumed (a waker losing a race must treat
    the wake as not delivered). *)
val try_resume : t -> thread -> bool

(** Attach a wake-up timer to a suspended thread (used to implement
    timeouts); cancelled automatically if another waker wins. Call only
    from within a {!suspend} registration. *)
val wake_after : t -> thread -> int64 -> unit

(** Kill a thread: it unwinds with {!Killed} at its next (or current)
    suspension point. *)
val kill : t -> thread -> unit

(** Start a new thread. [owner] and [hosted] set its client tags (default
    -1 and [false]). [at] gives an absolute start time. [on_exit] runs
    when the thread exits, however it ends: by returning, by raising, or
    killed, even before its first step. *)
val spawn :
  ?name:string -> ?owner:int -> ?hosted:bool -> ?at:int64 ->
  ?on_exit:(unit -> unit) -> t -> (unit -> unit) -> thread

(** {2 Thread-context operations}

    Valid only inside a thread of a running engine: they find the engine
    through the domain's running {!run}, and raise [Invalid_argument]
    when there is none. *)

(** Current virtual time of the running engine. *)
val time : unit -> int64

(** Block for a number of virtual nanoseconds; a no-op for [ns <= 0].
    Raises {!Killed} in a killed thread. A wake-up that would be the next
    event popped (its [(time, key)] before every queued event's, and
    within the running {!run}'s [until]) skips the queue: the clock
    advances and [delay] returns at once, without an effect. It still
    consumes its key, so {!events_scheduled} and every later tie-break
    are as if it had been queued. *)
val delay : int64 -> unit

(** Low-level block: parks the current thread and passes it to [register],
    which stores it where a future waker can {!try_resume} it. *)
val suspend : (thread -> unit) -> unit

(** Register a cleanup to run when the current thread exits (normally,
    by exception, or killed). *)
val at_exit_thread : (unit -> unit) -> unit

(** {2 Driving the simulation} *)

(** Run until the event queue empties, or until the given virtual time.
    A time below the clock is taken as the clock: the events due now run,
    and the clock never moves back. *)
val run : ?until:int64 -> t -> unit

(** Make the running {!run} return once the current event is done, with
    the clock where that event left it; the events still queued stay
    queued for the next {!run}. *)
val stop : t -> unit

(** Test hook. *)
val live_threads : t -> int

(** Virtual time of the earliest pending event, if any. Drivers use it to
    skip idle stretches of virtual time in one jump: between events no
    simulation state can change, so there is nothing to poll. *)
val next_event_time : t -> int64 option

(** Slots in the event queue's backing arrays: the heap's, which
    compaction and post-campaign shrinking release (tests assert it),
    and the same-instant lane's, which keep their largest size. *)
val queue_capacity : t -> int

(** Total events ever scheduled on this engine — a deterministic,
    wall-clock-free measure of simulation work (benches report
    events/s from it). *)
val events_scheduled : t -> int

(** Test hook. Cancelled entries still occupying queue slots (drops to 0
    after a compaction sweep or once they drain through the run loop). *)
val cancelled_pending : t -> int
