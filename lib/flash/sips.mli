(** SIPS: the short interprocessor send facility added to the FLASH
    coherence controller for Hive (Section 6 of the paper).

    Each SIPS delivers one cache line of data (128 bytes) in about the
    latency of a remote cache miss, with the reliability and flow control
    of a cache miss, raising an interrupt at the receiver. Separate
    request and reply receive queues per node make deadlock avoidance easy.

    Message payloads are OCaml values under the open type {!message}
    (extended by the kernel's RPC layer); the declared [size] models the
    128-byte limit — anything larger must be passed by reference through
    shared memory.

    The fault model extends the paper's: besides whole-node failures, a
    {!degradation} window makes a set of links drop, duplicate or delay
    messages for a bounded time — the observable behavior of a flaky
    coherence controller on a failing node. All draws come from the
    window's own seeded PRNG, so experiments stay deterministic. *)

type message = ..

type kind = Request | Reply

exception Too_large of int

exception Target_failed of int

type envelope = { src_proc : int; size : int; msg : message }

(** A window of link degradation: messages from [deg_from] to [deg_to]
    (-1 = any) between [from_ns, until_ns) are dropped, duplicated or
    delayed with the given percent probabilities; delayed/duplicated
    deliveries add up to [max_delay_ns] of extra latency. *)
type degradation = {
  deg_from : int;
  deg_to : int;
  from_ns : int64;
  until_ns : int64;
  drop_pct : int;
  dup_pct : int;
  delay_pct : int;
  max_delay_ns : int64;
}

(** A directed blackout window: every message from [part_from] to
    [part_to] (-1 = any node) whose flight overlaps [from_ns, until_ns)
    is lost on the wire — the link is severed in that direction, with no
    probability involved. Asymmetric reachability is a window armed in
    only one direction; a full partition arms both. *)
type partition = {
  part_from : int;
  part_to : int;
  part_from_ns : int64;
  part_until_ns : int64;
}

type t

val max_payload : int

val create : Sim.Engine.t -> nodes:int -> t

(** Mark a node down: sends to it raise {!Target_failed}, and deliveries
    already in flight are discarded (the queue epoch is bumped). *)
val fail_node : t -> int -> unit

(** Mark a node up again, resetting its hardware receive queues — envelopes
    queued before the failure belong to the dead incarnation and are
    purged, not replayed into the rebooted kernel. *)
val restore_node : t -> int -> unit

(** Arm a degradation window; [rng] drives that window's per-message
    drop/dup/delay draws (pass a generator salted per window so arming
    several never perturbs each other). Expired windows are pruned
    automatically. *)
val degrade : t -> rng:Sim.Prng.t -> degradation -> unit

(** Arm a directed blackout window. Messages whose flight overlaps the
    window are lost (counted, not delivered), and when the window expires
    the destination's receive queues are scrubbed of envelopes that
    originated behind the partition — the {!restore_node} stale-envelope
    purge, run on heal, so pre-partition traffic cannot leak across the
    blackout. Healing is deterministic: a scheduled event at
    [part_until_ns]. *)
val partition : t -> partition -> unit

(** Is the directed link [from_node] → [to_node] currently outside every
    armed blackout window? This is the interconnect's own ground truth —
    kernels must infer it from probe behavior, but the simulator (and the
    careful-reference layer, whose remote reads ride the same wires) may
    ask directly. *)
val reachable : t -> from_node:int -> to_node:int -> bool

(** Send a message; delivery takes one IPI latency plus the SIPS data
    latency (plus any degradation-window effects). Raises {!Too_large}
    over 128 declared bytes and {!Target_failed} if the destination node
    is down. *)
val send :
  t -> from_proc:int -> to_node:int -> kind:kind -> size:int -> message -> unit

(** Blocking receive on a node's request or reply queue. *)
val receive :
  ?timeout:int64 -> t -> node:int -> kind:kind -> envelope option

val pending : t -> node:int -> kind:kind -> int

val send_count : t -> int

(** Messages dropped / duplicated / delayed by degradation windows. *)
val drop_count : t -> int

val dup_count : t -> int

val delay_count : t -> int

(** Stale pre-failure envelopes purged by {!restore_node} or by a
    partition heal. *)
val stale_purged_count : t -> int

(** Messages lost to partition blackout windows. *)
val partition_blocked_count : t -> int
