(** FLASH machine parameters.

    The constants model the paper's experimental setup (Section 7.2): one
    200-MHz processor, memory and one disk per node; 50 ns secondary-cache
    hit; 700 ns average memory latency; 128-byte secondary cache lines;
    700 ns IPIs; SIPS delivering a cache line of data for an IPI plus
    300 ns. Only the machine's shape and whether the firewall is on are
    settable. *)

type t = {
  nodes : int;
  mem_pages_per_node : int;
  firewall_enabled : bool;
}

(** Firewall granularity and OS page size: 4 KB. *)
val page_size : int

(** 5 ns at 200 MHz. *)
val cycle_ns : int64

val l2_hit_ns : int64

(** Average second-level miss latency. *)
val mem_ns : int64

val cache_line : int

val ipi_ns : int64

val sips_extra_ns : int64

(** Added by the coherence controller to each ownership request. *)
val firewall_check_ns : int64

(** Uncached operation to the coherence controller (firewall update). *)
val uncached_op_ns : int64

val disk_avg_access_ns : int64

(** Sequential (same-track) access. *)
val disk_track_ns : int64

val disk_bytes_per_ns : float

val dma_setup_ns : int64

(** Per-node disk capacity, in page-size blocks. *)
val disk_blocks : int

(** Size of the swap partition at the top of each disk; file blocks live
    strictly below {!swap_base}. *)
val swap_blocks : int

(** Hard ceiling on [nodes]; generous (the sparse firewall representation
    scales past the old one-vector-word limit of 64). *)
val max_nodes : int

(** The paper's four-node machine. *)
val default : t

(** A two-node machine with little memory, for fast unit tests. *)
val small : t

val with_nodes : t -> int -> t

(** Reject shapes the hardware cannot represent: no nodes, node counts
    past {!max_nodes}, or nodes without memory. Raises [Invalid_argument].
    Called by [Machine.create] and [Firewall.create]. *)
val validate : t -> unit

(** First block of each disk's swap partition ([disk_blocks] -
    [swap_blocks]); the file system allocates strictly below it. *)
val swap_base : int

val total_pages : t -> int

val mem_bytes_per_node : t -> int

(** Number of cache lines covering [bytes]. *)
val lines_for : int -> int

(** Cost of streaming [bytes] through the cache, missing on each line. *)
val copy_cost : int -> int64

(** [cycles n] is the duration of [n] processor cycles. *)
val cycles : int -> int64
