(** FLASH machine parameters.

    The defaults model the paper's experimental setup (Section 7.2): a
    four-node machine with one 200-MHz processor, 32 MB of memory and one
    disk per node; 50 ns secondary-cache hit; 700 ns average memory latency;
    128-byte secondary cache lines; 700 ns IPIs; SIPS delivering a cache
    line of data for an IPI plus 300 ns. *)

type t = {
  nodes : int;
  mem_pages_per_node : int;
  page_size : int;  (** firewall granularity and OS page size: 4 KB *)
  cycle_ns : int64;  (** 5 ns at 200 MHz *)
  l2_hit_ns : int64;
  mem_ns : int64;  (** average second-level miss latency *)
  cache_line : int;
  ipi_ns : int64;
  sips_extra_ns : int64;
  firewall_enabled : bool;
  firewall_check_ns : int64;
      (** added by the coherence controller to each ownership request *)
  uncached_op_ns : int64;
      (** uncached operation to the coherence controller (firewall update) *)
  disk_avg_access_ns : int64;
  disk_track_ns : int64;  (** sequential (same-track) access *)
  disk_bytes_per_ns : float;
  dma_setup_ns : int64;
  disk_blocks : int;  (** per-node disk capacity, in page-size blocks *)
  swap_blocks : int;
      (** size of the swap partition at the top of each disk; file blocks
          live strictly below [swap_base] *)
}

(** Hard ceiling on [nodes]; generous (the sparse firewall representation
    scales past the old one-vector-word limit of 64). *)
val max_nodes : int

(** The paper's four-node machine. *)
val default : t

(** A two-node machine with little memory, for fast unit tests. *)
val small : t

val with_nodes : t -> int -> t

(** Reject configurations the hardware cannot represent: node counts past
    {!max_nodes}, or a disk geometry whose swap partition leaves no room
    for file blocks (they would silently overlap). Raises
    [Invalid_argument]. Called by [Machine.create] and
    [Firewall.create]. *)
val validate : t -> unit

(** First block of each disk's swap partition ([disk_blocks] -
    [swap_blocks]); the file system allocates strictly below it. *)
val swap_base : t -> int

val total_pages : t -> int

val mem_bytes_per_node : t -> int

(** Number of cache lines covering [bytes]. *)
val lines_for : t -> int -> int

(** Cost of streaming [bytes] through the cache, missing on each line. *)
val copy_cost : t -> int -> int64

(** [cycles cfg n] is the duration of [n] processor cycles. *)
val cycles : t -> int -> int64
