type t = {
  nodes : int;
  mem_pages_per_node : int;
  page_size : int;
  cycle_ns : int64;
  l2_hit_ns : int64;
  mem_ns : int64;
  cache_line : int;
  ipi_ns : int64;
  sips_extra_ns : int64;
  firewall_enabled : bool;
  firewall_check_ns : int64;
  uncached_op_ns : int64;
  disk_avg_access_ns : int64;
  disk_track_ns : int64;
  disk_bytes_per_ns : float;
  dma_setup_ns : int64;
  disk_blocks : int;
  swap_blocks : int;
}

(* Nodes cap: the firewall stores sparse multi-word permission vectors
   (see Firewall), so the machine is no longer limited to the 64
   processors of one vector word. The cap below only guards against
   nonsense configs; the paper's full envelope (64 cells over hundreds
   of nodes) fits comfortably. *)
let max_nodes = 1024

(* The paper's experimental machine: four 200-MHz R4000-class nodes, 32 MB
   per node, 700 ns average main-memory latency, 128-byte secondary cache
   lines, 700 ns IPI delivery and 300 ns extra for SIPS data access, and an
   HP-97560-class disk per node. *)
let default =
  {
    nodes = 4;
    mem_pages_per_node = 8192;
    page_size = 4096;
    cycle_ns = 5L;
    l2_hit_ns = 50L;
    mem_ns = 700L;
    cache_line = 128;
    ipi_ns = 700L;
    sips_extra_ns = 300L;
    firewall_enabled = true;
    firewall_check_ns = 40L;
    uncached_op_ns = 500L;
    disk_avg_access_ns = 15_000_000L;
    disk_track_ns = 2_000_000L;
    disk_bytes_per_ns = 2.3e-3;
    (* ~2.3 MB/s, HP 97560 class *)
    dma_setup_ns = 30_000L;
    (* HP 97560 class capacity: ~1.3 GB = 327680 4 KB blocks, the top
       65536 (256 MB) reserved as the cell's swap partition. *)
    disk_blocks = 327_680;
    swap_blocks = 65_536;
  }

let small =
  { default with nodes = 2; mem_pages_per_node = 256 }

let with_nodes cfg n = { cfg with nodes = n }

(* The firewall keeps one multi-word permission set per page, so the old
   64-node ceiling (one 64-bit vector word) is gone; [max_nodes] only
   rejects nonsense. Disk geometry must leave room for both a file area
   and the swap partition: the swap area is the top [swap_blocks] of the
   disk, and a config whose swap partition swallows the whole disk would
   silently overlap file blocks with swap. *)
let validate cfg =
  if cfg.nodes < 1 then invalid_arg "Flash.Config: need at least one node";
  if cfg.nodes > max_nodes then
    invalid_arg
      (Printf.sprintf "Flash.Config: at most %d nodes" max_nodes);
  if cfg.mem_pages_per_node < 1 then
    invalid_arg "Flash.Config: need at least one memory page per node";
  if cfg.disk_blocks < 1 then
    invalid_arg "Flash.Config: need a disk with at least one block";
  if cfg.swap_blocks < 1 || cfg.swap_blocks >= cfg.disk_blocks then
    invalid_arg
      "Flash.Config: swap partition must fit on the disk with room left \
       for file blocks (0 < swap_blocks < disk_blocks)"

(* First block of the per-node swap partition: the top [swap_blocks] of
   the disk. File-block allocation must stay strictly below this. *)
let swap_base cfg = cfg.disk_blocks - cfg.swap_blocks

let total_pages cfg = cfg.nodes * cfg.mem_pages_per_node

let mem_bytes_per_node cfg = cfg.mem_pages_per_node * cfg.page_size

let lines_for cfg bytes = (bytes + cfg.cache_line - 1) / cfg.cache_line

(* Cost of streaming [bytes] through the cache, missing on each line. *)
let copy_cost cfg bytes =
  Int64.mul (Int64.of_int (lines_for cfg bytes)) cfg.mem_ns

let cycles cfg n = Int64.mul (Int64.of_int n) cfg.cycle_ns
