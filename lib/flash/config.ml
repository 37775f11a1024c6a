type t = {
  nodes : int;
  mem_pages_per_node : int;
  firewall_enabled : bool;
}

(* The paper's experimental machine (Section 7.2): 200-MHz R4000-class
   nodes, 700 ns average main-memory latency, 128-byte secondary cache
   lines, 700 ns IPI delivery and 300 ns extra for SIPS data access, and an
   HP-97560-class disk per node. *)
let page_size = 4096

let cycle_ns = 5L (* 200 MHz *)

let l2_hit_ns = 50L

let mem_ns = 700L

let cache_line = 128

let ipi_ns = 700L

let sips_extra_ns = 300L

let firewall_check_ns = 40L

let uncached_op_ns = 500L

let disk_avg_access_ns = 15_000_000L

let disk_track_ns = 2_000_000L

(* ~2.3 MB/s, HP 97560 class *)
let disk_bytes_per_ns = 2.3e-3

let dma_setup_ns = 30_000L

(* HP 97560 class capacity: ~1.3 GB = 327680 4 KB blocks, the top 65536
   (256 MB) reserved as the cell's swap partition. *)
let disk_blocks = 327_680

let swap_blocks = 65_536

(* Nodes cap: the firewall stores sparse multi-word permission vectors
   (see Firewall), so the machine is no longer limited to the 64
   processors of one vector word. The cap below only guards against
   nonsense configs; the paper's full envelope (64 cells over hundreds
   of nodes) fits comfortably. *)
let max_nodes = 1024

(* Four nodes of 32 MB each. *)
let default = { nodes = 4; mem_pages_per_node = 8192; firewall_enabled = true }

let small =
  { default with nodes = 2; mem_pages_per_node = 256 }

let with_nodes cfg n = { cfg with nodes = n }

let validate cfg =
  if cfg.nodes < 1 then invalid_arg "Flash.Config: need at least one node";
  if cfg.nodes > max_nodes then
    invalid_arg
      (Printf.sprintf "Flash.Config: at most %d nodes" max_nodes);
  if cfg.mem_pages_per_node < 1 then
    invalid_arg "Flash.Config: need at least one memory page per node"

(* First block of the per-node swap partition: the top [swap_blocks] of
   the disk. File-block allocation must stay strictly below this. *)
let swap_base = disk_blocks - swap_blocks

let total_pages cfg = cfg.nodes * cfg.mem_pages_per_node

let mem_bytes_per_node cfg = cfg.mem_pages_per_node * page_size

let lines_for bytes = (bytes + cache_line - 1) / cache_line

(* Cost of streaming [bytes] through the cache, missing on each line. *)
let copy_cost bytes = Int64.mul (Int64.of_int (lines_for bytes)) mem_ns

let cycles n = Int64.mul (Int64.of_int n) cycle_ns
