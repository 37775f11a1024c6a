(** The swapper: anonymous pages whose backing store is the swap partition
   (Section 5.3 calls anonymous pages "those whose backing store is in the
   swap partition"; Table 3.4 lists "which processes to swap" among the
   Wax-driven policies).

   Each cell owns a swap area on its local disk: the top
   [Config.swap_blocks] blocks, starting at [Config.swap_base] — derived
   from the disk geometry, so file blocks can never overlap the swap area.
   Swapping out an idle anonymous page writes it to a swap block and frees
   the frame; the next fault finds it neither in the page cache nor in the
   COW record path and swaps it back in from that block. Only pages homed
   on this cell (its own anonymous data) are swapped: the firewall rules
   already forbid trusting remote frames for kernel-critical data, and
   remote clients simply re-import after a swap-in. *)

val mem : Types.system -> Flash.Memory.t
val is_swappable : Types.pfdat -> bool
val swap_out_page :
  Types.system -> Types.cell -> Types.pfdat -> bool
val swap_out_idle : Types.system -> Types.cell -> want:int -> int
val swap_in :
  Types.system ->
  Types.cell -> Types.logical_id -> Types.pfdat option
val swap_out_process : Types.system -> Types.process -> int
val swapped_pages : Types.cell -> int
