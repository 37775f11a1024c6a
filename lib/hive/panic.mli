(** Cell panic: a kernel that detects internal corruption shuts itself down.

   The panic routine uses the FLASH memory-cutoff feature to stop
   servicing remote accesses to its nodes' memory, preventing the spread
   of potentially corrupt data (Table 8.1); all kernel and user threads of
   the cell are killed. Peers notice the silence through clock monitoring
   or bus errors and run distributed agreement. *)

(** [halt sys c count] stops cell [c], which must be up: it marks the
    cell down, bumps [count], kills every kernel thread and live process
    (each marked [killed_by_failure]) and calls [on_cell_death]. A panic
    and a hardware fail-stop both stop a cell through it. *)
val halt : Types.system -> Types.cell -> Sim.Stats.counter_id -> unit

val panic : Types.system -> Types.cell -> string -> unit
exception Kernel_corruption of string
val kernel_bad_reference :
  Types.system -> Types.cell -> string -> 'a
