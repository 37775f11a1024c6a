(** Clock monitoring (Sections 4.1 and 4.3).

   Each cell increments a published clock word on every clock interrupt.
   The clock handler also checks another cell's clock value on every tick
   (under the careful reference protocol): a value that fails to increment
   for consecutive ticks, or a bus error reaching it, is a failure hint.
   This detects hardware failures that halt processors but not entire
   nodes, as well as kernel deadlocks and interrupt losses.

   The monitor is the interrupt handler itself, not a thread: one engine
   timer per cell fires every [tick_ns], does the tick's work at that
   instant and charges no simulated time to any thread. *)

(** One timed careful-reference read of [target]'s clock word by the
    running thread's cell (agreement's votes and probes). *)
val read_peer_clock :
  Types.system ->
  target:Types.cell_id ->
  (int64, Careful_ref.failure_reason) result

(** Start the cell's clock interrupt: every [tick_ns] from now while the
    cell is alive and is still [sys.cells.(id)]. *)
val start : Types.system -> Types.cell -> unit
