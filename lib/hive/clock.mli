(** Clock monitoring (Sections 4.1 and 4.3).

   Each cell increments a published clock word on every clock interrupt.
   The clock handler also checks another cell's clock value on every tick
   (under the careful reference protocol): a value that fails to increment
   for consecutive ticks, or a bus error reaching it, is a failure hint.
   This detects hardware failures that halt processors but not entire
   nodes, as well as kernel deadlocks and interrupt losses. *)

val read_peer_clock :
  Types.system ->
  Types.cell ->
  target:Types.cell_id ->
  (int64, Careful_ref.failure_reason) result
val start : Types.system -> Types.cell -> unit
