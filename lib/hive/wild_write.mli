(** Wild write defense, part 1: firewall management (Section 4.2).

   Policy: write access to a page is granted to all processors of a cell
   as a group, when any process on that cell faults the page into a
   writable portion of its address space; permission remains granted while
   any process on that cell has the page mapped. Kernel pages and
   local-only user pages are never remotely writable.

   Firewall bits can only be changed by the local processor of the page's
   node, so when the data home has borrowed the frame it must send an RPC
   to the memory home to change firewall state. *)

val grant_for_export :
  Types.system ->
  Types.cell -> Types.pfdat -> client:Types.cell_id -> unit
val revoke_client :
  Types.system ->
  Types.cell -> Types.pfdat -> client:Types.cell_id -> unit
val remotely_writable_pages : Types.system -> Types.cell -> int
