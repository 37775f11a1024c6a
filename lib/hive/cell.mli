(** Cell construction and boot.

   When the system boots, each cell is assigned a range of nodes that it
   owns throughout execution; it manages their processors, memory and I/O
   devices as an independent kernel (Figure 3.1). Boot reserves kernel
   pages on the boss node (holding the published clock word, Wax slots and
   serialized kernel structures), grants its own processors write access
   to all of its memory, and starts the RPC dispatch threads and the clock
   interrupt. *)

val make :
  Flash.Config.t ->
  id:Types.cell_id -> nodes:int list -> Types.cell
val boot : Types.system -> Types.cell -> unit
