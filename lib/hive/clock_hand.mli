(** The VM clock-hand process (Sections 3.2 and 5.7).

   Each cell runs a page-reclaim daemon. The paper: "There are no
   operations in the memory sharing subsystem for a cell to request that
   another return its page or page frame... This information will
   eventually be provided by Wax, which will direct the virtual memory
   clock hand process running on each cell to preferentially free pages
   whose memory home is under memory pressure."

   Implemented exactly so: every sweep the daemon returns idle borrowed
   frames whose memory home appears in the Wax hint list
   ([clock_hand_targets]), and under local pressure it additionally
   reclaims idle cached file pages. *)

val start : Types.system -> Types.cell -> unit
