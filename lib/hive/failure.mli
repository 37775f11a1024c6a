(** Failure hints (Section 4.3).

   A cell is considered potentially failed when: an RPC to it times out; an
   access to its memory causes a bus error; its published clock word stops
   incrementing; or data read from its memory fails the consistency checks
   of the careful reference protocol. A hint triggers distributed
   agreement immediately; confirmation is required before recovery.

   During an in-flight recovery round, hints against participants that have
   observably stopped escalate into a round restart ({!Recovery.cell_died})
   instead of running agreement. *)

(** Install the hint handler ([sys.on_hint]): a hint outside recovery
    adds an agreement to [sys.agreements] and spawns the thread that owns
    it, and its exit hook removes it. *)
val install : Types.system -> unit
