(** User-level suspension gate.

   During distributed agreement and recovery, user-level processes are
   suspended while kernel-level threads continue (Section 4.3). Process
   threads pass through the gate at syscall and fault entry points and
   block while it is closed. *)

val close : Types.system -> Types.cell -> unit
val open_ : Types.system -> Types.cell -> unit
val pass : Types.cell -> unit

(** [pass_recovery sys c] blocks while [c]'s recovery round runs; every
    import calls it before its locate RPC. *)
val pass_recovery : Types.system -> Types.cell -> unit
