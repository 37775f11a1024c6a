(** The process model: UNIX-style processes that run as simulation threads
   on their cell's processors, with fork across cell boundaries (part of
   the single-system image), exec, exit and wait.

   At fork, copy-on-write leaves are split (Section 5.3); when the child
   lands on a different cell, the split leaf crosses the cell boundary and
   the COW tree becomes a distributed data structure. *)

type Types.payload +=
    P_fork of { name : string;
      body : Types.system -> Types.process -> unit;
      regions : Types.region list; fds : (int * Types.fd) list;
    }
  | P_forked of { pid : int; }
val compute : Types.system -> Types.process -> int64 -> unit
val spawn :
  Types.system ->
  Types.cell ->
  name:string ->
  (Types.system -> Types.process -> unit) -> Types.process
val fork :
  Types.system ->
  Types.process ->
  ?on_cell:Types.cell_id ->
  name:string ->
  (Types.system -> Types.process -> unit) ->
  (Types.process, Types.errno) result
val exec :
  Types.system ->
  Types.process -> path:string -> (unit, Types.errno) result
val migrate :
  Types.system ->
  Types.process ->
  to_cell:Types.cell_id -> (unit, Types.errno) result
val wait :
  Types.system -> Types.process -> Types.process -> int
