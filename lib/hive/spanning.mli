(** Spanning tasks (Section 3.2).

   "Hive extends the UNIX process abstraction to span cell boundaries. A
   single parallel process can run threads on multiple cells at the same
   time. Each cell runs a separate local process containing the threads
   that are local to that cell. Shared process state such as the address
   space map is kept consistent among the component processes."

   The paper lists spanning tasks as not yet implemented; this module
   implements them on top of the existing sharing machinery: the task's
   shared segment is an unlinked shared-memory object whose pages live at
   a data home and are exported writable to every component cell (so all
   the wild-write defense applies to it), and the address-space map is
   replicated into each component local process when a thread is added. *)

type t = {
  home_cell : Types.cell_id;
  shm_path : string;
  shared_npages : int;
  mutable components : Types.process list;
  mutable next_thread : int;
}
(* Reset the domain-local task-id generator (called by [System.boot]). *)
val reset_ids : unit -> unit
val create : Types.system -> Types.process -> shared_pages:int -> t
val add_thread :
  Types.system ->
  t ->
  on_cell:int ->
  name:string ->
  (Types.system -> Types.process -> unit) -> Types.process
val read_shared :
  Types.system -> Types.process -> page:int -> offset:int -> int64
val write_shared :
  Types.system ->
  Types.process -> page:int -> offset:int -> int64 -> unit
val join : Types.system -> t -> int list
val destroy : Types.system -> t -> unit
