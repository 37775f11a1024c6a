(** Virtual memory: address-space regions, page faults, logical-level
   sharing of file and anonymous pages, and the VM side of recovery
   (Table 5.1, Sections 5.2-5.6).

   There is no instruction-level execution in the simulation, so "the
   hardware" faults when a workload touches a virtual page with no entry in
   the process's mapping table; the fault path then follows the paper:
   check the local pfdat hash, and on a miss either service locally or send
   a locate RPC to the data home, which exports the page for the client to
   import. *)

type Types.payload +=
    P_anon_locate of { node_id : int; page : int; writable : bool; }
  | P_anon_page of { pfn : int; }
val map_file :
  Types.system ->
  Types.process ->
  Types.vnode ->
  opened_gen:Types.generation ->
  writable:bool -> npages:int -> Types.region
val map_anon :
  Types.system ->
  Types.process -> Types.cow_ref -> npages:int -> Types.region

(** Test hook. *)
val anon_get :
  Types.system ->
  Types.cell ->
  Types.cow_ref ->
  page:int -> writable:bool -> (Types.pfdat, Types.errno) result
val touch :
  Types.system ->
  Types.process ->
  vpage:int -> write:bool -> (unit, Types.errno) result
val write_word :
  Types.system ->
  Types.process ->
  vpage:int -> offset:int -> int64 -> (unit, Types.errno) result
val read_word :
  Types.system ->
  Types.process ->
  vpage:int -> offset:int -> (int64, Types.errno) result

(** Drop one page's mapping, giving back its reference on the frame. *)
val unmap_page : Types.process -> int -> unit

(** Drop every mapping of the process, releasing its reference on each
    mapped frame. *)
val drop_mappings : Types.process -> unit

(** [drop_mappings], then hand the cell's idle imported pages to its
    reaper for release. *)
val unmap_all : Types.system -> Types.process -> unit

(** Pre-barrier-1 recovery step. [dead] names the round's confirmed-dead
    cells: clean, generation-matched, never-write-granted file imports
    from a dead home whose memory banks still answer reads are copied
    into local frames ("salvaged", served read-only until the home
    reintegrates) instead of discarded. *)
val flush_remote_bindings :
  ?dead:Types.cell_id list -> Types.system -> Types.cell -> unit
val preemptive_discard :
  Types.system -> Types.cell -> dead:Types.cell_id list -> int
