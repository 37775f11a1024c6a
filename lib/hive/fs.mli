(** The file system: a vnode layer with a unified, cross-cell page cache.

   Every file has a *data home* cell (deterministic from its path) that
   owns its backing store and page cache. Processes on other cells open
   the file through a shadow vnode and bind its pages into their own pfdat
   tables with export/import (Section 5.2): a fault or read that misses
   locally sends an RPC to the data home, which loads the page from disk
   if needed, exports it, and returns the frame address. Faults that hit
   in the data home's page cache are serviced entirely at interrupt level;
   only those requiring disk I/O go to the queued server pool.

   Preemptive discard support: when a dirty page is discarded after a cell
   failure, the file's generation number is bumped. Descriptors (and
   mapped regions) opened before the failure carry the old generation and
   get EIO; files opened afterwards read whatever is stable on disk
   (Section 4.2, "preemptive discard"). *)

type Types.payload +=
    P_lookup of { path : string; }
  | P_attrs of { ino : int; size : int; generation : int; }
  | P_locate of {
      ino : int;
      page : int;
      npages : int;
      writable : bool;
      gen : int;
    }
  | P_located of { pages : (int * int) list; gen : int; }
  | P_create of { path : string; content : Bytes.t; }
  | P_created of { ino : int; gen : int }
  | P_unlink of { path : string }
  | P_dirty of { ino : int; page : int; }
  | P_setsize of { ino : int; size : int; }
val home_of_path : Types.system -> string -> int
val find_local : Types.cell -> string -> Types.file option
val create_local :
  Types.system ->
  Types.cell -> path:string -> content:bytes -> Types.file

(** Test hook. *)
val page_in :
  Types.system ->
  Types.cell -> Types.file -> int -> Types.pfdat

(** Test hook. *)
val sync_file :
  Types.system -> Types.cell -> Types.file -> unit
val sync_cell : Types.system -> Types.cell -> unit
val note_discard :
  Types.system ->
  Types.cell -> Types.file -> page:int -> dirty:bool -> unit
exception Stale of Types.errno
val open_file :
  Types.system ->
  Types.cell ->
  path:string ->
  (Types.vnode * Types.generation, Types.errno) result
val create_file :
  Types.system ->
  Types.cell ->
  path:string ->
  content:Bytes.t ->
  (Types.vnode * Types.generation, Types.errno) result
val get_page :
  Types.system ->
  Types.cell ->
  Types.vnode ->
  page:int ->
  writable:bool ->
  opened_gen:Types.generation ->
  usage:[ `Fault | `Syscall ] -> (Types.pfdat, Types.errno) result
val read :
  Types.system ->
  Types.cell ->
  Types.vnode ->
  opened_gen:Types.generation ->
  pos:int -> len:int -> (bytes, Types.errno) result

(** [read_discard] is {!read} for a reader that drops the bytes: the same
    page loop, RPCs, counters and simulated time, with no buffer. *)
val read_discard :
  Types.system ->
  Types.cell ->
  Types.vnode ->
  opened_gen:Types.generation ->
  pos:int -> len:int -> (unit, Types.errno) result

val write :
  Types.system ->
  Types.cell ->
  Types.vnode ->
  opened_gen:Types.generation ->
  pos:int -> bytes -> (int, Types.errno) result
val release_file_imports :
  Types.system -> Types.cell -> Types.vnode -> unit
val file_size : Types.system -> Types.vnode -> (int, Types.errno) result
val unlink :
  Types.system ->
  Types.cell -> string -> (unit, Types.errno) result
