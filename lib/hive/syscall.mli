(** The single-system-image syscall layer: the UNIX-flavoured API that
   processes (workloads, examples) program against. Every call passes the
   user gate (suspension during agreement/recovery) and raises
   [Types.Syscall_error] on failure. *)

exception E of Types.errno
val getpid : Types.process -> Types.pid
val getcell : Types.process -> Types.cell_id
val openf :
  Types.system -> Types.process -> ?writable:bool -> string -> int
val creat :
  Types.system ->
  Types.process -> ?content:Bytes.t -> string -> int
val fd_of : Types.process -> int -> Types.fd
val read :
  Types.system -> Types.process -> fd:int -> len:int -> bytes

(** [read] for a reader that drops the bytes: the same charges and
    counters, and the position advances by [len], with no buffer. *)
val read_discard :
  Types.system -> Types.process -> fd:int -> len:int -> unit

val pread :
  Types.system ->
  Types.process -> fd:int -> pos:int -> len:int -> bytes
val write : Types.system -> Types.process -> fd:int -> bytes -> int
val pwrite :
  Types.system ->
  Types.process -> fd:int -> pos:int -> bytes -> int
val seek : Types.system -> Types.process -> fd:int -> int -> unit
val close : Types.system -> Types.process -> fd:int -> unit
val fsize : Types.system -> Types.process -> fd:int -> int
val unlink : Types.system -> Types.process -> string -> unit
val sync : Types.system -> Types.process -> unit
val mmap_file :
  Types.system ->
  Types.process ->
  fd:int -> npages:int -> writable:bool -> Types.region
val mmap_anon :
  Types.system -> Types.process -> npages:int -> Types.region
val touch :
  Types.system -> Types.process -> vpage:int -> write:bool -> unit
val write_word :
  Types.system ->
  Types.process -> vpage:int -> offset:int -> int64 -> unit
val read_word :
  Types.system -> Types.process -> vpage:int -> offset:int -> int64
val fork :
  Types.system ->
  Types.process ->
  ?on_cell:Types.cell_id ->
  name:string ->
  (Types.system -> Types.process -> unit) -> Types.process
val exec : Types.system -> Types.process -> string -> unit
val wait :
  Types.system -> Types.process -> Types.process -> int
val migrate :
  Types.system ->
  Types.process -> to_cell:Types.cell_id -> unit
val kill :
  Types.system ->
  Types.process -> pid:Types.pid -> Signal.signal -> unit
val killpg :
  Types.system ->
  Types.process -> pgid:int -> Signal.signal -> unit
val signal_handle :
  Types.process ->
  Signal.signal -> (Types.process -> unit) -> unit
val setpgid : Types.process -> int -> unit
val compute : Types.system -> Types.process -> int64 -> unit
