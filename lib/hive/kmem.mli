(** Kernel memory access, and the kernel heap for published data
    structures.

    A kernel acts as the cell that owns the running thread
    ([Sim.Engine.thread.owner]), never as a cell it is passed. Every
    timed access is made by that cell's boss processor, and the heap is
    its heap. A timed access outside a thread, by a thread no cell owns
    or by a live thread of a down cell, and a write into another cell's
    kernel heap raise [Failure "simulator bug: ..."], never a
    [Flash.Memory.Bus_error] that could pass for an injected fault. Heap
    objects start with a structure type identifier, written by the
    allocator and removed by the deallocator (Section 4.1). *)

(** Holds for the [Failure "simulator bug: ..."] above; catch-alls let it by. *)
val is_bug : exn -> bool

(** The running thread's cell, up or down; [acting_cell] also needs it
    up unless the thread is killed. Both raise the bug above. *)
val owner_cell : Types.system -> Types.cell
val acting_cell : Types.system -> Types.cell

val header_bytes : int
exception Out_of_kernel_memory

val read : Types.system -> Flash.Addr.t -> int -> Bytes.t
val read_into : Types.system -> Flash.Addr.t -> int -> Bytes.t -> int -> unit
val read_discard : Types.system -> Flash.Addr.t -> int -> unit
val read_i64 : Types.system -> Flash.Addr.t -> int64
val write : Types.system -> Flash.Addr.t -> Bytes.t -> unit
val write_sub : Types.system -> Flash.Addr.t -> Bytes.t -> int -> int -> unit
val write_i64 : Types.system -> Flash.Addr.t -> int64 -> unit

(** {2 The heap} *)

(** [alloc sys ~tag ~size] takes [size] payload bytes from the acting
    cell's heap and returns the address of the object's tag word. *)
val alloc : Types.system -> tag:int64 -> size:int -> int
val free : Types.system -> addr:Flash.Addr.t -> size:int -> unit
val read_field : Types.system -> addr:int -> index:int -> int64
val read_fields :
  Types.system -> addr:int -> index:int -> count:int -> int64 array
val write_field : Types.system -> addr:int -> index:int -> int64 -> unit
val read_tag : Types.system -> addr:Flash.Addr.t -> int64
