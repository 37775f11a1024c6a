(** Kernel heap for published data structures.

   Structures that other cells read directly (clock words, COW tree nodes,
   ...) are serialized into a reserved region of the cell's own physical
   memory, so that careful references, bus errors and corruption behave
   exactly as on the hardware. Following Section 4.1 of the paper, the
   allocator writes a structure type identifier at the start of each
   object and the deallocator removes it: checking the tag is the first
   line of defense against invalid remote pointers. *)

val header_bytes : int
exception Out_of_kernel_memory
val alloc :
  Types.system -> Types.cell -> tag:int64 -> size:int -> int
val free :
  Types.system ->
  Types.cell -> addr:Flash.Addr.t -> size:int -> unit
val read_field :
  Types.system -> Types.cell -> addr:int -> index:int -> int64
val read_fields :
  Types.system ->
  Types.cell -> addr:int -> index:int -> count:int -> int64 array
val write_field :
  Types.system ->
  Types.cell -> addr:int -> index:int -> int64 -> unit
val read_tag :
  Types.system -> Types.cell -> addr:Flash.Addr.t -> int64
