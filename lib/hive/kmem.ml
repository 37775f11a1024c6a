(* Kernel heap for published data structures.

   Structures that other cells read directly (clock words, COW tree nodes,
   ...) are serialized into a reserved region of the cell's own physical
   memory, so that careful references, bus errors and corruption behave
   exactly as on the hardware. Following Section 4.1 of the paper, the
   allocator writes a structure type identifier at the start of each
   object and the deallocator removes it: checking the tag is the first
   line of defense against invalid remote pointers. *)

let header_bytes = 8

exception Out_of_kernel_memory

let proc_of (c : Types.cell) = c.Types.boss_node

let mem (sys : Types.system) = Flash.Machine.memory sys.machine

(* Allocate [size] payload bytes tagged [tag]; returns the object address
   (which points at the tag word; fields start at [addr + header_bytes]). *)
let alloc (sys : Types.system) (c : Types.cell) ~tag ~size =
  let total = size + header_bytes in
  let total = (total + 7) land lnot 7 in
  let km = c.Types.kmem in
  let addr =
    match List.find_opt (fun (_, sz) -> sz >= total) km.kmem_free with
    | Some ((a, sz) as blk) ->
      km.kmem_free <- List.filter (fun b -> b != blk) km.kmem_free;
      if sz > total then km.kmem_free <- (a + total, sz - total) :: km.kmem_free;
      a
    | None ->
      if km.kmem_next + total > km.kmem_limit then raise Out_of_kernel_memory;
      let a = km.kmem_next in
      km.kmem_next <- km.kmem_next + total;
      a
  in
  Flash.Memory.write_i64 (mem sys) ~by:(proc_of c) addr tag;
  addr

let free (sys : Types.system) (c : Types.cell) ~addr ~size =
  let total = (size + header_bytes + 7) land lnot 7 in
  (* Remove the type identifier so stale remote pointers fail the check. *)
  Flash.Memory.write_i64 (mem sys) ~by:(proc_of c) addr 0L;
  c.Types.kmem.kmem_free <- (addr, total) :: c.Types.kmem.kmem_free

(* The owner's own kernel structures are hot in its caches: charge L2
   hits, not memory misses. *)
let read_field (sys : Types.system) (c : Types.cell) ~addr ~index =
  Flash.Memory.read_cached_i64 (mem sys) ~by:(proc_of c)
    (addr + header_bytes + (8 * index))

(* Read [count] consecutive fields as one block (per-line latency). *)
let read_fields (sys : Types.system) (c : Types.cell) ~addr ~index ~count =
  let b =
    Flash.Memory.read_cached (mem sys) ~by:(proc_of c)
      (addr + header_bytes + (8 * index)) (8 * count)
  in
  Array.init count (fun i -> Bytes.get_int64_le b (8 * i))

let write_field (sys : Types.system) (c : Types.cell) ~addr ~index v =
  Flash.Memory.write_i64 (mem sys) ~by:(proc_of c)
    (addr + header_bytes + (8 * index)) v

let read_tag (sys : Types.system) (c : Types.cell) ~addr =
  Flash.Memory.read_cached_i64 (mem sys) ~by:(proc_of c) addr
