(* Kernel memory access, and the kernel heap for published data
   structures (see kmem.mli).

   A cell's kernel acts only through its own processors (Sections 4 and
   5.3): every timed access here is made by the boss processor of the
   cell that owns the running thread. Heap objects start with a structure
   type identifier, written by the allocator and removed by the
   deallocator (Section 4.1). *)

let header_bytes = 8

exception Out_of_kernel_memory

let mem (sys : Types.system) = Flash.Machine.memory sys.machine

(* A broken containment rule is the simulator's fault, never an injected
   one: it must not surface as a [Bus_error] a kernel could defend. *)
let bug fmt = Printf.ksprintf (fun s -> failwith ("simulator bug: " ^ s)) fmt

let is_bug = function
  | Failure msg -> String.starts_with ~prefix:"simulator bug" msg
  | _ -> false

(* The cell that owns the running thread: a kernel acts with its own
   cell's authority alone, taken from here, never from an argument. *)
let owner_cell (sys : Types.system) =
  match Sim.Engine.current sys.eng with
  | exception Invalid_argument _ -> bug "kernel call outside a thread"
  | thr ->
    if thr.owner < 0 then
      bug "thread %s, which no cell owns, acted as a cell" thr.name;
    sys.cells.(thr.owner)

(* The cell whose processors make a timed access. A killed thread of a
   dead cell still gets its cell: the access unwinds it at the latency
   wait, as any other blocking call would. *)
let acting_cell (sys : Types.system) =
  let c = owner_cell sys in
  if c.cstatus = Types.Cell_down && not (Sim.Engine.current sys.eng).dead then
    bug "thread %s accessed memory after its cell %d went down"
      (Sim.Engine.current sys.eng).name c.cell_id;
  c

let reader sys = (acting_cell sys).boss_node

(* The acting processor of a write, which must not land in another cell's
   kernel heap. *)
let writer (sys : Types.system) addr =
  let c = acting_cell sys in
  let node = Flash.Addr.node_of_addr sys.mcfg addr in
  (if node >= 0 && node < Array.length sys.node_owner then
     let o = sys.node_owner.(node) in
     let k = sys.cells.(o).kmem in
     if o <> c.cell_id && addr >= k.kmem_base && addr < k.kmem_limit then
       bug "cell %d wrote 0x%x in cell %d's kernel heap" c.cell_id addr o);
  c.boss_node

let read sys addr len = Flash.Memory.read (mem sys) ~by:(reader sys) addr len

let read_into sys addr len dst dst_off =
  Flash.Memory.read_into (mem sys) ~by:(reader sys) addr len dst dst_off

let read_discard sys addr len =
  Flash.Memory.read_discard (mem sys) ~by:(reader sys) addr len

let read_i64 sys addr = Flash.Memory.read_i64 (mem sys) ~by:(reader sys) addr

let write sys addr b = Flash.Memory.write (mem sys) ~by:(writer sys addr) addr b

let write_sub sys addr src src_off len =
  Flash.Memory.write_sub (mem sys) ~by:(writer sys addr) addr src src_off len

let write_i64 sys addr v =
  Flash.Memory.write_i64 (mem sys) ~by:(writer sys addr) addr v

(* Allocate [size] payload bytes tagged [tag] in the acting cell's heap;
   returns the object address (which points at the tag word; fields
   start at [addr + header_bytes]). *)
let alloc (sys : Types.system) ~tag ~size =
  let total = size + header_bytes in
  let total = (total + 7) land lnot 7 in
  let km = (acting_cell sys).kmem in
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
  write_i64 sys addr tag;
  addr

let free (sys : Types.system) ~addr ~size =
  let total = (size + header_bytes + 7) land lnot 7 in
  (* Remove the type identifier so stale remote pointers fail the check. *)
  write_i64 sys addr 0L;
  let km = (acting_cell sys).kmem in
  km.kmem_free <- (addr, total) :: km.kmem_free

(* The owner's own kernel structures are hot in its caches: charge L2
   hits, not memory misses. *)
let read_field sys ~addr ~index =
  Flash.Memory.read_cached_i64 (mem sys) ~by:(reader sys)
    (addr + header_bytes + (8 * index))

(* Read [count] consecutive fields as one block (per-line latency). *)
let read_fields sys ~addr ~index ~count =
  let b =
    Flash.Memory.read_cached (mem sys) ~by:(reader sys)
      (addr + header_bytes + (8 * index)) (8 * count)
  in
  Array.init count (fun i -> Bytes.get_int64_le b (8 * i))

let write_field sys ~addr ~index v =
  write_i64 sys (addr + header_bytes + (8 * index)) v

let read_tag sys ~addr =
  Flash.Memory.read_cached_i64 (mem sys) ~by:(reader sys) addr
