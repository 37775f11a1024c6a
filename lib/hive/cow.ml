(* Copy-on-write trees for anonymous memory (Section 5.3).

   Anonymous pages are managed in copy-on-write trees. When a process
   forks, the leaf node is split, with one new leaf for the parent and one
   for the child; pages written after the fork are recorded in the new
   leaves, so only pages allocated before the fork are visible to the
   child. On a fault the process searches up the tree for the copy created
   by the nearest ancestor that wrote the page before forking.

   In Hive parent and child may live on different cells, so tree pointers
   cross cell boundaries. Nodes are serialized into the owning cell's
   kernel memory; remote lookups walk them with the careful reference
   protocol — the lookup never modifies interior nodes, so no wild-write
   vulnerability is created. When the page is found in a remote node, an
   RPC to the owning cell sets up the export/import binding. *)

let cow_tag = 0x434F574E4F444531L (* "COWNODE1" *)

let default_capacity = 448

(* Field indices within the serialized node. *)
let f_node_id = 0

let f_parent_addr = 1

let f_parent_cell = 2

let f_nentries = 3

let f_capacity = 4

let f_entries = 5

exception Node_full

(* Domain-local and reset at [System.boot]: node ids are part of the
   serialized tree state, so a campaign's ids must not depend on how many
   campaigns ran earlier in this domain (parallel workers replay
   different subsets of the seed list). *)
let next_node_id_key : int ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref 0)

let reset_ids () = Domain.DLS.get next_node_id_key := 0

(* Allocate a fresh tree node in [cell]'s kernel memory. *)
let alloc_node (sys : Types.system) (cell : Types.cell) ~parent ~capacity =
  let next_node_id = Domain.DLS.get next_node_id_key in
  incr next_node_id;
  let id = !next_node_id in
  let addr =
    Kmem.alloc sys cell ~tag:cow_tag ~size:(8 * (f_entries + capacity))
  in
  Kmem.write_field sys cell ~addr ~index:f_node_id (Int64.of_int id);
  (match parent with
  | Some r ->
    Kmem.write_field sys cell ~addr ~index:f_parent_addr
      (Int64.of_int r.Types.cow_addr);
    Kmem.write_field sys cell ~addr ~index:f_parent_cell
      (Int64.of_int r.Types.cow_cell)
  | None ->
    Kmem.write_field sys cell ~addr ~index:f_parent_addr (-1L);
    Kmem.write_field sys cell ~addr ~index:f_parent_cell (-1L));
  Kmem.write_field sys cell ~addr ~index:f_nentries 0L;
  Kmem.write_field sys cell ~addr ~index:f_capacity (Int64.of_int capacity);
  { Types.cow_cell = cell.Types.cell_id; cow_addr = addr }

let create_root (sys : Types.system) (cell : Types.cell)
    ?(capacity = default_capacity) () =
  alloc_node sys cell ~parent:None ~capacity

(* Fork: split the leaf. The old leaf becomes an interior node; the parent
   continues on a fresh leaf on its own cell and the child gets a fresh
   leaf on (possibly) another cell. *)
let fork (sys : Types.system) ~(parent_cell : Types.cell)
    ~(child_cell : Types.cell) (leaf : Types.cow_ref)
    ?(capacity = default_capacity) () =
  let parent_leaf = alloc_node sys parent_cell ~parent:(Some leaf) ~capacity in
  let child_leaf = alloc_node sys child_cell ~parent:(Some leaf) ~capacity in
  (parent_leaf, child_leaf)

let node_id (sys : Types.system) (r : Types.cow_ref) =
  let cell = sys.Types.cells.(r.Types.cow_cell) in
  Int64.to_int (Kmem.read_field sys cell ~addr:r.Types.cow_addr ~index:f_node_id)

(* Record that the process wrote anonymous page [page] at its leaf (always
   local to the process). *)
let record_write (sys : Types.system) (cell : Types.cell)
    (leaf : Types.cow_ref) ~page =
  if leaf.Types.cow_cell <> cell.Types.cell_id then
    invalid_arg "Cow.record_write: leaf must be local";
  let addr = leaf.Types.cow_addr in
  let n = Int64.to_int (Kmem.read_field sys cell ~addr ~index:f_nentries) in
  let cap = Int64.to_int (Kmem.read_field sys cell ~addr ~index:f_capacity) in
  if n >= cap then raise Node_full;
  Kmem.write_field sys cell ~addr ~index:(f_entries + n) (Int64.of_int page);
  Kmem.write_field sys cell ~addr ~index:f_nentries (Int64.of_int (n + 1))

(* Local scan of an owned node: one block read, then in-cache compares. *)
let local_has_page (sys : Types.system) (cell : Types.cell) ~addr ~page =
  let n = Int64.to_int (Kmem.read_field sys cell ~addr ~index:f_nentries) in
  n > 0
  &&
  let entries = Kmem.read_fields sys cell ~addr ~index:f_entries ~count:n in
  Array.exists (fun e -> e = Int64.of_int page) entries

type lookup_result =
  | Found of Types.cow_ref (* the node recording the page *)
  | Not_present
  | Defended of Careful_ref.failure_reason

(* Search up the tree from [leaf] for the nearest ancestor (or the leaf
   itself) recording [page]. Remote nodes are read under the careful
   reference protocol. *)
let lookup (sys : Types.system) (reader : Types.cell) (leaf : Types.cow_ref)
    ~page =
  let max_capacity = 1 lsl 16 in
  (* Follow a node's parent pointer, read as [(pa, pc)]. *)
  let rec up pa pc depth =
    if pa < 0 || pc < 0 then Not_present
    else if pc >= Array.length sys.Types.cells then
      Defended (Careful_ref.Bad_value "parent cell out of range")
    else walk { Types.cow_cell = pc; cow_addr = pa } (depth + 1)
  and walk (r : Types.cow_ref) depth =
    if depth > 64 then Defended Careful_ref.Loop_detected
    else if r.Types.cow_addr < 0 then Not_present
    else if r.Types.cow_cell = reader.Types.cell_id then begin
      (* Local node: plain, trusting reads — a kernel does not defend
         against its own data structures. Corruption here unwinds as a
         kernel bad reference, panicking the cell (contrast with the
         careful remote path below). *)
      let cell = reader in
      let addr = r.Types.cow_addr in
      if
        (try Kmem.read_tag sys cell ~addr <> cow_tag
         with Flash.Memory.Bus_error _ -> true)
      then Panic.kernel_bad_reference sys cell "cow node tag"
      else if local_has_page sys cell ~addr ~page then Found r
      else begin
        let pa =
          Int64.to_int (Kmem.read_field sys cell ~addr ~index:f_parent_addr)
        in
        let pc =
          Int64.to_int (Kmem.read_field sys cell ~addr ~index:f_parent_cell)
        in
        up pa pc depth
      end
    end
    else begin
      (* Remote node: careful reference protocol. *)
      if not (List.mem r.Types.cow_cell reader.Types.live_set) then
        Defended (Careful_ref.Bus_fault r.Types.cow_addr)
      else
        let res =
          Careful_ref.protect sys reader ~target:r.Types.cow_cell (fun ctx ->
              let addr = r.Types.cow_addr in
              Careful_ref.check_tag ctx ~addr ~expected:cow_tag;
              let n =
                Int64.to_int
                  (Careful_ref.read_field ctx ~addr ~index:f_nentries)
              in
              let cap =
                Int64.to_int
                  (Careful_ref.read_field ctx ~addr ~index:f_capacity)
              in
              if n < 0 || cap <= 0 || cap > max_capacity || n > cap then
                Careful_ref.fail_value "entry count out of range";
              (* Copy the whole entry block to local memory before
                 checking (careful reference protocol, step 3). *)
              let block =
                Careful_ref.read_bytes ctx
                  (addr + Kmem.header_bytes + (8 * f_entries))
                  (8 * n)
              in
              let found = ref false in
              for i = 0 to n - 1 do
                if Bytes.get_int64_le block (8 * i) = Int64.of_int page then
                  found := true
              done;
              let pa =
                Int64.to_int
                  (Careful_ref.read_field ctx ~addr ~index:f_parent_addr)
              in
              let pc =
                Int64.to_int
                  (Careful_ref.read_field ctx ~addr ~index:f_parent_cell)
              in
              (!found, pa, pc))
        in
        match res with
        | Error reason -> Defended reason
        | Ok (true, _, _) -> Found r
        | Ok (false, pa, pc) -> up pa pc depth
    end
  in
  walk leaf 0

let free_node (sys : Types.system) (cell : Types.cell) (r : Types.cow_ref) =
  if r.Types.cow_cell = cell.Types.cell_id then begin
    let cap =
      Int64.to_int
        (Kmem.read_field sys cell ~addr:r.Types.cow_addr ~index:f_capacity)
    in
    Kmem.free sys cell ~addr:r.Types.cow_addr ~size:(8 * (f_entries + cap))
  end
