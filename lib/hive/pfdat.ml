(* Page frame data structures (Section 5.1).

   Each page frame in paged memory is managed by a pfdat recording the
   logical page id of the data stored in the frame; pfdats are linked into
   a per-cell hash table allowing lookup by logical id. Hive adds
   dynamically-allocated *extended pfdats* that bind a remote page (import)
   or a borrowed remote frame into the local table, letting most of the
   kernel operate on remote pages as if they were local. *)

let make ~pfn ~table_cell : Types.pfdat =
  {
    pfn;
    table_cell;
    lid = None;
    dirty = false;
    refs = 0;
    pins = 0;
    exported_to = [];
    imported_from = None;
    write_granted_to = [];
    loaned_to = None;
    borrowed_from = None;
    extended = false;
    cached = false;
    park_stamp = 0;
    import_gen = 0;
    salvaged_from = None;
  }

(* Find or create the pfdat for a frame in this cell's table. *)
let of_frame (c : Types.cell) pfn =
  match Hashtbl.find_opt c.Types.frames pfn with
  | Some pf -> pf
  | None ->
    let pf = make ~pfn ~table_cell:c.Types.cell_id in
    Hashtbl.replace c.Types.frames pfn pf;
    pf

let lookup (c : Types.cell) lid = Hashtbl.find_opt c.Types.page_hash lid

let insert (c : Types.cell) lid (pf : Types.pfdat) =
  pf.Types.lid <- Some lid;
  Hashtbl.replace c.Types.page_hash lid pf

let remove (c : Types.cell) (pf : Types.pfdat) =
  (match pf.Types.lid with
  | Some lid -> Hashtbl.remove c.Types.page_hash lid
  | None -> ());
  pf.Types.lid <- None

(* Allocate an extended pfdat naming a page that lives elsewhere. *)
let alloc_extended (c : Types.cell) ~pfn =
  let pf = make ~pfn ~table_cell:c.Types.cell_id in
  pf.Types.extended <- true;
  pf

let free_extended (c : Types.cell) (pf : Types.pfdat) =
  (* A parked binding being torn down (recovery flush, invalidation,
     writable rebind) must leave the import cache with it. *)
  if pf.Types.cached then Types.unpark_binding c pf;
  remove c pf;
  pf.Types.imported_from <- None;
  Hashtbl.remove c.Types.frames pf.Types.pfn

let is_idle (pf : Types.pfdat) =
  pf.Types.refs = 0 && pf.Types.pins = 0 && pf.Types.exported_to = []
  && pf.Types.loaned_to = None

let iter_pages (c : Types.cell) f = Hashtbl.iter (fun _ pf -> f pf) c.Types.page_hash
