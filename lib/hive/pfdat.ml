(* Page frame data structures (Section 5.1).

   Each page frame in paged memory is managed by a pfdat recording the
   logical page id of the data stored in the frame; pfdats are linked into
   a per-cell hash table allowing lookup by logical id. Hive adds
   dynamically-allocated *extended pfdats* that bind a remote page (import)
   or a borrowed remote frame into the local table, letting most of the
   kernel operate on remote pages as if they were local. *)

(* The default pfdat, and the link value of every pfdat outside an
   import index or park list. Its own fields are never written. *)
let rec unlinked : Types.pfdat =
  {
    pfn = -1;
    lid = None;
    dirty = false;
    refs = 0;
    pins = 0;
    role = Home;
    exported_to = [];
    write_granted_to = [];
    ext_prev = unlinked;
    ext_next = unlinked;
    park_prev = unlinked;
    park_next = unlinked;
  }

let make ~pfn : Types.pfdat = { unlinked with pfn }

(* An extended pfdat names a page that lives elsewhere: an import, or a
   page in a frame borrowed from another cell. *)
let extended (c : Types.cell) (pf : Types.pfdat) =
  match pf.Types.role with
  | Types.Import _ | Types.Dropped -> true
  | Types.Home | Types.Salvaged _ ->
    not (Types.own_frame c.Types.pool pf.Types.pfn)

(* ---------- The page table and its import index ----------

   The import index lists the extended pfdats bound in the table, so
   close and exit visit those instead of the whole table. *)

let create_table () = Types.Page_hash.create 1024

(* The head of an empty import index or park list: a pfdat whose links
   point at itself. *)
let create_head () =
  let head = make ~pfn:(-1) in
  head.Types.ext_prev <- head;
  head.Types.ext_next <- head;
  head.Types.park_prev <- head;
  head.Types.park_next <- head;
  head

let linked (pf : Types.pfdat) = pf.Types.ext_next != unlinked

let link (head : Types.pfdat) (pf : Types.pfdat) =
  if not (linked pf) then begin
    pf.Types.ext_prev <- head;
    pf.Types.ext_next <- head.Types.ext_next;
    head.Types.ext_next.Types.ext_prev <- pf;
    head.Types.ext_next <- pf
  end

let unlink (pf : Types.pfdat) =
  if linked pf then begin
    pf.Types.ext_prev.Types.ext_next <- pf.Types.ext_next;
    pf.Types.ext_next.Types.ext_prev <- pf.Types.ext_prev;
    pf.Types.ext_prev <- unlinked;
    pf.Types.ext_next <- unlinked
  end

let lookup (c : Types.cell) lid = Types.Page_hash.find_opt c.Types.page_hash lid

(* [pf] is the pfdat bound under its own id. *)
let bound (c : Types.cell) (pf : Types.pfdat) =
  match Option.bind pf.Types.lid (lookup c) with
  | Some q -> q == pf
  | None -> false

let insert (c : Types.cell) lid (pf : Types.pfdat) =
  (match lookup c lid with Some old when old != pf -> unlink old | _ -> ());
  pf.Types.lid <- Some lid;
  Types.Page_hash.replace c.Types.page_hash lid pf;
  if extended c pf then link c.Types.page_index pf

(* Drops [pf]'s own binding: one displaced by a later insert removes
   nothing. *)
let remove (c : Types.cell) (pf : Types.pfdat) =
  if bound c pf then begin
    unlink pf;
    Option.iter (Types.Page_hash.remove c.Types.page_hash) pf.Types.lid
  end;
  pf.Types.lid <- None

(* The extended pfdats bound in the table that satisfy [keep], oldest
   binding first. *)
let imports (c : Types.cell) keep =
  let head = c.Types.page_index in
  let rec collect (pf : Types.pfdat) acc =
    if pf == head then acc
    else collect pf.Types.ext_next (if keep pf then pf :: acc else acc)
  in
  collect head.Types.ext_next []

(* ---------- The park list ----------

   The import cache: parked bindings on a circular list through
   [park_prev]/[park_next], oldest first. A binding is parked exactly
   while it is on the list; park, unpark and eviction are O(1). *)

let parked (pf : Types.pfdat) = pf.Types.park_next != unlinked

(* Park [pf] as the newest binding. *)
let park (c : Types.cell) (pf : Types.pfdat) =
  if not (parked pf) then begin
    let head = c.Types.park_list in
    pf.Types.park_next <- head;
    pf.Types.park_prev <- head.Types.park_prev;
    head.Types.park_prev.Types.park_next <- pf;
    head.Types.park_prev <- pf;
    c.Types.nparked <- c.Types.nparked + 1
  end

let unpark (c : Types.cell) (pf : Types.pfdat) =
  if parked pf then begin
    pf.Types.park_prev.Types.park_next <- pf.Types.park_next;
    pf.Types.park_next.Types.park_prev <- pf.Types.park_prev;
    pf.Types.park_prev <- unlinked;
    pf.Types.park_next <- unlinked;
    c.Types.nparked <- c.Types.nparked - 1
  end

(* The least recently parked binding, if any. *)
let oldest_parked (c : Types.cell) =
  let head = c.Types.park_list in
  if head.Types.park_next == head then None else Some head.Types.park_next

(* The parked bindings, most recently parked first. *)
let parked_bindings (c : Types.cell) =
  let head = c.Types.park_list in
  let rec collect (pf : Types.pfdat) acc =
    if pf == head then acc else collect pf.Types.park_next (pf :: acc)
  in
  collect head.Types.park_next []

(* Let a binding go: it leaves the import cache, the page table and the
   frame table, and is a dropped binding from now on. *)
let free_extended (c : Types.cell) (pf : Types.pfdat) =
  unpark c pf;
  remove c pf;
  pf.Types.role <- Types.Dropped;
  Hashtbl.remove c.Types.frames pf.Types.pfn

let is_idle (pf : Types.pfdat) =
  pf.Types.refs = 0 && pf.Types.pins = 0 && pf.Types.exported_to = []

let iter_pages (c : Types.cell) f =
  Types.Page_hash.iter (fun _ pf -> f pf) c.Types.page_hash
