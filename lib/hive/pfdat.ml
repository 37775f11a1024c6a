(* Page frame data structures (Section 5.1).

   Each page frame in paged memory is managed by a pfdat recording the
   logical page id of the data stored in the frame; pfdats are linked into
   a per-cell hash table allowing lookup by logical id. Hive adds
   dynamically-allocated *extended pfdats* that bind a remote page (import)
   or a borrowed remote frame into the local table, letting most of the
   kernel operate on remote pages as if they were local. *)

(* The default pfdat, and the link value of every pfdat outside an
   import index. Its own fields are never written. *)
let rec unlinked : Types.pfdat =
  {
    pfn = -1;
    lid = None;
    dirty = false;
    refs = 0;
    pins = 0;
    exported_to = [];
    imported_from = None;
    write_granted_to = [];
    extended = false;
    cached = false;
    park_stamp = 0;
    import_gen = 0;
    salvaged_from = None;
    slot_stamp = 0;
    ext_prev = unlinked;
    ext_next = unlinked;
  }

let make ~pfn : Types.pfdat = { unlinked with pfn }

(* ---------- The page table and its import index ----------

   The order in which [page_hash] yields its pfdats is simulated
   behaviour: close and exit release a client's idle imports in that
   order, and it decides which release RPCs and firewall revocations
   happen first. A [Hashtbl] iterates buckets in ascending index and,
   inside a bucket, the newest slot first: an insertion prepends, an
   in-place replace keeps the slot where it is, and a resize keeps the
   relative order of a bucket's slots. The import index lists the
   extended pfdats bound in the table and reproduces that order for the
   few it returns, from a stamp per slot (taken when its key is first
   added, handed on by an in-place replace) and a mirror of the table's
   bucket count. *)

let initial_buckets = 1024

let create_table () = Types.Page_hash.create initial_buckets

let create_index () =
  let head = make ~pfn:(-1) in
  head.Types.ext_prev <- head;
  head.Types.ext_next <- head;
  { Types.ext_head = head; buckets = initial_buckets; next_slot_stamp = 0 }

let linked (pf : Types.pfdat) = pf.Types.ext_next != unlinked

let link (ix : Types.page_index) (pf : Types.pfdat) =
  if not (linked pf) then begin
    let head = ix.Types.ext_head in
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

(* [pf] no longer holds a slot in the table. *)
let vacate (pf : Types.pfdat) =
  pf.Types.slot_stamp <- 0;
  unlink pf

let lookup (c : Types.cell) lid = Types.Page_hash.find_opt c.Types.page_hash lid

let insert (c : Types.cell) lid (pf : Types.pfdat) =
  pf.Types.lid <- Some lid;
  let t = c.Types.page_hash and ix = c.Types.page_index in
  (match Types.Page_hash.find_opt t lid with
  | Some old when old == pf -> ()
  | Some old ->
    pf.Types.slot_stamp <- old.Types.slot_stamp;
    vacate old;
    Types.Page_hash.replace t lid pf
  | None ->
    ix.Types.next_slot_stamp <- ix.Types.next_slot_stamp + 1;
    pf.Types.slot_stamp <- ix.Types.next_slot_stamp;
    Types.Page_hash.add t lid pf;
    if Types.Page_hash.length t > 2 * ix.Types.buckets then
      ix.Types.buckets <- 2 * ix.Types.buckets);
  if pf.Types.extended then link ix pf

(* Drops [pf]'s own binding. A pfdat holds a slot stamp exactly while it
   is bound, so one displaced by a later insert removes nothing. *)
let remove (c : Types.cell) (pf : Types.pfdat) =
  (match pf.Types.lid with
  | Some lid when pf.Types.slot_stamp <> 0 ->
    vacate pf;
    Types.Page_hash.remove c.Types.page_hash lid
  | Some _ | None -> ());
  pf.Types.lid <- None

(* The extended pfdats bound in the table that satisfy [keep], in the
   order [iter_pages] would visit them: by bucket, then newest slot
   first. Filtering comes first, so only the survivors are hashed and
   sorted. *)
let extended_in_table_order (c : Types.cell) keep =
  let ix = c.Types.page_index in
  let head = ix.Types.ext_head and mask = ix.Types.buckets - 1 in
  let rec collect (pf : Types.pfdat) acc =
    if pf == head then acc
    else
      let acc =
        match pf.Types.lid with
        | Some lid when keep pf -> (Hashtbl.hash lid land mask, pf) :: acc
        | _ -> acc
      in
      collect pf.Types.ext_next acc
  in
  collect head.Types.ext_next []
  |> List.sort (fun (b1, (p1 : Types.pfdat)) (b2, (p2 : Types.pfdat)) ->
         if b1 <> b2 then Int.compare b1 b2
         else Int.compare p2.Types.slot_stamp p1.Types.slot_stamp)
  |> List.map snd

(* Allocate an extended pfdat naming a page that lives elsewhere. *)
let alloc_extended ~pfn =
  let pf = make ~pfn in
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

let iter_pages (c : Types.cell) f =
  Types.Page_hash.iter (fun _ pf -> f pf) c.Types.page_hash
