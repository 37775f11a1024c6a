(** Page frame data structures (Section 5.1).

   Each page frame in paged memory is managed by a pfdat recording the
   logical page id of the data stored in the frame; pfdats are linked into
   a per-cell hash table allowing lookup by logical id. Hive adds
   dynamically-allocated *extended pfdats* that bind a remote page (import)
   or a borrowed remote frame into the local table, letting most of the
   kernel operate on remote pages as if they were local. *)

(** A pfdat in the [Home] role. *)
val make : pfn:int -> Types.pfdat

(** The pfdat names a page that lives elsewhere: an import or dropped
    binding, or a page in a frame the cell borrowed. *)
val extended : Types.cell -> Types.pfdat -> bool

(** An empty page table, as at boot. *)
val create_table : unit -> Types.pfdat Types.Page_hash.t

(** The head of an empty import index or park list. *)
val create_head : unit -> Types.pfdat

val lookup : Types.cell -> Types.logical_id -> Types.pfdat option

(** The pfdat is the one bound under its own logical id. *)
val bound : Types.cell -> Types.pfdat -> bool

val insert : Types.cell -> Types.logical_id -> Types.pfdat -> unit

(** Drop the pfdat's own binding; a pfdat bound nowhere removes nothing. *)
val remove : Types.cell -> Types.pfdat -> unit

(** The extended pfdats bound in the cell's page table that satisfy the
    predicate, oldest binding first, found through the import index: the
    cost is in the number of extended pfdats, not the table size. *)
val imports : Types.cell -> (Types.pfdat -> bool) -> Types.pfdat list

(** {2 The park list}

    The import cache's parked bindings, in park order. A binding is
    parked exactly while it is on the list, and [Types.cell.nparked]
    counts them. *)

val parked : Types.pfdat -> bool

(** Park the binding as the newest; a parked one stays where it is. *)
val park : Types.cell -> Types.pfdat -> unit

val unpark : Types.cell -> Types.pfdat -> unit
val oldest_parked : Types.cell -> Types.pfdat option

(** The parked bindings, most recently parked first. *)
val parked_bindings : Types.cell -> Types.pfdat list

(** Let a binding (or borrowed frame) go: unpark and unbind it, drop it
    from the frame table, and make its role [Dropped]. *)
val free_extended : Types.cell -> Types.pfdat -> unit
val is_idle : Types.pfdat -> bool

(** Every pfdat bound in the cell's page table, in table order. A full
    scan: cold paths only (swap, recovery, invariants, reclaim). *)
val iter_pages : Types.cell -> (Types.pfdat -> unit) -> unit
