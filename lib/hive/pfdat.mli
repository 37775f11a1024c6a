(** Page frame data structures (Section 5.1).

   Each page frame in paged memory is managed by a pfdat recording the
   logical page id of the data stored in the frame; pfdats are linked into
   a per-cell hash table allowing lookup by logical id. Hive adds
   dynamically-allocated *extended pfdats* that bind a remote page (import)
   or a borrowed remote frame into the local table, letting most of the
   kernel operate on remote pages as if they were local. *)

val make : pfn:int -> Types.pfdat

(** An empty page table and import index, as at boot. *)
val create_table : unit -> Types.pfdat Types.Page_hash.t

val create_index : unit -> Types.pfdat
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

val alloc_extended : pfn:int -> Types.pfdat
val free_extended : Types.cell -> Types.pfdat -> unit
val is_idle : Types.pfdat -> bool

(** Every pfdat bound in the cell's page table, in table order. A full
    scan: cold paths only (swap, recovery, invariants, reclaim). *)
val iter_pages : Types.cell -> (Types.pfdat -> unit) -> unit
