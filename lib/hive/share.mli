(** Logical-level memory sharing primitives (Table 5.1 of the paper).

   export: the data home records that a client cell is accessing one of
   its data pages (pinning it and noting the dependency for recovery), and
   grants firewall write permission to the client's processors if the
   client requested a writable mapping.

   import: the client allocates an extended pfdat bound to the remote
   page and inserts it into its pfdat hash table, after which most of the
   kernel operates on the page as if it were local.

   release: the client frees the extended pfdat and tells the data home,
   which unpins the page (keeping it cached on its own free list for fast
   re-access).

   Released read-only file imports are parked in a bounded per-cell
   import cache (so re-access skips the locate RPC); parked bindings are
   invalidated by the data home's share.invalidate callback when another
   cell imports the page writable, checked against the file generation at
   re-access, and flushed when the home dies. Bulk releases coalesce into
   one vectored share.release_batch RPC per data home. *)

(** Would a writable export to [client] require invalidating another
    cell's binding first (and hence an RPC, forcing the queued path)? *)
val needs_invalidate : Types.pfdat -> client:Types.cell_id -> bool

(** Data-home side: tell each client to drop any parked bindings for
    [lids]; export records are retired for bindings the client dropped.
    May RPC — callers must be able to block. *)
val invalidate_clients :
  Types.system ->
  Types.cell ->
  clients:Types.cell_id list -> lids:Types.logical_id list -> unit

val export :
  Types.system ->
  Types.cell ->
  Types.pfdat -> client:Types.cell_id -> writable:bool -> unit

(** Bind a remote page into the local pfdat table. [gen] is the file
    generation the data home reported alongside the page (pass 0 for
    objects without one); a parked binding is only served again while the
    home's generation still equals it. A writable import records the
    client-side grant bookkeeping (the binding's [writable], dirty
    marking) itself. *)
val import :
  Types.system ->
  Types.cell ->
  pfn:int ->
  data_home:Types.cell_id ->
  lid:Types.logical_id ->
  gen:Types.generation -> writable:bool -> Types.pfdat

(** Pull a parked binding back into active use (bumps share.cache_hits;
    no-op on a binding that is not parked). *)
val cache_hit : Types.cell -> Types.pfdat -> unit

(** Release one binding: parked when cacheable, otherwise freed with a
    release RPC to the data home. Never raises; a lost release bumps
    share.release_lost and reports a failure hint. *)
val release : Types.system -> Types.cell -> Types.pfdat -> unit

(** Release a batch of bindings, coalescing home notifications into one
    vectored share.release_batch RPC per data home. Never raises: a lost
    batch RPC bumps share.release_lost per page and fs.release_errors once. *)
val release_all : Types.system -> Types.cell -> Types.pfdat list -> unit
