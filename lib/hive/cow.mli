(** Copy-on-write trees for anonymous memory (Section 5.3).

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

val cow_tag : int64
val f_parent_addr : int
val f_parent_cell : int
val f_nentries : int
val f_capacity : int
exception Node_full
(* Reset the domain-local node-id generator (called by [System.boot]). *)
val reset_ids : unit -> unit
(* The tree functions act as the running thread's cell: new nodes go
   into its heap, [record_write] writes only its leaves, and [lookup]
   reads other cells' nodes carefully. A fork branches the leaf on the
   parent's cell and on the child's. *)
val create_root : Types.system -> ?capacity:int -> unit -> Types.cow_ref
val branch : Types.system -> Types.cow_ref -> Types.cow_ref
val node_id : Types.system -> Types.cow_ref -> int
val record_write : Types.system -> Types.cow_ref -> page:int -> unit
type lookup_result =
    Found of Types.cow_ref
  | Not_present
  | Defended of Careful_ref.failure_reason
val lookup : Types.system -> Types.cow_ref -> page:int -> lookup_result

(** Test hook. *)
val free_node : Types.system -> Types.cow_ref -> unit
