(** Per-cell page frame allocation with physical-level sharing (Sections
   3.2 and 5.4).

   Each cell manages a free list of the frames it owns. Under memory
   pressure the allocator can *borrow* frames from another cell (the
   memory home), which moves them to a reserved list and ignores them
   until the borrower returns them or fails. Requests carry constraints: a
   set of acceptable cells and a preferred cell; frames for internal
   kernel use must be local, since the firewall does not defend against
   wild writes by the memory home. *)

type Types.payload +=
    P_borrow of { count : int; }
  | P_borrowed of { pfns : int list; }
  | P_return of { pfns : int list; }
val borrow_op : Rpc.Op.t
val return_op : Rpc.Op.t
exception Out_of_memory
val free_count : Types.cell -> int

(** Pressure watermark: [pct] percent of the frames the cell owns, with a
    floor of 8 so tiny test cells still have a meaningful threshold. *)
val low_water : Types.cell -> pct:int -> int

val under_pressure : Types.cell -> pct:int -> bool
val reclaim : Types.system -> Types.cell -> want:int -> int
val take_local : Types.cell -> int option
val loan_frames :
  Types.system ->
  Types.cell -> client:Types.cell_id -> count:int -> int list
val borrow_from :
  Types.system ->
  Types.cell -> home:Types.cell_id -> count:int -> int list
val return_frame :
  Types.system -> Types.cell -> Types.pfdat -> unit
val alloc_frame :
  ?kernel_only:bool ->
  ?preferred:Types.cell_id ->
  Types.system -> Types.cell -> Types.pfdat
val free_frame :
  Types.system -> Types.cell -> Types.pfdat -> unit
