(** Page frames and who holds them (Sections 3.2 and 5.4): the frame
    state machine. A cell holds each frame it owns or borrows in one
    state ([Types.frame_state]); these transitions are its only writers.
    An illegal one panics the cell with the reason [t=<ns>ns cell <c> pfn
    <p>: illegal <transition> of a frame that is <state>] and raises
    [Panic.Kernel_corruption]. A memory home
    grants the borrower's processors on loan and resets the frame's
    vector on return. *)

exception Out_of_memory
val state : Types.cell -> int -> Types.frame_state

(** Is the pfn one of the cell's own frames (outside the kernel reserve)? *)
val own : Types.cell -> int -> bool

(** The pfdat is its frame's live one: not released, and not forgotten
    when its memory home died. *)
val holds : Types.cell -> Types.pfdat -> bool

val lender : Types.system -> int -> Types.cell_id
val free_count : Types.cell -> int
val total_frames : Types.cell -> int

(** The frames the cell holds in a state satisfying the predicate, by
    pfn: every own frame used since boot, every loan and every borrow. *)
val held : Types.cell -> (int -> Types.frame_state -> bool) -> int list

(** Pressure watermark: [pct] percent of the frames the cell owns, with a
    floor of 8 so tiny test cells still have a meaningful threshold. *)
val low_water : Types.cell -> pct:int -> int

val under_pressure : Types.cell -> pct:int -> bool

val reset_firewall : Types.system -> Types.cell -> int -> unit
val take_free :
  ?own_only:bool -> Types.system -> Types.cell -> Types.pfdat option
val alloc : Types.system -> Types.cell -> Types.pfdat
val release : Types.system -> Types.cell -> Types.pfdat -> unit
val claim : Types.system -> Types.cell -> Types.pfdat -> unit
val unclaim : Types.pfdat -> unit
val reclaim : Types.system -> Types.cell -> want:int -> int

(** Test hook. *)
val borrow :
  Types.system -> Types.cell -> home:Types.cell_id -> count:int -> int list
val return_frames : Types.system -> Types.cell -> int list -> unit

(** Test hook. *)
val unloan : Types.system -> Types.cell -> int -> unit

(** Recovery: take back the frames loaned to dead cells, and forget
    those borrowed from them, handing the pfdat of each in-use one to
    [lost] first. *)
val settle_dead :
  Types.system -> Types.cell -> dead:Types.cell_id list ->
  lost:(Types.pfdat -> unit) -> unit
