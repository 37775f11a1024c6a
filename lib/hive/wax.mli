(** Wax: intercell resource-management policy in a user-level process
   (Section 3.2, Table 3.4).

   Wax is a multithreaded user-level spanning process with a thread on
   every cell. It builds a global view of system state through shared
   memory (each cell's thread publishes local statistics into a shared
   word; the coordinator thread reads them all with ordinary loads — no
   careful protocol, because Wax is allowed to die on any cell failure),
   and feeds policy hints back to the kernels: which cells to allocate
   memory from, which cells the VM clock hand should target, etc.

   Hints are *only* hints: the coordinator never acts on another cell's
   behalf. It deposits allocation-preference, clock-hand-target and
   swap-out hints; the receiving kernel (or the cell's own Wax thread, for
   swap) validates each against local state before acting. Each kernel
   sanity-checks everything it receives, so a corrupt Wax can hurt
   performance but not correctness. Because Wax uses resources from all
   cells, it exits whenever any cell fails; recovery forks a fresh
   incarnation that rebuilds its view from scratch. *)

val mem : Types.system -> Flash.Memory.t

(** A hint that names cells: where to allocate memory from, or which
    cells the VM clock hand should target. *)
type hint =
  | Alloc_preference of Types.cell_id list
  | Clock_hand_targets of Types.cell_id list

(** Install the hint if every id is a live, distinct cell (an allocation
    preference drops the cell's own id) and return true; otherwise count
    it in [wax.rejected_hints] and return false. *)
val sanity_check_hint : Types.cell -> hint -> bool

(** Validate and (if the cell really is under local pressure) execute a
    deposited swap-out hint; always clears the hint slot. Rejections bump
    [wax.rejected_hints]. *)
val act_on_swap_hint : Types.system -> Types.cell -> unit

val publish_local_state : Types.system -> Types.cell -> unit
exception Wax_dies
val policy_pass : Types.system -> Types.cell -> unit
val stop : Types.system -> unit
val start : Types.system -> unit
val restart : Types.system -> unit
val install : Types.system -> unit
