(** The careful reference protocol (Section 4.1 of the paper).

   One cell reads another's internal data structures directly when RPCs are
   too slow or an up-to-date view is required. The reading cell must defend
   itself against invalid pointers, linked structures with loops, values
   that change mid-operation, and bus errors from failed nodes:

   1. [careful_on] records which remote cell the kernel intends to access;
      a bus error while reading that cell's memory unwinds to the saved
      context instead of panicking the reading kernel.
   2. Every remote address is checked for alignment and for addressing the
      memory range belonging to the expected cell.
   3. Data values are copied to local memory before sanity checks.
   4. Each remote structure carries a type identifier written by the
      allocator; checking it is the first line of defense against invalid
      pointers.
   5. [careful_off] restores normal panic-on-bus-error behavior. *)

type failure_reason =
    Bad_pointer of int
  | Bad_tag of { addr : int; expected : int64; found : int64; }
  | Bus_fault of int
  | Loop_detected
  | Bad_value of string
  | Unreachable of int
      (** the interconnect to the target cell is partitioned: the remote
          read times out rather than bus-faulting — distinguishable from
          dead hardware, which answers with an error, not silence *)
exception Careful_abort of failure_reason

(** True when a blackout window currently severs either direction between
    the reader and the target (remote reads need the request to travel one
    way and the data the other). *)
val partitioned : Types.system -> Types.cell -> target:Types.cell_id -> bool
type ctx
val reason_to_string : failure_reason -> string
val fail_value : string -> 'a
val read_i64 : ctx -> Flash.Addr.t -> int64
val read_bytes : ctx -> Flash.Addr.t -> int -> Bytes.t
val check_tag : ctx -> addr:Flash.Addr.t -> expected:int64 -> unit
val read_field : ctx -> addr:int -> index:int -> int64

(** [f] as a careful section of the running thread's cell on [target]. *)
val protect :
  Types.system ->
  target:Types.cell_id -> (ctx -> 'a) -> ('a, failure_reason) result

(** [read_i64_now sys reader ~target addr] is [protect] around one
    [read_i64] at the instant of the call, for the clock interrupt: the
    same partition, address and bus-error defences and the same
    [careful_ref.enter]/[defended] counts, charged to no thread. *)
val read_i64_now :
  Types.system ->
  Types.cell ->
  target:Types.cell_id ->
  Flash.Addr.t ->
  (int64, failure_reason) result
