(* The careful reference protocol (Section 4.1 of the paper).

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

module Count = struct
  let defended =
    Sim.Stats.declare ~name:"careful_ref.defended" ~unit:"count"
      ~doc:"careful references that caught a bad remote structure"
  let enter =
    Sim.Stats.declare ~name:"careful_ref.enter" ~unit:"count"
      ~doc:"careful-reference sections entered"
end

type failure_reason =
  | Bad_pointer of int (* misaligned or outside the expected cell *)
  | Bad_tag of { addr : int; expected : int64; found : int64 }
  | Bus_fault of int
  | Loop_detected
  | Bad_value of string
  | Unreachable of int
      (* the interconnect to the target cell is partitioned: the remote
         read times out rather than bus-faulting — distinguishable from
         dead hardware, which answers with an error, not silence *)

exception Careful_abort of failure_reason

type ctx = {
  sys : Types.system;
  target : Types.cell_id;
  mutable hops : int;
}

let reason_to_string = function
  | Bad_pointer a -> Printf.sprintf "bad pointer 0x%x" a
  | Bad_tag { addr; expected; found } ->
    Printf.sprintf "bad tag at 0x%x: expected %Ld, found %Ld" addr expected
      found
  | Bus_fault a -> Printf.sprintf "bus error at 0x%x" a
  | Loop_detected -> "loop detected in linked structure"
  | Bad_value s -> "bad value: " ^ s
  | Unreachable c -> Printf.sprintf "cell %d unreachable (partition)" c

(* Backstop against unbounded traversals of corrupt linked structures;
   per-structure validation (tags, entry-count bounds) is the primary
   defense, so this only has to catch runaway loops. *)
let max_hops = 200_000

let addr_in_cell (sys : Types.system) cell_id addr =
  let cfg = sys.mcfg in
  Flash.Addr.valid cfg addr
  && List.mem
       (Flash.Addr.node_of_addr cfg addr)
       sys.cells.(cell_id).Types.cell_nodes

(* Validate a remote address for an expected structure before use. *)
let check_addr ctx ?(align = 8) addr =
  if (not (Flash.Addr.aligned addr align)) || not (addr_in_cell ctx.sys ctx.target addr)
  then raise (Careful_abort (Bad_pointer addr));
  ctx.hops <- ctx.hops + 1;
  if ctx.hops > max_hops then raise (Careful_abort Loop_detected)

let fail_value msg = raise (Careful_abort (Bad_value msg))

(* Copy a remote value to local memory (step 3): further checks operate on
   the copy, immune to concurrent modification. A bus error unwinds to
   the careful section, which defends it. *)
let read_i64 ctx addr =
  check_addr ctx addr;
  Kmem.read_i64 ctx.sys addr

let read_bytes ctx addr len =
  check_addr ctx ~align:1 addr;
  Kmem.read ctx.sys addr len

(* Check the structure type identifier written by the kernel allocator. *)
let check_tag ctx ~addr ~expected =
  let found = read_i64 ctx addr in
  if found <> expected then
    raise (Careful_abort (Bad_tag { addr; expected; found }))

(* Read field [index] of the kmem object at [addr] (fields follow the tag
   word). *)
let read_field ctx ~addr ~index = read_i64 ctx (addr + Kmem.header_bytes + (8 * index))

(* [protect sys ~target f] wraps [f] in careful_on/careful_off for the
   running thread's cell. Any defended failure is returned as [Error
   reason] rather than unwinding into (and panicking) the reading kernel.
   The caller is responsible for reporting a failure hint if appropriate. *)
(* Remote memory reads ride the same interconnect as messages: a blackout
   window between the reader and the target (in either direction — the
   read request travels one way, the data the other) makes the careful
   section time out, which is a distinct observable from a bus error.
   A bus error is the hardware answering "that memory is gone" (node
   dead); a timeout is silence — the peer may be alive on the far side. *)
let partitioned (sys : Types.system) (reader : Types.cell) ~target =
  let sips = Flash.Machine.sips sys.Types.machine in
  let rb = reader.Types.boss_node in
  let tb = sys.Types.cells.(target).Types.boss_node in
  (not (Flash.Sips.reachable sips ~from_node:rb ~to_node:tb))
  || not (Flash.Sips.reachable sips ~from_node:tb ~to_node:rb)

(* The body of a careful section: a partitioned target or a defended
   failure in [f] is counted and returned as [Error]. *)
let section (sys : Types.system) (reader : Types.cell) ~target f =
  match
    if partitioned sys reader ~target then
      raise (Careful_abort (Unreachable target))
    else f ()
  with
  | v -> Ok v
  | exception Careful_abort r ->
    Types.bump reader Count.defended;
    Error r
  | exception Flash.Memory.Bus_error { addr; _ } ->
    (* A bus error anywhere in the careful section is defended. *)
    Types.bump reader Count.defended;
    Error (Bus_fault addr)

let protect (sys : Types.system) ~target f =
  let reader = Kmem.acting_cell sys in
  Sim.Engine.delay Params.careful_on_ns;
  Types.bump reader Count.enter;
  let ctx = { sys; target; hops = 0 } in
  let result = section sys reader ~target (fun () -> f ctx) in
  if Result.is_ok result then Sim.Engine.delay Params.careful_check_ns;
  Sim.Engine.delay Params.careful_off_ns;
  result

(* The clock interrupt's careful read of one word (Section 4.3): the
   checks and counters of [protect] around [read_i64], at the instant of
   the interrupt. An interrupt handler runs in no thread, so the section
   charges no time to anyone. *)
let read_i64_now (sys : Types.system) (reader : Types.cell) ~target addr =
  Types.bump reader Count.enter;
  section sys reader ~target (fun () ->
      check_addr { sys; target; hops = 0 } addr;
      Flash.Memory.read_i64_now
        (Flash.Machine.memory sys.Types.machine)
        ~by:reader.Types.boss_node addr)
