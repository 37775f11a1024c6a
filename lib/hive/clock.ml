(* Clock monitoring (Sections 4.1 and 4.3).

   Each cell increments a published clock word on every clock interrupt.
   The clock handler also checks another cell's clock value on every tick
   (under the careful reference protocol): a value that fails to increment
   for consecutive ticks, or a bus error reaching it, is a failure hint.
   This detects hardware failures that halt processors but not entire
   nodes, as well as kernel deadlocks and interrupt losses.

   The monitor is the interrupt handler itself, not a thread: one engine
   timer per cell fires every [tick_ns], does the tick's work at that
   instant and charges no simulated time to any thread. *)

(* One careful-reference read of a peer's clock word, timed: the
   thread-level read agreement votes with. *)
let read_peer_clock (sys : Types.system) ~target =
  let target_cell = sys.Types.cells.(target) in
  Careful_ref.protect sys ~target (fun ctx ->
      Careful_ref.read_i64 ctx target_cell.Types.clock_addr)

(* The cell this one monitors: its successor in the live-set ring. *)
let monitored_peer (c : Types.cell) =
  let live = List.sort compare c.Types.live_set in
  let higher = List.filter (fun id -> id > c.Types.cell_id) live in
  match (higher, live) with
  | h :: _, _ -> if h = c.Types.cell_id then None else Some h
  | [], l :: _ when l <> c.Types.cell_id -> Some l
  | _ -> None

let start (sys : Types.system) (c : Types.cell) =
  let eng = sys.Types.eng in
  let tick_ns = sys.Types.params.Params.tick_ns in
  let mem = Flash.Machine.memory sys.Types.machine in
  let by = c.Types.boss_node in
  let hint suspect reason =
    match sys.Types.on_hint with
    | Some f -> f c ~suspect ~reason
    | None -> ()
  in
  let last_seen = ref (-1L) in
  let last_peer = ref (-1) in
  let stalls = ref 0 in
  let failed_reads = ref 0 in
  (* The live set only changes on failure and recovery, and the field is
     replaced, never mutated in place: the peer is recomputed only when
     the list is a different one. *)
  let peer_of = ref ([], None) in
  let peer () =
    let live, peer = !peer_of in
    if live == c.Types.live_set then peer
    else begin
      let peer = monitored_peer c in
      peer_of := (c.Types.live_set, peer);
      peer
    end
  in
  let rec tick () =
    (* The interrupt stops with its cell: a dead kernel takes no
       interrupts. Reintegration needs a dead cell and replaces its
       record, which stays down, with a fresh one whose boot starts a
       timer of its own, so a stale timer never ticks a reborn cell. *)
    if Types.cell_alive c then begin
      let now = c.Types.clock_due in
      arm ();
      (* Increment our own published clock word. *)
      let v = Flash.Memory.peek_i64 mem c.Types.clock_addr in
      Flash.Memory.write_i64_now mem ~by c.Types.clock_addr (Int64.add v 1L);
      (* Monitor our ring successor. *)
      (match peer () with
      | None -> ()
      | Some peer ->
        if peer <> !last_peer then begin
          last_peer := peer;
          last_seen := -1L;
          stalls := 0
        end;
        let pc = sys.Types.cells.(peer) in
        (match Careful_ref.read_i64_now sys c ~target:peer pc.Types.clock_addr with
        | Ok v ->
          (* Every interrupt of an instant runs before that instant's
             reads, as when each read lands microseconds after the
             increments: a live peer whose tick at this instant is still
             queued has, as far as this read goes, ticked. *)
          let v =
            if Types.cell_alive pc && pc.Types.clock_due = now then Int64.succ v
            else v
          in
          failed_reads := 0;
          if v = !last_seen then begin
            incr stalls;
            if !stalls >= Params.clock_stall_ticks then begin
              stalls := 0;
              hint peer "clock: stopped incrementing"
            end
          end
          else begin
            last_seen := v;
            stalls := 0
          end
        | Error reason ->
          (* Tolerate one transient failed read; a second consecutive
             one on the next tick is a failure hint that names its
             cause: a partition, or dead memory. *)
          incr failed_reads;
          if !failed_reads >= 2 then begin
            failed_reads := 0;
            hint peer
              (match reason with
              | Careful_ref.Unreachable _ -> "clock: unreachable"
              | _ -> "clock: bus error")
          end))
    end
  and arm () =
    c.Types.clock_due <- Int64.add (Sim.Engine.now eng) tick_ns;
    ignore (Sim.Engine.schedule_at eng c.Types.clock_due tick)
  in
  arm ()
