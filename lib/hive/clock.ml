(* Clock monitoring (Sections 4.1 and 4.3).

   Each cell increments a published clock word on every clock interrupt.
   The clock handler also checks another cell's clock value on every tick
   (under the careful reference protocol): a value that fails to increment
   for consecutive ticks, or a bus error reaching it, is a failure hint.
   This detects hardware failures that halt processors but not entire
   nodes, as well as kernel deadlocks and interrupt losses. *)

let clock_value (sys : Types.system) (c : Types.cell) =
  Flash.Memory.peek_i64
    (Flash.Machine.memory sys.Types.machine)
    c.Types.clock_addr

(* One careful-reference read of a peer's clock word. *)
let read_peer_clock (sys : Types.system) (reader : Types.cell) ~target =
  let target_cell = sys.Types.cells.(target) in
  Careful_ref.protect sys reader ~target (fun ctx ->
      Careful_ref.read_i64 ctx target_cell.Types.clock_addr)

(* The cell this one monitors: its successor in the live-set ring. *)
let monitored_peer (c : Types.cell) =
  let live = List.sort compare c.Types.live_set in
  let higher = List.filter (fun id -> id > c.Types.cell_id) live in
  match (higher, live) with
  | h :: _, _ -> if h = c.Types.cell_id then None else Some h
  | [], l :: _ when l <> c.Types.cell_id -> Some l
  | _ -> None

let hint (sys : Types.system) (c : Types.cell) suspect reason =
  match sys.Types.on_hint with
  | Some f -> f c ~suspect ~reason
  | None -> ()

let start (sys : Types.system) (c : Types.cell) =
  let eng = sys.Types.eng in
  let p = sys.Types.params in
  let mem = Flash.Machine.memory sys.Types.machine in
  let thr =
    Sim.Engine.spawn eng
      ~name:(Printf.sprintf "cell%d.clock" c.Types.cell_id)
      (fun () ->
        let last_seen = ref (-1L) in
        let last_peer = ref (-1) in
        let stalls = ref 0 in
        let bus_errors = ref 0 in
        (* The live set only changes on failure and recovery, and the
           field is replaced, never mutated in place: the peer is
           recomputed only when the list is a different one. *)
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
          Sim.Engine.delay p.Params.tick_ns;
          if Types.cell_alive c then begin
            (* Increment our own published clock word. *)
            let v = clock_value sys c in
            Flash.Memory.write_i64 mem ~by:(Types.boss_proc c)
              c.Types.clock_addr (Int64.add v 1L);
            Sim.Engine.delay Params.clock_check_cost_ns;
            (* Monitor our ring successor. *)
            (match peer () with
            | None -> ()
            | Some peer ->
              if peer <> !last_peer then begin
                last_peer := peer;
                last_seen := -1L;
                stalls := 0
              end;
              (match read_peer_clock sys c ~target:peer with
              | Ok v ->
                bus_errors := 0;
                if v = !last_seen then begin
                  incr stalls;
                  if !stalls >= Params.clock_stall_ticks then begin
                    stalls := 0;
                    hint sys c peer "clock: stopped incrementing"
                  end
                end
                else begin
                  last_seen := v;
                  stalls := 0
                end
              | Error _ ->
                (* Tolerate one transient bus error; a second consecutive
                   one on the next tick is a failure hint. *)
                incr bus_errors;
                if !bus_errors >= 2 then begin
                  bus_errors := 0;
                  hint sys c peer "clock: bus error"
                end));
            tick ()
          end
        in
        tick ())
  in
  c.Types.kernel_threads <- thr :: c.Types.kernel_threads
