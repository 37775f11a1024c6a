(* The VM clock-hand process (Sections 3.2 and 5.7).

   Each cell runs a page-reclaim daemon. The paper: "There are no
   operations in the memory sharing subsystem for a cell to request that
   another return its page or page frame... This information will
   eventually be provided by Wax, which will direct the virtual memory
   clock hand process running on each cell to preferentially free pages
   whose memory home is under memory pressure."

   Implemented exactly so: every sweep the daemon returns free borrowed
   frames whose memory home appears in the Wax hint list
   ([clock_hand_targets]), and under local pressure it additionally
   reclaims idle cached file pages. *)

module Count = struct
  let released =
    Sim.Stats.declare ~name:"clock_hand.released" ~unit:"pages"
      ~doc:"idle imports the clock hand released for a pressured home"
end

let sweep_period_ns = 200_000_000L

(* One sweep; returns the number of frames released. *)
let sweep (sys : Types.system) (c : Types.cell) =
  let released = ref 0 in
  (* 1. Help pressured memory homes: return their free loaned frames. *)
  let targets = c.Types.clock_hand_targets in
  if targets <> [] then begin
    let victims =
      List.filter
        (fun pfn -> List.mem (Page_alloc.lender sys pfn) targets)
        c.Types.pool.Types.borrowed_free
    in
    if victims <> [] then Page_alloc.return_frames sys c victims;
    released := List.length victims
  end;
  (* 2. Local pressure (watermark scaled to the frames this cell owns):
     drop idle clean cached pages, then swap. *)
  if
    Page_alloc.under_pressure c
      ~pct:Params.clock_hand_low_pct
  then begin
    released := !released + Page_alloc.reclaim sys c ~want:32;
    released := !released + Swap.swap_out_idle sys c ~want:16
  end;
  if !released > 0 then Types.bump ~by:!released c Count.released;
  !released

let start (sys : Types.system) (c : Types.cell) =
  ignore
    (Types.spawn_kernel sys c
       ~name:(Printf.sprintf "cell%d.clockhand" c.Types.cell_id)
       (fun () ->
         while Types.cell_alive c do
           Sim.Engine.delay sweep_period_ns;
           if Types.cell_alive c then ignore (sweep sys c)
         done))
