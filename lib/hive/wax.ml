(* Wax: intercell resource-management policy in a user-level process
   (Section 3.2, Table 3.4).

   Wax is a multithreaded user-level spanning process with a thread on
   every cell. It builds a global view of system state through shared
   memory (each cell's thread publishes local statistics into a shared
   word; the coordinator thread reads them all with ordinary loads — no
   careful protocol, because Wax is allowed to die on any cell failure),
   and feeds policy hints back to the kernels: which cells to allocate
   memory from, which cells the VM clock hand should target, and which
   cells should push idle pages to swap.

   Hints are *only* hints. The coordinator never acts on another cell's
   behalf: it deposits each hint where the target cell's kernel (and its
   own Wax thread) can see it, and the target validates the hint against
   its local state before acting. Each kernel sanity-checks everything it
   receives, so a corrupt Wax can hurt performance but not correctness.
   Because Wax uses resources from all cells, it exits whenever any cell
   fails; recovery forks a fresh incarnation that rebuilds its view from
   scratch. *)

module Count = struct
  let deaths =
    Sim.Stats.declare ~name:"wax.deaths" ~unit:"count"
      ~doc:"Wax coordinator threads lost with their cell"
  let incarnations =
    Sim.Stats.declare ~name:"wax.incarnations" ~unit:"count"
      ~doc:"Wax coordinator restarts"
  let rejected_hints =
    Sim.Stats.declare ~name:"wax.rejected_hints" ~unit:"count"
      ~doc:"Wax hints a cell refused as malformed or unsafe"
  let swap_hints_acted =
    Sim.Stats.declare ~name:"wax.swap_hints_acted" ~unit:"count"
      ~doc:"Wax swap hints a cell acted on"
end

type hint =
  | Alloc_preference of Types.cell_id list
  | Clock_hand_targets of Types.cell_id list

(* Kernel-side sanity check before accepting a hint that names cells:
   every id must be a live, distinct cell (dead, duplicate and
   out-of-range ids are all caught by the live-set membership test). *)
let sanity_check_hint (c : Types.cell) hint =
  let (Alloc_preference ids | Clock_hand_targets ids) = hint in
  let ok =
    List.for_all (fun id -> List.mem id c.Types.live_set) ids
    && List.length (List.sort_uniq compare ids) = List.length ids
  in
  if ok then begin
    (match hint with
    | Alloc_preference ids ->
      c.Types.alloc_preference <-
        List.filter (fun id -> id <> c.Types.cell_id) ids
    | Clock_hand_targets ids -> c.Types.clock_hand_targets <- ids);
    true
  end
  else begin
    Types.bump c Count.rejected_hints;
    false
  end

(* Swap hint: the coordinator deposits a want count; the cell's own Wax
   thread picks it up here, checks it against *local* state (a cell that
   is not actually under pressure refuses to swap — a corrupt Wax cannot
   force needless paging, and the want is bounded), and only then runs
   the swap-out on its own processors. *)
let act_on_swap_hint (sys : Types.system) (c : Types.cell) =
  let want = c.Types.swap_hint in
  if want <> 0 then begin
    c.Types.swap_hint <- 0;
    if
      want > 0
      && want <= max Params.wax_swap_want (Page_alloc.total_frames c / 8)
      && Page_alloc.under_pressure c ~pct:Params.wax_pressure_pct
    then begin
      Types.bump c Count.swap_hints_acted;
      ignore (Swap.swap_out_idle sys c ~want)
    end
    else Types.bump c Count.rejected_hints
  end

let publish_local_state (sys : Types.system) (c : Types.cell) =
  (* Free-frame count, written into the shared slot with a plain store. *)
  Kmem.write_i64 sys c.Types.wax_slot (Int64.of_int (Page_alloc.free_count c))

exception Wax_dies

(* The [k] cells with the most free frames, by repeated selection —
   O(cells * k) with k fixed by Params, instead of sorting the whole
   cell list every policy period. *)
let top_k_free states k =
  let rec pick acc n remaining =
    if n = 0 then List.rev acc
    else
      match remaining with
      | [] -> List.rev acc
      | _ ->
        let best =
          List.fold_left
            (fun (bi, bf) (i, f) -> if f > bf then (i, f) else (bi, bf))
            (List.hd remaining) (List.tl remaining)
        in
        pick (fst best :: acc) (n - 1)
          (List.filter (fun (i, _) -> i <> fst best) remaining)
  in
  pick [] k states

(* The coordinator thread's policy pass: read every cell's published
   state (plain loads — a bus error kills Wax) and deposit hints. *)
let policy_pass (sys : Types.system) (home : Types.cell) =
  let states =
    List.map
      (fun id ->
        let c = sys.Types.cells.(id) in
        let v =
          try Kmem.read_i64 sys c.Types.wax_slot
          with Flash.Memory.Bus_error _ -> raise Wax_dies
        in
        (id, Int64.to_int v))
      home.Types.live_set
  in
  (* Page-allocator hint: the cells with the most free memory. *)
  let pref = top_k_free states Params.wax_pref_len in
  (* Clock-hand / swap hint: cells under pressure relative to their own
     size (fewest free frames). *)
  let pressured =
    List.filter
      (fun (id, free) ->
        free
        < Page_alloc.low_water sys.Types.cells.(id)
            ~pct:Params.wax_pressure_pct)
      states
    |> List.map fst
  in
  List.iter
    (fun id ->
      let c = sys.Types.cells.(id) in
      if Types.cell_alive c then begin
        ignore (sanity_check_hint c (Alloc_preference pref));
        ignore (sanity_check_hint c (Clock_hand_targets pressured));
        (* Swapper policy: suggest that cells under memory pressure push
           idle anonymous pages to their swap partition. Deposit only —
           the pressured cell's own thread validates and executes. *)
        if List.mem id pressured then
          c.Types.swap_hint <- Params.wax_swap_want
      end)
    home.Types.live_set

let stop (sys : Types.system) =
  let ts = sys.Types.wax_threads in
  sys.Types.wax_threads <- [];
  List.iter (fun t -> Sim.Engine.kill sys.Types.eng t) ts

(* Fork a Wax incarnation with a thread on every live cell. *)
let start (sys : Types.system) =
  sys.Types.wax_incarnation <- sys.Types.wax_incarnation + 1;
  let inc = sys.Types.wax_incarnation in
  Types.sys_bump sys Count.incarnations;
  let live =
    Array.to_list sys.Types.cells |> List.filter Types.cell_alive
  in
  let coordinator =
    match live with c :: _ -> c.Types.cell_id | [] -> -1
  in
  List.iter
    (fun (c : Types.cell) ->
      let thr =
        Types.spawn_kernel sys c
          ~name:(Printf.sprintf "wax%d.cell%d" inc c.Types.cell_id)
          (fun () ->
            try
              while Types.cell_alive c do
                Sim.Engine.delay Params.wax_period_ns;
                Gate.pass c;
                Sim.Engine.delay Params.wax_scan_cost_ns;
                publish_local_state sys c;
                if c.Types.cell_id = coordinator then policy_pass sys c;
                (* Act on any swap hint deposited for *this* cell, with
                   local validation. *)
                if Types.cell_alive c then act_on_swap_hint sys c
              done
            with
            | Wax_dies | Flash.Memory.Bus_error _ | Panic.Kernel_corruption _ ->
              (* Some cell we depend on failed, or this one panicked: the
                 whole process exits; recovery will fork a fresh
                 incarnation. *)
              Types.sys_bump sys Count.deaths)
      in
      sys.Types.wax_threads <- thr :: sys.Types.wax_threads)
    live

let restart (sys : Types.system) =
  stop sys;
  start sys

let install (sys : Types.system) =
  sys.Types.wax_restart <- Some restart;
  start sys
